"""Truncated Laurent series over small residue rings.

Local computations at a place of a hyperelliptic curve happen in the
completed local ring, which is a power series ring over the residue field.
The residue field is either the base field itself or a quotient
kappa = F_q[x]/(u).  The two share one element interface (zero, one, embed,
add, mul, inv, trace, series_mul, ...), so one series engine serves both: a
`Field` is its own ring, and `PolyModRing` holds the arithmetic of kappa,
square roots included (their non-residue scan numbers polynomials by
`fields.to_digits`).  Inert places, whose residue field is quadratic
over kappa, are never expanded.
`Curve.residue_ring` is the only code that chooses the ring of a place.
Products of series run on the field's code kernel: over the base field
as one `Field.poly_mul`, and over F_q[x]/(u) as one `Field.poly_mul` of
Kronecker-packed codes.
`rf_series` gives the series of a function (A + B y) / h along the frames
of a place, with one inversion, that of the series of h.
Both frame builders, `series_finite` at every finite place and
`series_infinite` at the place over infinity, solve for x along the local
parameter by one `_newton` iteration whose step evaluates polynomials with
`poly_series`; each step doubles the precision, and one more step at the
target must be a fixed point.

Precision is tracked rigorously: a series knows the exponent range on which
its coefficients are exact, operations propagate that range pessimistically,
and queries outside it raise PrecisionError so callers can retry with more
terms instead of silently using garbage.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .fields import Field, Polynomial, poly_xgcd, to_digits, tonelli_shanks


class PrecisionError(Exception):
    """A series does not carry enough terms to answer the query."""


class PolyModRing:
    """Coefficients in kappa = F_q[x]/(u), u monic irreducible, stored as
    reduced polynomials: the arithmetic of kappa itself.  inv, pow, trace
    and sqrt take any polynomial and reduce it mod u."""

    __slots__ = ("field", "u")

    def __init__(self, field: Field, u: Polynomial):
        self.field = field
        self.u = u

    def __eq__(self, other):
        return type(other) is PolyModRing and other.u == self.u

    def __hash__(self):
        return hash(("polymod", self.u))

    def __repr__(self):
        return f"PolyModRing({self.u})"

    @property
    def zero(self):
        return Polynomial.zero(self.field)

    @property
    def one(self):
        return Polynomial.one(self.field)

    def embed(self, code: int):
        return Polynomial.const(self.field, code)

    def embed_int(self, n: int):
        return Polynomial.const(self.field, n % self.field.p)

    def embed_poly(self, a: Polynomial):
        return a

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return (a * b) % self.u

    def inv(self, a):
        g, s, _ = poly_xgcd(a % self.u, self.u)
        if g.degree != 0:
            raise ZeroDivisionError("not invertible modulo u")
        return s % self.u

    def pow(self, a, e: int):
        if e < 0:
            return self.inv(a).pow_mod(-e, self.u)
        return a.pow_mod(e, self.u)

    def trace(self, a) -> int:
        """Trace from kappa down to F_q, as a field code."""
        u, q = self.u, self.field.q
        acc, b = self.zero, a % u
        for _ in range(u.degree):
            acc = acc + b
            b = b.pow_mod(q, u)
        return acc[0]  # a sum over a Frobenius orbit lies in F_q

    def sqrt(self, a) -> Polynomial | None:
        """The canonical square root of a in kappa, or None for non-squares:
        of the two roots, the one with the smaller reversed coefficients."""
        F, u = self.field, self.u
        a = a % u
        if a.is_zero:
            return a
        if u.degree == 1:  # kappa is F_q itself
            r = F.sqrt(a[0])
            return None if r is None else Polynomial(F, (r,))
        Q, one = F.q**u.degree, self.one

        def is_sq(b: Polynomial) -> bool:
            return self.pow(b, (Q - 1) // 2) == one

        def nonresidue():
            # by code; for even deg(u) every constant is a square in kappa
            for code in range(F.q if u.degree % 2 == 0 else 1, Q):
                z = Polynomial(F, to_digits(code, F.q, u.degree))
                if not is_sq(z):
                    return z

        if not is_sq(a):
            return None
        r = tonelli_shanks(a, Q, one, self.mul, self.pow, nonresidue)
        return min(r, (-r) % u, key=lambda w: w.coeffs[::-1])

    def is_zero(self, a) -> bool:
        return a.is_zero

    def series_mul(self, a: list, b: list, n: int) -> list:
        """The first n coefficients of the product, as one code product by
        Kronecker substitution: coefficient i fills block i of width
        2 deg u - 1, which holds any product of two of them, so block k of
        the code product is coefficient k before reduction mod u."""
        F, u = self.field, self.u.coeffs
        w = 2 * len(u) - 3

        def pack(cs):
            out = [0] * (w * len(cs))
            for i, c in enumerate(cs):
                out[w * i : w * i + len(c.coeffs)] = c.coeffs
            return out

        prod = F.poly_mul(pack(a), pack(b))
        out = []
        for k in range(0, min(w * n, len(prod)), w):
            block = prod[k : k + w]
            if len(block) >= len(u):
                block = F.poly_divmod(block, u)[1]
            out.append(Polynomial(F, block))
        return out


class TruncSeries:
    """Sum of c_i t^i over offset <= i < prec, coefficients in a ring adapter.

    Storage is dense on [offset, prec).  Invariants: coefficients below
    offset are exactly zero, coeffs[0] is nonzero unless the series is zero
    to its precision (then coeffs == [] and offset == prec).
    """

    __slots__ = ("ring", "offset", "coeffs", "prec")

    def __init__(self, ring, offset: int, coeffs: list, prec: int):
        self.ring = ring
        self.offset = offset
        self.coeffs = coeffs
        self.prec = prec

    @staticmethod
    def make(ring, offset: int, coeffs: Sequence, prec: int) -> "TruncSeries":
        zero = ring.zero
        cs = list(coeffs)
        i = 0
        while i < len(cs) and cs[i] == zero:
            i += 1
        offset += i
        cs = cs[i:]
        if offset >= prec or not cs:
            return TruncSeries(ring, prec, [], prec)
        n = prec - offset
        if len(cs) < n:
            cs = cs + [zero] * (n - len(cs))
        else:
            cs = cs[:n]
        return TruncSeries(ring, offset, cs, prec)

    @staticmethod
    def zero_to(ring, prec: int) -> "TruncSeries":
        return TruncSeries(ring, prec, [], prec)

    @staticmethod
    def const(ring, elem, prec: int) -> "TruncSeries":
        return TruncSeries.make(ring, 0, [elem], prec)

    @staticmethod
    def t_power(ring, k: int, prec: int) -> "TruncSeries":
        return TruncSeries.make(ring, k, [ring.one], prec)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.ring == other.ring
            and self.offset == other.offset
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        terms = ", ".join(
            f"t^{self.offset + i}:{c}" for i, c in enumerate(self.coeffs) if c != self.ring.zero
        )
        return f"series[{terms} + O(t^{self.prec})]"

    def coeff_at(self, e: int):
        """Exact coefficient of t^e; PrecisionError past the known range."""
        if e >= self.prec:
            raise PrecisionError(f"coefficient of t^{e} beyond precision {self.prec}")
        if e < self.offset:
            return self.ring.zero
        return self.coeffs[e - self.offset]

    def window(self, lo: int, hi: int) -> list:
        """Coefficients [lo, hi) as a list; PrecisionError if hi > prec."""
        if hi > self.prec:
            raise PrecisionError(f"window up to t^{hi} beyond precision {self.prec}")
        return [self.coeff_at(e) for e in range(lo, hi)]

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        ring = self.ring
        prec = min(self.prec, other.prec)
        off = min(self.offset, other.offset, prec)
        n = prec - off
        out = [ring.zero] * n
        i = self.offset - off
        head = self.coeffs[: max(n - i, 0)]
        out[i : i + len(head)] = head
        j = other.offset - off
        for k, c in enumerate(other.coeffs[: max(n - j, 0)], j):
            if not ring.is_zero(c):
                out[k] = ring.add(out[k], c)
        return TruncSeries.make(ring, off, out, prec)

    def __neg__(self) -> "TruncSeries":
        ring = self.ring
        return TruncSeries(ring, self.offset, [ring.neg(c) for c in self.coeffs], self.prec)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        ring = self.ring
        off = self.offset + other.offset
        prec = min(self.prec + other.offset, other.prec + self.offset)
        n = prec - off
        if n <= 0:
            return TruncSeries.zero_to(ring, prec)
        a, b = _trimmed(ring, self.coeffs, n), _trimmed(ring, other.coeffs, n)
        if not a or not b:
            return TruncSeries.zero_to(ring, prec)
        return TruncSeries.make(ring, off, ring.series_mul(a, b, n), prec)

    def scale(self, elem) -> "TruncSeries":
        ring = self.ring
        if elem == ring.zero:
            return TruncSeries.zero_to(ring, self.prec)
        return TruncSeries(
            ring, self.offset, [ring.mul(elem, c) for c in self.coeffs], self.prec
        )

    def invert(self) -> "TruncSeries":
        ring = self.ring
        if not self.coeffs:
            raise PrecisionError("series vanishes to working precision, cannot invert")
        v = self.offset
        n = self.prec - v
        a = self.coeffs
        a0i = ring.inv(a[0])
        out = [ring.zero] * n
        out[0] = a0i
        for j in range(1, n):
            acc = ring.zero
            for i in range(1, min(j, len(a) - 1) + 1):
                acc = ring.add(acc, ring.mul(a[i], out[j - i]))
            out[j] = ring.neg(ring.mul(a0i, acc))
        return TruncSeries.make(ring, -v, out, self.prec - 2 * v)

    def __truediv__(self, other: "TruncSeries") -> "TruncSeries":
        return self * other.invert()

    def shift(self, k: int) -> "TruncSeries":
        return TruncSeries(self.ring, self.offset + k, list(self.coeffs), self.prec + k)

    def truncate(self, prec: int) -> "TruncSeries":
        if prec >= self.prec:
            return self
        return TruncSeries.make(self.ring, self.offset, self.coeffs, prec)

    def derivative(self) -> "TruncSeries":
        """Formal d/dt."""
        ring = self.ring
        out = []
        for i, c in enumerate(self.coeffs):
            e = self.offset + i
            out.append(ring.mul(ring.embed_int(e), c))
        return TruncSeries.make(ring, self.offset - 1, out, self.prec - 1)


def _trimmed(ring, coeffs: list, n: int) -> list:
    """The first n coefficients without their trailing zeros."""
    end = min(n, len(coeffs))
    while end and ring.is_zero(coeffs[end - 1]):
        end -= 1
    return coeffs[:end]


def poly_series(ring, f: Polynomial, xs: TruncSeries) -> TruncSeries:
    """Series of f evaluated along xs, by Horner from the exact leading
    coefficient; along a pole of xs the result keeps its relative precision.
    Where xs has no pole, Horner runs on coefficient lists."""
    if f.is_zero:
        return TruncSeries.zero_to(ring, xs.prec)
    cs = f.coeffs
    if xs.offset >= 0:
        n = xs.prec
        x = _trimmed(ring, [ring.zero] * xs.offset + xs.coeffs, n)
        acc = [ring.embed(cs[-1])]
        for c in reversed(cs[:-1]):
            acc = ring.series_mul(acc, x, n) if x else [ring.zero]
            acc[0] = ring.add(acc[0], ring.embed(c))
        return TruncSeries.make(ring, 0, acc, n)
    acc = TruncSeries.const(ring, ring.embed(cs[-1]), xs.prec - min(xs.offset, 0))
    for c in reversed(cs[:-1]):
        acc = acc * xs + TruncSeries.const(ring, ring.embed(c), acc.prec)
    return acc


def rf_series(
    ring, A: Polynomial, B: Polynomial, h: Polynomial, xs: TruncSeries, ys: TruncSeries
) -> TruncSeries:
    """Series of the function (A + B y) / h, h monic, along the frames xs
    and ys of a place: one `poly_series` per nonzero numerator part, and
    one for h, whose series is inverted once."""
    if A.is_zero and B.is_zero:
        return TruncSeries.zero_to(ring, 1 << 40)
    if B.is_zero:
        num = poly_series(ring, A, xs)
    else:
        num = poly_series(ring, B, xs) * ys
        if not A.is_zero:
            num = poly_series(ring, A, xs) + num
    if h.degree == 0:
        return num
    return num / poly_series(ring, h, xs)


def _newton(x0: TruncSeries, step: Callable[[TruncSeries], TruncSeries], prec: int) -> TruncSeries:
    """Fixed point of step to precision prec, from x0 exact to precision 1.

    The step at a simple root doubles the number of exact terms, so each
    step runs at twice the precision of the last (Brent-Kung) until prec is
    reached.  Then full-precision steps run until one is a fixed point,
    which is the stopping guarantee; one suffices when the root is simple.
    """
    x, p = x0, 1
    while p < prec:
        p = min(2 * p, prec)
        x = step(TruncSeries.make(x.ring, x.offset, x.coeffs, p)).truncate(p)
    for _ in range(64):
        x2 = step(x).truncate(prec)
        if x2 == x:
            return x
        x = x2
    raise RuntimeError("newton iteration did not stabilize")


def _sqrt_series(ring, fs: TruncSeries, y0) -> TruncSeries:
    """Square root of fs with constant term y0 (a unit with y0^2 = fs(0))."""
    half = TruncSeries.const(ring, ring.inv(ring.embed_int(2)), fs.prec)

    def step(y: TruncSeries) -> TruncSeries:
        return (y + fs * y.invert()) * half

    return _newton(TruncSeries.const(ring, y0, 1), step, fs.prec)


def series_finite(ring, f: Polynomial, u: Polynomial, y0, prec: int):
    """Local frames (ring, xs, ys) at a finite place over u.

    y0 is the residue of y at the place, or None at the ramified place.
    Otherwise the local parameter is u(x): xs solves u(xs) = t and ys is
    the square root of f(xs) with constant term y0.  At the ramified place
    the parameter is y itself: xs solves f(xs) = t^2 and ys = t.
    """
    g, e = (f, 2) if y0 is None else (u, 1)
    te = TruncSeries.t_power(ring, e, prec)
    dg = g.derivative()

    def step(x: TruncSeries) -> TruncSeries:
        return x - (poly_series(ring, g, x) - te) * poly_series(ring, dg, x).invert()

    x0 = ring.embed_poly(Polynomial.x(f.field) % u)
    xs = _newton(TruncSeries.const(ring, x0, 1), step, prec)
    if y0 is None:
        ys = TruncSeries.t_power(ring, 1, prec)
    else:
        ys = _sqrt_series(ring, poly_series(ring, f, xs), y0)
    return ring, xs, ys


def series_infinite(ring, f: Polynomial, prec: int):
    """Local frames at the place over x = infinity for y^2 = f, deg f = 5.

    With local parameter t = x^2/y one has x = s t^-2 and y = s^2 t^-5 where
    s is the unit series solving G(s) = s^4 - t^10 f(s t^-2) = 0.  Newton
    takes s - G(s)/G'(s) with G'(s) = 4 s^3 - t^8 f'(s t^-2), both evaluated
    by `poly_series` along s t^-2.
    """
    four, df = ring.embed_int(4), f.derivative()

    def step(s: TruncSeries) -> TruncSeries:
        xs = s.shift(-2)
        s2 = s * s
        g = s2 * s2 - poly_series(ring, f, xs).shift(10)
        dg = (s2 * s).scale(four) - poly_series(ring, df, xs).shift(8)
        return s - g * dg.invert()

    s = _newton(TruncSeries.const(ring, ring.inv(f[5]), 1), step, prec)
    return ring, s.shift(-2), (s * s).shift(-5)
