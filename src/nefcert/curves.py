"""Genus-2 hyperelliptic curves y^2 = f(x) over finite fields of odd order.

The model is the smooth projective curve with a single point over
x = infinity, which exists exactly when deg f = 5; squarefreeness of f makes
the affine part smooth.  All arithmetic is exact.  A function is
(A + B y) / h with polynomials A, B and one monic denominator h,
gcd(A, B, h) = 1, its one form; valuations, divisors and local expansions
read that denominator as it stands.  Places are represented by irreducible
polynomials plus splitting data, valuations come from closed formulas, and
residues are computed through truncated local expansions with rigorous
precision tracking, over one of two rings (the base field, or F_q[x]/(u)
at a place of higher degree); inert places are never expanded.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional

from .fields import (
    Field,
    Polynomial,
    field,
    is_irreducible,
    poly_factor,
    poly_gcd,
    poly_ord,
    poly_ord_cofactor,
)
from .series import PolyModRing, PrecisionError, rf_series, series_finite, series_infinite

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"
INFINITE = "infinite"

_KIND_RANK = {SPLIT: 0, INERT: 1, RAMIFIED: 2, INFINITE: 3}

# sentinel valuation for the zero component of a function
_INF = 1 << 60

# precision window (exponents) is always finite; expansions carry this much
_PREC_CAP = 1 << 13


class Place:
    """A closed point of the smooth model.

    split: u monic irreducible, f a nonzero square mod u, v the square root
    singling out the point with y = v; two places share each such u.
    inert: f a non-square mod u; one place, residue field quadratic over
    F_q[x]/(u).  ramified: u divides f, the point with y = 0.  infinite:
    the single point over x = infinity.
    """

    __slots__ = ("kind", "u", "v")

    def __init__(self, kind: str, u: Optional[Polynomial] = None, v: Optional[Polynomial] = None):
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown place kind {kind!r}")
        if kind == INFINITE:
            u = v = None
        else:
            if u is None or not u.is_monic():
                raise ValueError("finite place needs a monic polynomial")
            if kind == RAMIFIED:
                v = Polynomial.zero(u.field)
            if kind == SPLIT and v is None:
                raise ValueError("split place needs its square root")
            if kind == INERT:
                v = None
        self.kind = kind
        self.u = u
        self.v = v

    @property
    def degree(self) -> int:
        if self.kind == INFINITE:
            return 1
        if self.kind == INERT:
            return 2 * self.u.degree
        return self.u.degree

    def sort_key(self):
        if self.kind == INFINITE:
            return (_KIND_RANK[self.kind], 1, (), ())
        v = self.v.coeffs if self.v is not None else ()
        return (_KIND_RANK[self.kind], self.degree, self.u.coeffs, v)

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and self.kind == other.kind
            and self.u == other.u
            and self.v == other.v
        )

    def __hash__(self):
        return hash((self.kind, self.u, self.v))

    def __lt__(self, other: "Place"):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        if self.kind == INFINITE:
            return "place[oo]"
        if self.kind == SPLIT:
            return f"place[{self.u}, y={self.v}]"
        return f"place[{self.kind}, {self.u}]"


class Divisor:
    """Formal integer combination of places, canonically ordered."""

    __slots__ = ("items",)

    def __init__(self, data: Iterable = ()):
        acc: dict[Place, int] = {}
        pairs = data.items() if isinstance(data, dict) else data
        for place, m in pairs:
            if m:
                acc[place] = acc.get(place, 0) + m
        self.items = tuple(
            sorted(((pl, m) for pl, m in acc.items() if m), key=lambda it: it[0].sort_key())
        )

    @property
    def degree(self) -> int:
        return sum(m * pl.degree for pl, m in self.items)

    @property
    def support(self) -> tuple:
        return tuple(pl for pl, _ in self.items)

    @property
    def is_zero(self) -> bool:
        return not self.items

    @property
    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.items)

    def mult(self, place: Place) -> int:
        for pl, m in self.items:
            if pl == place:
                return m
        return 0

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(list(self.items) + list(other.items))

    def __neg__(self) -> "Divisor":
        return Divisor([(pl, -m) for pl, m in self.items])

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __mul__(self, n: int) -> "Divisor":
        return Divisor([(pl, n * m) for pl, m in self.items])

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        if not self.items:
            return "div[0]"
        return "div[" + " ".join(f"{m}*{pl!r}" for pl, m in self.items) + "]"


class FunctionElement:
    """The function (A + B y) / h of the function field of a curve.

    A, B and h are polynomials with h monic and gcd(A, B, h) = 1, the one
    form of each function (zero is (0, 0, 1)); the constructor brings any
    triple with h != 0 to it unless told that it already is.  Riemann-Roch
    spaces, valuations, the (2,3) embedding and local expansions all read
    the one denominator h.
    """

    __slots__ = ("curve", "A", "B", "h")

    def __init__(
        self, curve: "Curve", A: Polynomial, B: Polynomial, h: Polynomial, reduce: bool = True
    ):
        if reduce:
            if h.is_zero:
                raise ZeroDivisionError("zero denominator")
            if h.degree > 0:
                g = poly_gcd(A, h)
                if g.degree > 0:
                    g = poly_gcd(B, g)
                    if g.degree > 0:
                        A, B, h = A // g, B // g, h // g
            if not h.is_monic():
                c = h.field.inv(h.lc())
                A, B, h = A.scale(c), B.scale(c), h.scale(c)
        self.curve = curve
        self.A = A
        self.B = B
        self.h = h

    @property
    def is_zero(self) -> bool:
        return self.A.is_zero and self.B.is_zero

    def _check(self, other: "FunctionElement"):
        if self.curve != other.curve:
            raise ValueError("elements of different curves")

    def _plus(self, C: Polynomial, D: Polynomial, k: Polynomial) -> "FunctionElement":
        """self + (C + D y)/k over lcm(h, k).  With coprime denominators
        nothing cancels: modulo a prime factor of h alone the numerators are
        A and B times the unit k, which that factor does not both divide.
        So only a shared factor asks for the reduction."""
        A, B, h = self.A, self.B, self.h
        if h == k:
            return FunctionElement(self.curve, A + C, B + D, h)
        g = poly_gcd(h, k) if h.degree > 0 and k.degree > 0 else None
        if g is None or g.degree == 0:
            return FunctionElement(self.curve, A * k + C * h, B * k + D * h, h * k, reduce=False)
        h0, k0 = h // g, k // g
        return FunctionElement(self.curve, A * k0 + C * h0, B * k0 + D * h0, h * k0)

    def __add__(self, other: "FunctionElement") -> "FunctionElement":
        self._check(other)
        return self._plus(other.A, other.B, other.h)

    def __sub__(self, other: "FunctionElement") -> "FunctionElement":
        self._check(other)
        return self._plus(-other.A, -other.B, other.h)

    def __neg__(self) -> "FunctionElement":
        return FunctionElement(self.curve, -self.A, -self.B, self.h, reduce=False)

    def __mul__(self, other: "FunctionElement") -> "FunctionElement":
        self._check(other)
        A1, B1, A2, B2 = self.A, self.B, other.A, other.B
        return FunctionElement(
            self.curve,
            A1 * A2 + self.curve.f * (B1 * B2),
            A1 * B2 + A2 * B1,
            self.h * other.h,
        )

    def norm_numerator(self) -> Polynomial:
        """A^2 - f B^2: the norm of (A + B y)/h to F_q(x) is this over h^2."""
        return self.A * self.A - self.curve.f * self.B * self.B

    def inverse(self) -> "FunctionElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero function")
        h = self.h
        return FunctionElement(self.curve, h * self.A, -(h * self.B), self.norm_numerator())

    def __truediv__(self, other: "FunctionElement") -> "FunctionElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FunctionElement":
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = self.curve.one()
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def scale(self, c: int) -> "FunctionElement":
        if c == 0:
            return self.curve.zero()
        return FunctionElement(self.curve, self.A.scale(c), self.B.scale(c), self.h, reduce=False)

    def derivative(self) -> "FunctionElement":
        """d/dx along the curve, using dy/dx = f'/(2y) = f' y / (2f):
        (2f (A'h - A h') + ((2f B' + B f') h - 2f B h') y) / (2f h^2)."""
        A, B, h = self.A, self.B, self.h
        f = self.curve.f
        f2 = f.scale(2 % f.field.p)
        dh = h.derivative()
        return FunctionElement(
            self.curve,
            f2 * (A.derivative() * h - A * dh),
            (f2 * B.derivative() + B * f.derivative()) * h - f2 * B * dh,
            f2 * h * h,
        )

    def dx(self) -> "Differential":
        return Differential(self.curve, self)

    def __eq__(self, other):
        return (
            isinstance(other, FunctionElement)
            and self.curve == other.curve
            and self.h == other.h
            and self.A == other.A
            and self.B == other.B
        )

    def __hash__(self):
        return hash((self.curve, self.A, self.B, self.h))

    def __repr__(self):
        return f"fn[({self.A} + ({self.B})*y) / ({self.h})]"


class Differential:
    """Differential w dx on a curve."""

    __slots__ = ("curve", "w")

    def __init__(self, curve: "Curve", w: FunctionElement):
        self.curve = curve
        self.w = w

    @property
    def is_zero(self) -> bool:
        return self.w.is_zero

    def __repr__(self):
        return f"({self.w!r}) dx"


def _retry(job, start: int, cap: int = _PREC_CAP):
    prec = start
    while True:
        try:
            return job(prec)
        except PrecisionError:
            if prec >= cap:
                raise RuntimeError("local expansion precision cap exceeded")
            prec *= 2


@functools.lru_cache(maxsize=512)
def _places_above(curve: "Curve", u: Polynomial) -> tuple:
    """`Curve.places_above`, computed once per (curve, u); a u that is not
    monic irreducible raises, and the error is not cached."""
    if not u.is_monic() or not is_irreducible(u):
        raise ValueError("support must be monic irreducible")
    fbar = curve.f % u
    if fbar.is_zero:
        return (Place(RAMIFIED, u),)
    r = PolyModRing(curve.field, u).sqrt(fbar)
    if r is None:
        return (Place(INERT, u),)
    return tuple(sorted([Place(SPLIT, u, r), Place(SPLIT, u, (-r) % u)]))


@functools.lru_cache(maxsize=16)
def rational_places(curve: "Curve") -> tuple:
    """All degree-1 places, canonically ordered; there are `point_count(1)`
    of them.

    Over x0 the places are read from f(x0): ramified where it is 0, split
    with y = +-sqrt(f(x0)) where it is a nonzero square.
    """
    base = curve.field
    out = [curve.infinite_place()]
    for x0 in range(base.q):
        u = Polynomial(base, (base.neg(x0), 1))
        c = curve.f.eval(x0)
        if c == 0:
            out.append(Place(RAMIFIED, u))
            continue
        r = base.sqrt(c)
        if r is not None:
            out += (Place(SPLIT, u, Polynomial.const(base, v)) for v in (r, base.neg(r)))
    return tuple(sorted(out, key=Place.sort_key))


@functools.lru_cache(maxsize=256)
def _frame_cell(curve: "Curve", place: Place) -> list:
    """[prec, frames]: the highest-precision frames built at the place."""
    return [0, None]


@functools.lru_cache(maxsize=512)
def _frames(curve: "Curve", place: Place, prec: int):
    """(ring, xs, ys): x and y as series in the local parameter at the place.

    Each place is expanded once, at the highest precision asked for so far;
    a smaller request gets the exact truncation of those series, which is
    what an expansion at that precision gives.
    """
    cell = _frame_cell(curve, place)
    if cell[0] < prec:
        ring = curve.residue_ring(place)
        if place.kind == INFINITE:
            frames = series_infinite(ring, curve.f, prec)
        else:
            y0 = ring.embed_poly(place.v % place.u) if place.kind == SPLIT else None
            frames = series_finite(ring, curve.f, place.u, y0, prec)
        cell[:] = prec, frames
    cut = cell[0] - prec
    ring, xs, ys = cell[1]
    return ring, xs.truncate(xs.prec - cut), ys.truncate(ys.prec - cut)


class Curve:
    """y^2 = f(x), f squarefree of degree 5: a genus-2 curve."""

    __slots__ = ("field", "f")

    def __init__(self, base: Field, f):
        if isinstance(f, (tuple, list)):
            f = Polynomial(base, f)
        if f.field is not base:
            raise ValueError("mixed fields")
        if base.p == 2:
            raise ValueError("characteristic two unsupported")
        if f.degree != 5:
            raise ValueError("unsupported degree")
        if poly_gcd(f, f.derivative()).degree != 0:
            raise ValueError("singular model")
        self.field = base
        self.f = f

    @property
    def genus(self) -> int:
        return 2

    def __eq__(self, other):
        return isinstance(other, Curve) and self.field is other.field and self.f == other.f

    def __hash__(self):
        return hash((self.field, self.f))

    def __repr__(self):
        return f"curve[y^2 = {self.f} over F_{self.field.q}]"

    # --- function field elements -------------------------------------------

    def fn(self, a=0, b=0) -> FunctionElement:
        """The element a + b y for codes or polynomials a and b; a fraction
        is made with `/`."""

        def coerce(v) -> Polynomial:
            return v if isinstance(v, Polynomial) else Polynomial.const(self.field, v)

        return FunctionElement(self, coerce(a), coerce(b), Polynomial.one(self.field), reduce=False)

    def zero(self) -> FunctionElement:
        return self.fn(0)

    def one(self) -> FunctionElement:
        return self.fn(1)

    def x(self) -> FunctionElement:
        return self.fn(Polynomial.x(self.field))

    def y(self) -> FunctionElement:
        return self.fn(0, 1)

    # --- places --------------------------------------------------------------

    def infinite_place(self) -> Place:
        return Place(INFINITE)

    def residue_ring(self, place: Place):
        """Coefficient ring of local expansions at the place.

        The only code that chooses a ring: the curve's field itself at
        places of degree 1 and at infinity, and F_q[x]/(u) for split and
        ramified places of higher degree.  The series constructors take the
        ring from here.  Nothing is expanded at an inert place: beta's tail
        places (the support of N, infinity, the zeros of F_s, the ramified
        places) are never inert, and `frobenius_h1` expands at rational
        places and at infinity only."""
        if place.kind == INERT:
            raise ValueError("no local expansion at an inert place")
        if place.kind != INFINITE and place.u.degree > 1:
            return PolyModRing(self.field, place.u)
        return self.field

    def places_above(self, u: Polynomial) -> list[Place]:
        """The places over the monic irreducible u, canonically ordered."""
        return list(_places_above(self, u))

    def places_over(self, h: Polynomial) -> list[Place]:
        """All places over irreducible factors of h, canonically ordered."""
        out = []
        for g, _ in poly_factor(h):
            out.extend(self.places_above(g))
        return sorted(out)

    def finite_ramified_places(self) -> list[Place]:
        return sorted(Place(RAMIFIED, g) for g, _ in poly_factor(self.f))

    def canonical_divisor(self) -> Divisor:
        """div(dx/y) = 2 * (place at infinity)."""
        return Divisor([(self.infinite_place(), 2)])

    # --- valuations and divisors ----------------------------------------------

    def valuation(self, phi: FunctionElement, place: Place) -> int:
        """Order of phi = (A + B y) / h at the place.

        Off split places A/h and B y/h have orders of different parity or
        leading terms independent over the residue field, so phi has the
        smaller.  At a split place (y = v mod u, a unit) orders oa != ob of
        A/h and B/h give min(oa, ob).  For one order, A = u^s A0 and
        B = u^s B0 with A0, B0 prime to u, and the order is oa if
        A0 + B0 v != 0 mod u, and otherwise oa + ord_u(A0^2 - f B0^2): that
        norm is (A0 - B0 v)(A0 + B0 v) mod u, and the factors cannot both
        vanish (their sum 2 A0 is prime to u), so the conjugate place takes
        none of its order.
        """
        if phi.is_zero:
            raise ValueError("valuation of the zero function")
        A, B, h = phi.A, phi.B, phi.h
        if place.kind == INFINITE:
            va = _INF if A.is_zero else -2 * (A.degree - h.degree)
            vb = _INF if B.is_zero else -5 - 2 * (B.degree - h.degree)
            return min(va, vb)
        u = place.u
        eh = poly_ord(h, u) if h.degree > 0 else 0
        oa, A0 = poly_ord_cofactor(A, u) if not A.is_zero else (_INF, None)
        ob, B0 = poly_ord_cofactor(B, u) if not B.is_zero else (_INF, None)
        if place.kind == RAMIFIED:
            return min(2 * oa, 1 + 2 * ob) - 2 * eh
        if place.kind == INERT or oa != ob:
            return min(oa, ob) - eh
        if not ((A0 + B0 * place.v) % u).is_zero:
            return oa - eh
        return oa - eh + poly_ord(A0 * A0 - self.f * B0 * B0, u)

    def divisor(self, phi: FunctionElement) -> Divisor:
        """Principal divisor of a nonzero function."""
        if phi.is_zero:
            raise ValueError("divisor of the zero function")
        # poles lie over h, and zeros over h or the norm's numerator; the
        # factors of h are divided out of it before it is factored
        cand: set[Polynomial] = set()
        norm = phi.norm_numerator()
        if phi.h.degree > 0:
            for g, _ in poly_factor(phi.h):
                cand.add(g)
                norm = poly_ord_cofactor(norm, g)[1]
        if norm.degree > 0:
            cand.update(g for g, _ in poly_factor(norm))
        items = []
        for u in sorted(cand, key=lambda g: (g.degree, g.coeffs)):
            for pl in self.places_above(u):
                m = self.valuation(phi, pl)
                if m:
                    items.append((pl, m))
        m = self.valuation(phi, self.infinite_place())
        if m:
            items.append((self.infinite_place(), m))
        div = Divisor(items)
        if div.degree != 0:
            raise RuntimeError("principal divisor must have degree zero")
        return div

    def has_divisor(self, phi: FunctionElement, E: Divisor) -> bool:
        """Whether div(phi) = E, for E supported on places of the curve.

        Only the places of E, those over the denominator h, and infinity are
        checked, and no norm is factored: off them phi has no
        pole, so div(phi) - E >= 0 there, and with equality on them
        div(phi) - E is effective of degree 0, hence zero.
        """
        if phi.is_zero or E.degree != 0:
            return False
        mult = dict(E.items)
        places = set(mult)
        places.add(self.infinite_place())
        if phi.h.degree > 0:
            places.update(self.places_over(phi.h))
        return all(self.valuation(phi, pl) == mult.get(pl, 0) for pl in places)

    # --- point counting --------------------------------------------------------

    def point_count(self, m: int = 1) -> int:
        """Number of points of the smooth model over the degree-m extension.
        For m > 1, f must be defined over F_p, whose codes name the same
        elements in every extension."""
        q = self.field.q
        if q**m > 10**7:
            raise ValueError("field too large")
        ext = self.field if m == 1 else field(self.field.p, self.field.k * m)
        f = Polynomial(ext, self.f.coeffs)
        n = 1
        for a in range(ext.q):
            ls = ext.legendre(f.eval(a))
            if ls == 1:
                n += 2
            elif ls == 0:
                n += 1
        return n

    # --- local expansions ------------------------------------------------------

    def expand(self, phi: FunctionElement, place: Place, prec: int):
        """(ring, series of phi) in the local parameter at the place."""
        ring, xs, ys = _frames(self, place, prec)
        return ring, rf_series(ring, phi.A, phi.B, phi.h, xs, ys)

    def expand_differential(self, omega: Differential, place: Place, prec: int):
        """(ring, series of w dx/dt) in the local parameter at the place."""
        ring, xs, ys = _frames(self, place, prec)
        _, ser = self.expand(omega.w, place, prec)
        return ring, ser * xs.derivative()

    def residue(self, omega: Differential, place: Place, num: tuple = (), den: tuple = ()) -> int:
        """res of omega * prod(num) / prod(den) at the place, as an element
        of the base field.

        The factors, nonzero function elements, are expanded at the place
        and multiplied as series, so their product is never formed.
        """
        if omega.is_zero:
            return 0

        def job(prec):
            ring, ser = self.expand_differential(omega, place, prec)
            for phi in num:
                ser = ser * self.expand(phi, place, prec)[1]
            for phi in den:
                ser = ser / self.expand(phi, place, prec)[1]
            return ring.trace(ser.coeff_at(-1))

        # Start low: residues need few terms, and a series too short for the
        # t^-1 coefficient raises PrecisionError, so the precision doubles
        # instead of a wrong residue being read.
        return _retry(job, start=4)

    def differential_window(self, omega: Differential, place: Place, lo: int, hi: int):
        """(ring, coefficients of omega/dt on exponents [lo, hi))."""

        def job(prec):
            ring, ser = self.expand_differential(omega, place, prec)
            return ring, ser.window(lo, hi)

        return _retry(job, start=max(16, hi + 8))
