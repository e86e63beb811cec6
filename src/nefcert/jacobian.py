"""Jacobian arithmetic for the genus-2 curves, in Mumford coordinates.

A degree-zero class is represented by a reduced pair (u, v): u monic of
degree at most 2, deg v < deg u, and u dividing f - v^2.  The group law
works on coefficient codes through the field's polynomial kernels: a closed
form composes coprime u's, or doubles a class, and reduces in one step
(`_sum_codes`).  Pairs whose u's share a root without being equal or
opposite, and doublings where 2 v vanishes at a root of u, take Cantor's
general composition and reduction, which also serve the tests as the
oracle.  Sums and negations are built without re-validation; pairs read
from outside (`MumfordClass(...)`, `from_point`, `random_class`) are
checked.  Global invariants (order of the group, characteristic polynomial
of Frobenius, order over extensions) come from point counts over the base
field and its quadratic extension.
"""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

from . import linalg
from .curves import Curve, Divisor, INERT, INFINITE, RAMIFIED, SPLIT
from .fields import Polynomial, _factor_int, field, poly_factor, poly_xgcd


class MumfordClass:
    """Reduced Mumford pair (u, v) on a fixed curve."""

    __slots__ = ("curve", "u", "v")

    def __init__(self, curve: Curve, u: Polynomial, v: Polynomial):
        v = v % u if u.degree > 0 else Polynomial.zero(curve.field)
        if not u.is_monic() or u.degree > curve.genus:
            raise ValueError("not a reduced pair")
        if not ((curve.f - v * v) % u).is_zero:
            raise ValueError("pair does not lie on the curve")
        self.curve = curve
        self.u = u
        self.v = v

    @classmethod
    def _reduced(cls, curve: Curve, u: Polynomial, v: Polynomial) -> "MumfordClass":
        """A pair already known to be reduced, such as a result of the group
        law: the slots are filled without the checks of the constructor."""
        out = object.__new__(cls)
        out.curve = curve
        out.u = u
        out.v = v
        return out

    @classmethod
    def zero(cls, curve: Curve) -> "MumfordClass":
        return cls._reduced(curve, Polynomial.one(curve.field), Polynomial.zero(curve.field))

    @classmethod
    def from_point(cls, curve: Curve, x0: int, y0: int) -> "MumfordClass":
        """Class of (x0, y0) minus the infinite place."""
        F = curve.field
        u = Polynomial(F, (F.neg(x0), 1))
        v = Polynomial.const(F, y0)
        return cls(curve, u, v)

    @property
    def is_zero(self) -> bool:
        return self.u.degree == 0

    def __eq__(self, other):
        return (
            isinstance(other, MumfordClass)
            and self.curve == other.curve
            and self.u == other.u
            and self.v == other.v
        )

    def __hash__(self):
        return hash((self.curve, self.u, self.v))

    def __repr__(self):
        return f"jac[u={self.u}, v={self.v}]"

    def __neg__(self) -> "MumfordClass":
        # deg v < deg u, so -v is already reduced
        return MumfordClass._reduced(self.curve, self.u, -self.v)

    def __add__(self, other: "MumfordClass") -> "MumfordClass":
        curve = self.curve
        if curve is not other.curve and curve != other.curve:
            raise ValueError("classes on different curves")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        F = curve.field
        uv = _sum_codes(
            F, curve.f.coeffs, self.u.coeffs, self.v.coeffs, other.u.coeffs, other.v.coeffs
        )
        if uv is None:
            u, v = _cantor_compose(curve.f, (self.u, self.v), (other.u, other.v))
            u, v = _cantor_reduce(curve.f, u, v)
        else:
            u, v = Polynomial(F, uv[0]), Polynomial(F, uv[1])
        return MumfordClass._reduced(curve, u, v)

    def __sub__(self, other: "MumfordClass") -> "MumfordClass":
        return self + (-other)

    def __mul__(self, n: int) -> "MumfordClass":
        if n < 0:
            return (-self) * (-n)
        out = MumfordClass.zero(self.curve)
        base = self
        while n:
            if n & 1:
                out = out + base
            n >>= 1
            if n:
                base = base + base
        return out

    __rmul__ = __mul__


# --- the group law on coefficient codes ----------------------------------------
#
# Lists hold coefficient codes low-to-high and may carry zeros at the top (the
# Polynomial built from a result drops them); the u's are monic of degree 1 or
# 2, and deg v < deg u.


def _sum_codes(F, f, u1, v1, u2, v2):
    """(u, v) codes of the reduced sum of two nonzero reduced pairs, or None
    where the closed form does not apply and Cantor's general steps must.

    With u1, u2 coprime the composition is (u1 u2, l) for l = v1 + s u1 and
    s = (v2 - v1) / u1 mod u2, so that l = v2 mod u2.  Doubling takes
    s = ((f - v^2) / u) / (2 v) mod u and l = v + s u, the tangent that meets
    the curve twice at each point of u.  A composition of degree 3 or 4 is
    reduced in one step, u3 = monic((f - l^2) / (u1 u2)) and v3 = -l mod u3:
    deg l < deg(u1 u2) and deg(f - l^2) is 5 or 6, so deg u3 is 1 or 2.
    None is returned when u1 and u2 share a root and the pairs are neither
    equal nor opposite, or when 2 v vanishes at a root of u.
    """
    if u1 == u2:
        if len(v1) == len(v2) and all(F.add(a, b) == 0 for a, b in zip(v1, v2)):
            return (1,), ()  # P + (-P)
        if v1 != v2:
            return None
        w = _inv_mod(F, [F.add(c, c) for c in v1], u1)
        if w is None:
            return None
        k, _ = F.poly_divmod(_sub(F, f, _mul(F, v1, v1)), u1)
        s = _rem(F, _mul(F, k, w), u1)
        uu = F.poly_mul(u1, u1)
    else:
        w = _inv_mod(F, _rem(F, u1, u2), u2)
        if w is None:
            return None
        s = _rem(F, _mul(F, _sub(F, v2, v1), w), u2)
        uu = F.poly_mul(u1, u2)
    l = _add(F, v1, _mul(F, s, u1))
    if len(uu) == 3:
        return uu, l
    u3, _ = F.poly_divmod(_sub(F, f, _mul(F, l, l)), uu)
    while not u3[-1]:
        u3.pop()
    lc = F.inv(u3[-1])
    u3 = [F.mul(c, lc) for c in u3]
    return u3, [F.neg(c) for c in _rem(F, l, u3)]


def _inv_mod(F, w, u):
    """Inverse of w mod the monic u of degree 1 or 2, or None when w and u
    share a root.  For u = x^2 + c1 x + c0 the inverse of a x + b is
    (-a x + b - a c1) / r with r = b^2 - a b c1 + a^2 c0."""
    b = w[0]
    if len(u) == 2:
        return [F.inv(b)] if b else None
    a = w[1] if len(w) > 1 else 0
    c0, c1 = u[0], u[1]
    mul, sub = F.mul, F.sub
    r = F.add(sub(mul(b, b), mul(mul(a, b), c1)), mul(mul(a, a), c0))
    if not r:
        return None
    ri = F.inv(r)
    return [mul(sub(b, mul(a, c1)), ri), F.neg(mul(a, ri))]


def _mul(F, a, b):
    return F.poly_mul(a, b) if a and b else []


def _rem(F, a, u):
    return F.poly_divmod(a, u)[1] if len(a) >= len(u) else list(a)


def _add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add(out[i], c)
    return out


def _sub(F, a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = F.sub(out[i], c)
    return out


def _cantor_compose(f: Polynomial, c1, c2):
    u1, v1 = c1
    u2, v2 = c2
    d1, e1, e2 = poly_xgcd(u1, u2)
    d, c1_, c2_ = poly_xgcd(d1, v1 + v2)
    u3 = (u1 * u2) // (d * d)
    num = c1_ * (e1 * u1 * v2 + e2 * u2 * v1) + c2_ * (v1 * v2 + f)
    q, r = divmod(num, d)
    assert r.is_zero, "cantor composition is exact"
    v3 = q % u3
    return u3, v3


def _cantor_reduce(f: Polynomial, u: Polynomial, v: Polynomial):
    g = 2
    while u.degree > g:
        u2 = (f - v * v) // u
        u2 = u2.monic()
        v = (-v) % u2
        u = u2
    u = u.monic()
    return u, v % u if u.degree else Polynomial.zero(f.field)


# --- global invariants ---------------------------------------------------------


class FrobeniusData(NamedTuple):
    """Zeta data of a genus-2 curve: counts, trace terms and group order."""

    q: int
    n1: int
    n2: int
    a1: int
    a2: int
    order: int

    @property
    def charpoly(self) -> tuple[int, int, int, int, int]:
        """T^4 - a1 T^3 + a2 T^2 - q a1 T + q^2, low degree first."""
        return (self.q**2, -self.q * self.a1, self.a2, -self.a1, 1)


@functools.lru_cache(maxsize=None)
def frobenius_data(curve: Curve) -> FrobeniusData:
    q = curve.field.q
    p, k = curve.field.p, curve.field.k
    if k > 1 and all(c < p for c in curve.f.coeffs):
        # base change of a prime-field model: power the eigenvalues exactly
        # instead of counting points over huge extensions
        t1, t2 = _power_traces(frobenius_data(Curve(field(p), curve.f.coeffs)), k)
    else:
        if q * q > 10**7:
            raise ValueError("field too large")
        t1 = q + 1 - curve.point_count(1)
        t2 = q * q + 1 - curve.point_count(2)
    return _zeta_data(q, t1, t2)


def _zeta_data(q: int, t1: int, t2: int) -> FrobeniusData:
    """Zeta data over F_q from the Frobenius traces t1 = tr A, t2 = tr A^2."""
    assert (t1 * t1 - t2) % 2 == 0
    a2 = (t1 * t1 - t2) // 2
    assert t1 * t1 <= 16 * q, "trace violates the Weil bound"
    assert abs(a2) <= 6 * q, "second trace term violates the Weil bound"
    # the group order is P(1) = det(I - A) for the characteristic polynomial
    # P(T) = T^4 - t1 T^3 + a2 T^2 - q t1 T + q^2
    order = 1 + q * q - t1 * (1 + q) + a2
    assert order > 0
    return FrobeniusData(q=q, n1=q + 1 - t1, n2=q * q + 1 - t2, a1=t1, a2=a2, order=order)


def _power_traces(data: FrobeniusData, m: int) -> tuple[int, int]:
    """(tr A^m, tr A^2m) for the Frobenius A of the zeta data.

    The traces are the power sums s_k of the roots of the characteristic
    polynomial, by Newton's identities: s_k = sum_i c_i s_(k-i) over
    i = 1..min(k, 4), with k in place of s_0, where T^4 - sum_i c_i T^(4-i)
    is the characteristic polynomial.
    """
    c = (data.a1, -data.a2, data.q * data.a1, -data.q * data.q)
    s = [0]
    for k in range(1, 2 * m + 1):
        s.append(sum(c[i] * (s[k - 1 - i] if i < k - 1 else k) for i in range(min(k, 4))))
    return s[m], s[2 * m]


def jac_order(curve: Curve) -> int:
    return frobenius_data(curve).order


def jac_order_ext(curve: Curve, m: int) -> int:
    """Order of the group over the degree-m extension, from the zeta data."""
    data = frobenius_data(curve)
    return _zeta_data(data.q**m, *_power_traces(data, m)).order


def is_ordinary(curve: Curve) -> bool:
    """Ordinary means the unit-root part of Frobenius has full rank 2,
    equivalently p does not divide the middle trace term."""
    data = frobenius_data(curve)
    return data.a2 % curve.field.p != 0


def p_torsion_field_degree(curve: Curve) -> int:
    """Least m with p-torsion rational over the degree-m extension.

    Works in the 2x2 companion of the unit-root factor T^2 - a1 T + a2 of
    the characteristic polynomial mod p; the connected part contributes
    nothing.  Requires an ordinary curve.
    """
    p = curve.field.p
    data = frobenius_data(curve)
    if data.a2 % p == 0:
        raise ValueError("expected ordinary")
    F = field(p)
    M = [[0, -data.a2 % p], [1, data.a1 % p]]
    A = M
    for m in range(1, p * p):
        # 1 is an eigenvalue of A = M^m: A - I is singular
        (a, b), (c, d) = A
        if linalg.rank(F, [[F.sub(a, 1), b], [c, F.sub(d, 1)]]) < 2:
            return m
        A = linalg.mat_mul(F, A, M)
    raise AssertionError("unit-root eigenvalues must have order dividing p^2 - 1")


# --- sampling and torsion ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def affine_points(curve: Curve) -> tuple[tuple[int, int], ...]:
    """All affine points (x0, y0), canonically ordered."""
    F = curve.field
    pts = []
    for x0 in range(F.q):
        y2 = curve.f.eval(x0)
        r = F.sqrt(y2)
        if r is None:
            continue
        if r == 0:
            pts.append((x0, 0))
        else:
            pts.append((x0, r))
            pts.append((x0, F.neg(r)))
    return tuple(sorted(pts))


def random_class(curve: Curve, rng: random.Random) -> MumfordClass:
    """A random group element, by rejection sampling over reduced pairs.

    Degrees are drawn with weights q^2 : q : 1, so every class is reachable,
    including the ones with no rational-point support.  Each draw is tested
    on the coefficient codes, with nothing built: u = x + a divides f - v0^2
    when f(-a) = v0^2, and u = x^2 + b x + c divides f - v^2 when the
    coefficients of f - v^2 reduce to zero by x^2 = -b x - c.  Only the
    accepted pair becomes a MumfordClass.  The draws, and so the random
    stream, are those of the test `(f - v * v) % u` on polynomials.
    """
    base = curve.field
    q = base.q
    add, sub, mul = base.add, base.sub, base.mul
    f = curve.f
    for _ in range(4096):
        r = rng.randrange(q * q + q + 1)
        if r == 0:
            return MumfordClass.zero(curve)
        if r <= q:
            a = rng.randrange(q)
            v0 = rng.randrange(q)
            if f.eval(base.neg(a)) == mul(v0, v0):
                return MumfordClass(curve, Polynomial(base, (a, 1)), Polynomial(base, (v0,)))
            continue
        c = rng.randrange(q)
        b = rng.randrange(q)
        v0 = rng.randrange(q)
        v1 = rng.randrange(q)
        # f - v^2 with v^2 = v0^2 + 2 v0 v1 x + v1^2 x^2, then reduced mod u
        g = list(f.coeffs)
        g[0] = sub(g[0], mul(v0, v0))
        g[1] = sub(g[1], mul(add(v0, v0), v1))
        g[2] = sub(g[2], mul(v1, v1))
        for i in range(len(g) - 1, 1, -1):
            if g[i]:
                g[i - 1] = sub(g[i - 1], mul(b, g[i]))
                g[i - 2] = sub(g[i - 2], mul(c, g[i]))
        if not g[0] and not g[1]:
            return MumfordClass(curve, Polynomial(base, (c, b, 1)), Polynomial(base, (v0, v1)))
    raise RuntimeError("class sampling failed")


def class_order(cls: MumfordClass) -> int:
    """Order of the class in the group."""
    n = jac_order(cls.curve)
    o = n
    for prime in _factor_int(n):
        while o % prime == 0 and ((o // prime) * cls).is_zero:
            o //= prime
    return o


def find_p_torsion(curve: Curve, seed: int = 0) -> MumfordClass:
    """A class of exact order p, found by the cofactor method.

    Requires an ordinary curve whose group order is divisible by p.
    """
    p = curve.field.p
    data = frobenius_data(curve)
    if data.a2 % p == 0:
        raise ValueError("expected ordinary")
    n = data.order
    if n % p:
        raise ValueError("no rational p-torsion")
    h = n
    while h % p == 0:
        h //= p
    rng = random.Random(seed)
    for _ in range(256):
        s = h * random_class(curve, rng)
        if s.is_zero:
            continue
        while True:
            t = p * s
            if t.is_zero:
                return s
            s = t
    raise RuntimeError("cofactor sampling failed to find p-torsion")


def enumerate_classes(curve: Curve) -> list[MumfordClass]:
    """Every class, by exhaustion over reduced pairs.  Intended as an
    independent oracle for small fields; cost grows like q^4."""
    F = curve.field
    q = F.q
    if q**4 > 10**7:
        raise ValueError("field too large")
    out = [MumfordClass.zero(curve)]
    for deg in (1, 2):
        for ucode in range(q**deg):
            digits, c = [], ucode
            for _ in range(deg):
                c, r = divmod(c, q)
                digits.append(r)
            u = Polynomial(F, digits + [1])
            for vcode in range(q**deg):
                digits, c = [], vcode
                for _ in range(deg):
                    c, r = divmod(c, q)
                    digits.append(r)
                v = Polynomial(F, digits)
                if ((curve.f - v * v) % u).is_zero:
                    out.append(MumfordClass(curve, u, v))
    return out


# --- transfers between divisors and classes -------------------------------------


def mumford_to_divisor(cls: MumfordClass) -> Divisor:
    """The divisor (sum of affine points) - deg(u) * infinity of the pair."""
    curve = cls.curve
    items = []
    total = 0
    for g, e in poly_factor(cls.u):
        vg = cls.v % g
        matched = None
        for pl in curve.places_above(g):
            if pl.kind == RAMIFIED and vg.is_zero:
                matched = pl
                break
            if pl.kind == SPLIT and pl.v == vg:
                matched = pl
                break
        assert matched is not None, "mumford support must be split or ramified"
        items.append((matched, e))
        total += e * g.degree
    items.append((curve.infinite_place(), -total))
    return Divisor(items)


def divisor_class_to_mumford(curve: Curve, div: Divisor) -> MumfordClass:
    """Reduced representative of the class of a degree-zero divisor.

    Components at inert places and at infinity are multiples of pullbacks
    of points of the projective line, hence principal up to infinity, and
    contribute nothing.
    """
    if div.degree != 0:
        raise ValueError("expected a degree-zero divisor")
    out = MumfordClass.zero(curve)
    for pl, m in div.items:
        if pl.kind in (INFINITE, INERT):
            continue
        # a place can exceed genus degree; reduce its pair first
        if pl.kind == RAMIFIED:
            # div(u) = 2 P - 2 deg(u) oo, so the even part is principal and
            # P is its own negative
            if m % 2:
                u, v = _cantor_reduce(curve.f, pl.u, Polynomial.zero(curve.field))
                out = out + MumfordClass(curve, u, v)
        else:
            u, v = _cantor_reduce(curve.f, pl.u, pl.v)
            out = out + m * MumfordClass(curve, u, v)
    return out
