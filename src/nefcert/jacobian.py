"""Jacobian arithmetic for the genus-2 curves, in Mumford coordinates.

A degree-zero class is represented by a reduced pair (u, v): u monic of
degree at most 2, deg v < deg u, and u dividing f - v^2.  The group law
(`_sum_codes`) works on coefficient codes by explicit formulas in scalar
field arithmetic, one routine per case: the chord and the tangent for two
points, composition of coprime u's or doubling followed by one reduction
step, and sums whose u's share a root, which split off the common point
first.  Cantor's composition is the tests' oracle (`oracles`); Cantor's
reduction also brings places of degree above 2 to reduced pairs
(`divisor_class_to_mumford`).
Sums and negations are built without re-validation; pairs read from
outside (`MumfordClass(...)`, `random_class`) are checked.
Global invariants (order of the group, characteristic polynomial of
Frobenius) come from one path at every k: point counts of the prime-field
model over F_p and F_(p^2), raised to the field's degree by Newton's
identities; the degree of the field of the p-torsion, read off the
Cartier-Manin matrix, is in `cohomology`.
"""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

from .curves import Curve, Divisor, INERT, INFINITE, RAMIFIED
from .fields import Polynomial, _factor_int, field, poly_factor


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
        F = curve.field
        u, v = _sum_codes(
            F, curve.f.coeffs, self.u.coeffs, self.v.coeffs, other.u.coeffs, other.v.coeffs
        )
        return MumfordClass._reduced(curve, Polynomial(F, u), Polynomial(F, v))

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
# A pair is (u, v) as code tuples laid out like `Polynomial.coeffs`: low to
# high, no zero at the top, u monic of degree at most 2 and deg v < deg u;
# zero is ((1,), ()).  f is the code tuple of the quintic.  A point P of
# [P - oo] is written (-a, y), for u = x + a and v = y.  Every case below is
# scalar field arithmetic on the coefficients; no list or polynomial is built:
#
# - composition: for coprime u1, u2 the pair (u1 u2, l) with l = v1 + s u1
#   and s = (v2 - v1) / u1 mod u2, so l = v2 mod u2.  Doubling takes
#   s = ((f - v^2) / u) / 2v mod u, the tangent meeting the curve twice at
#   each point of u; a degree-1 doubling (the tangent at a point) and a chord
#   through two points are already reduced.
# - reduction: a composition (U, l) of degree 3 or 4 reduces in one step,
#   u3 = monic((f - l^2) / U), v3 = -l mod u3.  Only the top three
#   coefficients of f - l^2 enter the quotient, and deg u3 is 1 or 2 since
#   deg l < deg U and deg(f - l^2) is 5 or 6.
# - shared roots: u's that share a root x0, in a sum that is neither
#   P + (-P) nor a doubling, share a rational one (over an irreducible u the
#   two v's are +-v), so the second class splits into its point P over x0
#   and another point, added one at a time.  The point of the first class
#   over x0 either cancels P, which leaves its other point, or equals P;
#   then P is added by the tangent composition, s = ((f - v1^2) / u1)(x0)
#   / 2y.  Equal u's with v1 != +-v2 leave 2P at the root of v1 - v2, and a
#   doubling where v vanishes at a root of u (a ramified point) leaves twice
#   the other point.
#
# Cantor's composition (`oracles.cantor_compose`) and reduction, below, are
# the tests' oracle.


_ZERO = ((1,), ())


def _v(v0, v1=0):
    """Code tuple of v1 x + v0."""
    return (v0, v1) if v1 else ((v0,) if v0 else ())


def _sum_codes(F, f, u1, v1, u2, v2):
    """(u, v) codes of the reduced sum of two reduced pairs."""
    if len(u1) < len(u2):
        u1, v1, u2, v2 = u2, v2, u1, v1
    if len(u2) == 1:
        return u1, v1
    y2 = v2[0] if v2 else 0
    if len(u1) == 2:
        return _sum_11(F, f, u1[0], v1[0] if v1 else 0, u2[0], y2)
    if len(u2) == 2:
        return _sum_21(F, f, u1, v1, u2[0], y2)
    return _sum_22(F, f, u1, v1, u2, v2)


def _sum_11(F, f, a1, y1, a2, y2):
    """[P1 - oo] + [P2 - oo]: the chord of slope (y2 - y1) / (a1 - a2), the
    tangent, or zero."""
    if a1 == a2:
        return _double_point(F, f, a1, y1) if y1 == y2 and y1 else _ZERO
    mul, add = F.mul, F.add
    s = mul(F.sub(y2, y1), F.inv(F.sub(a1, a2)))
    return (mul(a1, a2), add(a1, a2), 1), _v(add(y1, mul(s, a1)), s)


def _double_point(F, f, a, y):
    """2 [P - oo] for P = (-a, y), y != 0: u = (x + a)^2 and the tangent
    v = y + s (x + a), s = f'(-a) / 2y (f' by Horner beside f)."""
    mul, add = F.mul, F.add
    x = F.neg(a)
    p, d = f[5], 0
    for c in f[4:0:-1]:
        d = add(mul(d, x), p)
        p = add(mul(p, x), c)
    s = mul(add(mul(d, x), p), F.inv(add(y, y)))
    return (mul(a, a), add(a, a), 1), _v(add(y, mul(s, a)), s)


def _sum_21(F, f, u1, v1, a2, y2):
    """A degree-2 class plus [P - oo], P = (x2, y2) with x2 = -a2."""
    mul, add, sub = F.mul, F.add, F.sub
    p0, p1, _ = u1
    r0 = v1[0] if v1 else 0
    r1 = v1[1] if len(v1) == 2 else 0
    x2 = F.neg(a2)
    ux = add(mul(add(x2, p1), x2), p0)
    vx = add(mul(r1, x2), r0)
    if ux:
        s = mul(sub(y2, vx), F.inv(ux))
    elif vx == F.neg(y2):
        # the points over x2 cancel; u1 = (x - x2)(x + a3) leaves (-a3, v1(-a3))
        a3 = sub(p1, a2)
        return (a3, 1), _v(sub(r0, mul(r1, a3)))
    else:
        n0, n1 = _quot_mod(F, f, p0, p1, r1)
        s = mul(add(mul(n1, x2), n0), F.inv(add(y2, y2)))
    # U = u1 (x + a2) = x^3 + (p1 + a2) x^2 + (p0 + p1 a2) x + ...
    l1, l0 = add(r1, mul(s, p1)), add(r0, mul(s, p0))
    return _reduce(F, f, 3, add(p1, a2), add(p0, mul(p1, a2)), 0, s, l1, l0)


def _sum_22(F, f, u1, v1, u2, v2):
    """The sum of two degree-2 classes."""
    mul, add, sub = F.mul, F.add, F.sub
    p0, p1, _ = u1
    q0, q1, _ = u2
    r0 = v1[0] if v1 else 0
    r1 = v1[1] if len(v1) == 2 else 0
    t0 = v2[0] if v2 else 0
    t1 = v2[1] if len(v2) == 2 else 0
    if u1 == u2:
        if not add(r0, t0) and not add(r1, t1):
            return _ZERO
        if r0 == t0 and r1 == t1:
            n0, n1 = _quot_mod(F, f, p0, p1, r1)
            out = _compose(F, f, p0, p1, r0, r1, p0, p1, add(r1, r1), add(r0, r0), n0, n1)
            if out:
                return out
            # v vanishes at the ramified point (r0 / r1, 0): double the other
            a = sub(p1, mul(r0, F.inv(r1)))
        else:
            # u1 splits: the points over the root of v1 - v2 agree, the
            # others cancel
            a = mul(sub(r0, t0), F.inv(sub(r1, t1)))
        return _double_point(F, f, a, sub(r0, mul(r1, a)))
    a, b = sub(p1, q1), sub(p0, q0)
    out = _compose(F, f, p0, p1, r0, r1, q0, q1, a, b, sub(t0, r0), sub(t1, r1))
    if not out:
        # the only shared root is -a0: add the point of u2 over it, then the
        # other point of u2
        a0 = mul(b, F.inv(a))
        a2 = sub(q1, a0)
        u, v = _sum_21(F, f, u1, v1, a0, sub(t0, mul(t1, a0)))
        out = _sum_codes(F, f, u, v, (a2, 1), _v(sub(t0, mul(t1, a2))))
    return out


def _quot_mod(F, f, p0, p1, r1):
    """(f - v^2) / u mod u, as (n0, n1), for u = x^2 + p1 x + p0 dividing
    f - v^2 and v = r1 x + r0 (r0 does not enter)."""
    mul, sub = F.mul, F.sub
    k3 = f[5]
    k2 = sub(f[4], mul(p1, k3))
    k1 = sub(sub(f[3], mul(p1, k2)), mul(p0, k3))
    k0 = sub(sub(sub(f[2], mul(r1, r1)), mul(p1, k1)), mul(p0, k2))
    m2 = sub(k2, mul(p1, k3))
    return sub(k0, mul(p0, m2)), sub(sub(k1, mul(p0, k3)), mul(p1, m2))


def _compose(F, f, p0, p1, r0, r1, c0, c1, a, b, n0, n1):
    """Reduced class of the composition (u1 c, l), l = v1 + s u1 with
    s = (n1 x + n0) / (a x + b) mod c for c = x^2 + c1 x + c0, or None when
    a x + b and c share a root.  (a x + b)(-a x + e0) = r mod c with
    e0 = b - a c1 and r = b e0 + a^2 c0."""
    mul, add, sub = F.mul, F.add, F.sub
    e0 = sub(b, mul(a, c1))
    r = add(mul(b, e0), mul(mul(a, a), c0))
    if not r:
        return None
    i = F.inv(r)
    t = mul(a, n1)
    s1 = mul(add(sub(mul(n1, e0), mul(a, n0)), mul(t, c1)), i)
    s0 = mul(add(mul(n0, e0), mul(t, c0)), i)
    l2 = add(s0, mul(s1, p1))
    l1 = add(add(r1, mul(s1, p0)), mul(s0, p1))
    # U = u1 c = x^4 + (p1 + c1) x^3 + (p0 + c0 + p1 c1) x^2 + ...
    ua, ub = add(p1, c1), add(add(p0, c0), mul(p1, c1))
    return _reduce(F, f, 4, ua, ub, s1, l2, l1, add(r0, mul(s0, p0)))


def _reduce(F, f, n, ua, ub, l3, l2, l1, l0):
    """Reduction of a composition (U, l) of degree n = 3 or 4, with l3 = 0
    when n = 3: u3 = monic((f - l^2) / U) and v3 = -l mod u3.  The quotient
    needs only the coefficients of x^(n-1) and x^(n-2) in U (ua, ub) and of
    x^(n+2), x^(n+1) and x^n in f - l^2 (q2, q1, q0 before the division)."""
    mul, add, sub = F.mul, F.add, F.sub
    t = add(l3, l3)
    c5 = sub(f[5], mul(t, l2))
    c4 = sub(sub(f[4], mul(l2, l2)), mul(t, l1))
    if n == 4:
        q2, q1, q0 = F.neg(mul(l3, l3)), c5, c4
    else:
        q2, q1, q0 = c5, c4, sub(f[3], mul(add(l2, l2), l1))
    q1 = sub(q1, mul(ua, q2))
    q0 = sub(sub(q0, mul(ua, q1)), mul(ub, q2))
    if not q2:
        # n = 4 with l3 = 0: deg u3 = 1, v3 = -l(-w0)
        w0 = mul(q0, F.inv(q1))
        return (w0, 1), _v(sub(mul(sub(l1, mul(l2, w0)), w0), l0))
    i = F.inv(q2)
    w1, w0 = mul(q1, i), mul(q0, i)
    m2, m1 = sub(l2, mul(l3, w1)), sub(l1, mul(l3, w0))
    return (w0, w1, 1), _v(sub(mul(m2, w0), l0), sub(mul(m2, w1), m1))


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


@functools.lru_cache(maxsize=None)
def frobenius_data(curve: Curve) -> FrobeniusData:
    """Zeta data of a curve over F_(p^k) whose f is defined over F_p: the
    point counts of the prime-field model over F_p and F_(p^2), whose traces
    `_power_traces` raises to the k-th power of Frobenius (at k = 1 they come
    back unchanged).  Verify refuses any other curve at check 1, and search
    and curve-info build theirs over F_p."""
    p, k = curve.field.p, curve.field.k
    model = Curve(field(p), curve.f.coeffs)
    data = _zeta_data(p, p + 1 - model.point_count(1), p * p + 1 - model.point_count(2))
    return _zeta_data(p**k, *_power_traces(data, k))


def _zeta_data(q: int, t1: int, t2: int) -> FrobeniusData:
    """Zeta data over F_q from the Frobenius traces t1 = tr A, t2 = tr A^2."""
    # t1^2 - t2 = 2 a2 is even, and t1, a2 and the order obey the Weil
    # bounds, because the traces come from exact point counts
    a2 = (t1 * t1 - t2) // 2
    # the group order is P(1) = det(I - A) for the characteristic polynomial
    # P(T) = T^4 - t1 T^3 + a2 T^2 - q t1 T + q^2
    order = 1 + q * q - t1 * (1 + q) + a2
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


# --- sampling and torsion ------------------------------------------------------


def _reduction_table(F, f, b):
    """The coefficients of f mod x^2 + b x + c that depend on b alone:
    s1 = -f3 + 2 f4 b - 3 f5 b^2, s0 = f1 - f2 b + f3 b^2 - f4 b^3 + f5 b^4,
    t2 = f4 - 2 f5 b and t1 = -f2 + f3 b - f4 b^2 + f5 b^3."""
    mul, add, sub = F.mul, F.add, F.sub
    f0, f1, f2, f3, f4, f5 = f
    b2 = mul(b, b)
    b3 = mul(b2, b)
    f4b, f5b2 = mul(f4, b), mul(f5, b2)
    s1 = sub(add(f4b, f4b), add(f3, add(f5b2, add(f5b2, f5b2))))
    s0 = add(sub(add(f1, mul(f3, b2)), mul(f2, b)), sub(mul(f5b2, b2), mul(f4, b3)))
    f5b = mul(f5, b)
    t2 = sub(f4, add(f5b, f5b))
    t1 = add(sub(mul(f3, b), f2), sub(mul(f5, b3), mul(f4, b2)))
    return s1, s0, t2, t1


@functools.lru_cache(maxsize=16)
def _reduction_tables(curve: Curve) -> list:
    """The `_reduction_table` of each b met so far on the curve, by b (None
    where not yet met): filled across the `random_class` calls of a search."""
    return [None] * curve.field.q


def random_class(curve: Curve, rng: random.Random) -> MumfordClass:
    """A random group element, by rejection sampling over reduced pairs.

    Degrees are drawn with weights q^2 : q : 1, so every class is reachable,
    including the ones with no rational-point support.  Each draw is tested
    on the coefficient codes, with nothing built: u = x + a divides f - v0^2
    when f(-a) = v0^2, and u = x^2 + b x + c divides f - v^2 when f and
    v = v1 x + v0 agree mod u, where

        f mod u   = (f5 c^2 + s1 c + s0) x + (t2 c^2 + t1 c + f0),
        v^2 mod u = (2 v0 v1 - b v1^2) x + (v0^2 - c v1^2),

    and s1, s0, t2, t1 depend on b alone (`_reduction_table`), kept per
    curve from the first draw that meets b.  The x-coefficients are compared
    first; they differ on all but about 1/q of the draws.  Only the accepted
    pair becomes a MumfordClass.

    A value below n is drawn as `rng.randrange(n)` draws it, inline:
    getrandbits(n.bit_length()), drawn again while it is at least n.  So the
    draws, and the random stream, are those of the loop on `randrange` and
    the test `(f - v * v) % u` on polynomials.
    """
    base = curve.field
    q = base.q
    add, sub, mul = base.add, base.sub, base.mul
    f = curve.f.coeffs
    f0, f5 = f[0], f[5]
    tables = _reduction_tables(curve)
    n = q * q + q + 1
    kn, kq = n.bit_length(), q.bit_length()
    bits = rng.getrandbits
    for _ in range(4096):
        r = bits(kn)
        while r >= n:
            r = bits(kn)
        if r == 0:
            return MumfordClass.zero(curve)
        if r <= q:
            a = bits(kq)
            while a >= q:
                a = bits(kq)
            v0 = bits(kq)
            while v0 >= q:
                v0 = bits(kq)
            if curve.f.eval(base.neg(a)) == mul(v0, v0):
                return MumfordClass(curve, Polynomial(base, (a, 1)), Polynomial(base, (v0,)))
            continue
        c = bits(kq)
        while c >= q:
            c = bits(kq)
        b = bits(kq)
        while b >= q:
            b = bits(kq)
        v0 = bits(kq)
        while v0 >= q:
            v0 = bits(kq)
        v1 = bits(kq)
        while v1 >= q:
            v1 = bits(kq)
        t = tables[b]
        if t is None:
            t = tables[b] = _reduction_table(base, f, b)
        s1, s0, t2, t1 = t
        if add(mul(add(mul(f5, c), s1), c), s0) != mul(v1, sub(add(v0, v0), mul(b, v1))):
            continue
        if add(mul(add(mul(t2, c), t1), c), f0) == sub(mul(v0, v0), mul(c, mul(v1, v1))):
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

    Requires an ordinary curve whose group order is divisible by p: search
    passes a curve that passed `cartier_nonsingular`, over a field whose
    degree is a multiple of `p_torsion_field_degree`, where by Manin 1 is an
    eigenvalue of that power of the Hasse-Witt matrix: p divides the order.
    """
    p = curve.field.p
    h = frobenius_data(curve).order
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


# --- transfers between divisors and classes -------------------------------------


def mumford_to_divisor(cls: MumfordClass) -> Divisor:
    """The divisor (sum of affine points) - deg(u) * infinity of the pair."""
    curve = cls.curve
    items = []
    total = 0
    for g, e in poly_factor(cls.u):
        # g | u | f - v^2: the place over g is the one with y = v mod g
        # (v = 0 mod g at a ramified place, whose v is zero)
        vg = cls.v % g
        items.append((next(pl for pl in curve.places_above(g) if pl.v == vg), e))
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
