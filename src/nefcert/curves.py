"""Genus-2 hyperelliptic curves y^2 = f(x) over finite fields of odd order.

The model is the smooth projective curve with a single point over
x = infinity, which exists exactly when deg f = 5; squarefreeness of f makes
the affine part smooth.  All arithmetic is exact: places are represented by
irreducible polynomials plus splitting data, valuations come from closed
formulas, and residues are computed through truncated local expansions with
rigorous precision tracking.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional

from .fields import (
    Field,
    Polynomial,
    RationalFunction,
    embedding,
    field,
    is_irreducible,
    kappa_sqrt,
    poly_factor,
    poly_gcd,
    poly_ord,
    poly_ord_cofactor,
)
from .series import (
    BaseRing,
    PolyModRing,
    PrecisionError,
    QuadModRing,
    TruncSeries,
    rf_series,
    series_finite,
    series_infinite,
)

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
    """Element a(x) + b(x) y of the function field of a curve."""

    __slots__ = ("curve", "a", "b")

    def __init__(self, curve: "Curve", a: RationalFunction, b: RationalFunction):
        self.curve = curve
        self.a = a
        self.b = b

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def _check(self, other: "FunctionElement"):
        if self.curve != other.curve:
            raise ValueError("elements of different curves")

    def __add__(self, other: "FunctionElement") -> "FunctionElement":
        self._check(other)
        return FunctionElement(self.curve, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "FunctionElement") -> "FunctionElement":
        self._check(other)
        return FunctionElement(self.curve, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "FunctionElement":
        return FunctionElement(self.curve, -self.a, -self.b)

    def __mul__(self, other: "FunctionElement") -> "FunctionElement":
        self._check(other)
        rf_f = RationalFunction.from_poly(self.curve.f)
        a = self.a * other.a + rf_f * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return FunctionElement(self.curve, a, b)

    def conj(self) -> "FunctionElement":
        """Image under the hyperelliptic involution y -> -y."""
        return FunctionElement(self.curve, self.a, -self.b)

    def norm(self) -> RationalFunction:
        return self.a * self.a - RationalFunction.from_poly(self.curve.f) * self.b * self.b

    def inverse(self) -> "FunctionElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero function")
        n = self.norm()
        return FunctionElement(self.curve, self.a / n, -(self.b / n))

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
        return FunctionElement(self.curve, self.a.scale(c), self.b.scale(c))

    def derivative(self) -> "FunctionElement":
        """d/dx along the curve, using dy/dx = f'/(2y)."""
        f = self.curve.f
        two = 2 % f.field.p
        corr = self.b * RationalFunction(f.derivative(), f.scale(two))
        return FunctionElement(self.curve, self.a.derivative(), self.b.derivative() + corr)

    def dx(self) -> "Differential":
        return Differential(self.curve, self)

    def __eq__(self, other):
        return (
            isinstance(other, FunctionElement)
            and self.curve == other.curve
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.curve, self.a, self.b))

    def __repr__(self):
        return f"fn[{self.a} + ({self.b})*y]"


class Differential:
    """Differential w dx on a curve."""

    __slots__ = ("curve", "w")

    def __init__(self, curve: "Curve", w: FunctionElement):
        self.curve = curve
        self.w = w

    def __add__(self, other: "Differential") -> "Differential":
        return Differential(self.curve, self.w + other.w)

    def __sub__(self, other: "Differential") -> "Differential":
        return Differential(self.curve, self.w - other.w)

    def __neg__(self) -> "Differential":
        return Differential(self.curve, -self.w)

    def mul_fn(self, phi: FunctionElement) -> "Differential":
        return Differential(self.curve, self.w * phi)

    def scale(self, c: int) -> "Differential":
        return Differential(self.curve, self.w.scale(c))

    @property
    def is_zero(self) -> bool:
        return self.w.is_zero

    def divisor(self) -> Divisor:
        return self.curve.divisor(self.w) + self.curve.divisor_dx()

    def residue(self, place: Place) -> int:
        return self.curve.residue(self, place)

    def __eq__(self, other):
        return isinstance(other, Differential) and self.curve == other.curve and self.w == other.w

    def __hash__(self):
        return hash((self.curve, self.w))

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
            if place.kind == SPLIT:
                y0 = ring.kappa(place.v)
            else:
                y0 = ring.root if place.kind == INERT else None
            frames = series_finite(ring, curve.f, place.u, y0, prec)
        cell[:] = prec, frames
    cut = cell[0] - prec
    ring, xs, ys = cell[1]
    return ring, xs.truncate(xs.prec - cut), ys.truncate(ys.prec - cut)


def _ord_parts(r: RationalFunction, u: Polynomial):
    """(ord_u r, num and den of r prime to u), or (_INF, None, None) for 0."""
    if r.is_zero:
        return _INF, None, None
    en, n0 = poly_ord_cofactor(r.num, u)
    ed, d0 = poly_ord_cofactor(r.den, u)
    return en - ed, n0, d0


class Curve:
    """y^2 = f(x), f squarefree of degree 5: a genus-2 curve."""

    __slots__ = ("field", "f")

    def __init__(self, base: Field, f):
        if isinstance(f, (tuple, list)):
            f = Polynomial(base, f)
        if f.field != base:
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
        return isinstance(other, Curve) and self.field == other.field and self.f == other.f

    def __hash__(self):
        return hash((self.field, self.f))

    def __repr__(self):
        return f"curve[y^2 = {self.f} over F_{self.field.q}]"

    # --- function field elements -------------------------------------------

    def fn(self, a=0, b=0) -> FunctionElement:
        """Element a + b y; a and b may be codes, polynomials or fractions."""

        def coerce(v) -> RationalFunction:
            if isinstance(v, RationalFunction):
                return v
            if isinstance(v, Polynomial):
                return RationalFunction.from_poly(v)
            return RationalFunction.from_poly(Polynomial.const(self.field, v))

        return FunctionElement(self, coerce(a), coerce(b))

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

        The only code that chooses a ring: the base field for places of
        degree 1 (and at infinity), F_q[x]/(u) for split and ramified places
        of higher degree, its quadratic extension by a root of f at inert
        places.  The series constructors take the ring from here.
        """
        if place.kind == INFINITE:
            return BaseRing(self.field)
        if place.kind == INERT:
            return QuadModRing(self.field, place.u, self.f % place.u)
        if place.u.degree > 1:
            return PolyModRing(self.field, place.u)
        return BaseRing(self.field, place.u)

    def places_above(self, u: Polynomial) -> list[Place]:
        """The places over the monic irreducible u, canonically ordered."""
        if not u.is_monic() or not is_irreducible(u):
            raise ValueError("support must be monic irreducible")
        fbar = self.f % u
        if fbar.is_zero:
            return [Place(RAMIFIED, u)]
        r = kappa_sqrt(fbar, u)
        if r is None:
            return [Place(INERT, u)]
        return sorted([Place(SPLIT, u, r), Place(SPLIT, u, (-r) % u)])

    def places_over(self, h: Polynomial) -> list[Place]:
        """All places over irreducible factors of h, canonically ordered."""
        out = []
        for g, _ in poly_factor(h):
            out.extend(self.places_above(g))
        return sorted(out)

    def finite_ramified_places(self) -> list[Place]:
        return sorted(Place(RAMIFIED, g) for g, _ in poly_factor(self.f))

    def divisor_dx(self) -> Divisor:
        items = [(pl, 1) for pl in self.finite_ramified_places()]
        items.append((self.infinite_place(), -3))
        return Divisor(items)

    def canonical_divisor(self) -> Divisor:
        """div(dx/y) = 2 * (place at infinity)."""
        return Divisor([(self.infinite_place(), 2)])

    # --- valuations and divisors ----------------------------------------------

    def valuation(self, phi: FunctionElement, place: Place) -> int:
        """Order of phi = a + b y at the place.

        Off split places a and b y have orders of different parity or leading
        terms independent over the residue field, so phi has the smaller.  At
        a split place (y = v mod u, a unit) orders oa != ob of a and b give
        min(oa, ob).  For one order s, phi = u^s (A + B y) / (da db) where
        a = u^s na/da, b = u^s nb/db, A = na db, B = nb da and na, da, nb, db
        are prime to u.  The order is s if A + B v != 0 mod u, and otherwise
        s + ord_u(A^2 - f B^2): that norm is (A - B v)(A + B v) mod u, and the
        factors cannot both vanish (their sum 2A is prime to u), so the
        conjugate place takes none of its order.
        """
        if phi.is_zero:
            raise ValueError("valuation of the zero function")
        a, b = phi.a, phi.b
        if place.kind == INFINITE:
            va = _INF if a.is_zero else -2 * (a.num.degree - a.den.degree)
            vb = _INF if b.is_zero else -5 - 2 * (b.num.degree - b.den.degree)
            return min(va, vb)
        u = place.u
        oa, na, da = _ord_parts(a, u)
        ob, nb, db = _ord_parts(b, u)
        if place.kind == RAMIFIED:
            return min(2 * oa, 1 + 2 * ob)
        if place.kind == INERT or oa != ob:
            return min(oa, ob)
        A, B = na * db, nb * da
        if not ((A + B * place.v) % u).is_zero:
            return oa
        return oa + poly_ord(A * A - self.f * B * B, u)

    def divisor(self, phi: FunctionElement) -> Divisor:
        """Principal divisor of a nonzero function."""
        if phi.is_zero:
            raise ValueError("divisor of the zero function")
        cand: set[Polynomial] = set()
        for den in (phi.a.den, phi.b.den):
            if den.degree > 0:
                cand.update(g for g, _ in poly_factor(den))
        norm = phi.norm()
        if norm.num.degree > 0:
            cand.update(g for g, _ in poly_factor(norm.num))
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

        Only the places of E, those over the denominators of a and b, and
        infinity are checked, and no norm is factored: off them phi has no
        pole, so div(phi) - E >= 0 there, and with equality on them
        div(phi) - E is effective of degree 0, hence zero.
        """
        if phi.is_zero or E.degree != 0:
            return False
        mult = dict(E.items)
        places = set(mult)
        places.add(self.infinite_place())
        for den in {phi.a.den, phi.b.den}:
            if den.degree > 0:
                places.update(self.places_over(den))
        return all(self.valuation(phi, pl) == mult.get(pl, 0) for pl in places)

    def divisor_of_differential(self, omega: Differential) -> Divisor:
        return self.divisor(omega.w) + self.divisor_dx()

    # --- point counting --------------------------------------------------------

    def point_count(self, m: int = 1) -> int:
        """Number of points of the smooth model over the degree-m extension."""
        q = self.field.q
        if q**m > 10**7:
            raise ValueError("field too large")
        ext = self.field if m == 1 else field(self.field.p, self.field.k * m)
        emb = embedding(self.field, ext)
        fc = [emb(c) for c in self.f.coeffs]
        n = 1
        for a in range(ext.q):
            acc = 0
            for c in reversed(fc):
                acc = ext.add(ext.mul(acc, a), c)
            ls = ext.legendre(acc)
            if ls == 1:
                n += 2
            elif ls == 0:
                n += 1
        return n

    # --- local expansions ------------------------------------------------------

    def expand(self, phi: FunctionElement, place: Place, prec: int):
        """(ring, series of phi) in the local parameter at the place."""
        ring, xs, ys = _frames(self, place, prec)
        big = 1 << 40
        if phi.a.is_zero:
            a_ser = TruncSeries.zero_to(ring, big)
        else:
            a_ser = rf_series(ring, phi.a.num, phi.a.den, xs)
        if phi.b.is_zero:
            b_ser = TruncSeries.zero_to(ring, big)
        else:
            b_ser = rf_series(ring, phi.b.num, phi.b.den, xs)
        return ring, a_ser + b_ser * ys

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

    def window(self, phi: FunctionElement, place: Place, lo: int, hi: int):
        """(ring, coefficients of phi on exponents [lo, hi)) at the place."""

        def job(prec):
            ring, ser = self.expand(phi, place, prec)
            return ring, ser.window(lo, hi)

        return _retry(job, start=max(16, hi + 8))

    def differential_window(self, omega: Differential, place: Place, lo: int, hi: int):
        """(ring, coefficients of omega/dt on exponents [lo, hi))."""

        def job(prec):
            ring, ser = self.expand_differential(omega, place, prec)
            return ring, ser.window(lo, hi)

        return _retry(job, start=max(16, hi + 8))

    def residue_support(self, omega: Differential) -> list[Place]:
        """Places where omega can have a pole."""
        if omega.is_zero:
            return []
        out = set()
        for den in (omega.w.a.den, omega.w.b.den):
            if den.degree > 0:
                out.update(self.places_over(den))
        out.add(self.infinite_place())
        return sorted(out)
