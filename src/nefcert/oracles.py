"""Independent oracles and small invariants that only the tests use.

Exhaustive class enumeration and the rational points by brute force,
Cantor's composition, group orders over extensions, the ordinary test from
the zeta data, h^1 by duality, the full divisor of a differential, adelic
H^1 classes as pole tails with the Serre duality pairing and the regular
differentials it pairs them with, the Frobenius matrix on H^1 from residues
at infinity, the p-rank and the Cartier class of dg/g, the extension-class
functional beta on a basis, and random monic polynomials.  No command of
the CLI imports this module, so none of it is compiled or loaded on a cold
`search` or `verify`.
"""

from __future__ import annotations

import functools
import random

from . import linalg
from .cohomology import cartier_manin, differential_space, h1_space, rr_space
from .curves import Curve, Differential, Divisor
from .fields import Field, Polynomial, poly_xgcd
from .jacobian import MumfordClass, _power_traces, _zeta_data, frobenius_data


# --- the group of a genus-2 curve ---------------------------------------------


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


def cantor_compose(f: Polynomial, c1, c2):
    """Cantor's composition of the pairs c1 = (u1, v1) and c2 = (u2, v2),
    before reduction."""
    u1, v1 = c1
    u2, v2 = c2
    d1, e1, e2 = poly_xgcd(u1, u2)
    d, c1_, c2_ = poly_xgcd(d1, v1 + v2)
    u3 = (u1 * u2) // (d * d)
    num = c1_ * (e1 * u1 * v2 + e2 * u2 * v1) + c2_ * (v1 * v2 + f)
    q, r = divmod(num, d)
    if not r.is_zero:
        raise RuntimeError("cantor composition is exact")
    return u3, q % u3


def jac_order_ext(curve: Curve, m: int) -> int:
    """Order of the group over the degree-m extension, from the zeta data."""
    data = frobenius_data(curve)
    return _zeta_data(data.q**m, *_power_traces(data, m)).order


def is_ordinary(curve: Curve) -> bool:
    """Ordinary means the unit-root part of Frobenius has full rank 2,
    equivalently p does not divide the middle trace term."""
    data = frobenius_data(curve)
    return data.a2 % curve.field.p != 0


# --- cohomology ---------------------------------------------------------------


def h1(curve: Curve, divisor: Divisor) -> int:
    """dim H^1(O(divisor)), computed by duality as h^0(K - divisor)."""
    return rr_space(curve, curve.canonical_divisor() - divisor).dim


def differential_divisor(omega: Differential) -> Divisor:
    """div(w dx) = div(w) + div(dx), and div(dx) is the ramified places
    minus 3 times the place at infinity."""
    curve = omega.curve
    dx = [(pl, 1) for pl in curve.finite_ramified_places()]
    return curve.divisor(omega.w) + Divisor(dx + [(curve.infinite_place(), -3)])


class TailClass:
    """A class in H^1 of O(bundle), given by pole tails of an adele.

    `tails` maps finitely many places to Laurent polynomials in the local
    parameter: sorted (exponent, coefficient) pairs with coefficients in the
    residue ring of the place.  Coefficients at exponents >= -bundle.mult(P)
    are absorbed by the bundle and dropped on construction.  The basis class
    of a gap e of `cohomology.h1_space` is the tail {infinity: {e: 1}}.
    """

    __slots__ = ("curve", "bundle", "tails")

    def __init__(self, curve: Curve, bundle: Divisor, data: dict):
        items = []
        for place in sorted(data):
            ring = curve.residue_ring(place)
            cap = -bundle.mult(place)
            ent = tuple(
                (e, c)
                for e, c in sorted(data[place].items())
                if e < cap and not ring.is_zero(c)
            )
            if ent:
                items.append((place, ent))
        self.curve = curve
        self.bundle = bundle
        self.tails = tuple(items)

    @property
    def is_zero(self) -> bool:
        return not self.tails

    def data(self) -> dict:
        return {pl: dict(ent) for pl, ent in self.tails}

    def _check(self, other: "TailClass") -> None:
        if self.curve != other.curve or self.bundle != other.bundle:
            raise ValueError("mismatched bundles")

    def __add__(self, other: "TailClass") -> "TailClass":
        self._check(other)
        data = self.data()
        for pl, ent in other.tails:
            ring = self.curve.residue_ring(pl)
            d = data.setdefault(pl, {})
            for e, c in ent:
                d[e] = ring.add(d.get(e, ring.zero), c)
        return TailClass(self.curve, self.bundle, data)

    def __neg__(self) -> "TailClass":
        data = {}
        for pl, ent in self.tails:
            ring = self.curve.residue_ring(pl)
            data[pl] = {e: ring.neg(c) for e, c in ent}
        return TailClass(self.curve, self.bundle, data)

    def __sub__(self, other: "TailClass") -> "TailClass":
        return self + (-other)

    def scale(self, code: int) -> "TailClass":
        data = {}
        for pl, ent in self.tails:
            ring = self.curve.residue_ring(pl)
            cc = ring.embed(code)
            data[pl] = {e: ring.mul(cc, c) for e, c in ent}
        return TailClass(self.curve, self.bundle, data)

    def __eq__(self, other):
        return (
            isinstance(other, TailClass)
            and self.curve == other.curve
            and self.bundle == other.bundle
            and self.tails == other.tails
        )

    def __hash__(self):
        return hash((self.curve, self.bundle, self.tails))

    def __repr__(self):
        return f"TailClass({self.bundle!r}, {self.tails!r})"


def serre_pairing(tc: TailClass, omega: Differential) -> int:
    """Sum over places of Tr(res(tail * omega)), in the base field.

    Descends to the duality pairing of H^1(O(E)) against differentials with
    divisor >= E.
    """
    curve = tc.curve
    base = curve.field
    total = 0
    for pl, ent in tc.tails:
        ring = curve.residue_ring(pl)
        es = [e for e, _ in ent]
        lo_w = -1 - max(es)
        hi_w = -min(es)
        _, wind = curve.differential_window(omega, pl, lo_w, hi_w)
        acc = ring.zero
        for e, c in ent:
            acc = ring.add(acc, ring.mul(c, wind[(-1 - e) - lo_w]))
        total = base.add(total, ring.trace(acc))
    return total


def holomorphic_differentials(curve: Curve) -> tuple:
    """The basis (dx/y, x dx/y) of the regular differentials."""
    return differential_space(curve, Divisor())


def frobenius_by_residues(curve: Curve, source: Divisor, g) -> tuple:
    """The matrix of `cohomology.frobenius_h1` from the pairing's definition.

    With t = x^2/y, the gap classes t^e_k of H^1(O(source)) and t^e_i of
    H^1(O), and the regular differentials omega_j, the image t^(p e_k) / g
    of t^e_k pairs as r_jk = res(t^(p e_k) omega_j / g) at infinity, and
    the matrix M solves P^T M = r for P_ij = res(t^e_i omega_j) there.
    Every residue is taken by `Curve.residue`.
    """
    base = curve.field
    inf = curve.infinite_place()
    t = curve.x() * curve.x() / curve.y()
    oms = holomorphic_differentials(curve)
    src, tgt = h1_space(curve, source).gaps, h1_space(curve, Divisor()).gaps
    pt = [[curve.residue(om, inf, num=(t**e,)) for e in tgt] for om in oms]
    r = [[curve.residue(om, inf, num=(t ** (base.p * e),), den=(g,)) for e in src] for om in oms]
    cols = [linalg.solve(base, pt, [row[k] for row in r]) for k in range(len(src))]
    return tuple(tuple(col[i] for col in cols) for i in range(len(tgt)))


def p_rank(curve: Curve) -> int:
    """Stable rank of the twisted iterates of the Cartier-Manin matrix."""
    base = curve.field
    m = [list(r) for r in cartier_manin(curve)]
    n = m
    for _ in range(3):
        n = linalg.mat_mul(base, [[base.frob_inv(c) for c in row] for row in n], m)
    return linalg.rank(base, n)


def cartier_class(g) -> tuple:
    """Coordinates (c1, c2) of the regular differential dg/g = (c1 + c2 x) dx/y.

    Accepts a trivializing function or a PTorsionBundle.  Raises ValueError
    when dg/g is not a regular differential (g not taken from a torsion
    trivialization) or vanishes (g a p-th power).
    """
    if hasattr(g, "g"):
        g = g.g
    curve = g.curve
    if g.is_zero:
        raise ValueError("logarithmic differential of zero")
    w = g.derivative() * g.inverse()
    if w.is_zero:
        raise ValueError("logarithmic differential vanishes")
    # w dx = (w y) dx/y is regular exactly when w y lies in L(K) = <1, x>
    co = rr_space(curve, curve.canonical_divisor()).coords(w * curve.y())
    if co is None:
        raise ValueError("logarithmic differential is not regular")
    return (co[0], co[1])


# --- the extension-class functional ---------------------------------------------


def beta_values(beta) -> tuple:
    """beta on the canonical basis of the sections of 2K + N, each value by
    `BetaFunctional.value`, the evaluation check 4 runs."""
    return tuple(beta.value(phi) for phi in rr_space(beta.curve, beta.space_div).basis)


def beta_by_coords(beta, values: tuple, psi) -> int:
    """beta(psi) from the basis values and the coordinates of psi."""
    base = beta.curve.field
    out = 0
    for c, a in zip(values, rr_space(beta.curve, beta.space_div).coords(psi)):
        out = base.add(out, base.mul(c, a))
    return out


# --- polynomials --------------------------------------------------------------


def poly_random_monic(f: Field, degree: int, rng: random.Random) -> Polynomial:
    return Polynomial(f, [rng.randrange(f.q) for _ in range(degree)] + [1])
