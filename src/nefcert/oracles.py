"""Independent oracles and small invariants that only the tests use.

Exhaustive class enumeration and the rational points by brute force, group
orders over extensions, the ordinary test from the zeta data, h^1 by
duality, the Serre duality pairing and the differentials it pairs with, the
p-rank and the Cartier class of dg/g, and random monic polynomials.  No
command of the CLI imports this module, so none of it is compiled or
loaded on a cold `search` or `verify`.
"""

from __future__ import annotations

import functools
import random

from . import linalg
from .cohomology import TailClass, cartier_manin, rr_space
from .curves import Curve, Differential, Divisor
from .fields import Field, Polynomial
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


def differential_space(curve: Curve, divisor: Divisor) -> tuple:
    """Basis of the differentials omega with div(omega) >= divisor."""
    y_inv = curve.y().inverse()
    sp = rr_space(curve, curve.canonical_divisor() - divisor)
    return tuple((phi * y_inv).dx() for phi in sp.basis)


def holomorphic_differentials(curve: Curve) -> tuple:
    """The basis (dx/y, x dx/y) of the regular differentials."""
    return differential_space(curve, Divisor())


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
    omega = w.dx()
    if not curve.divisor_of_differential(omega).is_effective:
        raise ValueError("logarithmic differential is not regular")
    psi = w * curve.y()
    co = rr_space(curve, curve.canonical_divisor()).coords(psi)
    if co is None:
        raise RuntimeError("regular differential outside the standard basis")
    return (co[0], co[1])


# --- polynomials --------------------------------------------------------------


def poly_random_monic(f: Field, degree: int, rng: random.Random) -> Polynomial:
    return Polynomial(f, [rng.randrange(f.q) for _ in range(degree)] + [1])
