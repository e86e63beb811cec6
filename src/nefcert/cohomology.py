"""Exact cohomology for the genus-2 models of `curves`.

Riemann-Roch spaces are solved as kernels of explicit congruence conditions
on numerator pairs (A + B y) / h.  H^1 of a line bundle O(E) is given by its
gap exponents at the place over x = infinity: the tails t^e there, t the
local parameter, for the pole orders -e that sections cannot reach, are a
basis.  The p-power (sigma-semilinear) Frobenius on H^1 used by the
obstruction pipeline is read off Serre duality and the Cartier operator
from one local expansion at a rational place (Tate, "Residues of
differentials on curves", 1968); Cartier-Manin matrices, the degree of the
field of the p-torsion that they give, and the torsion trivializations sit
next to it.  The adelic classes and the Serre duality pairing, which the
tests check the Frobenius matrices against, are in `oracles`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import linalg
from .curves import (
    INFINITE,
    RAMIFIED,
    SPLIT,
    Curve,
    Divisor,
    FunctionElement,
    _retry,
    rational_places,
)
from .fields import Field, Polynomial, hensel_sqrt
from .jacobian import class_order, mumford_to_divisor


def _sorted_polys(polys) -> list[Polynomial]:
    return sorted(polys, key=lambda u: (u.degree, u.coeffs))


# --- Riemann-Roch spaces ---------------------------------------------------


class RRSpace(NamedTuple):
    """Global sections of O(divisor), as functions (A + B y) / denominator.

    `vectors` are the canonical kernel vectors of the congruence system, the
    coefficient lists of A and B concatenated; `basis` are the corresponding
    function elements.
    """

    curve: Curve
    divisor: Divisor
    denominator: Polynomial
    deg_a: int
    deg_b: int
    vectors: tuple
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, phi: FunctionElement):
        """Coordinates of phi in the canonical basis, or None if outside.

        phi = (A + B y) / h is (A c + B c y) / denominator with polynomial
        numerators exactly when h divides the denominator, c the cofactor
        (h is prime to gcd(A, B))."""
        base = self.curve.field
        if phi.is_zero:
            return (0,) * self.dim
        c, r = divmod(self.denominator, phi.h)
        if not r.is_zero:
            return None
        vec: list[int] = []
        for num, dmax in ((phi.A * c, self.deg_a), (phi.B * c, self.deg_b)):
            if not num.is_zero and num.degree > dmax:
                return None
            vec += [num[i] for i in range(dmax + 1)]
        if not self.dim:
            return None
        rows = [[v[i] for v in self.vectors] for i in range(len(vec))]
        sol = linalg.solve(base, rows, vec)
        if sol is None:
            return None
        return tuple(sol)


def _append_congruence(rows, mod: Polynomial, nun: int, cols) -> None:
    """Equations saying sum of column residues vanishes mod `mod`.

    cols is a list of (column index, residue polynomial); one equation is
    appended per coefficient slot of the modulus.
    """
    d = mod.degree
    if d <= 0:
        return
    eqs = [[0] * nun for _ in range(d)]
    for col, res in cols:
        for s in range(res.degree + 1):
            eqs[s][col] = res[s]
    rows += eqs


def _monomial_residues(base: Field, count: int, mod: Polynomial, start: Polynomial):
    """Residues of start * x^j mod `mod` for j = 0..count-1."""
    x = Polynomial.x(base)
    out = []
    cur = start % mod
    for _ in range(count):
        out.append(cur)
        cur = (cur * x) % mod
    return out


@functools.lru_cache(maxsize=4096)
def rr_space(curve: Curve, divisor: Divisor) -> RRSpace:
    """The space of functions phi with div(phi) + divisor effective."""
    base = curve.field
    f = curve.f
    n_inf = 0
    exps: dict[Polynomial, int] = {}
    extra = []
    for pl, m in divisor.items:
        if pl.kind == INFINITE:
            n_inf = m
        elif m > 0:
            w = 2 if pl.kind == RAMIFIED else 1
            e = -(-m // w)
            if exps.get(pl.u, 0) < e:
                exps[pl.u] = e
        else:
            extra.append(pl.u)
    h = Polynomial.one(base)
    for u in _sorted_polys(exps):
        h = h * u ** exps[u]
    deg_a = h.degree + (n_inf // 2)
    deg_b = h.degree + ((n_inf - 5) // 2)
    na = deg_a + 1 if deg_a >= 0 else 0
    nb = deg_b + 1 if deg_b >= 0 else 0
    nun = na + nb
    vectors: list = []
    if nun:
        rows: list[list[int]] = []
        for u in _sorted_polys(set(exps) | set(extra)):
            e_u = exps.get(u, 0)
            for pl in curve.places_above(u):
                w = 2 if pl.kind == RAMIFIED else 1
                m_req = e_u * w - divisor.mult(pl)
                if m_req <= 0:
                    continue
                # (modulus, start of the A residues, start of the B residues)
                one = Polynomial.one(base)
                if pl.kind == SPLIT:
                    conds = [(u**m_req, one, hensel_sqrt(f, u, pl.v, m_req))]
                elif pl.kind == RAMIFIED:
                    conds = [
                        (u ** ((m_req + 1) // 2), one, None),
                        (u ** (m_req // 2), None, one),
                    ]
                else:
                    mod = u**m_req
                    conds = [(mod, one, None), (mod, None, one)]
                for mod, a0, b0 in conds:
                    cols = [
                        (off + j, r)
                        for off, count, start in ((0, na, a0), (na, nb, b0))
                        if start is not None
                        for j, r in enumerate(_monomial_residues(base, count, mod, start))
                    ]
                    _append_congruence(rows, mod, nun, cols)
        vectors = linalg.kernel_basis(base, rows, nun)
    basis = []
    for vec in vectors:
        a = Polynomial(base, vec[:na]) if na else Polynomial.zero(base)
        b = Polynomial(base, vec[na:]) if nb else Polynomial.zero(base)
        basis.append(FunctionElement(curve, a, b, h))
    return RRSpace(
        curve,
        divisor,
        h,
        deg_a,
        deg_b,
        tuple(tuple(v) for v in vectors),
        tuple(basis),
    )


# --- H^1 by its gaps at infinity ---------------------------------------------


class H1Space(NamedTuple):
    """H^1 of O(bundle), by its gap exponents at the place over infinity.

    The gaps are the -k for the k > bundle(infinity) at which h^0 does not
    grow as the multiplicity of the bundle at infinity is raised to k.  With
    t = x^2/y the local parameter there, the tails t^e at infinity, e in
    `gaps`, are a basis of H^1(O(bundle)); there are exactly h^1 of them.
    """

    gaps: tuple

    @property
    def dim(self) -> int:
        return len(self.gaps)


@functools.lru_cache(maxsize=256)
def h1_space(curve: Curve, bundle: Divisor) -> H1Space:
    inf = curve.infinite_place()
    n_inf = bundle.mult(inf)
    finite = [(pl, m) for pl, m in bundle.items if pl.kind != INFINITE]
    degf = sum(m * pl.degree for pl, m in finite)
    gaps = []
    prev = rr_space(curve, bundle).dim
    for k in range(n_inf + 1, max(n_inf, 3 - degf) + 1):
        cur = rr_space(curve, Divisor(finite + [(inf, k)])).dim
        if cur == prev:
            gaps.append(-k)
        prev = cur
    # by Riemann-Roch there are h^0(K - bundle) = h^1 gaps
    return H1Space(tuple(sorted(gaps)))


def differential_space(curve: Curve, divisor: Divisor) -> tuple:
    """Basis of the differentials omega with div(omega) >= divisor: phi dx/y
    for phi in the canonical basis of L(K - divisor), K = div(dx/y)."""
    y_inv = curve.y().inverse()
    sp = rr_space(curve, curve.canonical_divisor() - divisor)
    return tuple((phi * y_inv).dx() for phi in sp.basis)


# --- Cartier-Manin ----------------------------------------------------------


@functools.lru_cache(maxsize=256)
def cartier_manin(curve: Curve) -> tuple:
    """The 2x2 matrix (c_{ip-j})_{i,j in {1,2}} of coefficients of f^((p-1)/2).

    Nonsingular exactly when the curve is ordinary.
    """
    p = curve.field.p
    hpow = curve.f ** ((p - 1) // 2)
    return (
        (hpow[p - 1], hpow[p - 2]),
        (hpow[2 * p - 1], hpow[2 * p - 2]),
    )


def cartier_nonsingular(curve: Curve) -> bool:
    m = cartier_manin(curve)
    return linalg.rank(curve.field, [list(r) for r in m]) == 2


def p_torsion_field_degree(curve: Curve, max_q: int) -> int | None:
    """Least m with p-torsion rational over the degree-m extension, or None
    when that extension has more than max_q elements.

    By Manin's theorem the p-power Frobenius acts on the p-torsion of an
    ordinary curve over a prime field, mod p, with the eigenvalues of the
    Cartier-Manin matrix N = H, so m is the least one with N^m - I
    singular; the eigenvalues lie in F_(p^2), so m < p^2.  Requires an
    ordinary curve over a prime field.
    """
    F = curve.field
    N = [list(r) for r in cartier_manin(curve)]
    # search calls this only on curves over F_p that passed `cartier_nonsingular`
    A, m = N, 1
    while F.q**m <= max_q:
        # 1 is an eigenvalue of A = N^m: A - I is singular
        (a, b), (c, d) = A
        if linalg.rank(F, [[F.sub(a, 1), b], [c, F.sub(d, 1)]]) < 2:
            return m
        A = linalg.mat_mul(F, A, N)
        m += 1
    return None


# --- semilinear Frobenius on H^1 --------------------------------------------


class SemilinearMap(NamedTuple):
    """A sigma^twist-semilinear map in fixed coordinates over the base field.

    Applying the map raises each input coordinate to the p^twist power and
    then multiplies by the matrix (rows of field codes, target x source).
    """

    field: Field
    twist: int
    matrix: tuple
    source_dim: int
    target_dim: int

    @property
    def rank(self) -> int:
        if not self.matrix:
            return 0
        return linalg.rank(self.field, [list(r) for r in self.matrix])

    @property
    def injective(self) -> bool:
        return self.rank == self.source_dim


def torsion_trivialization(
    curve: Curve, rep: Divisor, order: int
) -> FunctionElement:
    """The canonical generator g with div(g) = order * rep.

    Requires a degree-zero divisor rep whose class is killed by `order`, as
    `p_torsion_bundle` passes: then L(-order * rep) is spanned by g.
    """
    sp = rr_space(curve, rep * (-order))
    # div(g) >= order * rep, and both sides have degree 0: they are equal
    return sp.basis[0]


class PTorsionBundle(NamedTuple):
    """A Picard class of exact order p, with the function trivializing its
    p-th power: div(g) = p * rep, rep the reduced representative of cls."""

    cls: object
    rep: Divisor
    g: FunctionElement


def p_torsion_bundle(curve: Curve, cls) -> PTorsionBundle:
    """Package a Mumford class of exact order p with its trivialization."""
    p = curve.field.p
    if class_order(cls) != p:
        raise ValueError("class order is not p")
    rep = mumford_to_divisor(cls)
    g = torsion_trivialization(curve, rep, p)
    return PTorsionBundle(cls, rep, g)


def frobenius_h1(curve: Curve, source: Divisor, g: FunctionElement) -> SemilinearMap:
    """Matrix of xi -> xi^p / g from H^1(O(source)) to H^1(O), in the gap
    bases of `h1_space`, with g the trivialization.

    Precondition: div(g) = -p * source (g = 1 for the trivial source).  It
    is not tested here; `torsion_trivialization` establishes it for search,
    and the g stage of `obstruction.certificate_verify` for verify.

    The matrix is read off Serre duality.  For omega_j in the regular
    differentials and C the Cartier operator,

        <xi^p / g, omega_j> = res(xi * C(omega_j / g))^p,

    and C(omega_j / g) = sum_l c_jl beta_l over the basis beta_l of the
    differentials with divisor >= source.  At the first place of
    `rational_places` where g is a unit, with local parameter s,
    C(sum_n a_n s^n ds) has coefficient a_(pm+p-1)^(1/p) at s^m, so the
    c_jl^p solve
    sum_l c_jl^p b_lm^p = a_(pm+p-1) for omega_j / g, where b_lm is the
    coefficient of s^m in beta_l / ds and m runs over the pivot exponents of
    the beta_l there.  At infinity R_kl = <t^(e_k), beta_l> and
    P_ij = <t^(e_i), omega_j> are single coefficients, and the matrix M
    solves P^T M = r with r_jk = sum_l c_jl^p R_kl^p: no p-th root is taken.

    Raises ValueError when g is a unit at no rational place.
    """
    base = curve.field
    p = base.p
    src, tgt = h1_space(curve, source), h1_space(curve, Divisor())
    betas, omegas = differential_space(curve, source), differential_space(curve, Divisor())
    inf = curve.infinite_place()

    def pairings(diffs, gaps):
        """[[res(t^e omega) at infinity for omega in diffs] for e in gaps]:
        the coefficient of t^(-1-e) in omega / dt."""
        lo, hi = -1 - max(gaps), -min(gaps)
        wins = [curve.differential_window(om, inf, lo, hi)[1] for om in diffs]
        return [[w[-1 - e - lo] for w in wins] for e in gaps]

    for pl in rational_places(curve):
        if curve.valuation(g, pl) != 0:
            continue
        # a nonzero combination of the betas has order <= 2 where source is 0
        # (order 3 would give it a divisor of degree above deg K = 2, as
        # deg(source) = 0), so their expansions on [0, 3) have a pivot each
        bs = [curve.differential_window(b, pl, 0, 3)[1] for b in betas]
        pivots = linalg.rref(base, bs)[1]
        n = p * (pivots[-1] + 1)

        def job(prec):
            gs = curve.expand(g, pl, prec)[1]
            return [(curve.expand_differential(om, pl, prec)[1] / gs).window(0, n) for om in omegas]

        bp = [[base.frob(b[m]) for b in bs] for m in pivots]
        cp = [
            linalg.solve(base, bp, [w[p * m + p - 1] for m in pivots])
            for w in _retry(job, n + 8)
        ]
        rp = [[base.frob(c) for c in row] for row in pairings(betas, src.gaps)]
        r = [linalg.mat_vec(base, rp, c) for c in cp]
        pt = [list(col) for col in zip(*pairings(omegas, tgt.gaps))]
        cols = [linalg.solve(base, pt, [row[k] for row in r]) for k in range(src.dim)]
        matrix = tuple(tuple(col[i] for col in cols) for i in range(tgt.dim))
        return SemilinearMap(base, 1, matrix, src.dim, tgt.dim)
    raise ValueError("g is a unit at no rational place")
