"""Exact cohomology for the genus-2 models of `curves`.

Riemann-Roch spaces are solved as kernels of explicit congruence conditions
on numerator pairs (A + B y) / h.  H^1 of a line bundle O(E) uses the adelic
description: a class is a finite family of pole tails, one Laurent polynomial
per place, taken modulo tails of global functions and modulo anything O(E)
absorbs.  Reduction against a ladder of sections pushes every class to a
canonical representative supported at the place over x = infinity, on the
finitely many exponents the ladder cannot reach; those exponents are in
bijection with a basis, so classes get exact coordinates.  On top of this
sit Cartier-Manin matrices and the p-power (sigma-semilinear) Frobenius maps
on H^1 used by the obstruction pipeline; the Serre duality pairing, which
the tests check these against, is in `oracles`.
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
)
from .fields import Field, Polynomial, hensel_sqrt


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

    def contains(self, phi: FunctionElement) -> bool:
        return self.coords(phi) is not None


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


def h0(curve: Curve, divisor: Divisor) -> int:
    return rr_space(curve, divisor).dim


# --- adelic H^1 -------------------------------------------------------------


class TailClass:
    """A class in H^1 of O(bundle), given by pole tails of an adele.

    `tails` maps finitely many places to Laurent polynomials in the local
    parameter: sorted (exponent, coefficient) pairs with coefficients in the
    residue ring of the place.  Coefficients at exponents >= -bundle.mult(P)
    are absorbed by the bundle and dropped on construction.
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

    def frobenius(self) -> "TailClass":
        """The p-power image, a class in H^1 of O(p * bundle)."""
        p = self.curve.field.p
        data = {}
        for pl, ent in self.tails:
            ring = self.curve.residue_ring(pl)
            data[pl] = {e * p: ring.frob(c) for e, c in ent}
        return TailClass(self.curve, self.bundle * p, data)

    def mult_fn(self, phi: FunctionElement) -> "TailClass":
        """Multiplication by phi, landing in H^1 of O(bundle - div(phi))."""
        curve = self.curve
        new_bundle = self.bundle - curve.divisor(phi)
        data: dict = {}
        for pl, ent in self.tails:
            ring = curve.residue_ring(pl)
            cap = -new_bundle.mult(pl)
            lo_e = min(e for e, _ in ent)
            vphi = curve.valuation(phi, pl)
            hi_w = cap - lo_e
            if hi_w <= vphi:
                continue
            _, wind = curve.window(phi, pl, vphi, hi_w)
            acc: dict = {}
            for e, c in ent:
                for k, w in enumerate(wind):
                    ee = e + vphi + k
                    if ee >= cap:
                        break
                    if ring.is_zero(w):
                        continue
                    acc[ee] = ring.add(acc.get(ee, ring.zero), ring.mul(c, w))
            if acc:
                data[pl] = acc
        return TailClass(curve, new_bundle, data)

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


class H1Space:
    """Canonical coordinates on H^1 of O(bundle).

    Canonical representatives are tails at the infinite place supported on
    the gap exponents: the pole orders no section of O(bundle + k*infinity)
    attains.  There are exactly h^1 of them.
    """

    def __init__(self, curve: Curve, bundle: Divisor):
        self.curve = curve
        self.bundle = bundle
        self._inf = curve.infinite_place()
        self.n_inf = bundle.mult(self._inf)
        self.finite_part = Divisor(
            [(pl, m) for pl, m in bundle.items if pl.kind != INFINITE]
        )
        degf = self.finite_part.degree
        gaps = []
        prev = rr_space(curve, self._plus_inf(self.n_inf)).dim
        for k in range(self.n_inf + 1, max(self.n_inf, 3 - degf) + 1):
            cur = rr_space(curve, self._plus_inf(k)).dim
            if cur == prev:
                gaps.append(-k)
            prev = cur
        self.gaps = tuple(sorted(gaps))
        dual = rr_space(curve, curve.canonical_divisor() - bundle).dim
        if len(self.gaps) != dual:
            raise RuntimeError("gap count disagrees with duality")
        self._ladders: dict = {}

    def _plus_inf(self, k: int) -> Divisor:
        return self.finite_part + Divisor([(self._inf, k)])

    @property
    def dim(self) -> int:
        return len(self.gaps)

    def zero(self) -> TailClass:
        return TailClass(self.curve, self.bundle, {})

    def basis(self) -> tuple:
        return tuple(
            TailClass(self.curve, self.bundle, {self._inf: {e: 1}}) for e in self.gaps
        )

    def from_coords(self, vec) -> TailClass:
        data = {e: c for e, c in zip(self.gaps, vec) if c}
        return TailClass(self.curve, self.bundle, {self._inf: data} if data else {})

    def _ladder(self, lo: int):
        got = self._ladders.get(lo)
        if got is not None:
            return got
        curve = self.curve
        hi = -self.n_inf
        rows = []
        for phi in rr_space(curve, self._plus_inf(-lo)).basis:
            _, wind = curve.window(phi, self._inf, lo, hi)
            rows.append(wind)
        if rows:
            red, pivots = linalg.rref(curve.field, rows)
            red = red[: len(pivots)]
        else:
            red, pivots = [], []
        free = {lo + i for i in range(hi - lo)} - {lo + c for c in pivots}
        if free != {e for e in self.gaps if e >= lo}:
            raise RuntimeError("ladder misses a gap")
        self._ladders[lo] = (pivots, red)
        return pivots, red

    def reduce(self, tc: TailClass) -> TailClass:
        """The canonical representative of the class of tc."""
        if tc.curve != self.curve or tc.bundle != self.bundle:
            raise ValueError("mismatched bundles")
        curve = self.curve
        base = curve.field
        inf = self._inf
        data = tc.data()
        inf_tail = data.pop(inf, {})
        if data:
            # Stage 1: subtract a global function matching every finite tail.
            # It may have poles as deep as the tails themselves plus a pole
            # at infinity large enough to make the matching system solvable.
            adj = {pl: m for pl, m in self.finite_part.items}
            wins = []
            for pl in sorted(data):
                cap = -self.bundle.mult(pl)
                lo_p = min(data[pl])
                wins.append((pl, lo_p, cap))
                adj[pl] = -lo_p
            m1 = max(self.n_inf, 0) + abs(self.finite_part.degree) + 5
            adj[inf] = m1
            space = rr_space(curve, Divisor(adj))
            cols = []
            for phi in space.basis:
                col: list[int] = []
                for pl, lo_p, cap in wins:
                    ring, wind = curve.window(phi, pl, lo_p, cap)
                    for c in wind:
                        col += list(ring.to_codes(c))
                cols.append(col)
            rhs: list[int] = []
            for pl, lo_p, cap in wins:
                ring = curve.residue_ring(pl)
                d = data[pl]
                for e in range(lo_p, cap):
                    rhs += list(ring.to_codes(d.get(e, ring.zero)))
            rows = [[col[i] for col in cols] for i in range(len(rhs))]
            sol = linalg.solve(base, rows, rhs)
            if sol is None:
                raise RuntimeError("finite tails not matchable by sections")
            hfn = curve.zero()
            for cj, phi in zip(sol, space.basis):
                if cj:
                    hfn = hfn + phi.scale(cj)
            if not hfn.is_zero:
                for pl, lo_p, cap in wins:
                    ring, wind = curve.window(hfn, pl, lo_p, cap)
                    d = data[pl]
                    for k, c in enumerate(wind):
                        if c != d.get(lo_p + k, ring.zero):
                            raise RuntimeError("stage-1 mismatch")
                vh = curve.valuation(hfn, inf)
                hi = -self.n_inf
                if vh < hi:
                    _, wind = curve.window(hfn, inf, vh, hi)
                    for k, c in enumerate(wind):
                        if c:
                            e = vh + k
                            inf_tail[e] = base.sub(inf_tail.get(e, 0), c)
        # Stage 2: reduce the tail at infinity against the section ladder.
        inf_tail = {e: c for e, c in inf_tail.items() if c}
        if inf_tail:
            lo = min(inf_tail)
            hi = -self.n_inf
            vec = [inf_tail.get(e, 0) for e in range(lo, hi)]
            pivots, red = self._ladder(lo)
            for i, pc in enumerate(pivots):
                c = vec[pc]
                if c:
                    row = red[i]
                    vec = [base.sub(a, base.mul(c, b)) for a, b in zip(vec, row)]
            inf_tail = {lo + i: c for i, c in enumerate(vec) if c}
            if not set(inf_tail) <= set(self.gaps):
                raise RuntimeError("non-gap exponent after reduction")
        return TailClass(curve, self.bundle, {inf: inf_tail} if inf_tail else {})

    def coords(self, tc: TailClass) -> tuple:
        red = self.reduce(tc)
        d = red.data().get(self._inf, {})
        return tuple(d.get(e, 0) for e in self.gaps)


@functools.lru_cache(maxsize=256)
def h1_space(curve: Curve, bundle: Divisor) -> H1Space:
    return H1Space(curve, bundle)


# --- Cartier-Manin ----------------------------------------------------------


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

    def apply(self, vec) -> tuple:
        w = list(vec)
        for _ in range(self.twist):
            w = [self.field.frob(c) for c in w]
        for _ in range(-self.twist):
            w = [self.field.frob_inv(c) for c in w]
        return tuple(linalg.mat_vec(self.field, [list(r) for r in self.matrix], w))

    @property
    def rank(self) -> int:
        if not self.matrix:
            return 0
        return linalg.rank(self.field, [list(r) for r in self.matrix])

    @property
    def injective(self) -> bool:
        return self.rank == self.source_dim

    @property
    def is_zero(self) -> bool:
        return all(not c for row in self.matrix for c in row)


def torsion_trivialization(
    curve: Curve, rep: Divisor, order: int
) -> FunctionElement:
    """The canonical generator g with div(g) = order * rep.

    rep must be a degree-zero divisor whose class is killed by `order`;
    otherwise ValueError.
    """
    if rep.degree != 0:
        raise ValueError("expected a degree-zero divisor")
    sp = rr_space(curve, rep * (-order))
    if sp.dim == 0:
        raise ValueError("class is not killed by the stated order")
    g = sp.basis[0]
    if curve.divisor(g) != rep * order:
        raise RuntimeError("trivialization divisor differs from order * rep")
    return g


class PTorsionBundle(NamedTuple):
    """A Picard class of exact order p, with the function trivializing its
    p-th power: div(g) = p * rep, rep the reduced representative of cls."""

    cls: object
    rep: Divisor
    g: FunctionElement
    order: int


def p_torsion_bundle(curve: Curve, cls) -> PTorsionBundle:
    """Package a Mumford class of exact order p with its trivialization."""
    from .jacobian import class_order, mumford_to_divisor

    p = curve.field.p
    if class_order(cls) != p:
        raise ValueError("class order is not p")
    rep = mumford_to_divisor(cls)
    g = torsion_trivialization(curve, rep, p)
    return PTorsionBundle(cls, rep, g, p)


def frobenius_h1(
    curve: Curve,
    source: Divisor,
    trivialization: FunctionElement | PTorsionBundle | None = None,
) -> SemilinearMap:
    """Matrix of xi -> xi^p / trivialization on canonical H^1 coordinates.

    The p-power map sends H^1(O(source)) to H^1(O(p * source)); dividing by
    the trivialization moves the image to H^1 of
    p * source + div(trivialization).  For the trivial source bundle no
    trivialization is needed; for any other source omitting it raises
    ValueError("missing trivialization").
    """
    if isinstance(trivialization, PTorsionBundle):
        trivialization = trivialization.g
    if trivialization is None:
        if not source.is_zero:
            raise ValueError("missing trivialization")
        ginv = None
        target = source
    else:
        ginv = trivialization.inverse()
        target = source * curve.field.p - curve.divisor(ginv)
    src = h1_space(curve, source)
    tgt = h1_space(curve, target)
    cols = []
    for xi in src.basis():
        eta = xi.frobenius()
        if ginv is not None:
            eta = eta.mult_fn(ginv)
        cols.append(tgt.coords(eta))
    matrix = tuple(
        tuple(cols[j][i] for j in range(src.dim)) for i in range(tgt.dim)
    )
    return SemilinearMap(curve.field, 1, matrix, src.dim, tgt.dim)
