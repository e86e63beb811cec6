"""Intersection lattices of rational surfaces, with exact arithmetic.

Blow-ups of P^1 x P^1 and of P^2 carry a hyperbolic intersection form on
their divisor class lattice.  Everything here is integer or rational: the
inertia of a symmetric form is computed by congruence diagonalization over
the rationals; orthogonal complements, coordinates and independence come
from `linalg` over `QQ`, the rationals with Fraction entries; and the
extremal counting arguments (sets of directions with pairwise non-positive
inner products) by brute-force search over small rational grids.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from . import linalg

P1XP1 = "p1xp1"
P2 = "p2"


class _Rationals:
    """Q with the element interface `linalg` uses.  Entries are Fractions
    or ints; `inv` returns a Fraction, so no step divides two ints."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)


QQ = _Rationals()


@dataclass(frozen=True)
class LatticeClass:
    """An integer divisor class in a fixed basis."""

    coords: tuple

    def __add__(self, other: "LatticeClass") -> "LatticeClass":
        if len(self.coords) != len(other.coords):
            raise ValueError("dimension mismatch")
        return LatticeClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeClass") -> "LatticeClass":
        return self + (-other)

    def __neg__(self) -> "LatticeClass":
        return LatticeClass(tuple(-a for a in self.coords))

    def __mul__(self, n: int) -> "LatticeClass":
        return LatticeClass(tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


@dataclass(frozen=True)
class SurfaceLattice:
    """Divisor class lattice of a blow-up, with its Gram matrix.

    Basis convention: (f1, f2, e_1..e_d) for P^1 x P^1 with f1^2 = f2^2 = 0
    and f1.f2 = 1; (h, e_1..e_d) for P^2 with h^2 = 1.  Each e_i^2 = -1 and
    mixed products vanish.
    """

    base: str
    d: int
    rank: int
    gram: tuple

    def cls(self, *coords) -> LatticeClass:
        if len(coords) != self.rank:
            raise ValueError("dimension mismatch")
        return LatticeClass(tuple(int(c) for c in coords))

    def unit(self, i: int) -> LatticeClass:
        return LatticeClass(tuple(1 if j == i else 0 for j in range(self.rank)))

    @property
    def basis_names(self) -> tuple:
        head = ("f1", "f2") if self.base == P1XP1 else ("h",)
        return head + tuple(f"e{i}" for i in range(1, self.d + 1))


def blowup_lattice(base: str, d: int) -> SurfaceLattice:
    """The divisor class lattice of a blow-up of the base surface at d points."""
    if d < 0:
        raise ValueError("negative number of points")
    if base == P1XP1:
        head = [[0, 1], [1, 0]]
    elif base == P2:
        head = [[1]]
    else:
        raise ValueError("unknown base surface")
    k = len(head)
    rank = k + d
    gram = [[0] * rank for _ in range(rank)]
    for i in range(k):
        for j in range(k):
            gram[i][j] = head[i][j]
    for i in range(k, rank):
        gram[i][i] = -1
    return SurfaceLattice(base, d, rank, tuple(tuple(r) for r in gram))


def intersect(lat: SurfaceLattice, a: LatticeClass, b: LatticeClass) -> int:
    if len(a.coords) != lat.rank or len(b.coords) != lat.rank:
        raise ValueError("dimension mismatch")
    total = 0
    for i, ai in enumerate(a.coords):
        if ai:
            row = lat.gram[i]
            total += ai * sum(r * bj for r, bj in zip(row, b.coords))
    return total


# --- exact inertia ----------------------------------------------------------


def inertia(mat) -> tuple:
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix, by
    congruence diagonalization."""
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    pos = neg = zero = 0
    c = 0
    while c < n:
        if m[c][c] == 0:
            piv = next((k for k in range(c + 1, n) if m[k][k] != 0), None)
            if piv is not None:
                m[c], m[piv] = m[piv], m[c]
                for row in m:
                    row[c], row[piv] = row[piv], row[c]
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(c, n)
                        for j in range(i + 1, n)
                        if m[i][j] != 0
                    ),
                    None,
                )
                if pair is None:
                    zero += n - c
                    break
                i, j = pair
                for t in range(n):
                    m[i][t] += m[j][t]
                for t in range(n):
                    m[t][i] += m[t][j]
                if i != c:
                    m[c], m[i] = m[i], m[c]
                    for row in m:
                        row[c], row[i] = row[i], row[c]
        d = m[c][c]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(c + 1, n):
            f = m[r][c] / d
            if f:
                for t in range(n):
                    m[r][t] -= f * m[c][t]
                for t in range(n):
                    m[t][r] -= f * m[t][c]
        c += 1
    return pos, neg, zero


def hodge_signature(lat: SurfaceLattice) -> tuple:
    """(n_plus, n_minus) of the intersection form; degenerate forms rejected."""
    pos, neg, zero = inertia(lat.gram)
    if zero:
        raise ValueError("degenerate gram matrix")
    return pos, neg


def _perp_basis(lat: SurfaceLattice, ref: LatticeClass):
    """Rational basis of the orthogonal complement of ref."""
    row = linalg.mat_vec(QQ, lat.gram, ref.coords)  # the gram matrix is symmetric
    return linalg.kernel_basis(QQ, [row], lat.rank)


def restricted_form(lat: SurfaceLattice, ref: LatticeClass):
    """Gram matrix of the form on ref-perp, modulo ref itself when ref^2 = 0.

    For a nonzero class with ref^2 = 0 this is the form on perp/(Q ref); for
    ref^2 != 0 it is the form on the orthogonal complement.  By the Hodge
    index theorem both are negative definite when ref is nef and nonzero.
    """
    if ref.is_zero:
        raise ValueError("zero class")
    basis = _perp_basis(lat, ref)
    if intersect(lat, ref, ref) == 0:
        # drop one basis vector so the rest spans a complement of Q*ref
        _, pivots = linalg.rref(QQ, [list(r) for r in zip(ref.coords, *basis)])
        keep = [i - 1 for i in pivots if i > 0]
        basis = [basis[i] for i in keep]
    gram_basis = [linalg.mat_vec(QQ, lat.gram, v) for v in basis]
    return tuple(tuple(linalg.mat_vec(QQ, gram_basis, w)) for w in basis), basis


# --- Rankin-type counting ---------------------------------------------------


@dataclass(frozen=True)
class RankinReport:
    dim: int
    count: int
    bound: int
    strict: bool
    ok: bool


def rankin_check(dim: int, vectors, strict: bool = False, gram=None) -> RankinReport:
    """Check a family of nonzero vectors with pairwise non-positive inner
    products against the counting bound: 2*dim (non-strict) or dim+1 (strict).

    Inner products are Euclidean unless a positive-definite rational Gram
    matrix is supplied.  Hypothesis violations raise ValueError naming the
    offending vector or pair.
    """
    vecs = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vecs:
        raise ValueError("empty configuration")
    for i, v in enumerate(vecs):
        if len(v) != dim:
            raise ValueError("dimension mismatch")
        if all(x == 0 for x in v):
            raise ValueError(f"zero vector at index {i}")

    def dot(a, b):
        if gram is None:
            return sum(x * y for x, y in zip(a, b))
        return sum(a[i] * gram[i][j] * b[j] for i in range(dim) for j in range(dim))

    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            p = dot(vecs[i], vecs[j])
            if p > 0 or (strict and p == 0):
                raise ValueError(f"inner product hypothesis fails for pair ({i}, {j})")
    bound = dim + 1 if strict else 2 * dim
    return RankinReport(dim, len(vecs), bound, strict, len(vecs) <= bound)


def _grid_directions(dim: int, radius: int):
    from itertools import product
    from math import gcd

    seen = set()
    out = []
    for v in product(range(-radius, radius + 1), repeat=dim):
        if all(x == 0 for x in v):
            continue
        g = 0
        for x in v:
            g = gcd(g, abs(x))
        prim = tuple(x // g for x in v)
        if prim not in seen:
            seen.add(prim)
            out.append(prim)
    return out


def rankin_extremal_search(dim: int, strict: bool = False) -> int:
    """Largest family of grid directions with pairwise non-positive (strict:
    negative) inner products, by exhaustive clique search; dim <= 3 only."""
    if not 1 <= dim <= 3:
        raise ValueError("dimension too large for brute force")
    radius = {1: 1, 2: 2, 3: 1}[dim]
    dirs = _grid_directions(dim, radius)
    n = len(dirs)
    compat = [
        [
            sum(a * b for a, b in zip(dirs[i], dirs[j])) < 0
            or (not strict and sum(a * b for a, b in zip(dirs[i], dirs[j])) == 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    best = 0

    def extend(chosen: int, cands: list) -> None:
        nonlocal best
        if chosen > best:
            best = chosen
        for k, c in enumerate(cands):
            if chosen + len(cands) - k <= best:
                return
            extend(chosen + 1, [d for d in cands[k + 1 :] if compat[c][d]])

    extend(0, list(range(n)))
    return best


# --- exceptional classes ----------------------------------------------------


@dataclass(frozen=True)
class ExceptionalPartition:
    """Classes of degree zero against a nef reference class, split into the
    ray through the reference class and the negative-square part."""

    ray: tuple
    negative: tuple
    rho: int
    dim: int
    bound: int
    rankin: RankinReport | None


def _proportional(a: LatticeClass, b: LatticeClass) -> bool:
    for i in range(len(a.coords)):
        for j in range(len(a.coords)):
            if a.coords[i] * b.coords[j] != a.coords[j] * b.coords[i]:
                return False
    return True


def exceptional_curves(
    lat: SurfaceLattice, ref: LatticeClass, curves
) -> ExceptionalPartition:
    """Partition the supplied classes of degree zero against ref.

    ref must be nef against the list (ref.A >= 0 for every entry, checked).
    The negative part is validated against the applicable counting bound:
    2*(rho-2) via the restricted form when ref^2 = 0, and linear
    independence (hence at most rho-1) when ref^2 > 0.
    """
    if ref.is_zero:
        raise ValueError("zero reference class")
    rho = lat.rank
    zero_set = []
    for idx, a in enumerate(curves):
        if a.is_zero:
            raise ValueError(f"zero class at index {idx}")
        deg = intersect(lat, ref, a)
        if deg < 0:
            raise ValueError(f"nefness violated by curve {a.coords}")
        if deg == 0:
            zero_set.append(a)
    ray = tuple(a for a in zero_set if _proportional(a, ref))
    negative = tuple(a for a in zero_set if not _proportional(a, ref))
    for a in negative:
        if intersect(lat, a, a) >= 0:
            raise ValueError(f"non-negative square for off-ray class {a.coords}")
    form, basis = restricted_form(lat, ref)
    dim = len(form)
    report = None
    if intersect(lat, ref, ref) == 0:
        bound = 2 * (rho - 2)
        if negative:
            coords = [_project(lat, basis, ref, a) for a in negative]
            flipped = tuple(tuple(-x for x in row) for row in form)
            report = rankin_check(dim, coords, strict=False, gram=flipped)
            if not report.ok:
                raise ValueError("counting bound violated")
    else:
        bound = rho - 1
        if negative:
            coords = [_project(lat, basis, ref, a) for a in negative]
            if linalg.rank(QQ, [list(c) for c in coords]) != len(negative):
                raise ValueError("supplied classes are linearly dependent")
            if len(negative) > bound:
                raise ValueError("counting bound violated")
    return ExceptionalPartition(ray, negative, rho, dim, bound, report)


def _project(lat: SurfaceLattice, basis, ref: LatticeClass, a: LatticeClass):
    """Coordinates of a in the restricted-form basis (mod the ref ray)."""
    cols = list(basis)
    if intersect(lat, ref, ref) == 0:
        cols.append(ref.coords)
    rows = [[col[i] for col in cols] for i in range(lat.rank)]
    sol = linalg.solve(QQ, rows, list(a.coords))
    if sol is None:
        raise ValueError("class lies outside the orthogonal complement")
    return tuple(sol[: len(basis)])


def l_equivalence_bound(lat: SurfaceLattice, curves, ref: LatticeClass | None = None) -> int:
    """Chain-length bound: max over connected components of diameter + 1.

    Two supplied classes are adjacent when their product is positive.  When a
    reference class is supplied, every curve must have degree zero against
    it.
    """
    n = len(curves)
    if ref is not None:
        for a in curves:
            if intersect(lat, ref, a) != 0:
                raise ValueError(f"class {a.coords} is not orthogonal to the reference")
    if n == 0:
        return 0
    adj = [
        [i != j and intersect(lat, curves[i], curves[j]) > 0 for j in range(n)]
        for i in range(n)
    ]

    def bfs(src: int):
        dist = {src: 0}
        queue = [src]
        for v in queue:
            for w in range(n):
                if adj[v][w] and w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    seen: set = set()
    best = 0
    for s in range(n):
        if s in seen:
            continue
        comp = bfs(s)
        seen |= set(comp)
        diam = 0
        for v in comp:
            diam = max(diam, max(bfs(v).values()))
        best = max(best, diam + 1)
    return best


def standard_example(base: str, d: int):
    """The optimality configurations: (lattice, reference class, curves).

    P^1 x P^1 blown up at d points on distinct fibers of one ruling, with
    the other ruling class as reference: 2d classes of degree zero, all of
    square -1.  P^2 blown up at d points with the line class as reference:
    the d exceptional classes.
    """
    lat = blowup_lattice(base, d)
    if base == P1XP1:
        f1, f2 = lat.unit(0), lat.unit(1)
        es = [lat.unit(2 + i) for i in range(d)]
        ref = f2
        curves = [f2, f1] + es + [f2 - e for e in es]
        return lat, ref, curves
    h = lat.unit(0)
    es = [lat.unit(1 + i) for i in range(d)]
    curves = [h] + es
    for i in range(d):
        for j in range(i + 1, d):
            curves.append(h - es[i] - es[j])
    return lat, h, curves
