"""Dense exact linear algebra over F_q and Q.

Matrices are lists of rows.  `field` is anything with the element
operations `add`, `sub`, `neg`, `mul` and `inv`: a finite field of
`fields`, whose entries are integer codes, or the rationals of `lattice`,
whose entries are Fractions.  Zero must be the only falsy entry.  All sizes
in this package are small, so `rref` is plain cubic Gaussian elimination;
it is the package's one Gaussian elimination.
"""

from __future__ import annotations

from .fields import Field


def rref(field: Field, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form (copy) and the list of pivot columns."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    mul, sub, invf = field.mul, field.sub, field.inv
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = invf(m[r][c])
        m[r] = [mul(v, inv) for v in m[r]]
        row_r = m[r]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [sub(a, mul(f, b)) for a, b in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(field: Field, rows: list[list[int]]) -> int:
    return len(rref(field, rows)[1])


def kernel_basis(field: Field, rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Canonical basis of the right kernel of the matrix.

    Each basis vector has a 1 in one free column and 0 in the others, so the
    output is deterministic given the row space.
    """
    m, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    neg = field.neg
    out = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = neg(m[i][fc])
        out.append(v)
    return out


def solve(field: Field, rows: list[list[int]], rhs: list[int]):
    """One solution of A x = rhs with free variables set to 0, or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    m, pivots = rref(field, aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = m[i][ncols]
    return x


def mat_mul(field: Field, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    mul, add = field.mul, field.add
    nb = len(b[0])
    out = []
    for row in a:
        acc = [0] * nb
        for i, c in enumerate(row):
            if c:
                bi = b[i]
                for j in range(nb):
                    if bi[j]:
                        acc[j] = add(acc[j], mul(c, bi[j]))
        out.append(acc)
    return out


def mat_vec(field: Field, a: list[list[int]], v: list[int]) -> list[int]:
    mul, add = field.mul, field.add
    out = []
    for row in a:
        acc = 0
        for c, x in zip(row, v):
            if c and x:
                acc = add(acc, mul(c, x))
        out.append(acc)
    return out
