"""linalg over F_7, F_9 and the rationals, checked against the definitions."""

import itertools
import random
from fractions import Fraction

import pytest

from nefcert import linalg
from nefcert.fields import field
from nefcert.lattice import QQ

FIELDS = {"F7": field(7), "F9": field(3, 2), "QQ": QQ}


def _entry(F, rng):
    if F is QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(F.q)


def _random(F, rng, nrows, ncols):
    return [[_entry(F, rng) for _ in range(ncols)] for _ in range(nrows)]


def _matrices(F, seed):
    """Seeded matrices of every shape the checks care about."""
    rng = random.Random(seed)
    out = [
        [[0] * 4 for _ in range(3)],  # zero matrix
        [[1, 0, 2], [0, 0, 0], [2, 0, 4]],  # a zero row and a zero column
        _random(F, rng, 1, 1),
        _random(F, rng, 2, 6),  # wide
        _random(F, rng, 7, 3),  # tall
        _random(F, rng, 4, 4),
    ]
    for nrows, ncols, r in ((5, 5, 2), (6, 4, 1), (3, 7, 2), (6, 6, 3)):
        # rank at most r, and for random factors usually exactly r
        out.append(linalg.mat_mul(F, _random(F, rng, nrows, r), _random(F, rng, r, ncols)))
    zero_col = _random(F, rng, 4, 5)
    for row in zero_col:
        row[2] = 0
    zero_col[1] = [0] * 5
    out.append(zero_col)
    return out


def _in_span(F, red, pivots, row):
    """row == sum of row[pc] * red[i] over the pivots (pc, i) of an RREF."""
    acc = [0] * len(row)
    for i, pc in enumerate(pivots):
        acc = [F.add(a, F.mul(row[pc], b)) for a, b in zip(acc, red[i])]
    return acc == list(row)


def _is_rref(red, pivots, ncols):
    if pivots != sorted(set(pivots)) or any(not 0 <= c < ncols for c in pivots):
        return False
    for i, row in enumerate(red):
        if i >= len(pivots):
            if any(row):
                return False
            continue
        pc = pivots[i]
        if any(row[:pc]) or row[pc] != 1:
            return False
        if any(red[j][pc] for j in range(len(red)) if j != i):
            return False
    return True


@pytest.mark.parametrize("name", FIELDS)
def test_rref_is_reduced_and_keeps_the_row_space(name):
    F = FIELDS[name]
    for seed in range(4):
        for A in _matrices(F, seed):
            nrows, ncols = len(A), len(A[0])
            red, pivots = linalg.rref(F, A)
            assert len(red) == nrows and all(len(r) == ncols for r in red)
            assert _is_rref(red, pivots, ncols)
            assert linalg.rank(F, A) == len(pivots)
            # rows of A lie in the span of the RREF ...
            assert all(_in_span(F, red, pivots, row) for row in A)
            # ... and the RREF rows in the span of A: eliminating [A | I]
            # records a T with T A = RREF(A)
            eye = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
            aug, _ = linalg.rref(F, [row + e for row, e in zip(A, eye)])
            assert [row[:ncols] for row in aug] == red
            T = [row[ncols:] for row in aug]
            assert linalg.mat_mul(F, T, A) == red


@pytest.mark.parametrize("name", FIELDS)
def test_kernel_basis_spans_the_kernel(name):
    F = FIELDS[name]
    for seed in range(4):
        for A in _matrices(F, seed):
            ncols = len(A[0])
            _, pivots = linalg.rref(F, A)
            kernel = linalg.kernel_basis(F, A, ncols)
            assert len(kernel) == ncols - linalg.rank(F, A)
            for v in kernel:
                assert linalg.mat_vec(F, A, v) == [0] * len(A)
            # independent: the vectors restrict to the identity on the free columns
            free = [c for c in range(ncols) if c not in pivots]
            assert [[v[c] for c in free] for v in kernel] == [
                [int(i == j) for j in range(len(free))] for i in range(len(free))
            ]
    assert linalg.kernel_basis(F, [], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("name", FIELDS)
def test_solve_exactly_when_the_augmented_rank_agrees(name):
    F = FIELDS[name]
    rng = random.Random(11)
    solvable = unsolvable = 0
    for seed in range(4):
        for A in _matrices(F, seed):
            nrows, ncols = len(A), len(A[0])
            x0 = [_entry(F, rng) for _ in range(ncols)]
            for b in (linalg.mat_vec(F, A, x0), [_entry(F, rng) for _ in range(nrows)]):
                x = linalg.solve(F, A, b)
                aug_rank = linalg.rank(F, [row + [c] for row, c in zip(A, b)])
                assert (x is not None) == (aug_rank == linalg.rank(F, A))
                if x is None:
                    unsolvable += 1
                else:
                    solvable += 1
                    assert linalg.mat_vec(F, A, x) == b
    assert solvable and unsolvable


def test_kernel_size_matches_brute_force_over_f3():
    F = field(3)
    rng = random.Random(5)
    shapes = [(r, c) for r in range(1, 4) for c in range(1, 5)]
    for nrows, ncols in shapes * 8:
        A = [[rng.choice((0, 0, 1, 2)) for _ in range(ncols)] for _ in range(nrows)]
        zeros = sum(
            linalg.mat_vec(F, A, list(v)) == [0] * nrows
            for v in itertools.product(range(3), repeat=ncols)
        )
        assert zeros == 3 ** len(linalg.kernel_basis(F, A, ncols))
