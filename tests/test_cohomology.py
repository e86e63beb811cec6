import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefcert import linalg
from nefcert.cohomology import (
    cartier_manin,
    cartier_nonsingular,
    frobenius_h1,
    h1_space,
    p_torsion_bundle,
    rr_space,
    torsion_trivialization,
)
from nefcert.curves import Curve, Divisor
from nefcert.fields import Polynomial, field, is_irreducible
from nefcert.jacobian import (
    find_p_torsion,
    frobenius_data,
    mumford_to_divisor,
)
from nefcert.oracles import (
    TailClass,
    cartier_class,
    differential_divisor,
    differential_space,
    frobenius_by_residues,
    h1,
    holomorphic_differentials,
    is_ordinary,
    p_rank,
    serre_pairing,
)

F3 = field(3)
F5 = field(5)


def curve35() -> Curve:
    # y^2 = x^5 + 1
    return Curve(F3, (1, 0, 0, 0, 0, 1))


def curve3x() -> Curve:
    # y^2 = x^5 + x
    return Curve(F3, (0, 1, 0, 0, 0, 1))


def _random_place(C: Curve, rng: random.Random, max_deg: int = 2):
    base = C.field
    q = base.q
    while True:
        d = rng.randrange(1, max_deg + 1)
        u = Polynomial(base, tuple(rng.randrange(q) for _ in range(d)) + (1,))
        if not is_irreducible(u):
            continue
        pls = C.places_above(u)
        return pls[rng.randrange(len(pls))]


def _random_divisor(C: Curve, rng: random.Random) -> Divisor:
    items = [(C.infinite_place(), rng.randrange(-3, 4))]
    for _ in range(rng.randrange(3)):
        items.append((_random_place(C, rng), rng.randrange(-2, 3)))
    return Divisor(items)


def test_section_ladder_dimensions():
    for C in (curve35(), curve3x()):
        inf = C.infinite_place()
        dims = [rr_space(C, Divisor([(inf, k)])).dim for k in range(8)]
        assert dims == [1, 1, 2, 2, 3, 4, 5, 6]
        # no sections once the divisor forces a zero at a point
        P = C.places_above(Polynomial.x(C.field))[0]
        assert rr_space(C, Divisor([(P, -1)])).dim == 0


def test_riemann_roch_identity_on_random_divisors():
    for p, fc in ((3, (0, 1, 0, 0, 0, 1)), (5, (1, 1, 0, 0, 0, 1))):
        C = Curve(field(p), fc)
        K = C.canonical_divisor()
        rng = random.Random(p)
        for _ in range(40):
            D = _random_divisor(C, rng)
            assert rr_space(C, D).dim - rr_space(C, K - D).dim == D.degree - 1


def test_rr_coords_recover_combinations():
    C = curve3x()
    inf = C.infinite_place()
    sp = rr_space(C, Divisor([(inf, 6)]))
    rng = random.Random(2)
    for _ in range(10):
        coeffs = [rng.randrange(3) for _ in sp.basis]
        phi = C.zero()
        for c, b in zip(coeffs, sp.basis):
            if c:
                phi = phi + b.scale(c)
        assert sp.coords(phi) == tuple(coeffs)
    # a function with a deeper pole at infinity lies outside
    outside = rr_space(C, Divisor([(inf, 8)])).basis[-1]
    assert sp.coords(outside) is None
    # and one with a finite pole does too
    P = C.places_above(Polynomial(C.field, (1, 1)))[0]
    bad = rr_space(C, Divisor([(P, 1), (inf, 6)])).basis[-1]
    assert C.valuation(bad, P) < 0
    assert sp.coords(bad) is None


def test_h1_gap_exponents_and_duality():
    for C in (curve35(), curve3x()):
        H = h1_space(C, Divisor())
        assert H.gaps == (-3, -1)
        assert H.dim == 2
        assert h1(C, Divisor()) == 2
        assert h1(C, C.canonical_divisor()) == 1
        # Riemann-Roch: the gaps number h^0(K - E) on random bundles
        rng = random.Random(17)
        for _ in range(8):
            E = _random_divisor(C, rng)
            assert h1_space(C, E).dim == rr_space(C, C.canonical_divisor() - E).dim


def _pairing_matrix(C: Curve, E: Divisor):
    H = h1_space(C, E)
    oms = differential_space(C, E)
    assert len(oms) == H.dim
    inf = C.infinite_place()
    basis = [TailClass(C, E, {inf: {e: 1}}) for e in H.gaps]
    return [[serre_pairing(xi, om) for om in oms] for xi in basis], H.dim


def test_serre_pairing_is_nondegenerate():
    C = curve35()
    inf = C.infinite_place()
    split = C.places_above(Polynomial.x(C.field))[0]
    ram = C.places_above(Polynomial(C.field, (1, 1)))[0]
    inert = C.places_above(Polynomial(C.field, (1, 0, 1)))[0]
    bundles = [
        Divisor(),
        Divisor([(inf, -2)]),
        Divisor([(inf, 1)]),
        Divisor([(split, -1)]),
        Divisor([(ram, -2), (inf, 1)]),
        Divisor([(inert, -1)]),
    ]
    for E in bundles:
        mat, dim = _pairing_matrix(C, E)
        if dim:
            assert linalg.rank(C.field, mat) == dim


def test_serre_pairing_on_random_bundles():
    C = curve3x()
    rng = random.Random(23)
    seen = 0
    while seen < 12:
        E = _random_divisor(C, rng)
        mat, dim = _pairing_matrix(C, E)
        if dim == 0:
            continue
        assert linalg.rank(C.field, mat) == dim
        seen += 1


def test_tails_of_a_global_function_pair_to_zero():
    """The pole tails of a global function are the zero class of H^1(O): by
    the residue theorem they pair to zero with both regular differentials,
    and the pairing is perfect.  Dropping the tail at one pole place leaves
    a class that pairs nonzero."""
    C = curve3x()
    inf = C.infinite_place()
    P = C.places_above(Polynomial(C.field, (1, 1)))[0]
    sp = rr_space(C, Divisor([(P, 2), (inf, 4)]))
    phi = next(b for b in sp.basis if C.valuation(b, P) < 0)
    data = {}
    for pl in list(C.divisor(phi).support):
        v = C.valuation(phi, pl)
        if v < 0:
            wind = C.expand(phi, pl, 16)[1].window(v, 0)
            data[pl] = {v + k: c for k, c in enumerate(wind)}
    oms = holomorphic_differentials(C)
    assert [serre_pairing(TailClass(C, Divisor(), data), om) for om in oms] == [0, 0]
    partial = dict(data)
    del partial[inf]
    assert any(serre_pairing(TailClass(C, Divisor(), partial), om) for om in oms)


def test_cartier_manin_fixed_instances():
    assert cartier_manin(curve35()) == ((0, 0), (1, 0))
    assert cartier_manin(curve3x()) == ((0, 1), (1, 0))
    assert not cartier_nonsingular(curve35())
    assert cartier_nonsingular(curve3x())
    assert p_rank(curve35()) == 0
    assert p_rank(curve3x()) == 2


def test_frobenius_h1_matches_cartier_verdict():
    # the p-power map on H^1(O) is injective exactly when the matrix of
    # f^((p-1)/2) coefficients is nonsingular, which is the ordinarity test
    for p in (3, 5, 7):
        F = field(p)
        rng = random.Random(p)
        seen = 0
        while seen < 12:
            coeffs = tuple(rng.randrange(p) for _ in range(5)) + (1,)
            try:
                C = Curve(F, coeffs)
            except ValueError:
                continue
            fr = frobenius_h1(C, Divisor(), C.one())
            assert fr.source_dim == fr.target_dim == 2
            assert fr.injective == cartier_nonsingular(C)
            assert fr.injective == is_ordinary(C)
            seen += 1


def _ordinary_with_torsion(p: int, seed: int = 1):
    F = field(p)
    rng = random.Random(seed)
    while True:
        coeffs = tuple(rng.randrange(p) for _ in range(5)) + (1,)
        try:
            C = Curve(F, coeffs)
        except ValueError:
            continue
        if not is_ordinary(C):
            continue
        if frobenius_data(C).order % p:
            continue
        return C


def test_torsion_trivialization_and_cartier_class():
    for p in (3, 5):
        C = _ordinary_with_torsion(p)
        F = C.field
        rep = mumford_to_divisor(find_p_torsion(C, seed=0))
        assert rep.degree == 0
        g = torsion_trivialization(C, rep, p)
        assert C.divisor(g) == rep * p
        c = cartier_class(g)
        m = cartier_manin(C)
        # a logarithmic differential is fixed by the Cartier operator
        for i in range(2):
            rhs = F.add(F.mul(m[i][0], c[0]), F.mul(m[i][1], c[1]))
            assert F.pow(c[i], p) == rhs
        # the class pairs as a regular differential should: nonzero somewhere
        assert c != (0, 0)


def test_frobenius_h1_on_torsion_bundle():
    C = _ordinary_with_torsion(3)
    rep = mumford_to_divisor(find_p_torsion(C, seed=0))
    g = torsion_trivialization(C, rep, 3)
    src = rep * -1
    assert h1(C, src) == 1
    fr = frobenius_h1(C, src, g=g)
    assert (fr.source_dim, fr.target_dim) == (1, 2)
    assert fr.injective  # of rank 1, so the matrix is nonzero


def _torsion_pairs(per_field: int = 3):
    """Seeded (curve, p-torsion bundle) pairs over fields from F_9 to F_49,
    each curve defined over F_p."""
    out = []
    for p, k in ((3, 2), (5, 2), (3, 3), (7, 2), (11, 1), (13, 1), (17, 1)):
        F = field(p, k)
        rng = random.Random(1000 + 10 * p + k)
        start = len(out)
        while len(out) < start + per_field:
            try:
                C = Curve(F, tuple(rng.randrange(p) for _ in range(5)) + (1,))
            except ValueError:
                continue
            if not is_ordinary(C) or frobenius_data(C).order % p:
                continue
            try:
                cls = find_p_torsion(C, rng.randrange(1 << 32))
            except (RuntimeError, ValueError):
                continue
            out.append((C, p_torsion_bundle(C, cls)))
    return out


def test_frobenius_h1_matches_the_pairing_definition():
    """frobenius_h1 reads its matrix off the Cartier operator at a finite
    place; the oracle takes it from the residues at infinity that define the
    pairing.  They agree on 21 seeded p-torsion bundles over F_9 .. F_49;
    test_obstruction compares them on the certificates' bundles."""
    pairs = _torsion_pairs()
    assert len(pairs) == 21
    for C, b in pairs:
        fr = frobenius_h1(C, -b.rep, b.g)
        assert (fr.source_dim, fr.target_dim) == (1, 2)
        assert fr.matrix == frobenius_by_residues(C, -b.rep, b.g)


def test_frobenius_h1_on_the_trivial_source_is_dual_to_cartier_manin():
    """On H^1(O), <F xi, omega> = <xi, C omega>^p, and Manin's
    C(x^(j-1) dx/y) = sum_i H_ij^(1/p) x^(i-1) dx/y for H = cartier_manin.
    With P_ij = res(t^e_i omega_j) at infinity (gaps e_i, t = x^2/y,
    omega_j = x^(j-1) dx/y) the matrix M of frobenius_h1 is therefore
    P^-T H^T P^(p)T; it also equals the residue oracle's."""
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)):
        F = field(p, k)
        rng = random.Random(10 * p + k)
        seen = 0
        while seen < 5:
            try:
                C = Curve(F, tuple(rng.randrange(F.q) for _ in range(5)) + (1,))
            except ValueError:
                continue
            seen += 1
            M = [list(row) for row in frobenius_h1(C, Divisor(), C.one()).matrix]
            assert tuple(map(tuple, M)) == frobenius_by_residues(C, Divisor(), C.one())
            inf, t = C.infinite_place(), C.x() * C.x() / C.y()
            oms = holomorphic_differentials(C)
            gaps = h1_space(C, Divisor()).gaps
            pt = [[C.residue(om, inf, num=(t**e,)) for e in gaps] for om in oms]
            ht = [list(col) for col in zip(*cartier_manin(C))]
            ppt = [[F.frob(c) for c in row] for row in pt]
            assert linalg.mat_mul(F, pt, M) == linalg.mat_mul(F, ht, ppt)


def test_frobenius_h1_needs_a_rational_place_where_g_is_a_unit():
    # y^2 = x^5 + 2x^4 + 2x^3 + x^2 + 2 over F_3 has one rational point, the
    # place at infinity, and L has a pole there
    C = Curve(F3, (2, 0, 1, 2, 2, 1))
    b = p_torsion_bundle(C, find_p_torsion(C, seed=0))
    assert C.point_count(1) == 1 and b.rep.mult(C.infinite_place()) != 0
    with pytest.raises(ValueError, match="g is a unit at no rational place"):
        frobenius_h1(C, -b.rep, b.g)


def test_cartier_class_error_cases():
    C = curve3x()
    with pytest.raises(ValueError, match="vanishes"):
        cartier_class(C.one())
    # dg/g for g = x has simple poles, hence is not regular
    with pytest.raises(ValueError, match="not regular"):
        cartier_class(C.x())


def test_tail_class_normalization_and_algebra():
    C = curve3x()
    inf = C.infinite_place()
    E = Divisor([(inf, 1)])
    # exponents >= -1 are absorbed by the bundle, zero coefficients dropped
    tc = TailClass(C, E, {inf: {-1: 2, -2: 0, -3: 1, 5: 2}})
    assert tc.tails == ((inf, ((-3, 1),)),)
    other = TailClass(C, E, {inf: {-3: 2}})
    assert (tc + other).is_zero
    assert (tc.scale(0)).is_zero
    assert tc - tc == TailClass(C, E, {})
    with pytest.raises(ValueError, match="mismatched"):
        tc + TailClass(C, Divisor(), {})


def test_holomorphic_differentials_basis():
    C = curve35()
    oms = holomorphic_differentials(C)
    assert len(oms) == 2
    for om in oms:
        assert differential_divisor(om).is_effective
    # they are dx/y and x dx/y
    assert oms[0].w == C.y().inverse()
    assert oms[1].w == C.x() * C.y().inverse()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3**6 - 1), st.integers(-2, 4))
def test_riemann_roch_identity_property(seed, ninf):
    C = curve3x()
    rng = random.Random(seed)
    items = [(C.infinite_place(), ninf), (_random_place(C, rng), rng.randrange(-2, 3))]
    D = Divisor(items)
    K = C.canonical_divisor()
    assert rr_space(C, D).dim - rr_space(C, K - D).dim == D.degree - 1
