"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; each test prints an explicit
`criterion NN: PASS` line as well (visible with -s or in captured output).
"""

import copy
import itertools
import random
import time

import pytest

from nefcert import linalg, serialize
from nefcert.cohomology import (
    cartier_manin,
    cartier_nonsingular,
    frobenius_h1,
    h1_space,
    p_torsion_bundle,
    rr_space,
)
from nefcert.curves import INERT, Curve, Differential, Divisor, rational_places
from nefcert.fields import Polynomial, field, is_irreducible
from nefcert.jacobian import (
    MumfordClass,
    jac_order,
    random_class,
)
from nefcert.lattice import (
    P1XP1,
    P2,
    blowup_lattice,
    exceptional_curves,
    hodge_signature,
    rankin_extremal_search,
    standard_example,
)
from nefcert.obstruction import (
    beta_functional,
    certificate_build,
    certificate_verify,
    embed_bidegree_2_3,
)
from nefcert.oracles import (
    TailClass,
    beta_by_coords,
    beta_values,
    enumerate_classes,
    serre_pairing,
)
from witnesses import decode_witnesses


def _report(num: int, desc: str, ok: bool):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def _first_curve(p: int) -> Curve:
    base = field(p)
    for coeffs in itertools.product(range(p), repeat=5):
        try:
            return Curve(base, tuple(coeffs) + (1,))
        except ValueError:
            continue
    raise AssertionError("no smooth model found")


def _random_place(curve, rng, max_deg=2):
    base = curve.field
    while True:
        d = rng.randrange(1, max_deg + 1)
        u = Polynomial(base, tuple(rng.randrange(base.q) for _ in range(d)) + (1,))
        if not is_irreducible(u):
            continue
        pls = curve.places_above(u)
        return pls[rng.randrange(len(pls))]


def _random_divisor(curve, rng):
    items = [(curve.infinite_place(), rng.randrange(-2, 3))]
    for _ in range(rng.randrange(1, 5)):
        items.append((_random_place(curve, rng), rng.randrange(-2, 3)))
    div = Divisor(items)
    return div if abs(div.degree) <= 20 else Divisor(items[:1])


@pytest.fixture(scope="module")
def cert3():
    return certificate_build(3, seed=0)


@pytest.fixture(scope="module")
def setting3(cert3):
    w = decode_witnesses(cert3)
    emb = embed_bidegree_2_3(w.curve, w.a_div)
    return w.curve, emb, emb.n_div


def test_criterion_01_riemann_roch_identity():
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for p in (3, 5, 7, 11):
        curve = _first_curve(p)
        kdiv = curve.canonical_divisor()
        for _ in range(250):
            div = _random_divisor(curve, rng)
            lhs = rr_space(curve, div).dim - rr_space(curve, kdiv - div).dim
            if lhs != div.degree - 1:
                _report(1, f"identity fails at p={p} on {div}", False)
            checked += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        f"h0(D) - h0(K-D) = deg D - 1 on {checked} random divisors,"
        f" p in 3/5/7/11, {elapsed:.1f}s",
        checked >= 1000 and elapsed < 300,
    )


def test_criterion_02_residue_theorem_and_duality_pairing():
    rng = random.Random(202)
    curves = [_first_curve(p) for p in (3, 5, 7)]

    # 200 differentials whose poles avoid the inert places, where nothing
    # is expanded
    zero_sums = 0
    while zero_sums < 200:
        curve = curves[rng.randrange(len(curves))]
        base = curve.field
        num = Polynomial(base, tuple(rng.randrange(base.q) for _ in range(4)))
        den = Polynomial(base, tuple(rng.randrange(base.q) for _ in range(3)) + (1,))
        w = curve.fn(num, Polynomial(base, (rng.randrange(base.q),))) * curve.fn(den).inverse()
        if w.is_zero:
            continue
        # the poles of w dx lie over the denominator of w and at infinity
        poles = curve.places_over(w.h) + [curve.infinite_place()]
        if any(pl.kind == INERT for pl in poles):
            continue
        omega = Differential(curve, w)
        total = 0
        for pl in poles:
            total = base.add(total, curve.residue(omega, pl))
        if total != 0:
            _report(2, f"nonzero residue sum for {w}", False)
        zero_sums += 1

    paired = 0
    for _ in range(200):
        if paired >= 100:
            break
        curve = curves[rng.randrange(len(curves))]
        div = _random_divisor(curve, rng)
        if div.degree > 2:
            continue
        hs = h1_space(curve, div)
        if hs.dim == 0:
            continue
        dual = rr_space(curve, curve.canonical_divisor() - div)
        assert dual.dim == hs.dim
        yinv = curve.y().inverse()
        mat = []
        for e in hs.gaps:
            tail = TailClass(curve, div, {curve.infinite_place(): {e: 1}})
            row = []
            for phi in dual.basis:
                row.append(serre_pairing(tail, Differential(curve, phi * yinv)))
            mat.append(row)
        if linalg.rank(curve.field, mat) != hs.dim:
            _report(2, f"degenerate pairing on {div}", False)
        paired += 1
    _report(
        2,
        f"residue sums vanish on {zero_sums} differentials;"
        f" duality pairing full rank on {paired} bundles",
        zero_sums >= 200 and paired >= 100,
    )


def test_criterion_03_jacobian_order_oracle_and_group_axioms():
    rng = random.Random(303)
    samples = 0
    for coeffs in ((0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1)):
        curve = Curve(field(3), coeffs)
        classes = enumerate_classes(curve)
        if jac_order(curve) != len(classes):
            _report(3, f"order mismatch on f={coeffs}", False)
        zero = MumfordClass.zero(curve)
        for _ in range(1700):
            a = random_class(curve, rng)
            b = random_class(curve, rng)
            c = random_class(curve, rng)
            samples += 3
            ok = (
                (a + b) + c == a + (b + c)
                and a + b == b + a
                and (a + (-a)).is_zero
                and a + zero == a
            )
            if not ok:
                _report(3, f"group axiom fails on {a}, {b}, {c}", False)
    _report(
        3,
        f"charpoly order equals exhaustive count on two F_3 curves;"
        f" group axioms on {samples} sampled classes",
        samples >= 10**4,
    )


def test_criterion_04_cartier_manin_matches_frobenius_on_h1():
    fixed = {
        (1, 0, 0, 0, 0, 1): (((0, 0), (1, 0)), False),
        (0, 1, 0, 0, 0, 1): (((0, 1), (1, 0)), True),
    }
    base3 = field(3)
    for coeffs, (matrix, ordinary) in fixed.items():
        curve = Curve(base3, coeffs)
        if cartier_manin(curve) != matrix or cartier_nonsingular(curve) != ordinary:
            _report(4, f"fixed instance f={coeffs} disagrees", False)

    checked = 0
    for p in (3, 5, 7):
        base = field(p)
        count = 0
        for coeffs in itertools.product(range(p), repeat=5):
            if count >= 34:
                break
            try:
                curve = Curve(base, tuple(coeffs) + (1,))
            except ValueError:
                continue
            frob = frobenius_h1(curve, Divisor(), curve.one())
            if frob.injective != cartier_nonsingular(curve):
                _report(4, f"verdicts disagree at p={p}, f={coeffs}", False)
            count += 1
            checked += 1
    _report(
        4,
        f"Frobenius injectivity on H^1(O) matches the Cartier-Manin verdict"
        f" on {checked} curves over p in 3/5/7, plus both fixed instances",
        checked >= 100,
    )


def test_criterion_05_torsion_section_dimensions(setting3):
    curve, emb, n0 = setting3
    kdiv = curve.canonical_divisor()
    tors = [
        cl
        for cl in enumerate_classes(curve)
        if not cl.is_zero and (3 * cl).is_zero
    ]
    if not tors:
        _report(5, "sample curve carries no rational 3-torsion", False)
    from nefcert.jacobian import mumford_to_divisor

    for cl in tors:
        rep = mumford_to_divisor(cl)
        if rr_space(curve, kdiv + rep).dim != 1:
            _report(5, f"h0(K+L) != 1 for {cl}", False)
        if rr_space(curve, n0 - rep).dim != 11:
            _report(5, f"h0(N-L) != 11 for {cl}", False)
    dim_big = rr_space(curve, n0 + 2 * kdiv).dim
    _report(
        5,
        f"h0(K+L) = 1 and h0(N-L) = 11 for all {len(tors)} nontrivial rational"
        f" 3-torsion classes; h0(2K+N) = {dim_big}",
        dim_big == 15,
    )


def test_criterion_06_castelnuovo_multiplication_rank(setting3):
    curve, emb, n0 = setting3
    kdiv = curve.canonical_divisor()
    k_basis = rr_space(curve, kdiv).basis
    pts = rational_places(curve)
    rng = random.Random(606)
    done = 0
    for _ in range(50):
        b_div = Divisor((pl, 1) for pl in rng.sample(pts, 4))
        target = rr_space(curve, n0 + 2 * kdiv - b_div)
        rows = []
        for u in rr_space(curve, n0 + kdiv - b_div).basis:
            for w in k_basis:
                co = target.coords(u * w)
                if co is None:
                    _report(6, f"product escapes the target space at {b_div}", False)
                rows.append(list(co))
        if target.dim != 11 or linalg.rank(curve.field, rows) != 11:
            _report(6, f"multiplication rank is not 11 at {b_div}", False)
        done += 1
    _report(
        6,
        f"H0(K+N-B) x H0(K) -> H0(2K+N-B) has rank exactly 11"
        f" for {done} random effective degree-4 B",
        done >= 50,
    )


def test_criterion_07_functional_choice_independence_and_restriction(setting3):
    curve, emb, n0 = setting3
    b0 = beta_functional(emb, 0)
    values = beta_values(b0)
    for choice in range(1, 6):
        if beta_values(beta_functional(emb, choice)) != values:
            _report(7, f"splitting choice {choice} changes the functional", False)
    pts = rational_places(curve)
    rng = random.Random(707)
    alive = 0
    for _ in range(50):
        b_div = Divisor((pl, 1) for pl in rng.sample(pts, 4))
        sub = rr_space(curve, b0.space_div - b_div).basis
        if not any(beta_by_coords(b0, values, phi) for phi in sub):
            _report(7, f"functional dies on sections through {b_div}", False)
        alive += 1
    _report(
        7,
        "extension-class functional is choice-independent across 6 splittings"
        f" and stays nonzero under {alive} random degree-4 point conditions",
        alive >= 50,
    )


def test_criterion_08_lattice_counts_signatures_and_rankin_bounds():
    t0 = time.monotonic()
    for d in range(1, 7):
        lat, ref, curves = standard_example(P1XP1, d)
        part = exceptional_curves(lat, ref, curves)
        if part.rho != d + 2 or len(part.negative) != 2 * d:
            _report(8, f"quadric blow-up d={d} count mismatch", False)
        lat2, ref2, curves2 = standard_example(P2, d)
        part2 = exceptional_curves(lat2, ref2, curves2)
        if part2.rho != d + 1 or len(part2.negative) != part2.rho - 1:
            _report(8, f"plane blow-up d={d} count mismatch", False)
    for base in (P1XP1, P2):
        for d in range(0, 13):
            lat = blowup_lattice(base, d)
            if hodge_signature(lat) != (1, lat.rank - 1):
                _report(8, f"signature fails at {base}, d={d}", False)
    for dim in (1, 2, 3):
        if rankin_extremal_search(dim, strict=False) != 2 * dim:
            _report(8, f"non-strict extremal count wrong in dim {dim}", False)
        if rankin_extremal_search(dim, strict=True) != dim + 1:
            _report(8, f"strict extremal count wrong in dim {dim}", False)
    elapsed = time.monotonic() - t0
    _report(
        8,
        "exceptional counts 2d (quadric) and rho-1 (plane) for d=1..6,"
        f" signatures (1, rho-1), Rankin bounds attained, {elapsed:.1f}s",
        elapsed < 60,
    )


def _bump_constant(rational: dict, q: int):
    num = rational["num"] or [0]
    num[0] = (num[0] + 1) % q
    rational["num"] = num


def test_criterion_09_search_verify_and_mutations(cert3):
    timings, certs = {}, {}
    t0 = time.monotonic()
    certs[3] = certificate_build(3, seed=0)
    timings[3] = time.monotonic() - t0
    t0 = time.monotonic()
    certs[5] = certificate_build(5, seed=0)
    timings[5] = time.monotonic() - t0
    for p, cert in certs.items():
        report = certificate_verify(serialize.canonical_bytes(cert))
        if not report.ok:
            _report(9, f"verification fails at p={p}", False)

    d = certs[3]
    q = d["p"] ** d["k"]
    # one point of D moved to a rational place outside D: the divisor stays
    # canonical, so it decodes and only the class of N - D changes
    w = decode_witnesses(d)
    support = w.d_div.support
    outside = next(pl for pl in rational_places(w.curve) if pl not in support)
    moved = Divisor([(outside, 1)] + [(pl, 1) for pl in support[1:]])
    mutations = [
        ("gamma", 3, lambda dd: _bump_constant(dd["gamma"]["a"], q)),
        ("delta", 4, lambda dd: dd["delta_coords"].__setitem__(
            0, (dd["delta_coords"][0] + 1) % q)),
        ("g", 3, lambda dd: _bump_constant(dd["g"]["a"], q)),
        ("D", 2, lambda dd: dd.__setitem__("d_div", serialize.encode_divisor(moved))),
    ]
    for name, expect, mutate in mutations:
        dd = copy.deepcopy(d)
        mutate(dd)
        rep = certificate_verify(serialize.canonical_bytes(dd))
        failed = [c.index for c in rep.checks if not c.passed]
        if rep.ok or expect not in failed:
            _report(9, f"tampered {name} missed check {expect}: {failed}", False)
        if name == "D" and rep.checks[1].detail:
            # check 2 must reach its class-order test, not stop at decoding
            _report(9, f"tampered D stopped before check 2's test: {rep.checks[1].detail}", False)
    ok_time = all(t < 600 for t in timings.values())
    _report(
        9,
        f"search+verify pass at p=3 ({timings[3]:.1f}s) and p=5"
        f" ({timings[5]:.1f}s); four tampered certificates fail"
        " at their intended checks",
        ok_time,
    )


def test_criterion_10_byte_identical_reruns(cert3):
    raw1 = serialize.canonical_bytes(cert3)
    raw2 = serialize.canonical_bytes(certificate_build(3, seed=0))
    other = serialize.canonical_bytes(certificate_build(3, seed=12))
    _report(
        10,
        "identical (prime, seed) reproduce certificates byte for byte",
        raw1 == raw2 and other != raw1,
    )
