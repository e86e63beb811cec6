import copy
import hashlib
import importlib.util
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nefcert
from nefcert import linalg, obstruction, serialize
from nefcert.cohomology import (
    PTorsionBundle,
    cartier_manin,
    cartier_nonsingular,
    frobenius_h1,
    p_torsion_bundle,
    rr_space,
)
from nefcert.curves import (
    INERT,
    INFINITE,
    RAMIFIED,
    SPLIT,
    Curve,
    Differential,
    Divisor,
    FunctionElement,
    rational_places,
)
from nefcert.fields import Polynomial, field, is_irreducible
from nefcert.jacobian import (
    class_order,
    divisor_class_to_mumford,
)
from nefcert.obstruction import (
    ExtendFieldError,
    _bi_eval,
    _bi_partial_s,
    _bi_partial_w,
    _charts,
    _splitting_tails,
    _subtract_points,
    SearchExhausted,
    beta_functional,
    certificate_build,
    certificate_verify,
    choose_delta,
    embed_bidegree_2_3,
    obstruction_scalar,
)
from nefcert.oracles import (
    beta_by_coords,
    beta_values,
    cartier_class,
    differential_divisor,
    enumerate_classes,
    frobenius_by_residues,
    h1,
    p_rank,
)
from nefcert.series import PrecisionError
from witnesses import decode_witnesses


@pytest.fixture(scope="module")
def cert():
    return certificate_build(3, seed=0)


@pytest.fixture(scope="module")
def setting(cert):
    """Curve, embedding and torsion data reconstructed from the certificate."""
    w = decode_witnesses(cert)
    emb = embed_bidegree_2_3(w.curve, w.a_div)
    return w.curve, emb, emb.n_div, p_torsion_bundle(w.curve, w.l_cls)


@pytest.fixture(scope="module")
def cert25():
    return certificate_build(5, seed=1)


def _embedding(cert):
    w = decode_witnesses(cert)
    return w.curve, embed_bidegree_2_3(w.curve, w.a_div)


def _random_effective(curve, rng, degree):
    pts = rational_places(curve)
    return Divisor((pl, 1) for pl in rng.sample(pts, degree))


def _conj(phi):
    """Image of phi under the hyperelliptic involution y -> -y."""
    return FunctionElement(phi.curve, phi.A, -phi.B, phi.h, reduce=False)


def _separates_low_degree_places(curve, s_fn):
    """The product map separates places of degree <= 2: places over distinct
    x-polynomials differ in x, and conjugate pairs must differ in s."""
    diff = s_fn - _conj(s_fn)
    if diff.is_zero:
        return False
    base = curve.field
    mons = [Polynomial(base, (base.neg(c), 1)) for c in range(base.q)]
    for c1 in range(base.q):
        for c0 in range(base.q):
            u = Polynomial(base, (c0, c1, 1))
            if is_irreducible(u):
                mons.append(u)
    for u in mons:
        for pl in curve.places_above(u):
            if pl.kind != SPLIT:
                continue
            vs = curve.valuation(s_fn, pl)
            vc = curve.valuation(_conj(s_fn), pl)
            if vs < 0 and vc < 0:
                return False
            if vs < 0 or vc < 0:
                continue  # one value infinite, the other finite: separated
            if curve.valuation(diff, pl) != 0:
                return False
    return True


# --- embedding ----------------------------------------------------------------


@pytest.mark.parametrize("which", ["cert", "cert25"])
def test_built_embeddings_separate_places_and_are_base_point_free(request, which):
    """Oracle for the degree argument in embed_bidegree_2_3: (s, x)
    separates every place of degree <= 2, and the degree-3 pencil has no
    base points."""
    curve, emb = _embedding(request.getfixturevalue(which))
    assert _separates_low_degree_places(curve, emb.s_fn)
    for pl, _ in emb.a_div.items:
        assert rr_space(curve, emb.a_div - Divisor([(pl, 1)])).dim == 1


def test_embed_validates_the_pencil(setting):
    curve, emb, n0, bundle = setting
    pts = rational_places(curve)
    with pytest.raises(ValueError, match="degree 3"):
        embed_bidegree_2_3(curve, Divisor([(pts[0], 2)]))
    with pytest.raises(ValueError, match="degree 3"):
        embed_bidegree_2_3(curve, Divisor([(pts[0], -1), (pts[1], 4)]))
    # canonical plus a point is the one excluded pencil shape
    bad = curve.canonical_divisor() + Divisor([(pts[1], 1)])
    assert bad.degree == 3
    with pytest.raises(ValueError, match="excluded pencil"):
        embed_bidegree_2_3(curve, bad)


def _random_pencil(curve, rng):
    """An effective divisor of degree 3 from random places over monic
    irreducibles of degree <= 3: rational places (infinity included) and
    places of degree 2 and 3, inert ones of degree 2 among them."""
    base, a_div = curve.field, Divisor()
    while a_div.degree < 3:
        if rng.random() < 0.1:
            pl = curve.infinite_place()
        else:
            d = rng.choice((1, 1, 1, 2, 3))
            u = Polynomial(base, [base.random(rng) for _ in range(d)] + [1])
            if not is_irreducible(u):
                continue
            pl = rng.choice(curve.places_above(u))
        if a_div.degree + pl.degree <= 3:
            a_div = a_div + Divisor([(pl, 1)])
    return a_div


def test_embedding_facts_hold_on_random_pencils():
    """What the degree argument of `embed_bidegree_2_3` proves, and no code
    rechecks, on random pencils over prime and extension fields: a pencil
    is embedded or is the excluded shape K + P, which every pencil through
    an inert place is; the rows have x-degree 3, s has polar degree 3,
    F_s != 0, h0(2K + N) = 15, and no tail place of any choice is inert."""
    rng = random.Random(29)
    outcomes = {"embedded": 0, "excluded": 0, "inert": 0, "embedded_higher": 0}
    for q in (3, 5, 7, 11, 9, 25, 27):
        F = field(*{9: (3, 2), 25: (5, 2), 27: (3, 3)}.get(q, (q, 1)))
        while True:
            try:
                curve = Curve(F, [F.random(rng) for _ in range(5)] + [1])
                break
            except ValueError:
                continue
        for _ in range(60):
            a_div = _random_pencil(curve, rng)
            inert = any(pl.kind == INERT for pl in a_div.support)
            try:
                emb = embed_bidegree_2_3(curve, a_div)
            except ValueError as err:
                assert str(err) == "excluded pencil"
                outcomes["excluded"] += 1
                outcomes["inert"] += inert
                continue
            assert not inert, a_div
            outcomes["embedded"] += 1
            outcomes["embedded_higher"] += any(pl.degree > 1 for pl in a_div.support)
            assert max(r.degree for r in emb.rows) == 3 and not emb.rows[2].is_zero
            assert obstruction._polar(curve, emb.s_fn).degree == 3
            fs = _charts(emb)[0]
            assert not fs.is_zero
            space = rr_space(curve, emb.n_div + curve.canonical_divisor() * 2)
            assert space.dim == 15
            for choice in range(4):
                assert all(pl.kind != INERT for pl, *_ in _splitting_tails(emb, choice))
    assert min(outcomes.values()) > 0, outcomes


def test_embedding_shape(setting):
    curve, emb, n0, bundle = setting
    # the ruling restrictions O(1,0)|_C and O(0,1)|_C have degrees 3 and 2
    assert obstruction._polar(curve, emb.s_fn).degree == 3
    assert curve.valuation(curve.x(), curve.infinite_place()) == -2
    assert len(emb.rows) == 3 and not emb.rows[2].is_zero
    assert max(r.degree for r in emb.rows) == 3
    # the defining form vanishes on the curve
    s, x = emb.s_fn, curve.x()
    acc = curve.zero()
    for row in reversed(emb.rows):
        val = curve.zero()
        for c in reversed(row.coeffs):
            val = val * x + curve.fn(c)
        acc = acc * s + val
    assert acc.is_zero
    assert rr_space(curve, emb.a_div).dim == 2


def _form_at(curve, rows, s, w):
    """The form with rows in w at (s, w), by Horner in both coordinates;
    `_bi_eval` reads each row at w = x as one function instead."""
    acc = curve.zero()
    for row in reversed(rows):
        val = curve.zero()
        for c in reversed(row.coeffs):
            val = val * w + curve.fn(c)
        acc = acc * s + val
    return acc


def _old_chart_partials(E):
    """Reference chart partials: each chart form dehomogenized from the rows,
    then differentiated and evaluated at the chart coordinates."""

    def reverse(poly, top):
        co = list(poly.coeffs) + [0] * (top + 1 - len(poly.coeffs))
        return Polynomial(poly.field, co[::-1])

    curve, x, s = E.curve, E.curve.x(), E.s_fn
    out = []
    for a in (0, 1):
        for b in (0, 1):
            rows = E.rows[::-1] if a else E.rows
            if b:
                rows = tuple(reverse(r, 3) for r in rows)
            sig = s.inverse() if a else s
            ome = x.inverse() if b else x
            out.append(
                (
                    _form_at(curve, _bi_partial_s(rows), sig, ome),
                    _form_at(curve, _bi_partial_w(rows), sig, ome),
                )
            )
    return out


@pytest.mark.parametrize("which", ["cert", "cert25"])
def test_chart_partials_follow_from_two_derivatives(request, which):
    """The chart fields, taken by the chain rule from F_s and F_w at (s, x)
    and multiplied by the chart factor u = s^(2a) x^(3b), equal
    u * (F_omega + lam * F_sigma) for the partials of the dehomogenized
    chart forms, for all four charts and every lam whose field is nonzero."""
    cert = request.getfixturevalue(which)
    curve, emb = _embedding(cert)
    fs, fw, charts = _charts(emb)
    reference = _old_chart_partials(emb)
    assert (fs, fw) == reference[0]
    s, x = emb.s_fn, curve.x()
    assert [(a, b) for a, b, _ in charts] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for (a, b, fields), (dsig, dome) in zip(charts, reference):
        u = s ** (2 * a) * x ** (3 * b)
        expect = [(lam, u * (dome + dsig.scale(lam))) for lam in (0, 1, 2)]
        assert list(fields) == [(lam, g) for lam, g in expect if not g.is_zero]


def _auxiliary_normal_divisor(E, rng):
    """Another representative of O(C)|_C = O(2,3)|_C: the intersection with
    a random bidegree-(2,3) form, div(G(s, x)) + N."""
    curve = E.curve
    for _ in range(64):
        rows = tuple(
            Polynomial(curve.field, [curve.field.random(rng) for _ in range(4)])
            for _ in range(3)
        )
        g_fn = _bi_eval(curve, rows, E.s_fn)
        if not g_fn.is_zero:
            return curve.divisor(g_fn) + E.n_div
    raise AssertionError("every auxiliary form vanished on the curve")


def test_normal_bundle_divisor_representatives(setting):
    curve, emb, n0, bundle = setting
    assert n0.degree == 12 and n0.is_effective
    rng = random.Random(7)
    for _ in range(3):
        alt = _auxiliary_normal_divisor(emb, rng)
        assert alt.degree == 12 and alt.is_effective
        # the two representatives differ by a principal divisor
        assert divisor_class_to_mumford(curve, alt - n0).is_zero


# --- section-space dimensions --------------------------------------------------


def test_dimension_ledger(setting):
    curve, emb, n0, bundle = setting
    kdiv = curve.canonical_divisor()
    assert rr_space(curve, kdiv).dim == 2
    assert h1(curve, Divisor()) == 2
    assert h1(curve, -bundle.rep) == 1
    assert rr_space(curve, n0 + 2 * kdiv).dim == 15
    for j in range(1, 3):
        rep_j = bundle.rep * j
        cls_j = divisor_class_to_mumford(curve, rep_j)
        assert class_order(cls_j) == 3
        assert rr_space(curve, kdiv + rep_j).dim == 1
    assert rr_space(curve, n0 - bundle.rep).dim == 11
    rng = random.Random(11)
    for _ in range(8):
        b_div = _random_effective(curve, rng, 4)
        assert rr_space(curve, n0 + 2 * kdiv - b_div).dim == 11
        assert rr_space(curve, n0 + kdiv - b_div).dim == 9


def test_adjoint_products_cut_out_the_base_divisor(setting):
    """Multiplying H^0(N - L) by the section of K + L lands exactly on the
    subspace of H^0(K + N) vanishing on the degree-2 zero divisor of that
    section."""
    curve, emb, n0, bundle = setting
    kdiv = curve.canonical_divisor()
    alpha_sp = rr_space(curve, kdiv + bundle.rep)
    assert alpha_sp.dim == 1
    alpha = alpha_sp.basis[0]
    b_l = curve.divisor(alpha) + kdiv + bundle.rep
    assert b_l.is_effective and b_l.degree == 2

    big = rr_space(curve, n0 + kdiv)
    assert big.dim == 13
    sub = rr_space(curve, n0 + kdiv - b_l)
    assert sub.dim == 11
    rows = []
    for sig in rr_space(curve, n0 - bundle.rep).basis:
        prod = sig * alpha
        assert big.coords(prod) is not None
        co = sub.coords(prod)
        assert co is not None, "product misses the base divisor"
        rows.append(list(co))
    assert linalg.rank(curve.field, rows) == 11


def test_castelnuovo_products_have_full_rank(setting):
    curve, emb, n0, bundle = setting
    kdiv = curve.canonical_divisor()
    k_basis = rr_space(curve, kdiv).basis
    rng = random.Random(23)
    for _ in range(50):
        b_div = _random_effective(curve, rng, 4)
        target = rr_space(curve, n0 + 2 * kdiv - b_div)
        assert target.dim == 11
        rows = []
        for u in rr_space(curve, n0 + kdiv - b_div).basis:
            for w in k_basis:
                co = target.coords(u * w)
                assert co is not None
                rows.append(list(co))
        assert linalg.rank(curve.field, rows) == 11


# --- the extension-class functional --------------------------------------------


def test_beta_is_nonzero_and_choice_independent(setting):
    curve, emb, n0, bundle = setting
    b0 = beta_functional(emb, 0)
    values = beta_values(b0)
    assert len(values) == 15 and any(values)
    for choice in range(1, 6):
        assert beta_values(beta_functional(emb, choice)) == values


def test_beta_restriction_survives_point_conditions(setting):
    """beta stays nonzero on the sections of 2K + N vanishing on four random
    rational points."""
    curve, emb, n0, bundle = setting
    beta = beta_functional(emb)
    values = beta_values(beta)
    rng = random.Random(31)
    for _ in range(50):
        b_div = _random_effective(curve, rng, 4)
        sub = rr_space(curve, beta.space_div - b_div).basis
        assert any(beta_by_coords(beta, values, phi) for phi in sub)


# obstruction scalars of the (3, 0) and (5, 1) certificates, as first
# computed from all 15 coefficients of beta
@pytest.mark.parametrize("which,scalar", [("cert", 7), ("cert25", 18)])
def test_beta_value_is_the_coefficient_pairing(request, which, scalar):
    """The direct residue sum agrees with the coefficients on the basis, on
    the certificate's psi and on a seeded random section."""
    cert = request.getfixturevalue(which)
    curve, emb = _embedding(cert)
    base = curve.field
    beta = beta_functional(emb)
    space = rr_space(curve, beta.space_div)
    values = beta_values(beta)
    w = decode_witnesses(cert)
    psi = w.delta * w.alpha * (w.gamma.w * curve.y())
    assert beta.value(psi) == beta_by_coords(beta, values, psi) == cert["obstruction"] == scalar

    rng = random.Random(41)
    mix = curve.zero()
    for phi in space.basis:
        mix = mix + phi.scale(base.random(rng))
    assert beta.value(mix) == beta_by_coords(beta, values, mix)


@pytest.mark.parametrize("which", ["cert", "cert25"])
def test_residues_match_a_fixed_precision_expansion(request, which):
    """Curve.residue starts at a low precision and doubles on PrecisionError;
    every residue must equal the one read off a precision-32 expansion, both
    for the beta pairings (the section times the factors of each tail) and
    for differentials whose poles of order >= 8 cannot be answered at the
    starting precision."""
    cert = request.getfixturevalue(which)
    curve, emb = _embedding(cert)
    beta = beta_functional(emb)

    def fixed(omega, pl, num=(), den=()):
        ring, ser = curve.expand_differential(omega, pl, 32)
        for phi in num:
            ser = ser * curve.expand(phi, pl, 32)[1]
        for phi in den:
            ser = ser / curve.expand(phi, pl, 32)[1]
        return ring.trace(ser.coeff_at(-1))

    for pl, num, den in beta.tails:
        for psi in rr_space(curve, beta.space_div).basis:
            omega = Differential(curve, psi)
            assert curve.residue(omega, pl, num, den) == fixed(omega, pl, num, den)

    # poles of order >= 8, with nonzero residues on both certificates; the
    # simple poles over x = -1 keep the residue at infinity from being forced
    # to zero by the residue theorem
    x, y = curve.x(), curve.y()
    split = next(pl for pl, *_ in beta.tails if pl.kind == SPLIT)
    deep = [
        (Differential(curve, (y + x) * curve.fn(split.u).inverse() ** 9), split),
        (
            Differential(curve, (y + x) * x**4 * (x + curve.one()).inverse()),
            curve.infinite_place(),
        ),
    ]
    for omega, pl in deep:
        with pytest.raises(PrecisionError):
            curve.expand_differential(omega, pl, 4)[1].coeff_at(-1)
        assert curve.residue(omega, pl) == fixed(omega, pl)


def _exact_tails(E, choice):
    """The splitting tails as exact functions phi / y, each one product and
    inverse of function elements, with the chart partials of the
    dehomogenized chart forms and admissibility from exact valuations."""
    curve = E.curve
    s, x, one, y = E.s_fn, curve.x(), curve.one(), curve.y()
    s2, x3, vx = s * s, x * x * x, -(x * x)
    coords = ((s, x, one, one), (s, x.inverse(), x3, vx))
    coords += ((s.inverse(), x, s2, one), (s.inverse(), x.inverse(), s2 * x3, vx))
    fs = _old_chart_partials(E)[0][0]
    bad = set(E.n_div.support) | {curve.infinite_place()}
    bad.update(pl for pl, _ in curve.divisor(fs).items)
    bad.update(curve.finite_ramified_places())
    tails = []
    for pl in sorted(bad):
        opts = []
        for (sig, ome, u_ab, vx), (dsig, dome) in zip(coords, _old_chart_partials(E)):
            if curve.valuation(sig, pl) < 0 or curve.valuation(ome, pl) < 0:
                continue
            for lam in (0, 1, 2):
                vf = dome + dsig.scale(lam)
                if not vf.is_zero and curve.valuation(vf, pl) == 0:
                    opts.append(-(vx * (u_ab * y * vf).inverse()))
            if curve.valuation(dsig, pl) == 0:
                opts.append(None)
        pick = opts[choice % len(opts)]
        if pick is not None:
            tails.append((pl, pick * y.inverse()))
    return tails


@pytest.mark.parametrize("which", ["cert", "cert25"])
def test_beta_matches_the_exact_tail_functional(request, which):
    """beta from the tails' factors takes the values of the functional whose
    tails are exact products and inverses, on all 15 basis sections, for
    three splitting choices."""
    cert = request.getfixturevalue(which)
    curve, emb = _embedding(cert)
    for choice in (0, 1, 2):
        beta = beta_functional(emb, choice)
        exact = _exact_tails(emb, choice)
        assert [pl for pl, *_ in beta.tails] == [pl for pl, _ in exact]
        want = []
        for psi in rr_space(curve, beta.space_div).basis:
            out = 0
            for pl, tail in exact:
                out = curve.field.add(out, curve.residue(Differential(curve, tail * psi), pl))
            want.append(out)
        assert len(want) == 15 and list(beta_values(beta)) == want


def _cancelling_ties(emb):
    """Number of (place, chart, lam) where the two terms of u * vf have equal
    order and their leading terms cancel."""
    curve, s, x = emb.curve, emb.s_fn, emb.curve.x()
    fs, fw, charts = _charts(emb)
    bad = set(emb.n_div.support) | {pl for pl, _ in curve.divisor(fs).items}
    count = 0
    for pl in bad:
        o_s, o_x, o_fs, o_fw = (curve.valuation(phi, pl) for phi in (s, x, fs, fw))
        for a, b, fields in charts:
            o_t = o_fs + 2 * a * o_s
            tie = o_fw + 2 * b * o_x == o_t
            count += sum(tie and curve.valuation(g, pl) > o_t for lam, g in fields if lam)
    return count


def test_tail_factors_equal_the_exact_tails(cert):
    """On pencils through random point triples, each tail num / (den * f)
    is the exact tail, at the same places, for three splitting choices,
    including places where two terms of u * vf of equal order cancel, so
    that u * vf has a higher order than either."""
    curve = decode_witnesses(cert).curve
    f = curve.fn(curve.f)
    rng = random.Random(17)
    pts, done, cancelled = rational_places(curve), 0, 0
    while done < 4:
        try:
            emb = embed_bidegree_2_3(curve, Divisor((pl, 1) for pl in rng.sample(pts, 3)))
        except ValueError:
            continue
        for choice in (0, 1, 2):
            tails = _splitting_tails(emb, choice)
            got = [(pl, num * (den * f).inverse()) for pl, num, den in tails]
            assert got == _exact_tails(emb, choice)
        cancelled += _cancelling_ties(emb)
        done += 1
    assert cancelled > 0


# --- torsion sections and the obstruction scalar --------------------------------


def test_cartier_classes_of_full_torsion_span_the_differentials():
    # y^2 = x^5 + x over F_9 carries all eight nontrivial 3-torsion classes
    curve = Curve(field(3, 2), (0, 1, 0, 0, 0, 1))
    tors = [
        cl for cl in enumerate_classes(curve) if (3 * cl).is_zero and not cl.is_zero
    ]
    assert len(tors) == 8
    vecs = []
    for cl in tors:
        bundle = p_torsion_bundle(curve, cl)
        c1, c2 = cartier_class(bundle)
        assert (c1, c2) != (0, 0)
        vecs.append([c1, c2])
    assert linalg.rank(curve.field, vecs) == 2


def test_choose_delta_properties(setting):
    curve, emb, n0, bundle = setting
    w_div = n0 - bundle.rep
    delta, d_div = choose_delta(emb, bundle, seed=5)
    assert d_div.degree == 12 and len(d_div.items) == 12
    assert all(m == 1 and pl.degree == 1 for pl, m in d_div.items)
    assert curve.divisor(delta) == d_div - w_div
    # the class of N - D is the torsion class itself
    cls = divisor_class_to_mumford(curve, n0 - d_div)
    assert cls == bundle.cls
    # seeded search is reproducible
    delta2, d2 = choose_delta(emb, bundle, seed=5)
    assert d2 == d_div and (delta - delta2).is_zero


def _place_keyed_choose_delta(E, L, seed):
    """Reference: the try loop of `choose_delta` as it was before it sampled
    indices, drawing the places themselves and keying its tables by them."""
    curve = E.curve
    w_div = E.n_div - L.rep
    pts = rational_places(curve)
    inf = curve.infinite_place()
    w_cls = divisor_class_to_mumford(curve, w_div - Divisor([(inf, 12)]))
    w = (w_cls.u.coeffs, w_cls.v.coeffs)
    point = {pl: ((1,), ()) if pl == inf else (pl.u.coeffs, pl.v.coeffs) for pl in pts}
    lookup = {uv: pl for pl, uv in point.items()}
    neg = {pl: (u, tuple(curve.field.neg(c) for c in v)) for pl, (u, v) in point.items()}
    rng = random.Random(seed)
    for _ in range(obstruction.DELTA_TRIES):
        chosen = rng.sample(pts, 11)
        last = lookup.get(_subtract_points(curve, w, chosen, neg))
        if last is None or last in chosen:
            continue
        d_div = Divisor([(pl, 1) for pl in chosen] + [(last, 1)])
        dsp = rr_space(curve, w_div - d_div)
        if dsp.dim != 1:
            continue
        return dsp.basis[0], d_div
    raise ExtendFieldError("extend field")


def _delta_outcome(choose, args):
    """(delta, d_div) from a choose_delta loop, or None when it exhausts."""
    try:
        return choose(*args)
    except ExtendFieldError:
        return None


@pytest.mark.parametrize("p,seed", [(3, 6), (7, 4)])
def test_choose_delta_matches_the_place_keyed_loop(monkeypatch, p, seed):
    """Sampling indices picks the places that sampling the places did: on
    every `choose_delta` call of the searches at (3,6) and (7,4), two that
    exhaust their tries and the one that succeeds, the same (delta, d_div)
    or the same failure."""
    calls = []

    def recording(*args):
        out = _delta_outcome(choose_delta, args)
        calls.append((args, out))
        if out is None:
            raise ExtendFieldError("extend field")
        return out

    monkeypatch.setattr(obstruction, "choose_delta", recording)
    certificate_build(p, seed)
    assert [out is None for _, out in calls] == [True, True, False]
    for args, out in calls:
        ref = _delta_outcome(_place_keyed_choose_delta, args)
        if out is None:
            assert ref is None
        else:
            assert ref[1] == out[1] and (ref[0] - out[0]).is_zero


@pytest.mark.parametrize("which", ["cert", "cert25"])
def test_point_subtraction_matches_divisor_reduction(request, which):
    """W - sum [P_i - oo] by chord pairs equals the reduction of the whole
    divisor w_div - sum P_i - oo, on seeded draws and on draws that pair
    infinity, the ramified point and a point with its negative."""
    cert = request.getfixturevalue(which)
    curve, emb = _embedding(cert)
    n0 = emb.n_div
    w_div = n0 - p_torsion_bundle(curve, decode_witnesses(cert).l_cls).rep
    inf = curve.infinite_place()
    pts = rational_places(curve)
    w_cls = divisor_class_to_mumford(curve, w_div - Divisor([(inf, 12)]))
    w = (w_cls.u.coeffs, w_cls.v.coeffs)
    neg_codes = []
    for pl in pts:
        cls = -divisor_class_to_mumford(curve, Divisor([(pl, 1), (inf, -1)]))
        neg_codes.append((cls.u.coeffs, cls.v.coeffs))
    (ram,) = [pl for pl in pts if pl.kind == RAMIFIED]
    split = [pl for pl in pts if pl.kind == SPLIT]
    pos, neg = split[0], next(pl for pl in split[1:] if pl.u == split[0].u)
    rest = [pl for pl in pts if pl not in (inf, ram, pos, neg)]
    rng = random.Random(11)
    draws = [rng.sample(pts, 11) for _ in range(30)]
    # pairs are positions (0,1), (2,3), ..., and position 10 is alone: oo and
    # the ramified point fall in a pair together, with a split point, and
    # alone; P and -P share a pair
    for _ in range(5):
        others = rng.sample(rest, 7)
        draws.append([inf, ram, pos, neg] + others)
        draws.append([ram, pos, inf, neg] + others)
        draws.append(others[:5] + [neg, pos] + others[5:] + [inf, ram])
        draws.append(others + [pos, neg, ram, inf])
    assert any(inf in d for d in draws[:30]) and any(ram in d for d in draws[:30])
    for chosen in draws:
        assert len(set(chosen)) == 11
        expect = divisor_class_to_mumford(
            curve, w_div - Divisor((pl, 1) for pl in chosen) - Divisor([(inf, 1)])
        )
        got = _subtract_points(curve, w, [pts.index(pl) for pl in chosen], neg_codes)
        assert got == (expect.u.coeffs, expect.v.coeffs)


def test_choose_delta_needs_rational_points():
    # over F_3 no genus-2 curve has the 12 rational points a configuration needs
    curve = Curve(field(3), (0, 1, 0, 0, 0, 1))
    pts = rational_places(curve)
    assert len(pts) < 12
    emb = None
    for a, b, c in [(0, 1, 2), (0, 1, 3), (0, 2, 3)]:
        try:
            emb = embed_bidegree_2_3(
                curve, Divisor([(pts[a], 1), (pts[b], 1), (pts[c], 1)])
            )
            break
        except ValueError:
            continue
    assert emb is not None
    from nefcert.jacobian import find_p_torsion

    bundle = p_torsion_bundle(curve, find_p_torsion(curve, 0))
    with pytest.raises(ExtendFieldError, match="extend field"):
        choose_delta(emb, bundle, seed=0)


def test_obstruction_scalar_is_multilinear(setting, cert):
    curve, emb, n0, bundle = setting
    beta = beta_functional(emb)
    dsp = rr_space(curve, n0 - bundle.rep)
    w = decode_witnesses(cert)
    delta, gamma, alpha = w.delta, w.gamma, w.alpha
    base = curve.field
    v = obstruction_scalar(beta, delta, gamma, alpha)
    assert v == cert["obstruction"] and v != 0
    for c in range(2, 5):
        scaled = obstruction_scalar(beta, delta.scale(c % base.q), gamma, alpha)
        assert scaled == base.mul(v, c % base.q)
    other = dsp.basis[0]
    v_other = obstruction_scalar(beta, other, gamma, alpha)
    v_sum = obstruction_scalar(beta, delta + other, gamma, alpha)
    assert v_sum == base.add(v, v_other)
    # zero inputs
    from nefcert.curves import Differential

    assert obstruction_scalar(beta, delta, Differential(curve, curve.zero()), alpha) == 0
    assert obstruction_scalar(beta, delta, gamma, curve.zero()) == 0


# --- certificates ----------------------------------------------------------------


def test_certificate_roundtrip_and_determinism(cert):
    raw = serialize.canonical_bytes(cert)
    report = certificate_verify(raw)
    assert report.ok, [c for c in report.checks if not c.passed]
    assert [c.passed for c in report.checks] == [True] * 7
    assert report.cert == cert
    assert certificate_verify(raw.decode()) == report
    again = certificate_build(3, seed=0)
    assert serialize.canonical_bytes(again) == raw


@pytest.fixture(scope="module")
def cert_p3_s6():
    return certificate_build(3, seed=6)


@pytest.fixture(scope="module")
def cert_p7_s4():
    return certificate_build(7, seed=4)


@pytest.fixture(scope="module")
def cert_p7_s0():
    return certificate_build(7, seed=0)


@pytest.fixture(scope="module")
def cert_p13_s0():
    return certificate_build(13, seed=0)


@pytest.fixture(scope="module")
def cert_p43_s0():
    return certificate_build(43, seed=0)


@pytest.fixture(scope="module")
def cert_p47_s1():
    return certificate_build(47, seed=1)


def _sha256(cert) -> str:
    return hashlib.sha256(serialize.canonical_bytes(cert)).hexdigest()


PINNED = {
    "cert": "d1a245d373c48c85eb7fe9d56b631313de0b2d38a67c163ded6fae631500f228",
    "cert25": "d6c6c6195548ddc4c46977498a6a1e4176993f6f6fadf1de63d72a9e24bb448a",
    "cert_p3_s6": "2dc13209716e02594f602f020ccae05f5aaa30134d61270563c3ff1c04791d7e",
    "cert_p7_s4": "3a34c7d4cc86fd4b164423c30a6771a777a719eeb9263a7ea72f1d86349331ff",
    "cert_p7_s0": "02de0c1b48806fffe6643464bfef9bc20c1c6242047b3914e3b0505fa64b5908",
    "cert_p13_s0": "d5401b9b6e2014c577fff80f5b64b7247737ce18341a44b08508f2f518f848e2",
    "cert_p43_s0": "65330fee30f21e266830e5d75cd6ce6d01fb9f2543f64c6cc6d4a154dc52cb40",
    "cert_p47_s1": "993b6b40ad007c7c25816cfe19b9b3df1fce6bb1befa73f4cbf8c13e16496758",
}


@pytest.mark.parametrize(
    "which", ["cert", "cert25", "cert_p3_s6", "cert_p7_s0", "cert_p7_s4", "cert_p13_s0"]
)
def test_search_returns_the_dict_that_verify_parses(request, which):
    """A certificate has one form in memory: search returns the dict that
    `parse_certificate` gives for its canonical bytes, lists and all, and
    the report of verify carries that same dict."""
    d = request.getfixturevalue(which)
    raw = serialize.canonical_bytes(d)
    assert d == serialize.parse_certificate(raw)
    assert certificate_verify(raw).cert == d


@pytest.mark.parametrize("which,digest", list(PINNED.items()))
def test_certificate_bytes_are_pinned(request, which, digest):
    """The certificates are rebuilt by the code under test, so a change that
    is wrong in a consistent way (a field kernel, beta) still round-trips;
    their canonical bytes are pinned instead.  (3,6) and (7,4) reach theirs
    only after retries: three `choose_delta` calls each, after pencils or
    point configurations that fail.  (13,0), (43,0) and (47,1) are searches
    over prime fields; at p = 43 and 47 the Frobenius matrix on H^1(-L) is
    read at a place whose expansion runs to p terms."""
    assert _sha256(request.getfixturevalue(which)) == digest


@pytest.mark.parametrize("which", ["cert", "cert25", "cert_p7_s0", "cert_p7_s4", "cert_p13_s0"])
def test_stored_frobenius_matches_the_pairing_definition(request, which):
    """The certificate's Frobenius matrix, which check 5 recomputes, equals
    the one the residues at infinity of the pairing's definition give."""
    cert = request.getfixturevalue(which)
    w = decode_witnesses(cert)
    source = -p_torsion_bundle(w.curve, w.l_cls).rep
    matrix = frobenius_by_residues(w.curve, source, w.g)
    assert [list(row) for row in matrix] == cert["frob"]["matrix"]
    assert serialize.encode_semilinear(frobenius_h1(w.curve, source, w.g)) == cert["frob"]


@pytest.mark.parametrize("which", ["cert", "cert25", "cert_p7_s0", "cert_p7_s4", "cert_p13_s0"])
def test_certificates_satisfy_the_invariants_verify_leaves_implied(request, which):
    """What verify and search derive rather than test, checked by the full
    divisors of the oracles: dg/g is regular and nonzero, h0(K + L) = 1,
    h0(N - L) = 11, div(delta) = D - (N - L) and div(g) = p * L."""
    w = decode_witnesses(request.getfixturevalue(which))
    curve = w.curve
    emb = embed_bidegree_2_3(curve, w.a_div)
    rep = p_torsion_bundle(curve, w.l_cls).rep
    assert not w.gamma.is_zero and differential_divisor(w.gamma).is_effective
    assert rr_space(curve, curve.canonical_divisor() + rep).dim == 1
    assert rr_space(curve, emb.n_div - rep).dim == 11
    assert curve.divisor(w.delta) == w.d_div - (emb.n_div - rep)
    assert curve.divisor(w.g) == rep * curve.field.p


def _has_divisor_cases(curve, div):
    """(E, div == E) pairs around a principal divisor div: div itself, off by
    one at a single place of its support or a rational place off it
    (nonzero degree), the same balanced at infinity (degree 0), twice div,
    zero, and div without a finite pole and a zero of the same weight."""
    inf = curve.infinite_place()
    inside = next(pl for pl in div.support if pl != inf)
    outside = [pl for pl in rational_places(curve) if pl not in div.support][:1]
    cases = [div, div + div, Divisor()]
    for pl in [inside] + outside:
        for m in (1, -1):
            cases.append(div + Divisor([(pl, m)]))
            cases.append(div + Divisor([(pl, m), (inf, -m)]))
    # degree 0, and only the pole's place tells E from div
    for (pole, m), (zero, k) in itertools.product(div.items, div.items):
        if m < 0 < k and pole != inf and m * pole.degree + k * zero.degree == 0:
            cases.append(div - Divisor([(pole, m), (zero, k)]))
            break
    return [(E, E == div) for E in cases]


@pytest.mark.parametrize("which", ["cert", "cert25", "cert_p7_s0", "cert_p7_s4", "cert_p13_s0"])
def test_has_divisor_matches_the_principal_divisor(request, which):
    """Curve.has_divisor(phi, E) is div(phi) == E with Curve.divisor as the
    oracle: for delta and g of the certificate, against the divisors the
    verifier states for them, and for functions with finite poles."""
    w = decode_witnesses(request.getfixturevalue(which))
    curve = w.curve
    n0 = embed_bidegree_2_3(curve, w.a_div).n_div
    l_rep = p_torsion_bundle(curve, w.l_cls).rep
    delta = w.delta
    assert curve.has_divisor(delta, w.d_div - (n0 - l_rep))
    assert curve.has_divisor(w.g, l_rep * curve.field.p)

    x, y = curve.x(), curve.y()
    a, b = (curve.fn(Polynomial(curve.field, (c, 1))) for c in (1, 2))
    # two split zeros over one x-coordinate, two split poles over another
    u0, u1 = sorted({pl.u.coeffs for pl in rational_places(curve) if pl.kind == SPLIT})[:2]
    ratio = curve.fn(Polynomial(curve.field, u0)) * curve.fn(Polynomial(curve.field, u1)).inverse()
    poles = [(y + x) * (a * a * b).inverse(), (y - x * x * x) * (a * b).inverse() ** 3, ratio]
    for phi in poles:
        assert any(m < 0 and pl.kind != "infinite" for pl, m in curve.divisor(phi).items)
    for phi in [delta, w.g] + poles:
        div = curve.divisor(phi)
        for E, expected in _has_divisor_cases(curve, div):
            assert curve.has_divisor(phi, E) is expected, (phi, E)
    div = curve.divisor(ratio)  # the pole-and-zero case is among its cases
    cases = _has_divisor_cases(curve, div)
    assert any(E.degree == 0 and len(E.items) == len(div.items) - 2 for E, _ in cases)

    zero = curve.zero()
    with pytest.raises(ValueError):
        curve.divisor(zero)
    assert not curve.has_divisor(zero, Divisor())
    assert not curve.has_divisor(zero, curve.divisor(delta))


def _log_torsion_stage(monkeypatch, fail=lambda seed: False):
    """Log the torsion stage of certificate_build: ("try", curve, seed,
    raised) per find_p_torsion call, ("bundle", curve) per candidate used.
    Tries whose seed satisfies `fail` raise instead of sampling."""
    events = []
    find, bundle = obstruction.find_p_torsion, obstruction.p_torsion_bundle

    def find_logged(curve, seed=0):
        try:
            if fail(seed):
                raise RuntimeError("chosen to fail")
            cls = find(curve, seed)
        except (RuntimeError, ValueError):
            events.append(("try", curve, seed, True))
            raise
        events.append(("try", curve, seed, False))
        return cls

    def bundle_logged(curve, cls):
        events.append(("bundle", curve))
        return bundle(curve, cls)

    monkeypatch.setattr(obstruction, "find_p_torsion", find_logged)
    monkeypatch.setattr(obstruction, "p_torsion_bundle", bundle_logged)
    return events


@pytest.mark.parametrize("p,seed,which,tries", [(3, 0, "cert", 1), (7, 4, "cert_p7_s4", 4)])
def test_search_runs_only_the_torsion_tries_it_uses(monkeypatch, p, seed, which, tries):
    """The first candidate is the one used at both points, so the search stops
    at the try that found it: the first at (3,0); at (7,4), q = 343, the
    fourth, after three tries whose class sampling fails."""
    events = _log_torsion_stage(monkeypatch)
    cert = certificate_build(p, seed)
    assert [e[3] for e in events if e[0] == "try"] == [True] * (tries - 1) + [False]
    assert _sha256(cert) == PINNED[which]


def test_torsion_misses_count_every_try_of_an_exhausted_search(monkeypatch):
    """With no pencil tries every curve that reaches the torsion stage is
    given up, and then its tries that never ran are run to count their
    misses: every try of every such curve is counted, as when all of them
    ran before the candidates were looked at."""
    events = _log_torsion_stage(monkeypatch, fail=lambda seed: seed % 3 == 0)
    monkeypatch.setattr(obstruction, "TORSION_TRIES", 2)
    monkeypatch.setattr(obstruction, "PENCIL_TRIES", 0)
    monkeypatch.setattr(obstruction, "CURVE_TRIES", 20)
    with pytest.raises(SearchExhausted) as exc:
        certificate_build(3, seed=0)
    tries = [e for e in events if e[0] == "try"]
    curves = {id(e[1]): e[1] for e in tries}  # the log keeps each curve alive
    assert len(curves) >= 2
    for curve in curves.values():
        assert sum(e[1] is curve for e in tries) == 2
    assert exc.value.stats["torsion_misses"] == sum(e[3] for e in tries) > 0
    # some tries ran only to be counted: after their curve's candidates were used
    late = [
        e
        for i, e in enumerate(events)
        if e[0] == "try"
        and sum(f[0] == "bundle" and f[1] is e[1] for f in events[:i]) == 2
    ]
    assert any(e[3] for e in late)


def test_certificate_fields(cert):
    w = decode_witnesses(cert)
    assert cert["p"] == 3 and cert["obstruction"] != 0
    assert len(cert["delta_coords"]) == 11
    assert w.d_div.degree == 12
    assert w.a_div.degree == 3 and w.a_div.is_effective
    assert cert["seed"] == 0


@pytest.mark.parametrize(
    "mutate,expect",
    [
        ("gamma", 3),
        ("delta", 4),
        ("g", 3),
        ("d_div", 2),
        ("frob.twist", 5),
        ("frob.source_dim", 5),
        ("frob.target_dim", 5),
    ],
)
def test_certificate_mutations_fail_at_the_intended_check(cert, mutate, expect):
    dd = copy.deepcopy(cert)
    q = cert["p"] ** cert["k"]
    if mutate == "gamma":
        num = dd["gamma"]["a"]["num"] or [0]
        num[0] = (num[0] + 1) % q
        dd["gamma"]["a"]["num"] = num
    elif mutate == "delta":
        dd["delta_coords"][0] = (dd["delta_coords"][0] + 1) % q
    elif mutate == "g":
        num = dd["g"]["a"]["num"] or [0]
        num[0] = (num[0] + 1) % q
        dd["g"]["a"]["num"] = num
    elif mutate == "d_div":
        # one point of D moved to a rational place outside D: the list stays
        # canonical, so it decodes and only the class of N - D changes
        w = decode_witnesses(cert)
        support = w.d_div.support
        outside = next(pl for pl in rational_places(w.curve) if pl not in support)
        moved = Divisor([(outside, 1)] + [(pl, 1) for pl in support[1:]])
        dd["d_div"] = serialize.encode_divisor(moved)
    else:
        dd["frob"][mutate.removeprefix("frob.")] += 1
    report = certificate_verify(serialize.canonical_bytes(dd))
    assert not report.ok
    failed = [c.index for c in report.checks if not c.passed]
    assert expect in failed
    if mutate == "g":
        # checks 3 and 5 read the one g stage, which tests div(g) = p * L
        assert report.checks[2].detail == report.checks[4].detail == "div(g) is not p * L"
        assert 5 in failed
    if mutate == "d_div":
        # check 2 ran its class-order test: no stage failed before it
        assert report.checks[1].detail == ""


def _failed(d) -> dict:
    """{index: detail} of the checks that the certificate dict d fails."""
    report = certificate_verify(serialize.canonical_bytes(d))
    return {c.index: c.detail for c in report.checks if not c.passed}


# smooth over F_9 with a Cartier-Manin matrix of rank 1: p-rank 1
P_RANK_1_F = (0, 1, 1, 1, 1, 1)


def _tamper(d, case):
    """The q = 9 certificate dict d, changed as `case` says."""
    w = decode_witnesses(d)
    curve = w.curve
    if case == "zero-class":
        d["l_cls"] = serialize.encode_mumford(w.l_cls * 0)
    elif case == "zero-g":
        d["g"] = serialize.encode_fn(curve.zero())
    elif case == "extra-delta-coord":
        d["delta_coords"].append(0)
    elif case == "delta-off-d":
        # the first basis section of N - L, monic, with its own obstruction
        emb = embed_bidegree_2_3(curve, w.a_div)
        rep = p_torsion_bundle(curve, w.l_cls).rep
        first = rr_space(curve, emb.n_div - rep).basis[0]
        d["delta_coords"] = [1] + [0] * 10
        d["obstruction"] = obstruction_scalar(beta_functional(emb), first, w.gamma, w.alpha)
        assert d["obstruction"] != 0
    elif case == "eleven-points":
        d["d_div"] = serialize.encode_divisor(Divisor([(pl, 1) for pl in w.d_div.support[1:]]))
    elif case == "negative-multiplicities":
        # degree 6 * 3 - 6 = 12 on 12 distinct rational places
        pts = rational_places(curve)[:12]
        d_div = Divisor([(pl, 3) for pl in pts[:6]] + [(pl, -1) for pl in pts[6:]])
        d["d_div"] = serialize.encode_divisor(d_div)
    elif case == "p-rank-1":
        other = Curve(curve.field, P_RANK_1_F)
        assert not cartier_nonsingular(other) and p_rank(other) == 1
        d["f"] = list(P_RANK_1_F)
        d["cartier"] = [list(row) for row in cartier_manin(other)]
    else:  # D in |N|: the section delta of N - L for the trivial L
        emb = embed_bidegree_2_3(curve, w.a_div)
        _, d_div = choose_delta(emb, PTorsionBundle(None, Divisor(), curve.one()), 0)
        assert class_order(divisor_class_to_mumford(curve, emb.n_div - d_div)) == 1
        d["d_div"] = serialize.encode_divisor(d_div)


ORDER = "torsion class order differs from p"


@pytest.mark.parametrize(
    "case,expect",
    [
        # the L stage: an order that divides p is not order p
        ("zero-class", {3: ORDER, 4: ORDER, 5: ORDER}),
        # the zero function has no divisor: the g stage refuses it, and
        # check 4 reads dg/g from that stage
        ("zero-g", {3: "div(g) is not p * L", 4: "div(g) is not p * L", 5: "div(g) is not p * L"}),
        # without the length test a second byte string would verify
        ("extra-delta-coord", {4: "delta coordinate length mismatch"}),
        # the obstruction is read off delta, whose zeros must be D
        ("delta-off-d", {4: "delta does not vanish exactly on the stated points"}),
        # 12 simple points, not fewer
        ("eleven-points", {7: ""}),
        # degree 12 is not enough: every multiplicity must be 1
        ("negative-multiplicities", {7: ""}),
        # the stored matrix is the curve's own, and it is singular
        ("p-rank-1", {6: ""}),
        # N - D principal: order 1 divides p but is not p
        ("d-in-n", {2: ""}),
    ],
)
def test_tampers_fail_the_guard_no_other_test_reaches(cert, case, expect):
    """Each tamper of the q = 9 certificate fails the checks in `expect`
    with those details (and no other check, where the tamper leaves the
    others' data intact).  Each reaches a guard that no other test does: a
    mutant of `scripts/mutate_verify.py` that drops or weakens it survives
    without the case, except zero-g, which pins the reason that a zero g
    gets from the g stage now that no guard of its own tests it."""
    d = copy.deepcopy(cert)
    _tamper(d, case)
    failed = _failed(d)
    assert {i: failed.get(i) for i in expect} == expect
    if case in ("zero-class", "zero-g", "extra-delta-coord", "delta-off-d"):
        assert failed == expect


def test_derived_fields_are_compared_and_check_4_reads_dg_over_g(cert):
    """gamma and alpha are not decoded: each must equal the encoding of
    what verify recomputes (dg/g and the generator of L(K + L)), and check
    4 evaluates the obstruction on dg/g, not on the stored gamma.  So a
    bumped gamma leaf fails check 3 alone, even with a code outside F_9;
    alpha over (x + 1)/(x + 1) fails check 4 alone; and a g that fails the
    g stage fails checks 3, 4 and 5, each with that stage's reason."""
    sweep = _sweep()
    d = cert
    reached = 0
    for path, _ in sweep.int_leaves(d["gamma"]):
        m = sweep.mutated(d, ("gamma", *path), lambda v: v + 1)
        try:
            failed = _failed(m)
        except serialize.CertificateFormatError:
            continue  # the top of a denominator, no longer monic
        assert failed == {3: ""}, path
        reached += 1
    assert reached == len(list(sweep.int_leaves(d["gamma"]))) - 2  # two denominators

    m = copy.deepcopy(d)
    frac = m["alpha"]["a"]
    x1 = Polynomial(field(3, 2), (1, 1))
    for name in ("num", "den"):
        frac[name] = list((Polynomial(x1.field, frac[name]) * x1).coeffs)
    assert _failed(m) == {4: "alpha is not the generator of the adjoint torsion sections"}

    m = sweep.mutated(d, ("g", "a", "num", 0), lambda v: (v + 1) % 9)
    reason = "div(g) is not p * L"
    assert _failed(m) == {3: reason, 4: reason, 5: reason}


def _stage_certificate(E, bundle, delta, d_div) -> dict:
    """The certificate dict search writes from these stage outputs, whatever
    its obstruction scalar and its Frobenius map."""
    curve = E.curve
    gamma = Differential(curve, bundle.g.derivative() * bundle.g.inverse())
    alpha = rr_space(curve, curve.canonical_divisor() + bundle.rep).basis[0]
    value = obstruction_scalar(beta_functional(E), delta, gamma, alpha)
    frob = frobenius_h1(curve, -bundle.rep, bundle.g)
    return obstruction._certificate(E, bundle, frob, gamma, alpha, delta, d_div, value, seed=0)


def test_stage_certificate_rebuilds_the_search_certificate(cert):
    w = decode_witnesses(cert)
    emb = embed_bidegree_2_3(w.curve, w.a_div)
    bundle = p_torsion_bundle(w.curve, w.l_cls)
    assert _stage_certificate(emb, bundle, w.delta, w.d_div) == cert


def test_a_zero_obstruction_from_search_fails_only_check_4(monkeypatch):
    """The (3,3) search evaluates 29 obstructions, and all but its last are
    0: a certificate that stores one of those fails check 4 alone."""
    calls = []

    def recording(E, L, seed):
        out = choose_delta(E, L, seed)
        calls.append((E, L, *out))
        return out

    monkeypatch.setattr(obstruction, "choose_delta", recording)
    certificate_build(3, 3)
    assert len(calls) == 29
    d = _stage_certificate(*calls[0])
    assert d["obstruction"] == 0
    assert _failed(d) == {4: ""}


@pytest.mark.parametrize("seed", [0, 2])
def test_a_frobenius_rejected_class_from_search_fails_only_check_5(monkeypatch, seed):
    """At (5,0) and (5,2) search rejects one torsion class, on the curve of
    its certificate, because Frobenius is not injective on H^1(-L).  That
    class, with the certificate's pencil and a delta of nonzero obstruction,
    fails check 5 alone."""
    bundles = []

    def recording(curve, cls):
        bundles.append(p_torsion_bundle(curve, cls))
        return bundles[-1]

    monkeypatch.setattr(obstruction, "p_torsion_bundle", recording)
    w = decode_witnesses(certificate_build(5, seed))
    curve = w.curve
    emb = embed_bidegree_2_3(curve, w.a_div)
    rejected = [b for b in bundles if not frobenius_h1(curve, -b.rep, b.g).injective]
    assert len(rejected) == 1 and rejected[0].g.curve == curve
    for delta_seed in itertools.count():
        try:
            delta, d_div = choose_delta(emb, rejected[0], delta_seed)
        except ExtendFieldError:
            continue
        d = _stage_certificate(emb, rejected[0], delta, d_div)
        if d["obstruction"]:
            break
    assert _failed(d) == {5: ""}


@pytest.mark.parametrize(
    "which,modulus",
    [
        ("cert", [2, 0, 1]),  # x^2 + 2 = (x + 1)(x + 2): no field
        ("cert", [2, 2, 1]),  # x^2 + 2x + 2, irreducible: F_9 again, spelled otherwise
        ("cert", [4, 0, 1]),
        ("cert", [1, 0, 4]),
        ("cert", [-2, 0, 1]),
        ("cert", [1, 0, 1, 0]),
        ("cert", None),
        ("cert_p13_s0", [0, 1]),
    ],
    ids=[
        "reducible",
        "irreducible",
        "unreduced-code",
        "non-monic",
        "negative-code",
        "zero-on-top",
        "null-at-k2",
        "list-at-k1",
    ],
)
def test_verify_rejects_a_noncanonical_modulus(request, which, modulus):
    """F_q has one modulus, the one `field(p, k)` is built with (none at
    k = 1).  Any other value, whatever its length, codes or top, is well
    formed and fails check 1, and no other check runs: `verify` exits 1."""
    d = copy.deepcopy(request.getfixturevalue(which))
    own = None if d["k"] == 1 else [1, 0, 1]
    assert d["modulus"] == own
    d["modulus"] = modulus
    report = certificate_verify(serialize.canonical_bytes(d))
    assert [c.detail for c in report.checks] == (
        [f"modulus is not {own}, the modulus of F_{d['p'] ** d['k']}"]
        + ["no curve to check against"] * 6
    )
    assert not any(c.passed for c in report.checks)


def _sweep():
    """scripts/verify_sweep.py as a module: its mutation cases are the test's."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_sweep.py"
    spec = importlib.util.spec_from_file_location("verify_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_is_total_on_single_leaf_mutations(cert):
    """Every single-leaf mutation of the q = 9 certificate, all 437 cases of
    the sweep (each changes its leaf), ends in a report or a format error.
    Only the mutations of its unchecked `seed` pass.  f coefficients outside
    F_9 (1000, -1) fail check 1 with a reason instead of indexing the field
    tables out of range, and so does any modulus other than x^2 + 1."""
    sweep = _sweep()
    d = cert
    cases = sweep.cases(d)
    reports, passed = 0, []
    for path, op, change in cases:
        m = sweep.mutated(d, path, change)
        assert m != d, (path, op)
        try:
            report = certificate_verify(serialize.canonical_bytes(m))
        except serialize.CertificateFormatError:
            continue
        reports += 1
        assert len(report.checks) == 7, path
        if report.ok:
            assert path == ("seed",), (path, op)
            passed.append(path)
        if path[0] == "f" and op in ("1000", "-1"):
            first = report.checks[0]
            assert not first.passed and first.detail == "coefficient out of field range"
            assert all(c.detail == "no curve to check against" for c in report.checks[1:])
        if path[0] == "modulus":
            first = report.checks[0]
            assert not first.passed and first.detail.startswith("modulus is not [1, 0, 1]")
    assert (len(cases), reports) == (437, 341)
    assert len(passed) == 3


@pytest.mark.parametrize("datum", ["delta", "alpha", "g"])
def test_one_dimensional_data_have_one_scale(cert, datum):
    """g, alpha and delta are each stored as the generator search writes;
    twice each, with the obstruction or the Frobenius matrix rescaled to
    match, spells the same certificate another way, and only the check
    that reads the datum fails, with that reason."""
    d = copy.deepcopy(cert)
    w = decode_witnesses(cert)
    F = w.curve.field
    scale = 2
    if datum == "delta":
        d["delta_coords"] = [F.mul(x, scale) for x in d["delta_coords"]]
        d["obstruction"] = F.mul(d["obstruction"], scale)
        expect, reason = 4, "delta is not scaled to a monic leading coefficient"
    elif datum == "alpha":
        d["alpha"] = serialize.encode_fn(w.alpha.scale(scale))
        d["obstruction"] = F.mul(d["obstruction"], scale)
        expect, reason = 4, "alpha is not the generator of the adjoint torsion sections"
    else:
        d["g"] = serialize.encode_fn(w.g.scale(scale))
        inv = F.inv(scale)
        d["frob"]["matrix"] = [[F.mul(x, inv) for x in row] for row in d["frob"]["matrix"]]
        expect, reason = 3, "g is not scaled to a monic leading coefficient"
    report = certificate_verify(serialize.canonical_bytes(d))
    failed = {c.index: c.detail for c in report.checks if not c.passed}
    assert failed == {expect: reason}


def test_verify_is_total_on_any_integer_leaf(cert, cert_p13_s0):
    """Any integer in place of any integer leaf, at k > 1 (q = 9) and k = 1
    (q = 13), ends in a format error or a report whose checks all ran;
    only an unchanged certificate or a new `seed` passes.  p is left out:
    another prime with p^k <= MAX_Q keeps the shape valid, and the checks
    would then count points over fields of up to MAX_Q^2 elements."""
    sweep = _sweep()
    dicts = [cert, cert_p13_s0]
    leaves = [
        (d, path) for d in dicts for path, _ in sweep.int_leaves(d) if path != ("p",)
    ]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(leaves), st.integers())
    def case(leaf, value):
        d, path = leaf
        m = sweep.mutated(d, path, lambda _: value)
        try:
            report = certificate_verify(serialize.canonical_bytes(m))
        except serialize.CertificateFormatError:
            return
        assert len(report.checks) == 7
        if report.ok:
            assert m == d or path == ("seed",), (path, value)

    case()


def test_a_curve_not_defined_over_f_p_fails_check_1(cert):
    """f must be defined over F_p, whose elements are the codes below p in
    every F_(p^k): the group orders verify needs are those of the prime-field
    model.  An f holding the code p itself (the generator of F_243) fails
    check 1 before any point is counted, and no other check runs."""
    d = copy.deepcopy(cert)
    d.update(k=5, modulus=list(field(3, 5).modulus), f=[3, 1, 0, 0, 0, 1])
    d["l_cls"] = {"u": [1], "v": []}  # the zero class
    report = certificate_verify(serialize.canonical_bytes(d))
    assert [c.detail for c in report.checks] == (
        ["f is not defined over F_p"] + ["no curve to check against"] * 6
    )
    assert not any(c.passed for c in report.checks)


def _values(node, path=()):
    """(path, value) for every value below the root, in document order."""
    items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _values(value, path + (key,))


def test_verify_is_total_on_non_integer_leaves(cert):
    """Each of null, a bool, a float, a string, a list and an object in
    place of any value of the q = 9 certificate (leaf or not, unless it is
    that value already), and each other kind in place of a place's kind,
    ends in a format error or a report whose checks all ran; no report
    passes."""
    sweep = _sweep()
    kinds = (SPLIT, INERT, RAMIFIED, INFINITE)
    cases = []
    for path, old in _values(cert):
        for new in (None, True, 0.5, "x", [], {}):
            if not (type(new) is type(old) and new == old):
                cases.append((path, new))
        if path[-1] == "kind":
            cases += [(path, kind) for kind in kinds if kind != old]
    formats, reports = 0, 0
    for path, new in cases:
        m = sweep.mutated(cert, path, lambda _: new)
        try:
            report = certificate_verify(serialize.canonical_bytes(m))
        except serialize.CertificateFormatError:
            formats += 1
            continue
        reports += 1
        assert len(report.checks) == 7 and not report.ok, (path, new)
    assert (len(cases), formats, reports) == (1397, 1264, 133)


def test_verify_output_is_the_same_under_optimize(cert, tmp_path):
    """No check lives in an assert: `python -O` verifies exactly alike."""
    good = tmp_path / "good.json"
    good.write_bytes(serialize.canonical_bytes(cert))
    dd = copy.deepcopy(cert)
    dd["delta_coords"][0] = (dd["delta_coords"][0] + 1) % (cert["p"] ** cert["k"])
    bad = tmp_path / "bad.json"
    bad.write_bytes(serialize.canonical_bytes(dd))
    env = dict(os.environ, PYTHONPATH=str(Path(nefcert.__file__).parents[1]))

    def run(flags, path):
        cmd = [sys.executable, *flags, "-m", "nefcert.cli", "verify", str(path)]
        out = subprocess.run(cmd, capture_output=True, env=env, timeout=600)
        return out.returncode, out.stdout

    for path, code in ((good, 0), (bad, 1)):
        plain = run([], path)
        assert plain[0] == code
        assert run(["-O"], path) == plain


def test_search_input_validation():
    with pytest.raises(ValueError, match="not prime"):
        certificate_build(9, seed=0)
    with pytest.raises(ValueError, match="characteristic two"):
        certificate_build(2, seed=0)


# (singular, non_ordinary, no_field, torsion_misses) of the 64 curves sampled
# by each of the 14 searches below p = 200 that exhaust their budget at seed
# 0; every other statistic is 0.  At p = 37 one curve reaches the torsion
# stage and misses all 8 tries, and elsewhere every ordinary curve finds no
# field within MAX_Q that holds its p-torsion and enough points
EXHAUSTED = {
    37: (1, 1, 61, 8),
    53: (1, 1, 62, 0),
    61: (0, 3, 61, 0),
    67: (1, 1, 62, 0),
    71: (0, 2, 62, 0),
    83: (0, 1, 63, 0),
    101: (1, 2, 61, 0),
    103: (1, 1, 62, 0),
    109: (1, 0, 63, 0),
    113: (0, 2, 62, 0),
    173: (0, 0, 64, 0),
    191: (0, 0, 64, 0),
    197: (0, 0, 64, 0),
    199: (1, 0, 63, 0),
}


@pytest.mark.parametrize("p", sorted(EXHAUSTED))
def test_exhausted_search_statistics_are_pinned(p):
    with pytest.raises(SearchExhausted) as exc:
        certificate_build(p, seed=0)
    stats = dict.fromkeys(exc.value.stats, 0)
    stats["curves_sampled"] = 64
    stats.update(zip(("singular", "non_ordinary", "no_field", "torsion_misses"), EXHAUSTED[p]))
    assert exc.value.stats == stats


def test_search_exhaustion_reports_statistics(monkeypatch):
    monkeypatch.setattr(obstruction, "TORSION_TRIES", 0)
    monkeypatch.setattr(obstruction, "CURVE_TRIES", 2)
    with pytest.raises(SearchExhausted) as exc:
        certificate_build(3, seed=0)
    stats = exc.value.stats
    assert stats["curves_sampled"] >= 1
    assert set(stats) >= {"singular", "non_ordinary", "obstruction_zero"}
