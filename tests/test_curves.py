import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefcert import curves
from nefcert.curves import (
    INERT,
    INFINITE,
    RAMIFIED,
    SPLIT,
    Curve,
    Divisor,
    FunctionElement,
    _frame_cell,
    _frames,
)
from nefcert.fields import (
    Polynomial,
    field,
    hensel_sqrt,
    is_irreducible,
    poly_ord,
)
from nefcert.oracles import differential_divisor
from nefcert.series import PolyModRing, TruncSeries, _newton, poly_series

F3 = field(3)
F5 = field(5)


def curve35() -> Curve:
    # y^2 = x^5 + 1
    return Curve(F3, (1, 0, 0, 0, 0, 1))


def curve3x() -> Curve:
    # y^2 = x^5 + x
    return Curve(F3, (0, 1, 0, 0, 0, 1))


def test_constructor_rejects_bad_models():
    with pytest.raises(ValueError, match="unsupported degree"):
        Curve(F3, (1, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="unsupported degree"):
        Curve(F3, (1, 0, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="singular model"):
        Curve(F3, (0, 0, 0, 0, 0, 1))
    # derivative of x^5 + 1 vanishes identically in characteristic 5
    with pytest.raises(ValueError, match="singular model"):
        Curve(F5, (1, 0, 0, 0, 0, 1))


def test_places_above_hands_out_copies_and_checks_every_call():
    """The places are cached per (curve, u): a returned list can be changed
    without changing the next answer, and a support that is not monic
    irreducible raises on every call."""
    C = curve35()
    x = Polynomial.x(F3)
    C.places_above(x).clear()
    again = C.places_above(x)
    assert [p.kind for p in again] == [SPLIT, SPLIT]
    assert again is not C.places_above(x)
    for _ in range(2):
        with pytest.raises(ValueError, match="monic irreducible"):
            C.places_above(x * x)


def test_places_above_kinds_and_canonical_root():
    C = curve35()
    x = Polynomial.x(F3)
    ps = C.places_above(x)
    assert [p.kind for p in ps] == [SPLIT, SPLIT]
    assert sorted(p.v[0] for p in ps) == [1, 2]
    assert all(p.degree == 1 for p in ps)

    ram = C.places_above(x + Polynomial.one(F3))
    assert [p.kind for p in ram] == [RAMIFIED]
    assert ram[0].degree == 1

    # quadratic support: compare the kind against a direct square tally in
    # F_9, whose canonical modulus is exactly x^2 + 1
    u = Polynomial(F3, (1, 0, 1))
    kinds = [p.kind for p in C.places_above(u)]
    F9 = field(3, 2)
    squares = {F9.mul(w, w) for w in range(9)}
    fbar = C.f % u
    code = fbar[0] + 3 * fbar[1]
    if code in squares:
        assert kinds == [SPLIT, SPLIT]
    else:
        assert kinds == [INERT]

    with pytest.raises(ValueError, match="monic irreducible"):
        C.places_above(x * x)


def test_basic_valuations():
    C = curve35()
    inf = C.infinite_place()
    assert C.valuation(C.x(), inf) == -2
    assert C.valuation(C.y(), inf) == -5
    x = Polynomial.x(F3)
    p0, p1 = C.places_above(x)
    assert C.valuation(C.x(), p0) == 1
    assert C.valuation(C.x(), p1) == 1
    assert C.valuation(C.y(), p0) == 0
    ram = C.places_above(x + Polynomial.one(F3))[0]
    assert C.valuation(C.y(), ram) == 1
    assert C.valuation(C.fn(x + Polynomial.one(F3)), ram) == 2
    # y - 1 vanishes to order 5 at the place with y = 1 and not at its twin
    ym1 = C.y() - C.one()
    orders = {p.v[0]: C.valuation(ym1, p) for p in (p0, p1)}
    assert orders[1] == 5
    assert orders[2] == 0


def _first_exponent(C: Curve, phi, place) -> int:
    """Order of phi at the place read off its local expansion."""
    for prec in (24, 48, 96):
        _, ser = C.expand(phi, place, prec)
        if not ser.is_zero:
            return ser.offset
    raise AssertionError("expansion vanishes to precision 96")


def _split_pair(C: Curve, d: int, rng: random.Random) -> list:
    """The two places over a random monic irreducible u of degree d that splits."""
    F = C.field
    while True:
        u = Polynomial(F, [rng.randrange(F.q) for _ in range(d)] + [1])
        if is_irreducible(u):
            pair = C.places_above(u)
            if pair[0].kind == SPLIT:
                return pair


def _u_power(C: Curve, u: Polynomial, n: int) -> FunctionElement:
    one, zero = Polynomial.one(u.field), Polynomial.zero(u.field)
    return FunctionElement(C, u**n, zero, one) if n >= 0 else FunctionElement(C, one, zero, u**-n)


def _part_orders(phi: FunctionElement, u: Polynomial) -> tuple:
    """ord_u of A/h and of B/h for phi = (A + B y)/h, None for a zero part."""
    eh = poly_ord(phi.h, u) if phi.h.degree > 0 else 0
    return tuple(None if P.is_zero else poly_ord(P, u) - eh for P in (phi.A, phi.B))


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (5, 2)])
def test_split_place_valuation_matches_expansion(p, k):
    # phi = w (V - y) u^e r with V = hensel_sqrt(f, u, v, m) vanishes to
    # order at least m + e + ord_u(r) at the place where y = v, so a and b y
    # have equal orders whose leading terms cancel there, and not at the
    # conjugate place; a perturbed a gives unequal orders as well
    F = field(p, k)
    rng = random.Random(1000 * p + k)
    while True:
        try:
            C = Curve(F, [rng.randrange(F.q) for _ in range(5)] + [1])
            break
        except ValueError:
            continue

    def rpoly(d, nonzero=False):
        while True:
            g = Polynomial(F, [rng.randrange(F.q) for _ in range(d + 1)])
            if not (nonzero and g.is_zero):
                return g

    seen = Counter()
    for d in (1, 2):
        for i in range(8):
            here, there = _split_pair(C, d, rng)
            if rng.randrange(2):
                here, there = there, here
            u = here.u
            num, den = rpoly(2), rpoly(1, True)
            w = FunctionElement(C, num, rpoly(1) * den, den)
            if w.is_zero:
                continue
            V = hensel_sqrt(C.f, u, here.v, rng.randrange(1, 4))
            r = FunctionElement(C, rpoly(2, True), Polynomial.zero(F), rpoly(2, True))
            phi = w * (C.fn(V) - C.y()) * _u_power(C, u, rng.randrange(-2, 3)) * r
            if i % 4:
                # a term of order s - 1, s or s + 1 added to a, where s is the
                # order of a and b y: unequal orders, or a leading term moved
                s = min(o for o in _part_orders(phi, u) if o is not None)
                phi = phi + _u_power(C, u, s + i % 4 - 2).scale(rng.randrange(1, F.q))
            orders = {pl: _first_exponent(C, phi, pl) for pl in (here, there)}
            for pl, other in ((here, there), (there, here)):
                assert C.valuation(phi, pl) == orders[pl], (phi, pl)
                oa, ob = _part_orders(phi, u)
                if oa != ob:
                    seen["unequal"] += 1
                elif orders[pl] > oa:
                    seen["cancels here"] += 1
                elif orders[other] > oa:
                    seen["cancels at the conjugate"] += 1
                else:
                    seen["no cancellation"] += 1
    assert {"unequal", "cancels here", "cancels at the conjugate"} <= set(seen), seen


def test_frames_at_infinity_keep_their_precision():
    # x = s t^-2 and y = s^2 t^-5 lose only the shifts, and f along x keeps
    # the relative precision of x: Horner starts from the exact leading
    # coefficient, so each product with x loses 2 terms and no more
    curves = (curve35(), curve3x(), Curve(F5, (1, 2, 0, 0, 0, 1)), Curve(field(7), (3, 1, 0, 5, 0, 1)))
    for C in curves:
        inf = C.infinite_place()
        for prec in (8, 16, 33):
            ring, xs, ys = _frames(C, inf, prec)
            assert (xs.offset, xs.prec) == (-2, prec - 2)
            assert (ys.offset, ys.prec) == (-5, prec - 5)
            fs = poly_series(ring, C.f, xs)
            assert fs.prec == xs.prec + (C.f.degree - 1) * xs.offset
            assert (ys * ys - fs).is_zero


def test_principal_divisors_and_canonical_class():
    C = curve35()
    x = Polynomial.x(F3)
    p0, p1 = C.places_above(x)
    inf = C.infinite_place()
    assert C.divisor(C.x()) == Divisor([(p0, 1), (p1, 1), (inf, -2)])
    divy = C.divisor(C.y())
    expected = Divisor([(pl, 1) for pl in C.finite_ramified_places()] + [(inf, -5)])
    assert divy == expected
    assert divy.degree == 0
    omega = C.y().inverse().dx()
    assert differential_divisor(omega) == C.canonical_divisor()
    assert C.canonical_divisor().degree == 2 * C.genus - 2


def test_divisor_algebra():
    C = curve35()
    x = Polynomial.x(F3)
    p0, p1 = C.places_above(x)
    d = Divisor([(p0, 2), (p1, -1)])
    e = Divisor([(p1, 1)])
    assert (d + e).degree == 2
    assert (d + e) == Divisor([(p0, 2)])
    assert (2 * d).mult(p0) == 4
    assert (d - d).is_zero
    assert not d.is_effective
    assert (d + e).is_effective


def _one_place_per_model(C: Curve) -> dict:
    """(kind, degree of the support) -> one such place, support degree <= 2;
    inert places, which are never expanded, are left out."""
    found: dict = {(INFINITE, 1): C.infinite_place()}
    for d in (1, 2):
        for code in range(C.field.q**d):
            cs, c = [], code
            for _ in range(d):
                c, r = divmod(c, C.field.q)
                cs.append(r)
            u = Polynomial(C.field, cs + [1])
            if not is_irreducible(u):
                continue
            for pl in C.places_above(u):
                if pl.kind != INERT:
                    found.setdefault((pl.kind, d), pl)
    return found


def _frame_curves():
    """Curves whose places of support degree <= 2 cover every expanded kind;
    the third is (x^2 + 1)(x^3 + 2x + 1) over F_3, with a ramified place of
    degree 2 whose ring is F_3[x]/(x^2 + 1)."""
    return (curve35(), Curve(F5, (1, 2, 0, 0, 0, 1)), Curve(F3, (1, 2, 1, 0, 0, 1)))


def test_local_expansions_satisfy_curve_equation():
    covered = set()
    for C in _frame_curves():
        for key, pl in _one_place_per_model(C).items():
            covered.add(key)
            ring, sy = C.expand(C.y(), pl, 14)
            _, sf = C.expand(C.fn(C.f), pl, 14)
            assert ring == C.residue_ring(pl)
            assert (ring is C.field) == (pl.degree == 1)  # the field is its own ring
            assert (sy * sy - sf).is_zero
            if pl.kind == INFINITE:
                # t = x^2 / y is the parameter at infinity
                _, ts = C.expand(C.x() * C.x() / C.y(), pl, 14)
            elif pl.kind == RAMIFIED:
                # y is the parameter, and f(xs) = y^2 = t^2
                ts = sy
                assert sf == TruncSeries.t_power(ring, 2, sf.prec)
            else:
                # u(x) is the parameter, and ys(0) is the residue of y
                _, ts = C.expand(C.fn(pl.u), pl, 14)
                _, dy = C.expand(C.y() - C.fn(pl.v), pl, 14)
                assert dy.offset >= 1
            assert ts == TruncSeries.t_power(ring, 1, ts.prec)
    kinds = (SPLIT, RAMIFIED)
    assert covered == {(INFINITE, 1)} | {(k, d) for k in kinds for d in (1, 2)}


def _fixed_point(x, step):
    """Iterate step at the full precision of x until it settles."""
    for _ in range(64):
        x2 = step(x).truncate(x.prec)
        if x2 == x:
            return x
        x = x2
    raise AssertionError("no fixed point")


def _reference_frames(C: Curve, pl, prec: int):
    """(ring, xs, ys) at the place with every Newton step at full precision:
    G(s) = s^4 - t^10 f(s t^-2) = 0 at infinity, u(xs) = t or f(xs) = t^2 at
    finite places, and ys^2 = f(xs) with ys(0) the residue of y."""
    ring, f = C.residue_ring(pl), C.f
    if pl.kind == INFINITE:
        four, df = ring.embed_int(4), f.derivative()

        def step(s):
            xs, s2 = s.shift(-2), s * s
            g = s2 * s2 - poly_series(ring, f, xs).shift(10)
            dg = (s2 * s).scale(four) - poly_series(ring, df, xs).shift(8)
            return s - g * dg.invert()

        s = _fixed_point(TruncSeries.const(ring, ring.inv(f[5]), prec), step)
        return ring, s.shift(-2), (s * s).shift(-5)
    g, e = (f, 2) if pl.kind == RAMIFIED else (pl.u, 1)
    te, dg = TruncSeries.t_power(ring, e, prec), g.derivative()
    xs = _fixed_point(
        TruncSeries.const(ring, ring.embed_poly(Polynomial.x(C.field) % pl.u), prec),
        lambda x: x - (poly_series(ring, g, x) - te) * poly_series(ring, dg, x).invert(),
    )
    if pl.kind == RAMIFIED:
        return ring, xs, TruncSeries.t_power(ring, 1, prec)
    fs = poly_series(ring, f, xs)
    half = TruncSeries.const(ring, ring.inv(ring.embed_int(2)), prec)
    y0 = TruncSeries.const(ring, ring.embed_poly(pl.v), prec)
    ys = _fixed_point(y0, lambda y: (y + fs * y.invert()) * half)
    return ring, xs, ys


FRAME_PRECS = (4, 16, 29, 64)


def _frame_places() -> dict:
    """(kind, degree of the support) -> (curve, place), each kind once."""
    found: dict = {}
    for C in _frame_curves():
        for key, pl in _one_place_per_model(C).items():
            found.setdefault(key, (C, pl))
    kinds = (SPLIT, RAMIFIED)
    assert set(found) == {(INFINITE, 1)} | {(k, d) for k in kinds for d in (1, 2)}
    return found


def test_frames_match_a_full_precision_fixed_point():
    """Doubling Newton and truncation of a higher-precision frame give the
    series of the full-precision iteration, at every place kind."""
    for C, pl in _frame_places().values():
        for prec in FRAME_PRECS:
            assert _frames(C, pl, prec) == _reference_frames(C, pl, prec), (C, pl, prec)


def test_frame_requests_in_either_order_agree(monkeypatch):
    """Requests in increasing and decreasing order of precision give the
    same series; in decreasing order each place is expanded once."""
    builds = Counter()
    for name in ("series_finite", "series_infinite"):
        build = getattr(curves, name)

        def counted(*args, _build=build):
            builds[args[:-1]] += 1
            return _build(*args)

        monkeypatch.setattr(curves, name, counted)
    places = list(_frame_places().values())
    got = []
    for order in (FRAME_PRECS, FRAME_PRECS[::-1]):
        _frames.cache_clear()
        _frame_cell.cache_clear()
        builds.clear()
        got.append({(i, p): _frames(*pl, p) for i, pl in enumerate(places) for p in order})
        assert len(builds) == len(places)
        assert set(builds.values()) == {len(order) if order[0] < order[-1] else 1}
    assert got[0] == got[1]


def test_series_products_match_the_schoolbook_product():
    """Each ring's series product (the field kernel, Kronecker packing over
    F_q[x]/(u)) equals the sum of ring products c_i d_j over i + j < n, with
    zeros among the inputs."""
    rng = random.Random(5)
    F9, F7 = field(3, 2), field(7)
    u2 = next(u for c in F9.elements() if is_irreducible(u := Polynomial(F9, (c, 0, 1))))
    u3 = Polynomial(F7, (3, 0, 0, 1))  # x^3 + 3: 4 is not a cube mod 7
    assert is_irreducible(u3)

    def poly(F, d):
        return Polynomial(F, [F.random(rng) for _ in range(d)])

    # (ring, a random element) per representation
    rings = [
        (F9, lambda: F9.random(rng)),
        (PolyModRing(F9, u2), lambda: poly(F9, 2)),
        (PolyModRing(F7, u3), lambda: poly(F7, 3)),
    ]
    for ring, draw in rings:

        def elem():
            return ring.zero if rng.random() < 0.3 else draw()

        for _ in range(20):
            a = [elem() for _ in range(rng.randrange(0, 7))] + [ring.one]
            b = [ring.one] + [elem() for _ in range(rng.randrange(0, 7))]
            n = rng.randrange(1, len(a) + len(b))
            want = [ring.zero] * n
            for i, c in enumerate(a):
                for j, e in enumerate(b):
                    if i + j < n:
                        want[i + j] = ring.add(want[i + j], ring.mul(c, e))
            got = ring.series_mul(a, b, n)
            assert got + [ring.zero] * (n - len(got)) == want


def test_expanding_a_shared_denominator_inverts_one_series(monkeypatch):
    """(1 + y)/u has one denominator, so its expansion inverts one series,
    that of u, and equals the sum of the expansions of 1/u and y/u."""
    C = curve35()
    x = Polynomial.x(F3)
    u = x * x + Polynomial.one(F3)  # irreducible over F_3
    phi = (C.one() + C.y()) / C.fn(u)
    for pl in [C.infinite_place(), *C.places_above(x), *C.places_above(x + Polynomial.one(F3))]:
        _frames(C, pl, 24)
        calls = []
        invert = TruncSeries.invert

        def counted(self):
            calls.append(self)
            return invert(self)

        monkeypatch.setattr(TruncSeries, "invert", counted)
        _, ser = C.expand(phi, pl, 24)
        monkeypatch.setattr(TruncSeries, "invert", invert)
        assert len(calls) == 1, pl
        _, a_ser = C.expand(C.one() / C.fn(u), pl, 24)
        _, b_ser = C.expand(C.y() / C.fn(u), pl, 24)
        assert (ser - (a_ser + b_ser)).is_zero


def test_newton_that_never_settles_raises():
    ring = F5
    one = TruncSeries.const(ring, 1, 8)
    with pytest.raises(RuntimeError, match="did not stabilize"):
        _newton(TruncSeries.const(ring, 0, 1), lambda x: x + one, 8)


def test_residue_of_simple_pole():
    C = Curve(F5, (1, 1, 0, 0, 0, 1))
    x = Polynomial.x(F5)
    omega = (C.one() / C.fn(x)).dx()
    p0, p1 = C.places_above(x)
    assert C.residue(omega, p0) == 1
    assert C.residue(omega, p1) == 1
    assert C.residue(omega, C.infinite_place()) == F5.neg(2)
    assert C.residue(omega, C.places_above(x + Polynomial.one(F5))[0]) == 0


def _random_fn(C: Curve, rng: random.Random, deg: int = 2):
    F = C.field

    def rpoly(d):
        return Polynomial(F, [rng.randrange(F.q) for _ in range(d + 1)])

    def rnonzero(d):
        while True:
            g = rpoly(d)
            if not g.is_zero:
                return g

    # a = na/da and b = nb/db with unrelated denominators
    na, da, nb, db = rpoly(deg), rnonzero(deg), rpoly(deg), rnonzero(deg)
    return FunctionElement(C, na * db, nb * da, da * db)


def test_residue_theorem_on_random_differentials():
    """25 random differentials, drawn in turn on three curves, whose poles
    avoid the inert places, where nothing is expanded."""
    rng = random.Random(7)
    curves = [curve35(), curve3x(), Curve(F5, (1, 2, 0, 0, 0, 1))]
    checked = 0
    while checked < 25:
        C = curves[checked % len(curves)]
        phi = _random_fn(C, rng)
        if phi.is_zero:
            continue
        # the poles of phi dx lie over the denominator of phi and at infinity
        poles = C.places_over(phi.h) + [C.infinite_place()]
        if any(pl.kind == INERT for pl in poles):
            continue
        omega = phi.dx()
        total = 0
        for pl in poles:
            total = C.field.add(total, C.residue(omega, pl))
        assert total == 0
        checked += 1


def test_inert_places_have_no_residue_ring():
    """Nothing is expanded at an inert place, so it has no ring: asking for
    one, or for a residue there, raises."""
    C = curve35()
    (pl,) = C.places_above(Polynomial(F3, (1, 0, 1)))  # x^2 + 1
    assert pl.kind == INERT
    with pytest.raises(ValueError, match="no local expansion at an inert place"):
        C.residue_ring(pl)
    with pytest.raises(ValueError, match="no local expansion at an inert place"):
        C.residue((C.one() / C.fn(pl.u)).dx(), pl)


def test_point_counts():
    assert curve35().point_count() == 4
    assert curve3x().point_count() == 4
    # x -> x^5 permutes F_9, so x^5 + 1 hits every value once and the affine
    # count is exactly 9; one more point sits at infinity
    assert curve35().point_count(2) == 10
    # independent tally over F_9, where the codes of F_3 name the same elements
    F9 = field(3, 2)
    for C in (curve35(), curve3x()):
        n = 1
        for a in range(9):
            v = 0
            for c in reversed(C.f.coeffs):
                v = F9.add(F9.mul(v, a), c)
            ls = F9.legendre(v)
            n += 2 if ls == 1 else (1 if ls == 0 else 0)
        assert C.point_count(2) == n
    with pytest.raises(ValueError, match="field too large"):
        curve35().point_count(20)


@settings(max_examples=40, deadline=None)
@given(
    ca=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    cb=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    da=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    db=st.lists(st.integers(0, 2), min_size=1, max_size=3),
)
def test_valuation_is_multiplicative(ca, cb, da, db):
    C = curve35()
    phi = C.fn(Polynomial(F3, ca), Polynomial(F3, cb))
    psi = C.fn(Polynomial(F3, da), Polynomial(F3, db))
    if phi.is_zero or psi.is_zero:
        return
    x = Polynomial.x(F3)
    places = (
        C.places_above(x)
        + C.places_above(x + Polynomial.one(F3))
        + C.places_above(Polynomial(F3, (1, 0, 1)))
        + [C.infinite_place()]
    )
    prod = phi * psi
    for pl in places:
        assert C.valuation(prod, pl) == C.valuation(phi, pl) + C.valuation(psi, pl)


@settings(max_examples=20, deadline=None)
@given(
    ca=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    cb=st.lists(st.integers(0, 2), min_size=1, max_size=3),
)
def test_function_divisors_have_degree_zero(ca, cb):
    C = curve3x()
    phi = C.fn(Polynomial(F3, ca), Polynomial(F3, cb))
    if phi.is_zero:
        return
    div = C.divisor(phi)
    assert div.degree == 0
    for pl, m in div.items:
        assert m == C.valuation(phi, pl)


def test_divisor_degree_check_survives_optimised_runs(monkeypatch):
    # the degree-zero check guards every valuation behind a divisor, so it
    # must not be an assert that python -O strips
    C = curve35()
    valuation = Curve.valuation
    monkeypatch.setattr(Curve, "valuation", lambda self, phi, pl: valuation(self, phi, pl) + 1)
    with pytest.raises(RuntimeError, match="degree zero"):
        C.divisor(C.x())
