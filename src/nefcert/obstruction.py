"""Non-splitting certificates for the conormal extension of an embedded curve.

A genus-2 curve y^2 = f(x) maps to P^1 x P^1 by (s, x), where s spans a
degree-3 pencil and x the hyperelliptic degree-2 one.  The map is an
embedding by a degree argument alone (its degree onto the image divides
gcd(3, 2) = 1, and a (2,3) curve of arithmetic genus 2 = g(C) is smooth), so
no separation check runs.  The image has normal bundle of degree 12.  The
extension

    0 -> TC -> TX|_C -> N -> 0

has a class in H^1(C, Hom(N, TC)) computed here as an explicit residue
functional beta on the 15-dimensional section space of 2K + N: local
splittings v / v(F) for chart vector fields v differ by tangent-valued
tails, and beta(psi) is one sum of exact residues of the tails against psi
over the tail places, read from the expansions of psi and of the tails'
factors.

On top of the functional sits the search: an order-p class L with
trivialization g, a section delta of N - L whose zero divisor consists of 12
distinct rational points, and the scalar beta(delta * gamma * alpha) with
gamma = dg/g.  A nonzero scalar, together with injectivity of Frobenius on
H^1(-L) and an invertible Cartier-Manin matrix, is exactly the hypothesis
set a certificate records and `certificate_verify` recomputes.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .cohomology import (
    PTorsionBundle,
    cartier_manin,
    cartier_nonsingular,
    frobenius_h1,
    p_torsion_bundle,
    p_torsion_field_degree,
    rr_space,
)
from .curves import (
    _INF,
    Curve,
    Differential,
    Divisor,
    FunctionElement,
    rational_places,
)
from .fields import field, poly_gcd
from .jacobian import (
    _sum_codes,
    class_order,
    divisor_class_to_mumford,
    find_p_torsion,
    mumford_to_divisor,
)
from .serialize import (
    MAX_Q,
    SCHEMA_VERSION,
    decode_divisor,
    decode_fn,
    decode_mumford,
    decode_poly,
    encode_divisor,
    encode_fn,
    encode_mumford,
    encode_semilinear,
    parse_certificate,
)

# Stage limits of the certificate search, within fields of at most MAX_Q
# elements.  Search curves are defined over F_p, so group orders come from
# point counts over F_p and F_{p^2}.  MIN_POINTS is the least number of
# rational places a search curve must have.
CURVE_TRIES = 64
TORSION_TRIES = 8
PENCIL_TRIES = 12
DELTA_ROUNDS = 4
DELTA_TRIES = 150
MIN_POINTS = 14


class ExtendFieldError(RuntimeError):
    """Raised when a search stage needs more rational points than the
    current field carries."""


# --- bidegree-(2,3) forms ----------------------------------------------------
# a form is a tuple of x-polynomials (rows), row index = degree in the fiber
# coordinate of the degree-3 pencil


def _bi_eval(curve: Curve, rows, s_val: FunctionElement) -> FunctionElement:
    """The form at (s_val, x): Horner in s over the rows, each a polynomial
    in x and so the function `curve.fn(row)`."""
    acc = curve.zero()
    for row in reversed(rows):
        acc = acc * s_val + curve.fn(row)
    return acc


def _bi_partial_s(rows):
    out = []
    for i, row in enumerate(rows[1:], start=1):
        out.append(row.scale(i % row.field.p) if i > 1 else row)
    return tuple(out)


def _bi_partial_w(rows):
    return tuple(row.derivative() for row in rows)


def _polar(curve: Curve, phi: FunctionElement) -> Divisor:
    return Divisor([(pl, -m) for pl, m in curve.divisor(phi).items if m < 0])


# --- the embedding -----------------------------------------------------------


class EmbeddingData(NamedTuple):
    """A bidegree-(2,3) model of the curve in P^1 x P^1.

    rows holds the defining form: entry i is the x-polynomial coefficient of
    the i-th power of the pencil coordinate s.  s_fn is the ratio of the
    degree-3 pencil sections.  n_div is the degree-12 effective divisor N
    representing O(C)|_C = O(2,3)|_C cut by the coordinate form, the
    product of the two polar loci.
    """

    curve: Curve
    a_div: Divisor
    s_fn: FunctionElement
    rows: tuple
    n_div: Divisor


def embed_bidegree_2_3(curve: Curve, a_div: Divisor) -> EmbeddingData:
    """Embed the curve by (degree-3 pencil, hyperelliptic pencil).

    a_div must be effective of degree 3 and not equivalent to K + point;
    the latter is the one excluded shape and raises "excluded pencil".
    """
    if a_div.degree != 3 or not a_div.is_effective:
        raise ValueError("expected an effective divisor of degree 3")
    kdiv = curve.canonical_divisor()
    if rr_space(curve, a_div - kdiv).dim > 0:
        raise ValueError("excluded pencil")
    # h0(A) = 2 by Riemann-Roch, since deg A = 3 > 2g - 2
    sig0, sig1 = rr_space(curve, a_div).basis
    # |A| is base-point free: for P in A, Riemann-Roch gives
    # h0(A - P) = 1 + h0(K - A + P), and K - A + P has degree 0, so
    # h0(A - P) = 2 would mean A ~ K + P, the shape rejected above.  So the
    # poles of s = sig1 / sig0 are div(sig0) + A, of degree 3.
    s_fn = sig1 / sig0

    # s = (A + B y) / h  =>  (h s - A)^2 = B^2 f, an identity, so the rows
    # vanish at (s, x).  Over the monic content they are the primitive
    # relation of s over F_q[x], of x-degree [F(C) : F_q(s)] = 3 (the polar
    # degree of s), with rows[2] = h^2 / content != 0.  B != 0, since a
    # function of x has poles in fibres of degree 2 and s has polar degree
    # 3, so the fibre discriminant 4 B^2 f h^2 / content^2 is nonzero.
    base = curve.field
    pa, pb, h = s_fn.A, s_fn.B, s_fn.h
    rows = [pa * pa - pb * pb * curve.f, (pa * h).scale(base.neg(2)), h * h]
    content = poly_gcd(poly_gcd(rows[0], rows[1]), rows[2])
    rows = tuple(r // content for r in rows)  # a constant content is 1

    # (s, x) is an embedding.  Its degree onto the image divides the polar
    # degrees 3 of s and 2 of x, hence gcd(3, 2) = 1: the map is birational
    # onto a (2,3) curve.  That curve has arithmetic genus (2-1)(3-1) = 2 =
    # g(C), so it is smooth and the birational map is an isomorphism.
    # N is effective of degree 2*3 + 3*2 = 12: s has polar degree 3, and x
    # has one pole, of order 2, at the place over infinity on every model
    # (deg f = 5 ramifies it over the x-line).
    n_div = _polar(curve, s_fn) * 2 + Divisor([(curve.infinite_place(), 6)])
    return EmbeddingData(curve, a_div, s_fn, rows, n_div)


# --- the extension-class functional ------------------------------------------


class BetaFunctional:
    """The extension class of the normal bundle sequence, as the residue
    functional it induces on the section space of 2K + N.

    tails holds (place, num, den) for each splitting tail phi / y, which is
    prod(num) / prod(den); the functional sends psi to the sum over those
    places of res(phi * psi * y^-1 dx), read from the factors' expansions.
    """

    __slots__ = ("curve", "space_div", "tails")

    def __init__(self, curve: Curve, space_div: Divisor, tails: tuple):
        self.curve = curve
        self.space_div = space_div
        self.tails = tails

    def value(self, psi: FunctionElement) -> int:
        # psi = delta * alpha * (gamma.w * y) lies in
        # L(N - L) * L(K + L) * L(K), inside L(2K + N), in both callers
        curve = self.curve
        omega = Differential(curve, psi)
        out = 0
        for pl, num, den in self.tails:
            out = curve.field.add(out, curve.residue(omega, pl, num, den))
        return out


def _charts(E: EmbeddingData) -> tuple:
    """F_s and F_w at (s, x), and the splitting fields of the four charts
    (sigma, omega) = (s or 1/s, x or 1/x) of P^1 x P^1 along the curve.

    Chart (a, b) has sigma = s^(1-2a), omega = x^(1-2b) and chart form
    F / u with u = s^(2a) x^(3b).  Where F(s, x) = 0 (an identity, see
    `embed_bidegree_2_3`) the chain rule gives its partials
    F_sigma = (-1)^a F_s / x^(3b) and F_omega = (-1)^b F_w / (s^(2a) x^b),
    so a chart field vf = F_omega + lam * F_sigma has

        u * vf = (-1)^b x^(2b) F_w + lam (-1)^a s^(2a) F_s,

    with no division.  Each chart is (a, b, fields) where fields holds
    (lam, u * vf) for lam = 0, 1, 2 where vf is nonzero.
    """
    curve = E.curve
    s, x = E.s_fn, curve.x()
    fs = _bi_eval(curve, _bi_partial_s(E.rows), s)
    fw = _bi_eval(curve, _bi_partial_w(E.rows), s)
    # F_s = 2 h B y / content along the curve, nonzero (B != 0)
    terms_w = (fw, -(x * x * fw))  # (-1)^b x^(2b) F_w
    terms_s = (fs, -(s * s * fs))  # (-1)^a s^(2a) F_s
    charts = []
    for a in (0, 1):
        for b in (0, 1):
            tw, ts = terms_w[b], terms_s[a]
            fields = ((lam, tw + ts.scale(lam) if lam else tw) for lam in (0, 1, 2))
            charts.append((a, b, tuple((lam, g) for lam, g in fields if not g.is_zero)))
    return fs, fw, tuple(charts)


def _splitting_tails(E: EmbeddingData, choice: int):
    """One tangent-valued tail per bad place, as (place, num, den).

    The global reference splitting projects along the degree-3 pencil fibers
    (vertical fields agree across charts).  At each place where it
    degenerates, an admissible chart field is selected; the difference of
    the two splittings, applied to the coordinate trivialization of N and
    written against the tangent frame y d/dx, is the tail -vx / (u vf y),
    kept as num = -vx (-1 or x^2, the x-component of d/domega negated) and
    den = u * vf, so it is never inverted.  The support of N, the
    coordinate divisor E.n_div, is bad.

    A chart is admissible where sigma and omega are regular, and vf where
    it is a unit; the orders come from those of s, x, F_s and F_w (the
    order of a product or quotient is the sum or difference of orders, and
    of a sum of two terms of different orders the smaller one), and only a
    sum of two terms of equal order is valued as a function.
    """
    curve = E.curve
    s, x = E.s_fn, curve.x()
    fs, fw, charts = _charts(E)
    nums = (curve.fn(curve.field.neg(1)), x * x)  # -vx by b

    bad = set(E.n_div.support)
    bad.add(curve.infinite_place())
    bad.update(pl for pl, _ in curve.divisor(fs).items)
    bad.update(curve.finite_ramified_places())

    tails = []
    for pl in sorted(bad):
        o_s, o_x, o_fs = (curve.valuation(phi, pl) for phi in (s, x, fs))
        o_fw = _INF if fw.is_zero else curve.valuation(fw, pl)
        opts = []
        for a, b, fields in charts:
            if (-o_s if a else o_s) < 0 or (-o_x if b else o_x) < 0:
                continue
            o_u = 2 * a * o_s + 3 * b * o_x
            o_w, o_t = o_fw + 2 * b * o_x, o_fs + 2 * a * o_s
            for lam, g in fields:
                if lam == 0:
                    o_g = o_w
                elif o_w != o_t:
                    o_g = min(o_w, o_t)
                else:
                    o_g = curve.valuation(g, pl)
                if o_g == o_u:
                    opts.append((nums[b], g))
            if o_fs == 3 * b * o_x:
                opts.append(None)  # the reference splitting itself works here
        # opts is not empty: the image is smooth, so some chart is regular
        # here, and of F_omega + lam F_sigma for lam = 0, 1, 2 (distinct
        # mod p >= 3) at least two are units
        pick = opts[choice % len(opts)]
        if pick is not None:
            tails.append((pl, *pick))
    return tails


def beta_functional(E: EmbeddingData, choice: int = 0) -> BetaFunctional:
    """Residue functional of the extension class on sections of 2K + N.

    `choice` rotates among admissible local splittings; the resulting
    functional is independent of it (differences of admissible splittings
    pair to zero against every section).  Only the tails are built here; no
    residue is taken until the functional is evaluated.
    """
    curve = E.curve
    # h0(2K + N) = 15 by Riemann-Roch: deg(2K + N) = 16 > 2g - 2
    space_div = E.n_div + curve.canonical_divisor() * 2

    # phi / y = num / (den * y^2) with y^2 = f
    f = curve.fn(curve.f)
    tails = tuple((pl, (num,), (den, f)) for pl, num, den in _splitting_tails(E, choice))
    return BetaFunctional(curve, space_div, tails)


# --- the section delta and the obstruction scalar ----------------------------


def _subtract_points(curve: Curve, w, chosen, neg: list):
    """W - sum [P_i - oo] over distinct rational places P_i, as a (u, v) pair
    of coefficient codes.

    w is the code pair of W, chosen holds the indices of the P_i, and neg[i]
    is the code pair of -[P - oo] for the place of index i (zero at
    infinity).  The points are taken in pairs: the two negated points of a
    pair add to a chord (one point with infinity, zero for P and -P), and
    one more addition subtracts that from the running class.
    """
    F, f = curve.field, curve.f.coeffs
    u, v = w
    for p1, p2 in zip(chosen[0::2], chosen[1::2]):
        u, v = _sum_codes(F, f, u, v, *_sum_codes(F, f, *neg[p1], *neg[p2]))
    if len(chosen) % 2:
        u, v = _sum_codes(F, f, u, v, *neg[chosen[-1]])
    return u, v


def choose_delta(E: EmbeddingData, L: PTorsionBundle, seed: int):
    """A section delta of N - L (N = E.n_div) whose divisor consists of 12
    distinct degree-1 places, by seeded search over point configurations.

    Eleven points are drawn at random; the class condition pins the twelfth,
    which is looked up in the group of rational points.  The class
    W = [w_div - 12 oo] is reduced once per call.  A point class [P - oo] is
    already reduced ((x - x0, y0), or zero at infinity), so each draw
    computes W - sum [P_i - oo] by six additions and five chords on
    coefficient codes (`_subtract_points`), where reducing the whole divisor
    of the try would take a dozen or more; no class object is built.  The
    draws sample indices into the rational places, which picks what
    sampling the places themselves would (`sample` draws depend only on the
    population size and k), so the tries look up and compare integers and
    places are read only on a hit.  A class has one reduced pair, so the
    result does not depend on how W - sum [P_i - oo] is computed.  Raises
    ExtendFieldError("extend field") when the field has too few points or
    the budget runs out.
    """
    curve = E.curve
    w_div = E.n_div - L.rep
    pts = rational_places(curve)
    if len(pts) < 12:
        raise ExtendFieldError("extend field")
    inf = curve.infinite_place()
    w_cls = divisor_class_to_mumford(curve, w_div - Divisor([(inf, 12)]))
    w = (w_cls.u.coeffs, w_cls.v.coeffs)
    point = [((1,), ()) if pl == inf else (pl.u.coeffs, pl.v.coeffs) for pl in pts]
    lookup = {uv: i for i, uv in enumerate(point)}
    neg = [(u, tuple(curve.field.neg(c) for c in v)) for u, v in point]
    indices = range(len(pts))
    rng = random.Random(seed)
    for _ in range(DELTA_TRIES):
        chosen = rng.sample(indices, 11)
        last = lookup.get(_subtract_points(curve, w, chosen, neg))
        if last is None or last in chosen:
            continue
        d_div = Divisor([(pts[i], 1) for i in chosen] + [(pts[last], 1)])
        # a hit makes W - D principal, so h0(W - D) = 1; div(delta) >= D - W,
        # and both sides have degree 0: they are equal
        return rr_space(curve, w_div - d_div).basis[0], d_div
    raise ExtendFieldError("extend field")


def obstruction_scalar(
    beta: BetaFunctional,
    delta: FunctionElement,
    gamma: Differential,
    alpha: FunctionElement,
) -> int:
    """beta evaluated on the product delta * gamma * alpha.

    delta is a section of N - L, gamma a regular differential, alpha the
    (unique up to scalar) section of K + L; the product lands in sections
    of 2K + N.  Nonzero output certifies that the torsion class restricts
    nontrivially to the doubled point divisor.  The scalar is linear in each
    factor, so a zero factor gives 0.
    """
    curve = beta.curve
    psi = delta * alpha * (gamma.w * curve.y())
    if psi.is_zero:
        return 0
    return beta.value(psi)


# --- certificates -------------------------------------------------------------


class SearchExhausted(RuntimeError):
    """Search failed within budget; carries per-stage statistics."""

    def __init__(self, stats: dict):
        super().__init__("search budget exhausted")
        self.stats = dict(stats)


def _torsion_try(curve: Curve, seed: int, stats: dict):
    """find_p_torsion(curve, seed), or None, counted as a torsion miss."""
    try:
        return find_p_torsion(curve, seed)
    except RuntimeError:
        stats["torsion_misses"] += 1
        return None


def _torsion_candidates(curve: Curve, tries, stats: dict):
    """The first TORSION_TRIES distinct multiples j * cls (j = 1..p-1) of the
    p-torsion classes found from the seeds in `tries`, in order.  A try runs
    only when the candidates of the tries before it are used up, and it is
    taken from `tries`, so the caller can see which tries never ran."""
    found = []
    for seed in tries:
        cls = _torsion_try(curve, seed, stats)
        if cls is None:
            continue
        for j in range(1, curve.field.p):
            cj = cls * j
            if cj not in found:
                found.append(cj)
                yield cj
                if len(found) == TORSION_TRIES:
                    return


def _certificate(E, bundle, frob, gamma, alpha, delta, d_div, value: int, seed: int) -> dict:
    """The certificate of these stage outputs, as `parse_certificate` reads it."""
    curve, modulus = E.curve, E.curve.field.modulus
    return {
        "schema": SCHEMA_VERSION,
        "p": curve.field.p,
        "k": curve.field.k,
        "modulus": None if modulus is None else list(modulus),
        "f": list(curve.f.coeffs),
        "a_div": encode_divisor(E.a_div),
        "l_cls": encode_mumford(bundle.cls),
        "g": encode_fn(bundle.g),
        "delta_coords": list(rr_space(curve, E.n_div - bundle.rep).coords(delta)),
        "d_div": encode_divisor(d_div),
        "gamma": encode_fn(gamma.w),
        "alpha": encode_fn(alpha),
        "obstruction": value,
        "frob": encode_semilinear(frob),
        "cartier": [list(row) for row in cartier_manin(curve)],
        "seed": seed,
    }


def certificate_build(p: int, seed: int) -> dict:
    """Seeded search for a full certificate at the prime p.

    Samples up to CURVE_TRIES ordinary curves, extends the field until
    rational p-torsion and enough rational points exist, then walks torsion
    classes, pencils and point configurations until the obstruction scalar
    is nonzero, within the stage limits above.  Returns the dict that
    `parse_certificate` gives for its canonical bytes, fully deterministic in
    (p, seed); raises ValueError unless p is an odd prime of at most MAX_Q,
    and SearchExhausted with stage statistics when the limits run out.

    The seeds of a curve's TORSION_TRIES tries of `find_p_torsion` are
    drawn up front, and a try runs only when the candidate loop needs its
    classes; `find_p_torsion` seeds its own generator, so the order in which
    tries run does not change the random stream.  When a curve is given up,
    the tries that never ran are run to count their misses, so the
    statistics count every try, as when all of them ran first.
    """
    if p > MAX_Q:  # refused before field(p) tests p by trial division
        raise ValueError(f"p above MAX_Q = {MAX_Q}")
    base = field(p)
    rng = random.Random(seed)
    stats = {
        "curves_sampled": 0,
        "singular": 0,
        "non_ordinary": 0,
        "no_field": 0,
        "torsion_misses": 0,
        "frobenius_rejections": 0,
        "excluded_pencils": 0,
        "delta_exhausted": 0,
        "obstruction_zero": 0,
    }
    for _ in range(CURVE_TRIES):
        stats["curves_sampled"] += 1
        coeffs = tuple(rng.randrange(p) for _ in range(5)) + (1,)
        try:
            c0 = Curve(base, coeffs)
        except ValueError:
            stats["singular"] += 1
            continue
        if not cartier_nonsingular(c0):
            stats["non_ordinary"] += 1
            continue
        k = m = p_torsion_field_degree(c0, MAX_Q)  # None: beyond MAX_Q
        curve = None
        while m is not None and p**k <= MAX_Q:
            cand = Curve(field(p, k), coeffs)
            if len(rational_places(cand)) >= MIN_POINTS:
                curve = cand
                break
            k += m
        if curve is None:
            stats["no_field"] += 1
            continue

        tries = iter([rng.randrange(1 << 32) for _ in range(TORSION_TRIES)])
        for cls in _torsion_candidates(curve, tries, stats):
            bundle = p_torsion_bundle(curve, cls)
            frob = frobenius_h1(curve, -bundle.rep, bundle.g)
            if not frob.injective:
                stats["frobenius_rejections"] += 1
                continue
            # regular and nonzero by div(g) = p * L (see check 3 of certificate_verify)
            gamma = Differential(curve, bundle.g.derivative() * bundle.g.inverse())
            # h0(K + L) = 1 by Riemann-Roch, L being nontrivial of degree 0
            alpha = rr_space(curve, curve.canonical_divisor() + bundle.rep).basis[0]

            pts = rational_places(curve)
            for _ in range(PENCIL_TRIES):
                trio = rng.sample(pts, 3)
                a_div = Divisor((pl, 1) for pl in trio)
                try:
                    emb = embed_bidegree_2_3(curve, a_div)
                except ValueError as err:
                    if str(err) != "excluded pencil":
                        raise
                    stats["excluded_pencils"] += 1
                    continue
                beta = beta_functional(emb)
                for _ in range(DELTA_ROUNDS):
                    try:
                        delta, d_div = choose_delta(emb, bundle, rng.randrange(1 << 32))
                    except ExtendFieldError:
                        stats["delta_exhausted"] += 1
                        break
                    value = obstruction_scalar(beta, delta, gamma, alpha)
                    if value == 0:
                        stats["obstruction_zero"] += 1
                        continue
                    return _certificate(emb, bundle, frob, gamma, alpha, delta, d_div, value, seed)
        for try_seed in tries:  # tries no candidate needed still count their misses
            _torsion_try(curve, try_seed, stats)
    raise SearchExhausted(stats)


# --- verification --------------------------------------------------------------


class CheckResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str = ""


class VerifyReport(NamedTuple):
    cert: dict  # the parsed certificate
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            yield f"  [{mark}] check {c.index}: {c.name}{suffix}"


CHECK_NAMES = (
    "the sextic model is a smooth genus-2 curve",
    "the class of N - D has order exactly p",
    "div(g) = p * L and dg/g is regular and nonzero",
    "the obstruction scalar is nonzero",
    "Frobenius is injective on H^1(-L)",
    "the Cartier-Manin matrix is nonsingular",
    "D consists of 12 distinct rational points",
)


def _stage(compute, prefix: str = "") -> tuple:
    """(value, None), or (None, reason) when compute fails."""
    try:
        return compute(), None
    except (ValueError, ZeroDivisionError) as err:
        return None, prefix + str(err)


def _require_monic(fn: FunctionElement, name: str):
    """g and delta each span a one-dimensional space, and search writes the
    `kernel_basis` generator, whose last nonzero coordinate is 1: in
    (A + B y)/h, B is monic, or A when B = 0.  Any other multiple would
    spell the same certificate another way.  (Check 4 compares alpha with
    the generator it builds anyway.)"""
    if (fn.A if fn.B.is_zero else fn.B).lc() != 1:
        raise ValueError(f"{name} is not scaled to a monic leading coefficient")


def certificate_verify(data) -> VerifyReport:
    """Recompute the seven certificate hypotheses from its bytes (or str).

    Input that `parse_certificate` refuses raises CertificateFormatError;
    mathematical failures become failed checks, and the report carries the
    parsed certificate.  Only the witnesses (f, A, L, g, delta and D) are
    decoded.  gamma, alpha and the Frobenius and Cartier-Manin matrices are
    recomputed from them, and each must equal its stored field in that
    field's encoding.
    The stages the checks share (the torsion divisor L, the embedding with
    its normal divisor N, the decoded D, g with div(g) = p * L, and
    gamma = dg/g) are computed once, so each hypothesis is tested once.
    A check asks for its stages in the order it uses them, and fails with
    the reason of the first one that failed.
    """
    d = parse_certificate(data)
    p = d["p"]
    try:
        base = field(p, d["k"])
        # the one rule on the modulus: F_q is the field search builds, and
        # any other value (another irreducible modulus, a reducible or
        # non-monic list, a list at k = 1, null above) would spell the same
        # certificate another way, or no field
        modulus = None if base.modulus is None else list(base.modulus)
        if d["modulus"] != modulus:
            raise ValueError(f"modulus is not {modulus}, the modulus of F_{base.q}")
        curve = Curve(base, decode_poly(base, d["f"]))
        # the codes below p name F_p in every F_(p^k), and search samples f
        # over F_p: the group orders come from the prime-field model
        if any(c >= p for c in d["f"]):
            raise ValueError("f is not defined over F_p")
    except (ValueError, TypeError) as err:
        details = [str(err)] + ["no curve to check against"] * 6
        checks = [CheckResult(i, CHECK_NAMES[i - 1], False, details[i - 1]) for i in range(1, 8)]
        return VerifyReport(d, tuple(checks))

    def torsion_divisor():
        l_cls = decode_mumford(curve, d["l_cls"])
        if class_order(l_cls) != p:
            raise ValueError("torsion class order differs from p")
        return mumford_to_divisor(l_cls)

    def embedding():
        return embed_bidegree_2_3(curve, decode_divisor(curve, d["a_div"]))

    def trivialization():
        g_fn = decode_fn(curve, d["g"], "g")
        # a zero g has no divisor, so it fails here too
        if not curve.has_divisor(g_fn, need("L") * p):
            raise ValueError("div(g) is not p * L")
        return g_fn

    def log_derivative_of_g():
        g_fn = need("g")
        return Differential(curve, g_fn.derivative() * g_fn.inverse())

    def need(name: str):
        value, err = stages[name]
        if err is not None:
            raise ValueError(err)
        return value

    stages = {"L": _stage(torsion_divisor)}  # first: the g stage reads it
    stages.update(
        embedding=_stage(embedding, "embedding failed: "),
        D=_stage(lambda: decode_divisor(curve, d["d_div"])),
        g=_stage(trivialization),
    )
    stages["gamma"] = _stage(log_derivative_of_g)  # last: it reads the g stage

    def n_minus_d():
        d_div, n0 = need("D"), need("embedding").n_div
        return class_order(divisor_class_to_mumford(curve, n0 - d_div)) == p

    def log_derivative():
        g_fn, gamma = need("g"), need("gamma")
        _require_monic(g_fn, "g")
        # dg/g is regular: div(g) = p * L puts each valuation of g in pZ, so
        # locally g = t^(pm) u with u a unit and dg/g = du/u.  It is nonzero:
        # dg = 0 makes g = h^p with div(h) = L principal, and L has order p.
        return encode_fn(gamma.w) == d["gamma"]

    def obstruction():
        emb, l_rep, gamma = need("embedding"), need("L"), need("gamma")
        n0 = emb.n_div
        # h0(K + L) = 1 by Riemann-Roch, L being nontrivial of degree 0
        alpha = rr_space(curve, curve.canonical_divisor() + l_rep).basis[0]
        if encode_fn(alpha) != d["alpha"]:
            raise ValueError("alpha is not the generator of the adjoint torsion sections")
        dsp = rr_space(curve, n0 - l_rep)
        if dsp.dim != len(d["delta_coords"]):
            raise ValueError("delta coordinate length mismatch")
        delta = curve.zero()
        for c, phi in zip(d["delta_coords"], dsp.basis):
            delta = delta + phi.scale(c)
        d_div = need("D")
        if not curve.has_divisor(delta, d_div - (n0 - l_rep)):
            raise ValueError("delta does not vanish exactly on the stated points")
        _require_monic(delta, "delta")
        value = obstruction_scalar(beta_functional(emb), delta, gamma, alpha)
        return value == d["obstruction"] and value != 0

    def frobenius():
        frob = frobenius_h1(curve, -need("L"), need("g"))
        return frob.injective and encode_semilinear(frob) == d["frob"]

    def cartier():
        matrix = [list(row) for row in cartier_manin(curve)]
        return matrix == d["cartier"] and cartier_nonsingular(curve)

    def points():
        d_div = need("D")
        simple = all(m == 1 and pl.degree == 1 for pl, m in d_div.items)
        # degree 12 with every item of multiplicity 1 and degree 1: 12 items
        return d_div.degree == 12 and simple

    # checks 2-7, in CHECK_NAMES order
    steps = (n_minus_d, log_derivative, obstruction, frobenius, cartier, points)
    checks = [CheckResult(1, CHECK_NAMES[0], True)]
    for i, step in enumerate(steps, start=2):
        try:
            checks.append(CheckResult(i, CHECK_NAMES[i - 1], bool(step())))
        except (ValueError, ZeroDivisionError) as err:
            checks.append(CheckResult(i, CHECK_NAMES[i - 1], False, str(err)))
    return VerifyReport(d, tuple(checks))
