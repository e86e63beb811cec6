import copy
import json

import pytest

from nefcert import serialize
from nefcert.curves import Curve, Divisor, rational_places
from nefcert.fields import Polynomial, field, is_irreducible
from nefcert.obstruction import certificate_build
from nefcert.serialize import CertificateFormatError


@pytest.fixture(scope="module")
def cert_dict():
    return certificate_build(3, seed=0)


def test_canonical_bytes_are_stable(cert_dict):
    raw = serialize.canonical_bytes(cert_dict)
    assert raw.endswith(b"\n")
    assert b" " not in raw.split(b'"den"')[0][:40]
    # key order does not matter for the output
    shuffled = dict(reversed(list(cert_dict.items())))
    assert serialize.canonical_bytes(shuffled) == raw
    assert serialize.parse_certificate(raw) == cert_dict


def test_parse_rejects_garbage():
    with pytest.raises(CertificateFormatError, match="invalid JSON"):
        serialize.parse_certificate(b"not json at all")
    with pytest.raises(CertificateFormatError, match="not UTF-8"):
        serialize.parse_certificate(b"\xff\xfe\x00")
    with pytest.raises(CertificateFormatError, match="must be an object"):
        serialize.parse_certificate(b"[1,2,3]")


def test_shape_validation_catches_each_field(cert_dict):
    def broken(fn):
        d = copy.deepcopy(cert_dict)
        fn(d)
        return d

    cases = [
        (lambda d: d.pop("p"), "key set"),
        (lambda d: d.update(p="3"), "expected an integer"),
        (lambda d: d.update(k="2"), "k: expected an integer"),
        (lambda d: d.update(seed=0.5), "seed: expected an integer"),
        (lambda d: d.update(obstruction="1"), "obstruction: expected an integer"),
        (lambda d: d.update(schema="bogus/9"), "unsupported schema"),
        (lambda d: d.update(k=20), "field too large"),
        (lambda d: d.update(p=3001, k=1, modulus=None), "field too large"),
        (lambda d: d.update(f="101"), "f: expected coefficients"),
        (lambda d: d.update(extra=1), "key set"),
        (lambda d: d.update(a_div=[["oops", 1]]), "bad place"),
        (lambda d: d.update(l_cls={"u": [1], "w": [0]}), "l_cls"),
        (lambda d: d["g"].pop("a"), "expected a/b"),
        (lambda d: d.update(delta_coords=[0.5]), "delta_coords"),
        (lambda d: d.update(frob={"twist": 1}), "frob"),
        (lambda d: d.update(cartier=[[1, 2, 3]]), "cartier"),
        (lambda d: d["d_div"][0].__setitem__(1, "one"), "multiplicity"),
        # values that every other rule lets through: an empty container, a
        # list that iterates like the right key set, a float
        (lambda d: d.update(p=1), "bad field parameters"),
        (lambda d: d.update(f={}), "f: expected coefficients"),
        (lambda d: d.update(a_div={}), "a_div: expected a list"),
        (lambda d: d["a_div"][0][0].update(kind=1), r"a_div\[0\]: bad place kind"),
        (lambda d: d.update(g=["a", "b"]), "g: expected an object"),
        (lambda d: d["g"].update(a=["den", "num"]), "g.a: expected an object"),
        (lambda d: d["g"]["a"].update(x=[]), "g.a: expected num/den"),
        (lambda d: d["frob"].update(twist="1"), "frob: bad dimensions"),
        (lambda d: d["frob"].update(matrix=[[0.5]]), "frob: bad matrix"),
        # the modulus is null or integers; check 1 compares its value
        (lambda d: d.update(modulus=[1, 0, "1"]), "modulus: expected null or coefficients"),
        # a zero on top of a coefficient list would spell the same
        # certificate another way
        (lambda d: d["f"].append(0), "f: zero top coefficient"),
        (lambda d: d["alpha"]["a"]["num"].append(0), "alpha.a.num: zero top coefficient"),
        (lambda d: d["g"]["b"]["den"].append(0), "g.b.den: zero top coefficient"),
        (lambda d: d["l_cls"]["v"].append(0), "l_cls.v: zero top coefficient"),
        (lambda d: d["d_div"][1][0]["u"].append(0), r"d_div\[1\].u: zero top coefficient"),
        # and so would a denominator that is not monic, or the zero one
        (lambda d: d["alpha"]["b"].update(den=[2]), "alpha.b.den: denominator not monic"),
        (lambda d: d["g"]["a"]["den"].__setitem__(-1, 2), "g.a.den: denominator not monic"),
        (lambda d: d["gamma"]["a"].update(den=[]), "gamma.a.den: denominator not monic"),
        # codes outside F_9 in the stored scalar and matrices
        (lambda d: d.update(obstruction=16), "obstruction: code outside the field"),
        (lambda d: d.update(obstruction=-1), "obstruction: code outside the field"),
        (lambda d: d["cartier"][0].__setitem__(0, 10), "cartier: code outside the field"),
        (lambda d: d["cartier"][1].__setitem__(1, -2), "cartier: code outside the field"),
        (lambda d: d["frob"]["matrix"][0].__setitem__(0, 9), "frob.matrix: code outside"),
        (lambda d: d["frob"]["matrix"][-1].__setitem__(-1, -1), "frob.matrix: code outside"),
    ]
    for fn, msg in cases:
        with pytest.raises(CertificateFormatError, match=msg):
            serialize.ensure_certificate_shape(broken(fn))


def test_characteristic_two_is_well_formed_and_fails_its_checks(cert_dict):
    """p = 2 passes the shape check (p >= 2), and check 1 refuses it; at
    k = 4 the codes of the F_9 certificate still name elements of F_16."""
    from nefcert.obstruction import certificate_verify

    d = dict(cert_dict, p=2, k=4)
    report = certificate_verify(serialize.canonical_bytes(d))
    assert report.checks[0].detail == "characteristic two unsupported"
    assert not any(c.passed for c in report.checks)


def test_roundtrip_of_curve_level_objects():
    curve = Curve(field(3, 2), (0, 1, 0, 0, 0, 1))
    pts = rational_places(curve)
    div = Divisor([(pts[0], 2), (pts[3], -1)])
    enc = serialize.encode_divisor(div)
    assert serialize.decode_divisor(curve, enc) == div

    fn = (curve.x() + curve.y()) * (curve.x() * curve.x()).inverse()
    enc_fn = serialize.encode_fn(fn)
    back = serialize.decode_fn(curve, enc_fn)
    assert (back - fn).is_zero

    json.dumps(enc)
    json.dumps(enc_fn)


def test_decoders_reject_semantic_garbage():
    curve = Curve(field(3, 2), (0, 1, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="out of field range"):
        serialize.decode_poly(curve.field, [99])
    # a fraction is stored in lowest terms (x^2 + 2 = (x - 1)(x + 1) over
    # F_9), and zero as 0/1
    for num, den in (([1, 1], [1, 1]), ([2, 0, 1], [1, 1]), ([], [1, 1]), ([], [0, 1])):
        with pytest.raises(ValueError, match="g.a: fraction not in lowest terms"):
            serialize.decode_rational(curve.field, {"num": num, "den": den}, "g.a")
    num, den = serialize.decode_rational(curve.field, {"num": [1, 1], "den": [2, 1]})
    assert (num.coeffs, den.coeffs) == ((1, 1), (2, 1))
    # a split place whose square root does not match the curve
    good = serialize.encode_place(rational_places(curve)[1])
    assert good["kind"] == "split"
    bad = dict(good)
    bad["v"] = [(good["v"][0] + 1) % 9] if good["v"] else [1]
    with pytest.raises(ValueError, match="does not lie on the curve"):
        serialize.decode_place(curve, bad)
    # a place spelled otherwise than `encode_place` writes it: v on a
    # ramified or an inert place, u or v at infinity
    ram = serialize.encode_place(curve.finite_ramified_places()[0])
    assert ram["v"] == []
    inert = next(
        pl
        for c in range(81)
        if is_irreducible(u := Polynomial(curve.field, (c % 9, c // 9, 1)))
        for pl in curve.places_above(u)
        if pl.kind == "inert"
    )
    inert = serialize.encode_place(inert)
    assert inert["v"] is None
    for place in (
        dict(ram, v=[1]),
        dict(ram, v=None),
        dict(inert, v=[]),
        dict(inert, v=[1]),
        {"kind": "infinite", "u": [1, 1], "v": [2]},
        {"kind": "infinite", "u": None, "v": []},
    ):
        with pytest.raises(ValueError, match="place not in canonical form"):
            serialize.decode_place(curve, place)
    inf = {"kind": "infinite", "u": None, "v": None}
    assert serialize.decode_place(curve, inf) == curve.infinite_place()
    # reducible support polynomial
    with pytest.raises(ValueError, match="monic irreducible"):
        serialize.decode_place(
            curve, {"kind": "split", "u": [0, 0, 1], "v": [0, 1]}
        )


def test_verify_raises_format_error_on_malformed_dict(cert_dict):
    from nefcert.obstruction import certificate_verify

    d = copy.deepcopy(cert_dict)
    del d["alpha"]
    with pytest.raises(CertificateFormatError):
        certificate_verify(serialize.canonical_bytes(d))


@pytest.mark.parametrize(
    "key,check",
    [("alpha.a", 4), ("alpha.b", 4), ("g.a", 3), ("gamma.b", 3)],
)
def test_fraction_not_in_lowest_terms_fails_its_check(cert_dict, key, check):
    """Multiplying num and den by x + 1 spells the same function another
    way.  g is decoded, and the checks that read it fail with that reason;
    alpha and gamma are compared with the encoding of what verify
    recomputes, and the check that compares them fails."""
    from nefcert.obstruction import certificate_verify

    d = copy.deepcopy(cert_dict)
    head, part = key.split(".")
    frac = d[head][part]
    F = field(3, 2)
    for name in ("num", "den"):  # a zero numerator stays zero, over x + 1
        frac[name] = list((Polynomial(F, frac[name]) * Polynomial(F, (1, 1))).coeffs)
    report = certificate_verify(serialize.canonical_bytes(d))
    failed = {c.index: c.detail for c in report.checks if not c.passed}
    detail = {
        "alpha": "alpha is not the generator of the adjoint torsion sections",
        "g": f"{key}: fraction not in lowest terms",
        "gamma": "",
    }[head]
    assert failed.get(check) == detail, failed


def test_finite_place_without_a_polynomial_fails_its_checks(cert_dict):
    """The shape check lets u be null, as at infinity; on a finite place
    every check that decodes the divisor fails with that reason, where
    decoding null as a polynomial would raise a TypeError out of verify."""
    from nefcert.obstruction import certificate_verify

    d = copy.deepcopy(cert_dict)
    assert d["d_div"][0][0]["kind"] == "split"
    d["d_div"][0][0]["u"] = None
    report = certificate_verify(serialize.canonical_bytes(d))
    failed = {c.index: c.detail for c in report.checks if not c.passed}
    assert failed == {i: "finite place needs a polynomial" for i in (2, 4, 7)}


@pytest.mark.parametrize("key", ["a_div", "d_div"])
def test_place_not_in_canonical_form_fails_its_check(cert_dict, key):
    """v = [1] on a ramified place names the same place as v = []; every
    check that decodes the divisor fails with that reason."""
    from nefcert.obstruction import certificate_verify

    d = copy.deepcopy(cert_dict)
    (i,) = [i for i, (pl, _) in enumerate(d[key]) if pl["kind"] == "ramified"]
    d[key][i][0]["v"] = [1]
    report = certificate_verify(serialize.canonical_bytes(d))
    failed = {c.index: c.detail for c in report.checks if not c.passed}
    assert not report.ok and 2 in failed
    assert all(detail.endswith("place not in canonical form") for detail in failed.values()), failed


@pytest.mark.parametrize("spelling", ["a_div-reversed", "d_div-reversed", "zero-item", "v-plus-u"])
def test_divisor_and_mumford_pair_have_one_spelling(cert_dict, spelling):
    """A divisor list in another order or with a [place, 0] item, and a
    Mumford pair with v + u for v, name the same objects as the stored
    ones; every check that decodes them fails with that reason."""
    from nefcert.obstruction import certificate_verify

    d = copy.deepcopy(cert_dict)
    curve = Curve(field(3, 2), d["f"])
    if spelling == "a_div-reversed":
        d["a_div"].reverse()
        expect = {2, 4}
    elif spelling == "d_div-reversed":
        d["d_div"].reverse()
        expect = {2, 4, 7}
    elif spelling == "zero-item":
        # a place D misses, with multiplicity 0, in its sorted position
        items = serialize.decode_divisor(curve, d["d_div"]).items
        extra = next(pl for pl in rational_places(curve) if pl not in dict(items))
        items = sorted(items + ((extra, 0),), key=lambda it: it[0].sort_key())
        d["d_div"] = [[serialize.encode_place(pl), m] for pl, m in items]
        expect = {2, 4, 7}
    else:
        u, v = (Polynomial(curve.field, d["l_cls"][k]) for k in ("u", "v"))
        d["l_cls"]["v"] = list((v + u).coeffs)
        expect = {3, 4, 5}
    report = certificate_verify(serialize.canonical_bytes(d))
    failed = {c.index: c.detail for c in report.checks if not c.passed}
    assert set(failed) == expect, failed
    assert all(detail.endswith("not in canonical form") for detail in failed.values()), failed
