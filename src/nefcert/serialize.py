"""The certificate format: `FORMAT`, one table that gives each key its shape
check, the decoder of its witness and its encoder; and its canonical JSON.

Encoding is total and deterministic: the same certificate always produces
the same bytes (sorted keys, no whitespace, trailing newline), and those are
the only bytes that parse.  Decoding is split in two: `parse_certificate`
only enforces the structural shape and the byte spelling and raises
CertificateFormatError, while `decode` reconstructs a witness as a
curve-level object and raises ValueError when the data is shaped correctly
but mathematically inconsistent.  The verifier treats the former as
malformed input and the latter as failed checks.  It decodes none of the
derived fields (gamma, alpha, frob, cartier): it recomputes them and
compares their `encode`.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from .curves import INFINITE, Curve, Divisor, FunctionElement, Place
from .fields import Field, Polynomial, poly_gcd
from .jacobian import MumfordClass

SCHEMA_VERSION = "nefcert-certificate/1"

# the largest field a certificate may name: no search builds a larger one
# (its point count takes q evaluations), and verify work grows with q
MAX_Q = 3000

# the largest degree of a place a certificate may name: a_div has degree 3
# and D is 12 rational points, so no valid divisor holds a larger place
MAX_PLACE_DEGREE = 12


class CertificateFormatError(ValueError):
    """The input is not a structurally well-formed certificate."""


# --- encoders -----------------------------------------------------------------


def encode_poly(poly: Polynomial) -> list:
    return list(poly.coeffs)


def encode_rational(num: Polynomial, den: Polynomial) -> dict:
    """num/den in lowest terms, for a monic den; zero is 0/1."""
    g = poly_gcd(num, den)
    return {"num": encode_poly(num // g), "den": encode_poly(den // g)}


def encode_fn(fn: FunctionElement) -> dict:
    """(A + B y) / h as the fractions a = A/h and b = B/h in lowest terms."""
    return {"a": encode_rational(fn.A, fn.h), "b": encode_rational(fn.B, fn.h)}


def encode_place(pl: Place) -> dict:
    return {
        "kind": pl.kind,
        "u": None if pl.u is None else encode_poly(pl.u),
        "v": None if pl.v is None else encode_poly(pl.v),
    }


def encode_divisor(div: Divisor) -> list:
    return [[encode_place(pl), m] for pl, m in div.items]


def encode_mumford(cls: MumfordClass) -> dict:
    return {"u": encode_poly(cls.u), "v": encode_poly(cls.v)}


def encode_semilinear(sm: SemilinearMap) -> dict:
    return {
        "twist": sm.twist,
        "matrix": encode_matrix(sm.matrix),
        "source_dim": sm.source_dim,
        "target_dim": sm.target_dim,
    }


def encode_modulus(modulus) -> list | None:
    return None if modulus is None else list(modulus)


def encode_matrix(matrix) -> list:
    return [list(row) for row in matrix]


def canonical_bytes(d: dict) -> bytes:
    return json.dumps(d, sort_keys=True, separators=(",", ":")).encode() + b"\n"


# --- shape checks ---------------------------------------------------------------
# a table check takes the value, its key and the certificate, whose p and k
# FORMAT checks before any check that reads them


def _want(cond: bool, msg: str):
    if not cond:
        raise CertificateFormatError(msg)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(type(c) is int for c in v)


def _check_poly(v, key: str, msg: str = "bad coefficients"):
    """Integer coefficients, low to high, with no zero on top: the one
    encoding of each polynomial, so a padded copy cannot verify."""
    _want(_is_int_list(v), f"{key}: {msg}")
    _want(not v or v[-1] != 0, f"{key}: zero top coefficient")


def _below_power(n: int, p: int, k: int) -> bool:
    """n < p**k for n >= 0, without building p**k for an unchecked k."""
    while n and k:
        n //= p
        k -= 1
    return n == 0


def _check_codes(codes, key: str, d: dict):
    """Integers that each name an element of the field of p^k elements."""
    _want(_is_int_list(codes), f"{key}: expected integers")
    _want(
        all(c >= 0 for c in codes) and _below_power(max(codes, default=0), d["p"], d["k"]),
        f"{key}: code outside the field of p^k elements",
    )


def _check_rational(v, key: str):
    _want(isinstance(v, dict), f"{key}: expected an object")
    _want(set(v) == {"num", "den"}, f"{key}: expected num/den")
    _check_poly(v["num"], key + ".num")
    _check_poly(v["den"], key + ".den")
    # a fraction scaled top and bottom would spell the same certificate
    # another way, so the denominator is monic
    _want(v["den"][-1:] == [1], f"{key}.den: denominator not monic")


def _check_schema(v, key: str, d: dict):
    _want(v == SCHEMA_VERSION, "unsupported schema version")


def _check_int(v, key: str, d: dict):
    _want(type(v) is int, f"{key}: expected an integer")


def _check_code(v, key: str, d: dict):
    _check_int(v, key, d)
    _check_codes([v], key, d)


def _check_field(v, key: str, d: dict):
    """p and k name a field of at most MAX_Q elements, and the modulus is
    null or integers: check 1 requires the modulus of field(p, k) itself."""
    _want(d["p"] >= 2 and d["k"] >= 1, "bad field parameters")
    _want(not _below_power(MAX_Q, d["p"], d["k"]), f"field too large: p^k > {MAX_Q}")
    _want(v is None or _is_int_list(v), f"{key}: expected null or coefficients")


def _check_coefficients(v, key: str, d: dict):
    _check_poly(v, key, "expected coefficients")


def _check_divisor(v, key: str, d: dict):
    _want(isinstance(v, list), f"{key}: expected a list")
    for i, item in enumerate(v):
        _want(
            isinstance(item, list) and len(item) == 2 and type(item[1]) is int,
            f"{key}[{i}]: expected [place, multiplicity]",
        )
        pl = item[0]
        _want(
            isinstance(pl, dict) and set(pl) == {"kind", "u", "v"},
            f"{key}[{i}]: bad place",
        )
        _want(isinstance(pl["kind"], str), f"{key}[{i}]: bad place kind")
        for part in ("u", "v"):
            if pl[part] is not None:
                _check_poly(pl[part], f"{key}[{i}].{part}", "bad place polynomial")


def _check_mumford(v, key: str, d: dict):
    _want(isinstance(v, dict) and set(v) == {"u", "v"}, f"{key}: bad pair")
    _check_poly(v["u"], key + ".u")
    _check_poly(v["v"], key + ".v")


def _check_fn(v, key: str, d: dict):
    _want(isinstance(v, dict), f"{key}: expected an object")
    _want(set(v) == {"a", "b"}, f"{key}: expected a/b parts")
    _check_rational(v["a"], key + ".a")
    _check_rational(v["b"], key + ".b")


def _check_semilinear(v, key: str, d: dict):
    _want(
        isinstance(v, dict) and set(v) == {"twist", "matrix", "source_dim", "target_dim"},
        f"{key}: bad map",
    )
    _want(
        type(v["twist"]) is int
        and type(v["source_dim"]) is int
        and type(v["target_dim"]) is int,
        f"{key}: bad dimensions",
    )
    _want(
        isinstance(v["matrix"], list) and all(_is_int_list(r) for r in v["matrix"]),
        f"{key}: bad matrix",
    )
    _check_codes([c for r in v["matrix"] for c in r], key + ".matrix", d)


def _check_matrix(v, key: str, d: dict):
    _want(
        isinstance(v, list) and len(v) == 2 and all(_is_int_list(r) and len(r) == 2 for r in v),
        f"{key}: expected a 2x2 matrix",
    )
    _check_codes(v[0] + v[1], key, d)


# --- witness decoders (semantic errors raise ValueError) ----------------------
# a table decoder takes the field (for f) or the curve, the data and its key


def decode_poly(base: Field, coeffs, key: str = "") -> Polynomial:
    co = tuple(int(c) for c in coeffs)
    if any(not 0 <= c < base.q for c in co):
        raise ValueError("coefficient out of field range")
    return Polynomial(base, co)


def decode_rational(base: Field, data, key: str = "num/den") -> tuple:
    """(num, den) of the fraction num/den, which must be stored in lowest
    terms (zero as 0/1): a common factor would be another spelling of the
    same certificate.  The shape check has made den monic."""
    den = decode_poly(base, data["den"])
    num = decode_poly(base, data["num"])
    if poly_gcd(num, den).degree > 0:
        raise ValueError(f"{key}: fraction not in lowest terms")
    return num, den


def decode_fn(curve: Curve, data, key: str = "fn") -> FunctionElement:
    """a + b y over h = lcm(den a, den b).  Each prime factor of h divides
    one of the denominators to its full power and leaves that fraction's
    numerator prime to it, so gcd(A, B, h) = 1: the result is the
    function's one form as it stands."""
    na, da = decode_rational(curve.field, data["a"], key + ".a")
    nb, db = decode_rational(curve.field, data["b"], key + ".b")
    h = da * (db // poly_gcd(da, db))
    return FunctionElement(curve, na * (h // da), nb * (h // db), h, reduce=False)


def decode_place(curve: Curve, data) -> Place:
    """The place, which must be stored as `encode_place` writes it: `Place`
    sets v of a ramified or inert place and u and v at infinity itself, so
    any other value there would spell the same certificate another way."""
    kind = data["kind"]
    if kind == INFINITE:
        pl = curve.infinite_place()
    else:
        if data["u"] is None:
            raise ValueError("finite place needs a polynomial")
        u = decode_poly(curve.field, data["u"])
        v = None if data["v"] is None else decode_poly(curve.field, data["v"])
        pl = Place(kind, u, v)
        # refused before places_above tests u for irreducibility
        if pl.degree > MAX_PLACE_DEGREE:
            raise ValueError(f"place of degree above {MAX_PLACE_DEGREE}")
        if pl not in curve.places_above(u):
            raise ValueError("place does not lie on the curve")
    if encode_place(pl) != data:
        raise ValueError("place not in canonical form")
    return pl


def decode_divisor(curve: Curve, data, key: str = "") -> Divisor:
    """The divisor, which must be stored as `encode_divisor` writes it:
    `Divisor` sorts its places, merges a repeated place and drops a zero
    multiplicity, so any other list would spell the same certificate
    another way."""
    div = Divisor([(decode_place(curve, item[0]), item[1]) for item in data])
    if encode_divisor(div) != data:
        raise ValueError("divisor not in canonical form")
    return div


def decode_mumford(curve: Curve, data, key: str = "") -> MumfordClass:
    """The class, which must be stored as `encode_mumford` writes it:
    `MumfordClass` reduces v mod u, so v + u would spell it another way."""
    cls = MumfordClass(
        curve, decode_poly(curve.field, data["u"]), decode_poly(curve.field, data["v"])
    )
    if encode_mumford(cls) != data:
        raise ValueError("Mumford pair not in canonical form")
    return cls


# --- the format ------------------------------------------------------------------


class Kind(NamedTuple):
    """A key's shape check, witness decoder (None: verify recomputes the
    value) and encoder."""

    check: Callable
    decode: Callable | None
    encode: Callable


# every key of a certificate, in the order the shape check reports faults
FORMAT = {
    "schema": Kind(_check_schema, None, str),
    "p": Kind(_check_int, None, int),
    "k": Kind(_check_int, None, int),
    "seed": Kind(_check_int, None, int),
    "modulus": Kind(_check_field, None, encode_modulus),
    "f": Kind(_check_coefficients, decode_poly, encode_poly),
    "a_div": Kind(_check_divisor, decode_divisor, encode_divisor),
    "d_div": Kind(_check_divisor, decode_divisor, encode_divisor),
    "l_cls": Kind(_check_mumford, decode_mumford, encode_mumford),
    "g": Kind(_check_fn, decode_fn, encode_fn),
    "gamma": Kind(_check_fn, decode_fn, encode_fn),
    "alpha": Kind(_check_fn, decode_fn, encode_fn),
    "delta_coords": Kind(_check_codes, None, list),
    "obstruction": Kind(_check_code, None, int),
    "frob": Kind(_check_semilinear, None, encode_semilinear),
    "cartier": Kind(_check_matrix, None, encode_matrix),
}


def encode(key: str, obj):
    """obj as the certificate stores it under key."""
    return FORMAT[key].encode(obj)


def encode_certificate(**values) -> dict:
    """The certificate of one object per key of FORMAT but schema, as
    `parse_certificate` gives it for its canonical bytes."""
    values["schema"] = SCHEMA_VERSION
    return {key: kind.encode(values[key]) for key, kind in FORMAT.items()}


def decode(at, d: dict, key: str):
    """The witness under key of a shape-checked d, on `at`: the field for f,
    the curve for the others."""
    return FORMAT[key].decode(at, d[key], key)


def ensure_certificate_shape(d) -> dict:
    """Validate plain-data structure by FORMAT; returns d unchanged."""
    _want(isinstance(d, dict), "certificate must be an object")
    _want(set(d) == set(FORMAT), "wrong certificate key set")
    for key, kind in FORMAT.items():
        kind.check(d[key], key, d)
    return d


def parse_certificate(data) -> dict:
    """bytes/str -> shape-checked dict; malformed input raises
    CertificateFormatError.  Only the canonical bytes of the dict parse:
    indentation, another key order or a missing final newline would spell
    the same certificate another way."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise CertificateFormatError(f"not UTF-8: {err}") from err
    try:
        d = json.loads(data)
    except (ValueError, RecursionError) as err:
        # besides JSONDecodeError (a ValueError): an integer literal past
        # CPython's digit limit, and nesting past the recursion limit
        raise CertificateFormatError(f"invalid JSON: {err}") from err
    ensure_certificate_shape(d)
    _want(data == canonical_bytes(d).decode(), "not in canonical form")
    return d
