import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefcert.curves import Curve, FunctionElement
from nefcert.fields import (
    Polynomial,
    field,
    hensel_sqrt,
    is_irreducible,
    poly_factor,
    poly_gcd,
    poly_ord,
    poly_ord_cofactor,
    poly_random,
    poly_xgcd,
)
from nefcert.oracles import poly_random_monic
from nefcert.serialize import MAX_Q
from nefcert.series import PolyModRing

FIELDS = [field(3), field(5), field(11), field(3, 2), field(5, 2), field(3, 3)]


def P(f, *coeffs):
    return Polynomial(f, coeffs)


# --- field construction -------------------------------------------------


def test_field_sizes():
    assert field(5, 1).q == 5
    assert field(3, 2).q == 9
    assert field(7, 3).q == 343


def test_field_rejects_composite():
    for n in (4, 6, 1, 0, -3, True):
        with pytest.raises(ValueError) as exc:
            field(n, 1)
        assert str(exc.value) == f"not prime: {n}"


def test_field_rejects_char_two():
    with pytest.raises(ValueError, match="characteristic two unsupported"):
        field(2, 1)


def test_field_instances_shared():
    assert field(3, 2) is field(3, 2)


# the first irreducible in the deterministic scan order, for every extension
# field within MAX_Q: each code of a field depends on its modulus
FROZEN_MODULI = {
    (3, 2): (1, 0, 1),  # x^2 + 1
    (3, 3): (1, 2, 0, 1),  # x^3 + 2x + 1
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
    (17, 2): (3, 0, 1),
    (19, 2): (1, 0, 1),
    (23, 2): (1, 0, 1),
    (29, 2): (2, 0, 1),
    (31, 2): (1, 0, 1),
    (37, 2): (2, 0, 1),
    (41, 2): (3, 0, 1),
    (43, 2): (1, 0, 1),
    (47, 2): (1, 0, 1),
    (53, 2): (2, 0, 1),
}


def test_frozen_moduli():
    within = {
        (p, k)
        for p in range(3, 60)
        if all(p % r for r in range(2, p))
        for k in range(2, 8)
        if p**k <= MAX_Q
    }
    assert set(FROZEN_MODULI) == within
    for (p, k), modulus in FROZEN_MODULI.items():
        assert field(p, k).modulus == modulus, (p, k)


@pytest.mark.parametrize(
    "p,k,g", [(3, 2, 4), (5, 2, 6), (7, 2, 9), (7, 3, 22), (3, 5, 3), (13, 2, 15)]
)
def test_extension_tables_sit_on_the_first_generator(p, k, g):
    """The exp/log tables are powers of the first code g >= 2 of order
    q - 1.  Every code of a product depends on g, so it is pinned; the codes
    below it have logs sharing a factor with q - 1, so none generates."""
    F = field(p, k)
    n = F.q - 1
    assert F._exp[1] == g
    assert sorted(F._exp[:n]) == list(range(1, F.q))
    assert all(math.gcd(F._log[c], n) > 1 for c in range(2, g))


# --- element arithmetic --------------------------------------------------


@settings(max_examples=200)
@given(
    fi=st.integers(0, len(FIELDS) - 1),
    a=st.integers(0, 10**6),
    b=st.integers(0, 10**6),
    c=st.integers(0, 10**6),
)
def test_field_axioms(fi, a, b, c):
    F = FIELDS[fi]
    a, b, c = a % F.q, b % F.q, c % F.q
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, 0) == a and F.mul(a, 1) == a
    assert F.add(a, F.neg(a)) == 0
    if a:
        assert F.mul(a, F.inv(a)) == 1


@settings(max_examples=200)
@given(fi=st.integers(0, len(FIELDS) - 1), a=st.integers(0, 10**6), b=st.integers(0, 10**6))
def test_frobenius_additive(fi, a, b):
    F = FIELDS[fi]
    a, b = a % F.q, b % F.q
    assert F.frob(F.add(a, b)) == F.add(F.frob(a), F.frob(b))
    assert F.frob_inv(F.frob(a)) == a


def test_sqrt_enumeration():
    for F in (field(3), field(7), field(3, 2), field(5, 2)):
        squares = sorted({F.mul(a, a) for a in range(F.q)})
        assert len(squares) == (F.q - 1) // 2 + 1
        for a in range(F.q):
            r = F.sqrt(a)
            if a in squares:
                assert r is not None and F.mul(r, r) == a
                assert r == min(r, F.neg(r))  # canonical choice
            else:
                assert r is None


class _RefField:
    """Arithmetic of F.p^F.k on digit vectors, from the modulus alone: a
    reference independent of the field's exp/log/Zech tables."""

    def __init__(self, F):
        self.F, self.p, self.k, self.q = F, F.p, F.k, F.q

    def digits(self, a):
        return [a // self.p**i % self.p for i in range(self.k)]

    def encode(self, digits):
        return sum(c % self.p * self.p**i for i, c in enumerate(digits))

    def add(self, a, b):
        return self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a, b):
        return self.encode([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.encode([-x for x in self.digits(a)])

    def mul(self, a, b):
        k = self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        mod = self.F.modulus or (0, 1)  # x^k = -sum(mod[j] x^j)
        for i in range(2 * k - 2, k - 1, -1):
            for j in range(k):
                prod[i - k + j] -= prod[i] * mod[j]
        return self.encode(prod[:k])

    def inv(self, a):
        return next(x for x in range(1, self.q) if self.mul(a, x) == 1)

    def poly_mul(self, a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.add(out[i + j], self.mul(x, y))
        return out

    def poly_divmod(self, a, b):
        rem, db = list(a), len(b) - 1
        quot = [0] * max(len(a) - db, 0)
        inv = self.inv(b[-1])
        for i in range(len(a) - 1, db - 1, -1):
            c = self.mul(rem[i], inv)
            quot[i - db] = c
            for j in range(db + 1):
                rem[i - db + j] = self.sub(rem[i - db + j], self.mul(c, b[j]))
        return quot, rem[:db]


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@pytest.mark.parametrize(
    "p,k,exhaustive", [(3, 2, True), (5, 2, True), (3, 3, True), (7, 2, True), (7, 3, False)]
)
def test_table_kernels_match_digit_reference(p, k, exhaustive):
    F = field(p, k)
    R = _RefField(F)
    if exhaustive:
        pairs = [(a, b) for a in range(F.q) for b in range(F.q)]
    else:
        rng = random.Random(343)
        pairs = [(a, b) for a in range(F.q) for b in (0, 1, F.neg(1), F.neg(a))]
        pairs += [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(20000)]
    for a, b in pairs:
        assert F.add(a, b) == R.add(a, b), (a, b)
        assert F.sub(a, b) == R.sub(a, b), (a, b)
        assert F.mul(a, b) == R.mul(a, b), (a, b)
    for a in range(F.q):
        assert F.neg(a) == R.neg(a)
        if a:
            assert R.mul(a, F.inv(a)) == 1


def test_table_kernels_reject_out_of_range_codes():
    F = field(3, 2)
    for op in (F.add, F.sub, F.mul):
        with pytest.raises(IndexError):
            op(1, F.q)
    with pytest.raises(IndexError):
        F.add(0, F.q)
    with pytest.raises(IndexError):
        F.neg(F.q)


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (3, 3), (7, 3)])
def test_poly_kernels_match_schoolbook_reference(p, k):
    F = field(p, k)
    R = _RefField(F)
    rng = random.Random(p * 10 + k)

    def rand(n, lead=None):
        if n == 0:
            return ()
        return tuple(rng.randrange(F.q) for _ in range(n - 1)) + (lead or rng.randrange(1, F.q),)

    # zero operands, degree-0 divisors, a short dividend, non-monic and monic divisors
    cases = [((), rand(3)), (rand(3), ()), (rand(1), rand(1)), (rand(5), rand(1))]
    cases += [(rand(2), rand(4))]
    cases += [(rand(7), rand(3, lead=2)), (rand(6), rand(6, lead=1)), (rand(4), rand(1, lead=1))]
    for _ in range(60):
        cases.append((rand(rng.randrange(0, 9)), rand(rng.randrange(0, 6))))
    for a, b in cases:
        pa, pb = Polynomial(F, a), Polynomial(F, b)
        expect = _trim(R.poly_mul(a, b)) if a and b else ()
        assert (pa * pb).coeffs == expect
        if not b:
            with pytest.raises(ZeroDivisionError):
                divmod(pa, pb)
            continue
        q, r = divmod(pa, pb)
        if len(a) >= len(b):
            eq, er = R.poly_divmod(a, b)
            assert q.coeffs == _trim(eq) and r.coeffs == _trim(er)
        else:
            assert q.is_zero and r == pa
        assert q * pb + r == pa and r.degree < pb.degree


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (7, 3)])
def test_remainder_loops_match_long_division_reference(p, k):
    """`%`, `//`, `poly_gcd`, `pow_mod` and `poly_ord` run `poly_divmod` on
    code lists; each equals the same computation on `_RefField` long
    division, for zero, constant and shorter-than-divisor operands too."""
    F = field(p, k)
    R = _RefField(F)
    R.inv = functools.lru_cache(maxsize=None)(R.inv)  # a scan of F_343 per call
    rng = random.Random(7 * p + k)

    def rand(n):
        if n == 0:
            return ()
        return tuple(rng.randrange(F.q) for _ in range(n - 1)) + (rng.randrange(1, F.q),)

    def ref_mul(a, b):
        return _trim(R.poly_mul(a, b)) if a and b else ()

    def ref_divmod(a, b):
        if len(a) < len(b):
            return (), a
        quot, rem = R.poly_divmod(a, b)
        return _trim(quot), _trim(rem)

    def ref_gcd(a, b):
        while b:
            a, b = b, ref_divmod(a, b)[1]
        inv = R.inv(a[-1]) if a else 0
        return tuple(R.mul(c, inv) for c in a)

    def ref_pow_mod(a, e, m):
        r, a = ref_divmod((1,), m)[1], ref_divmod(a, m)[1]
        for _ in range(e):
            r = ref_divmod(ref_mul(r, a), m)[1]
        return r

    # zero operands, constants, and a dividend shorter than its divisor
    cases = [((), ()), ((), rand(3)), (rand(3), ()), (rand(1), rand(1)), (rand(5), rand(1))]
    cases += [(rand(2), rand(4)), (rand(1), rand(3)), (rand(4), rand(4))]
    cases += [(rand(rng.randrange(0, 9)), rand(rng.randrange(0, 6))) for _ in range(30)]
    # a common factor, so gcd has positive degree
    common = rand(2)
    cases += [(ref_mul(common, rand(3)), ref_mul(common, rand(2))) for _ in range(4)]
    for a, b in cases:
        pa, pb = Polynomial(F, a), Polynomial(F, b)
        assert poly_gcd(pa, pb).coeffs == ref_gcd(a, b), (a, b)
        if not b:
            for op in (lambda: pa % pb, lambda: pa // pb, lambda: pa.pow_mod(2, pb)):
                with pytest.raises(ZeroDivisionError):
                    op()
            continue
        quot, rem = ref_divmod(a, b)
        assert (pa // pb).coeffs == quot and (pa % pb).coeffs == rem, (a, b)
        for e in (0, 1, rng.randrange(2, 12)):
            assert pa.pow_mod(e, pb).coeffs == ref_pow_mod(a, e, b), (a, e, b)
    x, m = (0, 1), rand(3)
    assert Polynomial(F, x).pow_mod(F.q, Polynomial(F, m)).coeffs == ref_pow_mod(x, F.q, m)

    # poly_ord(u^n * w, u) = n, with cofactor w, when u does not divide w
    for _ in range(12):
        u = rand(rng.randrange(2, 4))
        w = rand(rng.randrange(1, 5))
        if not ref_divmod(w, u)[1]:
            continue
        n = rng.randrange(0, 4)
        a = w
        for _ in range(n):
            a = ref_mul(a, u)
        pa, pu = Polynomial(F, a), Polynomial(F, u)
        assert poly_ord(pa, pu) == n, (a, u)
        assert poly_ord_cofactor(pa, pu) == (n, Polynomial(F, w)), (a, u)
    with pytest.raises(ValueError, match="ord of zero"):
        poly_ord(Polynomial.zero(F), Polynomial(F, rand(2)))
    # every division by a constant is exact, so a count along one never ends
    with pytest.raises(ValueError, match="ord along a constant"):
        poly_ord(Polynomial(F, (1, 1)), Polynomial(F, (2,)))


# --- polynomials ----------------------------------------------------------


def test_poly_basics():
    F = field(5)
    f = P(F, 1, 0, 1)  # 1 + x^2
    g = P(F, 4, 1)  # 4 + x = x - 1
    assert f.degree == 2 and g.degree == 1
    assert Polynomial.zero(F).degree == -1
    q, r = divmod(f, g)
    assert q * g + r == f and r.degree < g.degree
    assert f.eval(2) == 0  # 1 + 4 = 5
    assert f.derivative() == P(F, 0, 2)


@settings(max_examples=150)
@given(
    fi=st.integers(0, len(FIELDS) - 1),
    seed=st.integers(0, 2**31),
    da=st.integers(0, 6),
    db=st.integers(0, 5),
)
def test_poly_divmod_roundtrip(fi, seed, da, db):
    F = FIELDS[fi]
    rng = random.Random(seed)
    a = poly_random(F, da, rng)
    b = poly_random(F, db, rng)
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_gcd_examples():
    F5 = field(5)
    # (x^2 - 1, x - 1) -> x - 1
    assert poly_gcd(P(F5, 4, 0, 1), P(F5, 4, 1)) == P(F5, 4, 1)
    # f = x^5 + x + 1 over F_5 is squarefree
    f = P(F5, 1, 1, 0, 0, 0, 1)
    assert poly_gcd(f, f.derivative()) == Polynomial.one(F5)
    z = Polynomial.zero(F5)
    assert poly_gcd(z, z) == z


def test_gcd_mixed_fields_error():
    with pytest.raises(ValueError, match="mixed fields"):
        poly_gcd(P(field(3), 1, 1), P(field(5), 1, 1))


def _divisors_oracle(f):
    """All monic divisors of f, by exhaustive trial division (tiny inputs)."""
    F = f.field
    out = []
    for deg in range(f.degree + 1):
        for code in range(F.q**deg):
            c, coeffs = code, []
            for _ in range(deg):
                c, r = divmod(c, F.q)
                coeffs.append(r)
            coeffs.append(1)
            g = Polynomial(F, coeffs)
            if (f % g).is_zero:
                out.append(g)
    return out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), da=st.integers(0, 3), db=st.integers(0, 3))
def test_gcd_against_divisor_oracle(seed, da, db):
    F = field(3)
    rng = random.Random(seed)
    a = poly_random(F, da, rng)
    b = poly_random(F, db, rng)
    if a.is_zero or b.is_zero:
        return
    g = poly_gcd(a, b)
    common = [d for d in _divisors_oracle(a) if (b % d).is_zero]
    assert g == max(common, key=lambda d: d.degree)
    assert all((g % d).is_zero for d in common)


@settings(max_examples=100)
@given(
    fi=st.integers(0, len(FIELDS) - 1),
    seed=st.integers(0, 2**31),
    da=st.integers(0, 6),
    db=st.integers(0, 6),
)
def test_xgcd_identity(fi, seed, da, db):
    F = FIELDS[fi]
    rng = random.Random(seed)
    a = poly_random(F, da, rng)
    b = poly_random(F, db, rng)
    g, s, t = poly_xgcd(a, b)
    assert s * a + t * b == g
    assert g == poly_gcd(a, b)


def test_factor_frozen_examples():
    F3, F5 = field(3), field(5)
    # x^2 - 1 over F_5
    assert poly_factor(P(F5, 4, 0, 1)) == [(P(F5, 1, 1), 1), (P(F5, 4, 1), 1)]
    # x^2 + 1 over F_3 is irreducible
    assert poly_factor(P(F3, 1, 0, 1)) == [(P(F3, 1, 0, 1), 1)]
    # x^5 + 1 over F_3 = (x + 1)(x^4 - x^3 + x^2 - x + 1)
    assert poly_factor(P(F3, 1, 0, 0, 0, 0, 1)) == [
        (P(F3, 1, 1), 1),
        (P(F3, 1, 2, 1, 2, 1), 1),
    ]
    assert is_irreducible(P(F3, 1, 2, 1, 2, 1))


def test_factor_zero_rejected():
    with pytest.raises(ValueError, match="zero polynomial"):
        poly_factor(Polynomial.zero(field(3)))


def test_factor_pth_power_multiplicities():
    F = field(3)
    f = (P(F, 1, 1) ** 3) * (P(F, 2, 1) ** 2) * P(F, 1, 0, 1)
    assert poly_factor(f) == [
        (P(F, 1, 1), 3),
        (P(F, 2, 1), 2),
        (P(F, 1, 0, 1), 1),
    ]


def _random_irreducible(F, d, rng):
    """A random monic irreducible of degree 1 <= d <= 3 over F, found
    without factoring: at these degrees, irreducible means without a root."""
    while True:
        u = Polynomial(F, [rng.randrange(F.q) for _ in range(d)] + [1])
        if d == 1 or all(u.eval(a) for a in F.elements()):
            return u


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_factor_exact_on_products_with_multiplicities(p, k):
    """Products of distinct irreducibles raised to multiplicities that p
    divides or not, times a unit, factor back to exactly their factors."""
    F = field(p, k)
    rng = random.Random(p * 100 + k)
    for _ in range(40):
        n = rng.randint(1, 3)
        factors = {_random_irreducible(F, rng.randint(1, 3), rng) for _ in range(n)}
        expected = sorted(
            ((u, rng.choice((1, 2, p, p + 1, 2 * p))) for u in factors),
            key=lambda fm: (fm[0].degree, fm[0].coeffs),
        )
        f = Polynomial.const(F, rng.randrange(1, F.q))
        for u, m in expected:
            f = f * u**m
        assert poly_factor(f) == expected


def _gauss_count(q, n):
    """The number of monic irreducibles of degree n over F_q,
    (1/n) sum over d | n of mu(d) q^(n/d)."""

    def mu(d):
        sign, r = 1, 2
        while d > 1:
            if d % r == 0:
                d //= r
                if d % r == 0:
                    return 0
                sign = -sign
            r += 1
        return sign

    return sum(mu(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize(
    "p,k,top", [(3, 1, 5), (5, 1, 3), (7, 1, 3), (3, 2, 2), (5, 2, 2), (3, 3, 2)]
)
def test_is_irreducible_matches_gauss_count(p, k, top):
    F = field(p, k)
    for n in range(1, top + 1):
        monics = itertools.product(F.elements(), repeat=n)
        count = sum(is_irreducible(Polynomial(F, c + (1,))) for c in monics)
        assert count == _gauss_count(F.q, n), (F, n)
    assert not is_irreducible(Polynomial.const(F, 1))
    assert not is_irreducible(Polynomial.zero(F))


@settings(max_examples=100, deadline=None)
@given(fi=st.integers(0, len(FIELDS) - 1), seed=st.integers(0, 2**31), d=st.integers(1, 7))
def test_factor_remultiplies(fi, seed, d):
    F = FIELDS[fi]
    rng = random.Random(seed)
    f = poly_random(F, d, rng)
    if f.is_zero:
        return
    fac = poly_factor(f)
    prod = Polynomial.const(F, f.lc())
    for g, m in fac:
        assert g.is_monic() and is_irreducible(g) and m >= 1
        assert poly_ord(f, g) == m
        prod = prod * g**m
    assert prod == f
    assert fac == sorted(fac, key=lambda fm: (fm[0].degree, fm[0].coeffs))


# --- residue field helpers -----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(fi=st.integers(0, 3), seed=st.integers(0, 2**31), du=st.integers(1, 3))
def test_kappa_arithmetic(fi, seed, du):
    F = FIELDS[fi]
    rng = random.Random(seed)
    u = poly_random_monic(F, du, rng)
    while not is_irreducible(u):
        u = poly_random_monic(F, du, rng)
    a = poly_random(F, du - 1, rng) % u
    if a.is_zero:
        return
    kappa = PolyModRing(F, u)
    ainv = kappa.inv(a)
    assert (a * ainv) % u == Polynomial.one(F)
    assert kappa.pow(a, F.q**du - 1) == Polynomial.one(F)
    # trace is additive and lands in F_q
    b = poly_random(F, du - 1, rng)
    assert kappa.trace(a + b) == F.add(kappa.trace(a), kappa.trace(b))


@settings(max_examples=60, deadline=None)
@given(fi=st.integers(0, 3), seed=st.integers(0, 2**31), du=st.integers(1, 2))
def test_kappa_sqrt(fi, seed, du):
    F = FIELDS[fi]
    rng = random.Random(seed)
    u = poly_random_monic(F, du, rng)
    while not is_irreducible(u):
        u = poly_random_monic(F, du, rng)
    a = poly_random(F, du - 1, rng) % u
    sq = (a * a) % u
    kappa = PolyModRing(F, u)
    r = kappa.sqrt(sq)
    assert r is not None and (r * r) % u == sq
    # non-squares are rejected: multiply a nonzero square by a non-residue
    Q = F.q**du
    for code in range(1, Q):
        c, digits = code, []
        while c:
            c, rd = divmod(c, F.q)
            digits.append(rd)
        z = Polynomial(F, digits)
        if kappa.pow(z, (Q - 1) // 2) != Polynomial.one(F):
            if not a.is_zero:
                assert kappa.sqrt((sq * z) % u) is None
            break


@pytest.mark.parametrize("p", [3, 5])
def test_kappa_sqrt_is_the_canonical_root_at_degree_two(p):
    """Over F_{p^2} with deg(u) = 2, every constant is a square in kappa, so
    the non-residue scan starts past them; the root must not depend on it."""
    F = field(p, 2)
    rng = random.Random(p)
    u = poly_random_monic(F, 2, rng)
    while not is_irreducible(u):
        u = poly_random_monic(F, 2, rng)
    elems = [Polynomial(F, (c0, c1)) for c1 in range(F.q) for c0 in range(F.q)]
    roots = {}
    for w in elems:
        roots.setdefault(((w * w) % u).coeffs, []).append(w)
    for a in elems:
        got = PolyModRing(F, u).sqrt(a)
        if a.coeffs in roots:
            assert got == min(roots[a.coeffs], key=lambda w: w.coeffs[::-1])
        else:
            assert got is None


@pytest.mark.parametrize("p,k,samples", [(3, 2, None), (5, 2, None), (7, 3, 6)])
def test_kappa_sqrt_over_a_linear_modulus_is_the_canonical_root(p, k, samples):
    """deg(u) = 1: kappa is F_q, and the root is the smaller code of +-r."""
    F = field(p, k)
    roots = {}
    for r in F.elements():
        roots.setdefault(F.mul(r, r), []).append(r)
    rng = random.Random(F.q)
    points = F.elements() if samples is None else rng.sample(F.elements(), samples)
    for a in points:
        u = P(F, F.neg(a), 1)
        for c in F.elements():
            # a representative of c mod u that is not already reduced
            w = P(F, c) + u * poly_random(F, 2, rng)
            got = PolyModRing(F, u).sqrt(w)
            if c in roots:
                assert got == P(F, min(roots[c]))
            else:
                assert got is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), du=st.integers(1, 2), m=st.integers(2, 5))
def test_hensel_sqrt(seed, du, m):
    F = field(5)
    rng = random.Random(seed)
    u = poly_random_monic(F, du, rng)
    while not is_irreducible(u):
        u = poly_random_monic(F, du, rng)
    f = poly_random_monic(F, 5, rng)
    v = PolyModRing(F, u).sqrt(f % u)
    if v is None or v.is_zero:
        return
    y = hensel_sqrt(f, u, v, m)
    assert ((y * y - f) % (u**m)).is_zero
    assert (y - v) % u == Polynomial.zero(F)


# --- rational functions on a curve: (A + B y) / h --------------------------
# Fractions live in `curves.FunctionElement`, whose one form is (A + B y)/h
# with h monic and gcd(A, B, h) = 1; its parts a = A/h and b = B/h in lowest
# terms are what a certificate stores.


def _curve_over(F, rng):
    """A random genus-2 model y^2 = f(x), f monic of degree 5, over F."""
    while True:
        try:
            return Curve(F, [F.random(rng) for _ in range(5)] + [1])
        except ValueError:
            continue


def _is_normal(phi) -> bool:
    return phi.h.is_monic() and poly_gcd(poly_gcd(phi.A, phi.B), phi.h).degree == 0


def test_rational_normalization():
    F = field(5)
    C = Curve(F, (1, 1, 0, 0, 0, 1))
    x2 = P(F, 0, 0, 4)
    r = FunctionElement(C, P(F, 0, 2), P(F), x2)  # 2x / 4x^2
    assert (r.A, r.B, r.h) == (P(F, 3), P(F), P(F, 0, 1))  # 3/x since 2/4 = 3
    r = FunctionElement(C, P(F, 0, 2), P(F, 0, 0, 2), x2)  # (2x + 2x^2 y) / 4x^2
    assert (r.A, r.B, r.h) == (P(F, 3), P(F, 0, 3), P(F, 0, 1))
    assert _is_normal(r)
    zero = FunctionElement(C, P(F), P(F), x2)
    assert (zero.A, zero.B, zero.h) == (P(F), P(F), P(F, 1)) and zero == C.zero()
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        FunctionElement(C, P(F, 1), P(F), P(F))


@settings(max_examples=100)
@given(
    fi=st.integers(0, len(FIELDS) - 1),
    seed=st.integers(0, 2**31),
)
def test_rational_field_ops(fi, seed):
    F = FIELDS[fi]
    rng = random.Random(seed)
    C = _curve_over(F, rng)

    def rand_fn():
        h = poly_random(F, rng.randrange(3), rng)
        while h.is_zero:
            h = poly_random(F, rng.randrange(3), rng)
        A, B = poly_random(F, rng.randrange(4), rng), poly_random(F, rng.randrange(3), rng)
        return FunctionElement(C, A, B, h)

    a, b, c = rand_fn(), rand_fn(), rand_fn()
    assert all(_is_normal(r) for r in (a, b, a + b, a - b, a * b, a.derivative()))
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    if not a.is_zero:
        assert a * a.inverse() == C.one()
        assert _is_normal(a.inverse())
    # derivative is a derivation
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def _lowest_terms(num, den):
    """Reference normal form of a fraction: divide by the full gcd, make den
    monic."""
    F = num.field
    if num.is_zero:
        return (), (1,)
    g = poly_gcd(num, den)
    num, den = num // g, den // g
    c = F.inv(den.lc())
    return num.scale(c).coeffs, den.scale(c).coeffs


def _normal_form(A, B, h):
    """Reference normal form of (A + B y)/h: divide by the full gcd of the
    three, make h monic."""
    F = h.field
    g = poly_gcd(poly_gcd(A, B), h)
    A, B, h = A // g, B // g, h // g
    c = F.inv(h.lc())
    return A.scale(c).coeffs, B.scale(c).coeffs, h.scale(c).coeffs


@pytest.mark.parametrize("p,k", [(3, 2), (7, 3)])
def test_rational_ops_match_full_gcd_reference(p, k):
    """+ - * / reduce only by the gcds that can cancel; each result must be
    the full-gcd normal form of the unreduced triple, on operands sharing
    factors, on operands whose result cancels to zero, and on constants.
    Its parts A/h and B/h are the lowest-terms fractions of the parts'
    sums and products."""
    F = field(p, k)
    rng = random.Random(p * 1000 + k)
    C = _curve_over(F, rng)
    f = C.f

    def rand(deg):
        return poly_random(F, deg, rng)

    def nonzero(deg):
        out = rand(deg)
        while out.is_zero:
            out = rand(deg)
        return out

    def pairs():
        for _ in range(40):
            h, e = nonzero(rng.randrange(1, 3)), nonzero(rng.randrange(1, 3))
            A1, B1, d1 = rand(rng.randrange(4)), rand(rng.randrange(3)), nonzero(rng.randrange(3))
            A2, B2, d2 = rand(rng.randrange(4)), rand(rng.randrange(3)), nonzero(rng.randrange(3))
            # factors shared across the operands' numerators and denominators
            yield (A1 * h, B1 * h, d1 * e), (A2 * e, B2, d2 * h)
            # denominators sharing a factor, as in Henrici's sum
            yield (A1, B1, d1 * h), (A2, B2, d2 * h * h)
            # equal denominators, as in sums within a Riemann-Roch space
            yield (A1, B1, d1), (A2, B2, d1)
            # unrelated operands
            yield (A1, B1, d1), (A2, B2, d2)
            # constants, and a constant against a function
            c1, c2 = P(F, F.random(rng)), P(F, F.random(rng))
            yield (c1, P(F), P(F, 1)), (c2, P(F), nonzero(0))
            yield (c1, P(F), P(F, 1)), (A2, B2, d2 * h)

    for (A1, B1, h1), (A2, B2, h2) in pairs():
        a, b = FunctionElement(C, A1, B1, h1), FunctionElement(C, A2, B2, h2)
        cases = [
            (a + b, A1 * h2 + A2 * h1, B1 * h2 + B2 * h1, h1 * h2),
            (a - b, A1 * h2 - A2 * h1, B1 * h2 - B2 * h1, h1 * h2),
            (a * b, A1 * A2 + f * B1 * B2, A1 * B2 + A2 * B1, h1 * h2),
            (a - a, P(F), P(F), P(F, 1)),
            (a + (-a), P(F), P(F), P(F, 1)),
        ]
        if not b.is_zero:
            N = A2 * A2 - f * B2 * B2
            cases.append((a / b, (A1 * A2 - f * B1 * B2) * h2, (A2 * B1 - A1 * B2) * h2, h1 * N))
            cases.append((b / b, P(F, 1), P(F), P(F, 1)))
        for got, A, B, h in cases:
            assert (got.A.coeffs, got.B.coeffs, got.h.coeffs) == _normal_form(A, B, h)
            assert _lowest_terms(got.A, got.h) == _lowest_terms(A, h)
            assert _lowest_terms(got.B, got.h) == _lowest_terms(B, h)
        # the parts of a sum are the sums of the parts
        (na, da), (nb, db) = _lowest_terms(A1, h1), _lowest_terms(A2, h2)
        na, da, nb, db = (Polynomial(F, c) for c in (na, da, nb, db))
        assert _lowest_terms((a + b).A, (a + b).h) == _lowest_terms(na * db + nb * da, da * db)


def test_rational_ord():
    """Orders along u of functions of x alone, read by `Curve.valuation`
    from A and h: doubled at the ramified place over x, as they are at the
    split places over x + 1."""
    F = field(3)
    C = Curve(F, (0, 1, 0, 0, 0, 1))  # y^2 = x^5 + x
    x = Polynomial.x(F)
    one = P(F, 1)
    r = FunctionElement(C, x**3 + x**4, P(F), x + one)  # x^3(1+x) / (x+1)
    assert (r.A, r.h) == (x**3, one)
    (ram,) = C.places_above(x)
    assert C.valuation(r, ram) == 6
    assert [C.valuation(r, pl) for pl in C.places_above(x + one)] == [0, 0]
    s = FunctionElement(C, one, P(F), x**2)
    assert C.valuation(s, ram) == -4
    assert [C.valuation(s * C.fn(x + one), pl) for pl in C.places_above(x + one)] == [1, 1]
    with pytest.raises(ValueError, match="ord along a constant"):
        poly_ord(r.A, P(F, 2))
