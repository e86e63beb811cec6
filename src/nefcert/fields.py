"""Exact arithmetic over odd finite fields F_{p^k} and their polynomial rings.

Elements are integer codes in range(p**k): the element sum(c_i * t^i), with t
the class of x modulo the field modulus, has code sum(c_i * p**i).  Each
field type has one arithmetic kernel, for elements and for coefficient
tuples (`poly_mul`, `poly_divmod`) alike: prime fields compute directly mod
p; extensions build exp/log/Zech-log tables over a fixed generator (every
field used here is tiny), so each operation is one or two table lookups.
The remainder loops (`%`, `//`, `poly_gcd`, `Polynomial.pow_mod`,
`poly_ord_cofactor`) run `poly_divmod` on lists of codes and build a
`Polynomial` only for what they return.

Also provides univariate polynomials over such fields (gcd, xgcd, Hensel
lifting of square roots, and factoring by one distinct-degree pass over f
itself, from which `is_irreducible` reads its answer) and the one
Tonelli-Shanks loop, which `Field.sqrt` and `series.PolyModRing.sqrt` share.
A field is also the coefficient ring of local expansions at its rational
places; the residue fields F_q[x]/(u) of the other places are
`series.PolyModRing`.  Functions on a curve, fractions included, live in
`curves.FunctionElement`.
"""

from __future__ import annotations

import random
from typing import Optional

_FIELD_CACHE: dict[tuple, "Field"] = {}


def _factor_int(n: int) -> list[int]:
    """Distinct prime divisors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class Field:
    """Finite field F_{p^k}; elements are integer codes in range(q).

    Subclasses implement the code-level arithmetic (add, sub, neg, mul, inv,
    pow); zero is code 0 and one is code 1 in every field.  Their
    coefficient kernels are poly_mul(a, b), the product of two nonempty
    coefficient sequences (low to high), and poly_divmod(a, b), the
    (quotient, remainder) lists for len(a) >= len(b) and b[-1] != 0.
    `field(p, k)` is the one constructor, so fields compare by identity.
    """

    __slots__ = ("p", "k", "q", "modulus")

    p: int
    k: int
    q: int
    modulus: Optional[tuple[int, ...]]  # monic, low-to-high over F_p; None when k = 1

    def __repr__(self) -> str:
        if self.k == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.k})"

    # --- generic ------------------------------------------------------------
    def frob(self, a: int) -> int:
        """Absolute Frobenius a -> a^p (the identity on F_p, by Fermat)."""
        return self.pow(a, self.p)

    def frob_inv(self, a: int) -> int:
        """Inverse of the absolute Frobenius: a -> a^(q/p)."""
        return self.pow(a, self.q // self.p)

    def elements(self) -> range:
        return range(self.q)

    def random(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def legendre(self, a: int) -> int:
        """1 for nonzero squares, -1 for non-squares, 0 for zero."""
        if a == 0:
            return 0
        return 1 if self.pow(a, (self.q - 1) // 2) == 1 else -1

    def sqrt(self, a: int) -> Optional[int]:
        """A canonical square root of a, or None for non-squares.

        Of the two roots r and -r, the smaller code is returned, so the
        choice is deterministic.
        """
        if a == 0:
            return 0
        if self.legendre(a) != 1:
            return None
        # the non-residue, if asked for, is the first non-square from code 2 on
        scan = (z for z in range(2, self.q) if self.legendre(z) == -1)
        r = tonelli_shanks(a, self.q, 1, self.mul, self.pow, scan.__next__)
        return min(r, self.neg(r))

    # --- the ring protocol of local expansions (`series`) -------------------
    # At places of degree 1 and at infinity the residue field is the field
    # itself, and series coefficients are its codes.
    zero = 0
    one = 1

    def embed(self, code: int) -> int:
        return code

    def embed_int(self, n: int) -> int:
        return n % self.p

    def embed_poly(self, a: Polynomial) -> int:
        """The element that a, reduced modulo a linear u, stands for."""
        return a[0]

    def is_zero(self, a: int) -> bool:
        return a == 0

    def trace(self, a: int) -> int:
        return a

    def series_mul(self, a: list, b: list, n: int) -> list:
        """The first n coefficients of the product of two coefficient lists."""
        return self.poly_mul(a, b)[:n]


def tonelli_shanks(a, q: int, one, mul, pow_, nonresidue):
    """A square root of the nonzero square a of a field with q elements, q
    odd, from the field's mul and pow_ (Tonelli-Shanks).  nonresidue() gives
    a non-square; it is asked for only when q = 1 mod 4."""
    if q % 4 == 3:
        return pow_(a, (q + 1) // 4)
    s, m = 0, q - 1
    while m % 2 == 0:
        s += 1
        m //= 2
    c = pow_(nonresidue(), m)
    r = pow_(a, (m + 1) // 2)
    t = pow_(a, m)
    while t != one:
        t2, i = t, 0
        while t2 != one:
            t2 = mul(t2, t2)
            i += 1
        b = pow_(c, 1 << (s - i - 1))
        r = mul(r, b)
        c = mul(b, b)
        t = mul(t, c)
        s = i
    return r


class PrimeField(Field):
    __slots__ = ()

    def __init__(self, p: int):
        self.p = p
        self.k = 1
        self.q = p
        self.modulus = None

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def poly_mul(self, a, b):
        p = self.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return [c % p for c in out]

    def poly_divmod(self, a, b):
        p = self.p
        db = len(b) - 1
        inv = self.inv(b[-1])
        # the step at rem[i] = c subtracts (c / lc) x^(i - db) b, that is
        # rem[i - db + j] += c * (-b_j / lc)
        nb = [(j, -c * inv) for j, c in enumerate(b[:db]) if c]
        rem = list(a)
        quot = [0] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = rem[i] % p
            if c:
                s = i - db
                quot[s] = c * inv % p
                for j, m in nb:
                    rem[s + j] += c * m
        return quot, [c % p for c in rem[:db]]


class ExtensionField(Field):
    """F_{p^k} by exp, log and Zech-log tables over a fixed generator g.

    With n = q - 1: `_log[a]` is the discrete log of a nonzero code a;
    `_exp[i]` = g^i and `_zech[i]` = log(1 + g^i) (-1 where 1 + g^i = 0)
    are stored for i in range(2n), so a sum of two logs indexes `_exp`
    without a `% n`, and a difference of logs in [-2n, 2n) indexes `_zech`
    (negative indices wrap, which is the reduction mod n).  Every operation
    indexes `_log` with its nonzero operands, so an out-of-range code raises
    IndexError instead of reading a table silently.
    """

    __slots__ = ("_digits", "_exp", "_log", "_zech", "_half")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        q = self.q
        digits = []
        for code in range(q):
            c, row = code, []
            for _ in range(k):
                c, r = divmod(c, p)
                row.append(r)
            digits.append(tuple(row))
        self._digits = digits
        n = q - 1
        # the first g of multiplicative order n: g^(n/r) != 1 for each prime r | n
        base, primes = field(p), _factor_int(n)
        mod, one = Polynomial(base, modulus), Polynomial.one(base)
        g = 2
        while any(Polynomial(base, digits[g]).pow_mod(n // r, mod) == one for r in primes):
            g += 1
        exp, x = [1], g
        while x != 1:
            exp.append(x)
            x = self._raw_mul(x, g)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        zech = [-1] * n
        for i, v in enumerate(exp):
            w = v - v % p + (v + 1) % p  # 1 + g^i: only the constant digit moves
            if w:
                zech[i] = log[w]
        self._exp = exp + exp
        self._log = log
        self._zech = zech + zech
        self._half = n // 2  # -1 = g^(n/2)

    def _raw_mul(self, a: int, b: int) -> int:
        # schoolbook product of digit vectors, reduced by the monic modulus
        p, k = self.p, self.k
        da, db = self._digits[a], self._digits[b]
        prod = [0] * (2 * k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] += ca * cb
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * mod[j]
        code = 0
        for i in range(k - 1, -1, -1):
            code = code * p + prod[i] % p
        return code

    def add(self, a, b):
        log = self._log
        la, lb = log[a], log[b]
        if not a:
            return b
        if not b:
            return a
        z = self._zech[lb - la]
        return self._exp[la + z] if z >= 0 else 0

    def sub(self, a, b):
        log = self._log
        la, lb = log[a], log[b]
        if not b:
            return a
        lb += self._half
        if not a:
            return self._exp[lb]
        z = self._zech[lb - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a):
        la = self._log[a]
        return self._exp[la + self._half] if a else 0

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def poly_mul(self, a, b):
        log, exp, zech = self._log, self._exp, self._zech
        lb = [(j, log[c]) for j, c in enumerate(b) if c]
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                la = log[ca]
                for j, l in lb:
                    t = la + l  # log of the term
                    r = out[i + j]
                    if r:
                        lr = log[r]
                        z = zech[t - lr]
                        out[i + j] = exp[lr + z] if z >= 0 else 0
                    else:
                        out[i + j] = exp[t]
        return out

    def poly_divmod(self, a, b):
        log, exp, zech = self._log, self._exp, self._zech
        n = self.q - 1
        db = len(b) - 1
        linv = n - log[b[-1]]  # log of 1 / lc
        # logs of -b_j / lc, as in PrimeField.poly_divmod
        nb = [(j, (log[c] + linv + self._half) % n) for j, c in enumerate(b[:db]) if c]
        rem = list(a)
        quot = [0] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = rem[i]
            if c:
                s = i - db
                lq = log[c]
                quot[s] = exp[lq + linv]
                for j, l in nb:
                    t = lq + l
                    r = rem[s + j]
                    if r:
                        lr = log[r]
                        z = zech[t - lr]
                        rem[s + j] = exp[lr + z] if z >= 0 else 0
                    else:
                        rem[s + j] = exp[t]
        return quot, rem[:db]


def _find_modulus(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible x^k + c_{k-1}x^{k-1} + ... + c_0 over F_p.

    Candidates are scanned in increasing order of the code sum(c_i * p^i), so
    the choice is deterministic and reproducible.
    """
    base = field(p)
    for n in range(p**k):
        c, coeffs = n, []
        for _ in range(k):
            c, r = divmod(c, p)
            coeffs.append(r)
        coeffs.append(1)
        if is_irreducible(Polynomial(base, tuple(coeffs))):
            return tuple(coeffs)
    # not reached: a monic irreducible of every degree k exists over F_p


def field(p: int, k: int = 1) -> Field:
    """The field with p^k elements (shared instance per (p, k))."""
    if not isinstance(p, int) or _factor_int(p) != [p]:
        raise ValueError(f"not prime: {p}")
    if p == 2:
        raise ValueError("characteristic two unsupported")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    key = (p, k)
    f = _FIELD_CACHE.get(key)
    if f is None:
        f = PrimeField(p) if k == 1 else ExtensionField(p, k, _find_modulus(p, k))
        _FIELD_CACHE[key] = f
    return f


class Polynomial:
    """Univariate polynomial with coefficient codes stored low-to-high."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        self.field = field
        self.coeffs = tuple(coeffs[:n])

    # --- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (1,))

    @classmethod
    def const(cls, field: Field, c: int) -> "Polynomial":
        return cls(field, (c % field.q,))

    @classmethod
    def x(cls, field: Field) -> "Polynomial":
        return cls(field, (0, 1))

    # --- basic structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at the sentinel value -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Polynomial":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        inv = self.field.inv(self.coeffs[-1])
        mul = self.field.mul
        return Polynomial(self.field, tuple(mul(c, inv) for c in self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.coeffs == other.coeffs
            and self.field is other.field
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "poly[0]"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "poly[" + " + ".join(terms) + "]"

    def _check(self, other: "Polynomial") -> None:
        if self.field is not other.field:
            raise ValueError("mixed fields")

    # --- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Polynomial(self.field, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        b = other.coeffs
        sub = self.field.sub
        out = list(self.coeffs)
        if len(out) < len(b):
            out.extend([0] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
        return Polynomial(self.field, out)

    def __neg__(self) -> "Polynomial":
        neg = self.field.neg
        return Polynomial(self.field, tuple(neg(c) for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero(self.field)
        return Polynomial(self.field, self.field.poly_mul(self.coeffs, other.coeffs))

    def scale(self, c: int) -> "Polynomial":
        if not c:
            return Polynomial.zero(self.field)
        mul = self.field.mul
        return Polynomial(self.field, tuple(mul(a, c) for a in self.coeffs))

    def __divmod__(self, other: "Polynomial"):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        if len(a) < len(b):
            return Polynomial.zero(f), self
        quot, rem = f.poly_divmod(a, b)
        return Polynomial(f, quot), Polynomial(f, rem)

    def _divisor(self, other: "Polynomial") -> tuple:
        """The codes of other, checked to be a nonzero divisor over self's field."""
        self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        return other.coeffs

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, self._divisor(other)
        if len(a) < len(b):
            return Polynomial.zero(self.field)
        return Polynomial(self.field, self.field.poly_divmod(a, b)[0])

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, self._divisor(other)
        if len(a) < len(b):
            return self
        return Polynomial(self.field, self.field.poly_divmod(a, b)[1])

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        r = Polynomial.one(self.field)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def pow_mod(self, e: int, mod: "Polynomial") -> "Polynomial":
        if e < 0:
            raise ValueError("negative exponent in pow_mod")
        m = self._divisor(mod)
        f = self.field
        mul, divmod_ = f.poly_mul, f.poly_divmod

        def reduce(c):
            return _strip(divmod_(c, m)[1]) if len(c) >= len(m) else c

        r = reduce((1,))
        b = reduce(self.coeffs)
        while e:
            if e & 1:
                r = reduce(mul(r, b)) if r and b else []
            e >>= 1
            if e:
                b = reduce(mul(b, b)) if b else []
        return Polynomial(f, r)

    def derivative(self) -> "Polynomial":
        f = self.field
        p = f.p
        out = []
        for i in range(1, len(self.coeffs)):
            m = i % p
            out.append(f.mul(self.coeffs[i], m) if m else 0)
        return Polynomial(f, out)

    def eval(self, a: int) -> int:
        f = self.field
        mul, add = f.mul, f.add
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, a), c)
        return acc


def _strip(c: list) -> list:
    """Drop the zero codes on top of c, in place; returns c."""
    while c and not c[-1]:
        c.pop()
    return c


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd; gcd(0, 0) = 0."""
    if a.field is not b.field:
        raise ValueError("mixed fields")
    f = a.field
    a, b = a.coeffs, b.coeffs
    while b:
        a, b = b, _strip(f.poly_divmod(a, b)[1]) if len(a) >= len(b) else a
    if a and a[-1] != 1:
        inv, mul = f.inv(a[-1]), f.mul
        a = [mul(c, inv) for c in a]
    return Polynomial(f, a)


def poly_xgcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, s, t) with g = s*a + t*b, g monic (or zero)."""
    if a.field is not b.field:
        raise ValueError("mixed fields")
    f = a.field
    r0, r1 = a, b
    s0, s1 = Polynomial.one(f), Polynomial.zero(f)
    t0, t1 = Polynomial.zero(f), Polynomial.one(f)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    c = f.inv(r0.lc())
    return r0.scale(c), s0.scale(c), t0.scale(c)


def poly_ord_cofactor(a: Polynomial, u: Polynomial) -> tuple[int, Polynomial]:
    """(n, a / u^n), n the multiplicity of the irreducible u in a != 0.
    u must not be constant: every division by a constant is exact."""
    if a.is_zero:
        raise ValueError("ord of zero polynomial")
    m = a._divisor(u)
    if len(m) < 2:
        raise ValueError("ord along a constant")
    c, n, divmod_ = a.coeffs, 0, a.field.poly_divmod
    while len(c) >= len(m):
        quot, r = divmod_(c, m)
        if any(r):
            break
        c, n = quot, n + 1
    return n, (Polynomial(a.field, c) if n else a)


def poly_ord(a: Polynomial, u: Polynomial) -> int:
    """Multiplicity of the irreducible u in a (a nonzero, deg u >= 1)."""
    return poly_ord_cofactor(a, u)[0]


def poly_random(f: Field, degree: int, rng: random.Random) -> Polynomial:
    """Random polynomial of degree <= degree (possibly zero)."""
    return Polynomial(f, [rng.randrange(f.q) for _ in range(degree + 1)])


def _equal_degree(f: Polynomial, d: int, rng: random.Random) -> list[Polynomial]:
    """Cantor-Zassenhaus split of monic squarefree f with all factors of
    degree d (odd q)."""
    if f.degree == d:
        return [f]
    field = f.field
    e = (field.q**d - 1) // 2
    one = Polynomial.one(field)
    while True:
        a = poly_random(field, f.degree - 1, rng)
        if a.degree < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree < f.degree:
            break
        g = poly_gcd(a.pow_mod(e, f) - one, f)
        if 0 < g.degree < f.degree:
            break
    return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def poly_factor(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Factor f into monic irreducibles, sorted by (degree, coefficients).

    One distinct-degree pass over f: with the factors of degree below d
    divided out, gcd(x^(q^d) - x, f) is the product of the distinct factors
    of degree d, which `_equal_degree` splits and `poly_ord_cofactor` strips
    with their multiplicities; a rest of degree below 2(d + 1) is
    irreducible.  `test_factor_remultiplies` checks that the factors, times
    the leading coefficient of f, multiply back to f.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    field = f.field
    rng = random.Random(0)  # the sorted output does not depend on it
    out: list[tuple[Polynomial, int]] = []
    f = f.monic()
    x = h = Polynomial.x(field)
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(field.q, f)  # x^(q^d) mod f
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            for irr in _equal_degree(g, d, rng):
                m, f = poly_ord_cofactor(f, irr)
                out.append((irr, m))
            h = h % f
    if f.degree > 0:
        out.append((f, 1))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def is_irreducible(f: Polynomial) -> bool:
    """Whether f has positive degree and one irreducible factor, once."""
    return f.degree > 0 and [m for _, m in poly_factor(f)] == [1]


def hensel_sqrt(f: Polynomial, u: Polynomial, v: Polynomial, m: int) -> Polynomial:
    """Y with Y^2 = f mod u^m and Y = v mod u, by Newton lifting.

    Requires v^2 = f mod u and v invertible mod u (the v of a split place);
    `test_hensel_sqrt` checks Y^2 = f mod u^m.
    """
    field = f.field
    inv2 = Polynomial.const(field, field.inv(2 % field.p))
    y = v % u
    t = 1
    while t < m:
        t = min(2 * t, m)
        mod = u**t
        # y = v mod u and u does not divide f, so y is a unit mod u^t: s = 1/y
        _, s, _ = poly_xgcd(y, mod)
        y = ((y + f * s) * inv2) % mod
    return y

