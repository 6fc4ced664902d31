"""Exact arithmetic in small finite fields F_{p^a} and their extensions.

An element of F_{p^a} is identified with its integer encoding
``sum(c[i] * p**i)`` where ``(c[0], ..., c[a-1])`` are its coordinates in
the power basis of the chosen modulus, low degree first.  The encoding is
also the wire format.  Every field, prime fields included, multiplies
through precomputed discrete-log tables, and the hot loops (point
counting, group enumeration) work directly on these plain integers and
tables, which is what keeps exhaustive verification affordable in pure
Python.  ``FiniteField.values`` evaluates a polynomial at many points by
Horner on the tables; the group enumeration and the embeddings use it.
In odd characteristic the same tables decide squares and give square
roots: a nonzero x is a square iff log x is even.  Every odd field also
adds through a table of Zech logarithms, log(1 + g^k), built in O(q) since
1 + x only steps the lowest digit of x; odd extension fields add and
subtract by it at every size, with no q x q table and no digit loop.

Default moduli are generated deterministically: for ``a >= 2`` the modulus
of F_{p^a} is the first monic irreducible polynomial of degree ``a`` when
the non-leading coefficient tuples are ordered by their integer encoding.
This makes element encodings reproducible across runs and machines without
shipping literal tables; the irreducibility of every modulus, supplied or
generated, is checked by trial factor search.  ``make_field`` keeps one
instance per field, so the tables of a field are built once per process.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import (
    DivisionByZeroError,
    FieldTooLargeError,
    NotPrimeError,
    ReducibleModulusError,
)

SIZE_CAP = 1 << 16

_OP_NAMES = frozenset({"add", "sub", "neg", "mul", "inv", "quadratic_roots"})
_TABLE_NAMES = frozenset({"log", "exp2", "zech"})  # built with the ops; zech in odd p only


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- raw coefficient-tuple arithmetic over F_p (bootstrap only) -------------

def _digits(x: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(x % p)
        x //= p
    return tuple(out)


def _undigits(c: Sequence[int], p: int) -> int:
    x = 0
    for ci in reversed(c):
        x = x * p + ci
    return x


def _pmulmod(a: Sequence[int], b: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """(a*b) mod m over F_p; m monic."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _pmod(prod, m, p)


def _pmod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """a mod m over F_p, untrimmed (at most deg m coefficients); m monic."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return a


@lru_cache(maxsize=None)
def _is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Trial factor search: no monic divisor of degree 1..deg(m)//2.

    Cached, as ``make_field`` validates its arguments on every call, an
    unpickled field included, and the search takes milliseconds for a
    modulus of degree 16."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for enc in range(p ** d):
            cand = _digits(enc, p, d) + (1,)
            if not any(_pmod(m, cand, p)):
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, a: int) -> tuple[int, ...]:
    """Canonical modulus for F_{p^a}: first irreducible in encoding order."""
    if a == 1:
        return (0, 1)
    for enc in range(p ** a):
        cand = _digits(enc, p, a) + (1,)
        if cand[0] != 0 and _is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {a} over F_{p}")


def _check_cap(p: int, a: int) -> None:
    # p^a >= 2^a, so the cap is checked without computing a huge power
    if a >= SIZE_CAP.bit_length() or p ** a > SIZE_CAP:
        raise FieldTooLargeError(f"q = {p}^{a} exceeds the cap {SIZE_CAP}")


class FiniteField:
    """A validated field spec for F_{p^a} plus arithmetic on encodings.

    Instances compare and hash by ``(p, a, modulus)``.  Operation tables
    are built lazily on first arithmetic use and never mutated afterwards,
    so instances are safe for unrestricted concurrent use.  Every field
    multiplies and inverts through its discrete-log tables, exposed as
    the tuples ``log`` and ``exp2`` for hot loops.  With
    n = q - 1 and generator g, ``exp2`` holds g^0 .. g^(n-1) twice, then
    2n + 1 zeros, and ``log[0] = 2n``, so every sum of two logs, or of a log
    and 0 <= k <= n, stays in range: ``x * y == exp2[log[x] + log[y]]`` for
    all x and y, 0 included, and ``exp2[log[x] + k] == x * g^k``.  An index
    taken mod n (powers, square roots) still needs x != 0.  In odd
    characteristic a nonzero x is a square iff ``log[x]`` is even, with
    square root ``exp2[log[x] >> 1]``.  Addition is XOR in
    characteristic 2 and reduction mod p in prime fields.  Every odd field
    also has the tuple ``zech`` of 4n + 1 Zech logarithms, with which
    ``x + y == exp2[log[x] + zech[log[y] - log[x] + 2n]]`` for all x and
    y, 0 included: zech[j] is j - 2n for j < n (x = 0 gives back y),
    log(1 + g^(j - 2n)) for n <= j < 3n, with log 0 = 2n where that sum is
    0, and 0 from 3n on (y = 0 gives back x).  Odd extension fields add by
    this rule, subtract by it with -y = ``exp2[log[y] + n/2]``, and the
    Horner loops take the same step inline.  ``quadratic_roots(b, c)``,
    installed with the ops, returns the distinct roots y of y^2 + b*y = c:
    in characteristic 2 y = sqrt(c) = c^(q/2) when b = 0, else y = b*z with
    z^2 + z = c/b^2, read off ``artin_schreier_roots`` (built on first use);
    in odd characteristic y = +-c^(1/2) off the logs when b = 0, else
    (y + b/2)^2 = c + (b/2)^2, and the square root comes off the log tables.
    """

    def __init__(self, p: int, a: int, modulus: Sequence[int] | None = None,
                 *, allow_large: bool = False):
        # bool is an int subclass, but True would print as true in the wire format
        if type(p) is not int or p < 2:
            raise NotPrimeError(f"p = {p} is not prime")
        if type(a) is not int or a < 1:
            raise ValueError(f"extension degree must be a positive integer, got {a}")
        if not allow_large:
            _check_cap(p, a)
        if prime_factors(p) != [p]:
            raise NotPrimeError(f"p = {p} is not prime")
        q = p ** a
        if modulus is None:
            modulus = default_modulus(p, a)
        else:
            modulus = list(modulus)
            if any(type(c) is not int for c in modulus):
                raise ReducibleModulusError(f"modulus coefficients must be integers, got {modulus}")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != a + 1 or modulus[-1] != 1:
                raise ReducibleModulusError(
                    f"modulus must be monic of degree {a}, got {list(modulus)}")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulusError(
                    f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.a = a
        self.q = q
        self.modulus = tuple(modulus)
        # every lru_cache keyed by a field or a curve hashes the field
        self._hash = hash((p, a, self.modulus))
        self._modulus_int = _undigits(modulus, p)  # x^a reduces by XOR in char 2

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p, self.a, self.modulus) == (other.p, other.a, other.modulus)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # operation tables hold closures; pickle only the spec and rebuild
        return _rebuild_field, (self.p, self.a, self.modulus)

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, a={self.a})"

    def to_dict(self) -> dict:
        return {"p": self.p, "a": self.a, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, d: dict) -> "FiniteField":
        return make_field(d["p"], d["a"], d.get("modulus"))

    # -- encodings ---------------------------------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        return _digits(x, self.p, self.a)

    def elements(self) -> range:
        return range(self.q)

    # -- raw multiplication used to bootstrap the tables --------------------

    def _raw_mul(self, x: int, y: int) -> int:
        if self.a == 1:
            return x * y % self.p
        if self.p == 2:
            m, a = self._modulus_int, self.a
            r = 0
            while y:
                if y & 1:
                    r ^= x
                y >>= 1
                x <<= 1
                if (x >> a) & 1:
                    x ^= m
            return r
        prod = _pmulmod(self.coeffs(x), self.coeffs(y), self.modulus, self.p)
        return _undigits(prod, self.p)

    def _raw_pow(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, x)
            x = self._raw_mul(x, x)
            e >>= 1
        return r

    # -- lazy operation tables ----------------------------------------------

    def __getattr__(self, name: str):
        if (name in _OP_NAMES or name in _TABLE_NAMES) and "log" not in self.__dict__:
            self._install_ops()
            return getattr(self, name)
        raise AttributeError(name)

    def _install_ops(self) -> None:
        p, a, q = self.p, self.a, self.q
        g = self._find_generator()
        n = q - 1
        exp = [1] * n
        for i in range(1, n):
            exp[i] = self._raw_mul(exp[i - 1], g)
        log = [2 * n] * q  # log[0] lands every sum with it in the zero tail
        for i, v in enumerate(exp):
            log[v] = i
        log = tuple(log)
        exp2 = tuple(exp + exp + [0] * (2 * n + 1))  # spare period, then zeros

        def mul(x, y):
            return exp2[log[x] + log[y]]

        def inv(x):
            if x == 0:
                raise DivisionByZeroError("0 has no inverse")
            return exp2[n - log[x]]

        tables = {"log": log, "exp2": exp2}
        if p == 2:
            def add(x, y):
                return x ^ y

            sub = add

            def neg(x):
                return x
        else:
            # Zech logs: x + y = x (1 + y/x), and 1 + g^k steps the lowest digit
            # of g^k, carry-free; zech[j] = log(1 + g^(j - 2n)) for n <= j < 3n
            ones = tuple(log[v + 1 - p if v % p == p - 1 else v + 1] for v in exp)
            zech = tuple(range(-2 * n, -n)) + ones + ones + (0,) * (n + 1)
            tables["zech"] = zech
            two_n, log_minus_one = 2 * n, n // 2

            if a == 1:
                def add(x, y):
                    return (x + y) % p

                def sub(x, y):
                    return (x - y) % p

                def neg(x):
                    return (-x) % p
            else:
                def add(x, y):
                    lx = log[x]
                    return exp2[lx + zech[log[y] - lx + two_n]]

                def sub(x, y):
                    lx = log[x]
                    return exp2[lx + zech[log[exp2[log[y] + log_minus_one]] - lx + two_n]]

                def neg(x):
                    return exp2[log[x] + log_minus_one]

        # the distinct roots y of y^2 + b y = c, for any b and c
        if p == 2:
            half = q // 2  # squaring is bijective, and sqrt(c) = c^(q/2)

            def quadratic_roots(b, c):
                if not b:
                    return (exp2[log[c] * half % n] if c else 0,)
                if not c:
                    return (0, b)
                # y = b z with z^2 + z = c / b^2: solvable iff its trace is 0
                z = self.artin_schreier_roots[exp2[(log[c] - 2 * log[b]) % n]]
                if z < 0:
                    return ()
                y = exp2[log[b] + log[z]]
                return (y, y ^ b)
        else:
            log_half = log[(p + 1) // 2]  # 1/2 lies in the prime field

            def quadratic_roots(b, c):
                if not b:  # every odd-characteristic model has h = 0
                    if not c:
                        return (0,)
                    lc = log[c]
                    if lc & 1:
                        return ()
                    return (exp2[lc >> 1], exp2[(lc >> 1) + log_minus_one])
                # complete the square: (y + m)^2 = d with m = b/2, d = c + m^2;
                # a nonzero d is a square iff log d is even
                m = exp2[log[b] + log_half]
                d = add(c, exp2[log[m] + log[m]])
                if not d:
                    return (neg(m),)
                if log[d] & 1:
                    return ()
                r = exp2[log[d] >> 1]
                return (sub(r, m), sub(neg(r), m))

        self.__dict__.update(tables, add=add, sub=sub, neg=neg, mul=mul, inv=inv,
                             quadratic_roots=quadratic_roots)

    def _find_generator(self) -> int:
        q = self.q
        n = q - 1
        factors = prime_factors(n)
        for g in range(1, q):  # 1 generates only F_2^*
            if all(self._raw_pow(g, n // ell) != 1 for ell in factors):
                return g
        raise AssertionError("multiplicative group has no generator; modulus reducible?")

    def values(self, coeffs: Sequence[int], xs: Iterable[int]) -> list[int]:
        """The values at the xs of the polynomial with the given coefficients.

        Horner from the leading coefficient on the log tables, with XOR as
        the addition in characteristic 2 and the Zech rule of ``add``, inline,
        in odd characteristic; 0 has a logarithm, so x = 0, a zero
        coefficient and a zero accumulator need no branch.  The zero
        polynomial is 0 everywhere.
        """
        log, exp2 = self.log, self.exp2
        lead, *rest = coeffs[::-1] or (0,)
        out = []
        if self.p == 2:
            for x in xs:
                lx, acc = log[x], lead
                for c in rest:
                    acc = exp2[log[acc] + lx] ^ c
                out.append(acc)
        else:
            zech, two_n = self.zech, 2 * (self.q - 1)
            rest = [log[c] + two_n for c in rest]
            for x in xs:
                lx, acc = log[x], lead
                for c2 in rest:  # acc x + c by the Zech rule of add
                    lt = log[exp2[log[acc] + lx]]
                    acc = exp2[lt + zech[c2 - lt]]
                out.append(acc)
        return out

    # -- structure helpers used by point counting ---------------------------

    @cached_property
    def nonzero_squares(self) -> frozenset[int]:
        """Set of nonzero squares, the even powers of the generator.

        The library does not read it; the benchmark probe and the tests do.
        """
        return frozenset(self.exp2[:2 * (self.q - 1):2])

    def trace_bit(self, x: int) -> int:
        """Absolute trace F_{2^a} -> F_2 of x; z^2 + z = x is solvable iff 0.

        Like ``nonzero_squares``, read only by the benchmark probe and the tests.
        """
        return int(self.artin_schreier_roots[x] < 0)

    @cached_property
    def artin_schreier_roots(self) -> list[int]:
        """Table t with t[z*z + z] = smallest such z, -1 where unsolvable (char 2)."""
        mul, add = self.mul, self.add
        table = [-1] * self.q
        for z in range(self.q):
            c = add(mul(z, z), z)
            if table[c] < 0:
                table[c] = z
        return table


_FIELDS: dict[FiniteField, FiniteField] = {}


def _rebuild_field(p: int, a: int, modulus: tuple[int, ...]) -> "FiniteField":
    return make_field(p, a, modulus, allow_large=True)


def make_field(p: int, a: int = 1, modulus: Iterable[int] | None = None,
               *, allow_large: bool = False) -> FiniteField:
    """Validated F_{p^a}: one cached instance per field.

    The arguments are validated first, the size cap included, and the
    cache is keyed by (p, a, modulus) with the modulus reduced mod p and
    the default resolved, so every spelling of a field, an unpickled copy
    and the extension field of ``extend_field`` share one instance and one
    set of tables.
    """
    field = FiniteField(p, a, modulus, allow_large=allow_large)
    return _FIELDS.setdefault(field, field)


def prime_power(q: int) -> tuple[int, int]:
    """(p, a) with q = p^a; NotPrimeError unless q is a prime power."""
    if q < 2:
        raise NotPrimeError(f"q = {q} is not a prime power")
    p = prime_factors(q)[0]
    a = 0
    n = q
    while n % p == 0:
        n //= p
        a += 1
    if n != 1:
        raise NotPrimeError(f"q = {q} is not a prime power")
    return p, a


def field_from_order(q: int, modulus: Iterable[int] | None = None) -> FiniteField:
    """F_q for a prime power q = p^a."""
    if q > SIZE_CAP:
        raise FieldTooLargeError(f"q = {q} exceeds the cap {SIZE_CAP}")
    p, a = prime_power(q)
    return make_field(p, a, modulus)


class FieldEmbedding:
    """Ring embedding of F_{p^a} into F_{p^(a*k)}, fixing the prime field.

    A prime base field, and F_q in itself, keep every encoding.  Otherwise
    the base power-basis generator is sent to the smallest-encoding root of
    the base modulus inside the extension, which makes the embedding
    deterministic and reproducible.  Calling the embedding maps integer
    encodings; it is a field homomorphism by construction.
    """

    def __init__(self, base: FiniteField, ext: FiniteField):
        if ext.p != base.p or ext.a % base.a != 0:
            raise ValueError("extension degree must be a multiple of the base degree")
        self.base = base
        self.ext = ext

    @cached_property
    def image(self) -> Sequence[int]:
        """The images of the base field's elements, in encoding order."""
        base, ext = self.base, self.ext
        if base.a == 1 or ext == base:
            return base.elements()
        # the roots of the base modulus are nonzero and lie in the subfield of
        # order q, whose nonzero elements are the powers of g^((Q-1)/(q-1));
        # the modulus has its coefficients in the prime field, encoded alike in both
        step = (ext.q - 1) // (base.q - 1)
        xs = [ext.exp2[j * step] for j in range(base.q - 1)]
        at = (min(x for x, y in zip(xs, ext.values(base.modulus, xs)) if y == 0),)
        return tuple(ext.values(base.coeffs(x), at)[0] for x in base.elements())

    def __call__(self, x: int) -> int:
        return self.image[x]

    @cached_property
    def preimage(self) -> dict[int, int]:
        """Inverse map on the image: extension encoding -> base encoding."""
        return {y: x for x, y in enumerate(self.image)}

    def map_poly(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        t = self.image
        return tuple(t[c] for c in coeffs)

    @cached_property
    def frobenius_pairs(self) -> tuple[int, ...]:
        """One x per pair {x, x^q} of F_{q^2} outside F_q: the smaller encoding.

        Ascending, (q^2 - q)/2 elements; quadratic extensions only.
        """
        q, log, exp2, n = self.base.q, self.ext.log, self.ext.exp2, self.ext.q - 1
        return tuple(x for x in range(1, self.ext.q) if exp2[log[x] * q % n] > x)


def extend_field(field: FiniteField, k: int, *, allow_large: bool = False) -> FieldEmbedding:
    """F_{q^k} with the embedding of F_q into it; F_q and the identity for k = 1.

    The size cap is checked first, unless ``allow_large``; the embedding is
    then cached by (field, k) alone, so both spellings share one embedding
    and one set of lazy tables.
    """
    if k < 1:
        raise ValueError("extension degree k must be >= 1")
    if not allow_large:
        _check_cap(field.p, field.a * k)
    return _embedding(field, k)


@lru_cache(maxsize=64)
def _embedding(field: FiniteField, k: int) -> FieldEmbedding:
    ext = field if k == 1 else make_field(field.p, field.a * k, allow_large=True)
    return FieldEmbedding(field, ext)

