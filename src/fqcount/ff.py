"""Arithmetic for small finite fields GF(p^e).

Elements are coefficient vectors over F_p in a fixed polynomial basis. The
reducing modulus is chosen canonically (lexicographically smallest monic
irreducible, comparing coefficients from the constant term upward), so element
indices are reproducible across runs: element i has coefficients equal to the
base-p digits of i, index 0 is zero and index 1 is the multiplicative
identity.

Everything here is pure and immutable; fields and elements can be shared
freely across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

DEFAULT_ORDER_BOUND = 1 << 20

_FIELD_CACHE: dict[tuple[int, int], "FieldSpec"] = {}


class FieldError(ValueError):
    """Invalid field construction or illegal element operation."""


def is_prime(n: int) -> bool:
    """Trial-division primality test; all inputs here are desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p.  Coefficient tuples, constant term first.
# ---------------------------------------------------------------------------

def _trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _pmod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial mod."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _trim(tuple(x % p for x in a[:dm]))


def _pmul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(tuple(out))


def _psub(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    m = max(len(a), len(b))
    out = [0] * m
    for i in range(m):
        if i < len(a):
            out[i] += a[i]
        if i < len(b):
            out[i] -= b[i]
        out[i] %= p
    return _trim(tuple(out))


def _pdivmod(a: tuple[int, ...], b: tuple[int, ...],
             p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of a by the nonzero trimmed polynomial b."""
    r = list(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    quot = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * lead_inv % p
        if c:
            quot[i - db] = c
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return _trim(tuple(quot)), _trim(tuple(r[:db]))


def _resultant(f: tuple[int, ...], g: tuple[int, ...], p: int) -> int:
    """Res(f, g) in F_p for nonzero trimmed f and g, by Euclid's algorithm.

    With r = f mod g, Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r)
    Res(g, r), and Res(f, c) = c^(deg f) for a constant c.
    """
    res = 1
    while len(g) > 1:
        r = _pdivmod(f, g, p)[1]
        if not r:
            return 0  # a common factor
        df, dg = len(f) - 1, len(g) - 1
        res = res * (-1) ** (df * dg) * pow(g[-1], df - len(r) + 1, p) % p
        f, g = g, r
    return res * pow(g[0], len(f) - 1, p) % p


def _pgcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return a


def _frobenius_power(base: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    """base^p reduced modulo mod, by square-and-multiply on the exponent p."""
    result: tuple[int, ...] = (1,)
    acc = base
    k = p
    while k:
        if k & 1:
            result = _pmod(_pmul(result, acc, p), mod, p)
        acc = _pmod(_pmul(acc, acc, p), mod, p)
        k >>= 1
    return result


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    Degree <= 3 reduces to a root check; in general a reducible polynomial of
    degree e has an irreducible factor of degree <= e // 2, and the product of
    all monic irreducibles of degree dividing i is x^(p^i) - x.
    """
    e = len(coeffs) - 1
    if e <= 0:
        return False
    if e == 1:
        return True
    if e <= 3:
        return all(_eval_mod_p(coeffs, x, p) != 0 for x in range(p))
    t = (0, 1)  # the polynomial x
    for _ in range(e // 2):
        t = _frobenius_power(t, coeffs, p)
        g = _pgcd(coeffs, _psub(t, (0, 1), p), p)
        if len(g) - 1 > 0:
            return False
    return True


def _eval_mod_p(coeffs: tuple[int, ...], x: int, p: int) -> int:
    y = 0
    for c in reversed(coeffs):
        y = (y * x + c) % p
    return y


def canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Coefficient vectors are compared from the constant term upward.  Degree 1
    uses the placeholder modulus x, i.e. (0, 1); arithmetic is then plain
    mod-p.
    """
    if e == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=e):
        coeffs = tuple(tail) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise FieldError(f"no irreducible polynomial of degree {e} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# Field and element types.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldElement:
    """Element of GF(p^e): e coefficients in [0, p), basis power i at slot i."""

    field: "FieldSpec"
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.field.e:
            raise FieldError(
                f"element needs exactly {self.field.e} coefficients, got {len(self.coeffs)}")
        if any(c < 0 or c >= self.field.p for c in self.coeffs):
            raise FieldError(f"coefficients not reduced mod {self.field.p}: {self.coeffs}")

    @cached_property
    def index(self) -> int:
        """The position in the enumeration order: the coefficients read as
        base-p digits.  Computed once per element and kept apart from the
        dataclass fields, so `==` and `hash` do not see it."""
        idx, p = 0, self.field.p
        for c in reversed(self.coeffs):
            idx = idx * p + c
        return idx

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        return f"FieldElement(q={self.field.q}, index={self.index})"


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^e) with its canonical modulus and deterministic element order."""

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]

    # -- enumeration ------------------------------------------------------

    def element(self, index: int) -> FieldElement:
        """Element whose coefficients are the base-p digits of index."""
        if index < 0 or index >= self.q:
            raise FieldError(f"element index {index} out of range [0, {self.q})")
        digits = []
        for _ in range(self.e):
            digits.append(index % self.p)
            index //= self.p
        return self._trusted(tuple(digits))

    def index(self, x: FieldElement) -> int:
        self._check(x)
        return x.index

    def elements(self) -> Iterator[FieldElement]:
        return (self.element(i) for i in range(self.q))

    @property
    def zero(self) -> FieldElement:
        return self._trusted((0,) * self.e)

    @property
    def one(self) -> FieldElement:
        return self._trusted((1,) + (0,) * (self.e - 1))

    def from_int(self, c: int) -> FieldElement:
        """Image of the integer c in the prime subfield."""
        return self._trusted((c % self.p,) + (0,) * (self.e - 1))

    # -- arithmetic --------------------------------------------------------

    def _check(self, x: FieldElement) -> None:
        if x.field is not self and x.field != self:
            raise FieldError(f"element of GF({x.field.q}) used in GF({self.q})")

    def _trusted(self, coeffs: tuple[int, ...]) -> FieldElement:
        """An element of e coefficients already reduced mod p, built without
        FieldElement's validation: only for coefficients this field computed."""
        x = object.__new__(FieldElement)
        object.__setattr__(x, "field", self)
        object.__setattr__(x, "coeffs", coeffs)
        return x

    def _wrap(self, coeffs: tuple[int, ...]) -> FieldElement:
        return self._trusted(tuple(coeffs) + (0,) * (self.e - len(coeffs)))

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a), self._check(b)
        return self._trusted(tuple((x + y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a), self._check(b)
        return self._trusted(tuple((x - y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: FieldElement) -> FieldElement:
        self._check(a)
        return self._trusted(tuple((-x) % self.p for x in a.coeffs))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a), self._check(b)
        return self._trusted(self._mul_coeffs(a.coeffs, b.coeffs))

    def _mul_coeffs(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """The coefficients of the product of two elements' coefficient tuples,
        reduced by the monic modulus in the same pass."""
        p, e = self.p, self.e
        if e == 1:
            return ((a[0] * b[0]) % p,)
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        modulus = self.modulus
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(e):
                    prod[i - e + j] -= c * modulus[j]
        return tuple(c % p for c in prod[:e])

    def inv(self, a: FieldElement) -> FieldElement:
        self._check(a)
        if a.is_zero():
            raise FieldError("inversion of zero")
        p = self.p
        if self.e == 1:
            return self._trusted((pow(a.coeffs[0], p - 2, p),))
        # Extended Euclid against the modulus, keeping s_i * a = r_i (mod it).
        r0, r1 = self.modulus, _trim(a.coeffs)
        s0, s1 = (), (1,)
        while r1:
            quot, rem = _pdivmod(r0, r1, p)
            r0, r1 = r1, rem
            s0, s1 = s1, _psub(s0, _pmul(quot, s1, p), p)
        scale = pow(r0[0], p - 2, p)  # the gcd r0 is a nonzero constant
        return self._wrap(tuple(c * scale % p for c in s0))

    def pow_(self, a: FieldElement, k: int) -> FieldElement:
        """a**k by square-and-multiply; negative k inverts first."""
        self._check(a)
        if k < 0:
            return self.pow_(self.inv(a), -k)
        if self.e == 1:
            return self._trusted((pow(a.coeffs[0], k, self.p),))
        result = self.one
        acc = a
        while k:
            if k & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            k >>= 1
        return result

    def summary(self) -> dict:
        """JSON-ready description including the full enumeration table."""
        return {
            "p": self.p,
            "e": self.e,
            "q": self.q,
            "modulus": list(self.modulus),
            "elements": [list(self.element(i).coeffs) for i in range(self.q)],
        }


def make_field(p: int, e: int, max_order: int = DEFAULT_ORDER_BOUND) -> FieldSpec:
    """Construct GF(p^e) with the canonical modulus.

    Rejects non-prime p and orders above max_order (default 2**20).
    """
    if not isinstance(p, int) or not isinstance(e, int):
        raise FieldError("p and e must be integers")
    if not is_prime(p):
        raise FieldError(f"p={p} is not prime")
    if e < 1:
        raise FieldError(f"extension degree must be >= 1, got {e}")
    q = p ** e
    if q > max_order:
        raise FieldError(f"field order {q} exceeds the configured bound {max_order}")
    key = (p, e)
    cached = _FIELD_CACHE.get(key)
    if cached is None:
        cached = FieldSpec(p=p, e=e, q=q, modulus=canonical_modulus(p, e))
        _FIELD_CACHE[key] = cached
    return cached


def quadratic_character(field: FieldSpec, x: FieldElement) -> int:
    """chi(x) in {-1, 0, 1}: 0 at zero, 1 on nonzero squares, -1 otherwise.

    Defined only in odd characteristic.  Read as the Legendre symbol of the
    norm N(x) = x^((q-1)/(p-1)) in F_p, since x^((q-1)/2) = N(x)^((p-1)/2).
    The norm is the resultant Res(modulus, x), which Euclid's algorithm over
    F_p gives in O(e^2) steps, with no exponentiation in F_q; for e = 1 it
    is x itself.
    """
    if field.p == 2:
        raise FieldError("quadratic character undefined in characteristic 2")
    field._check(x)
    if x.is_zero():
        return 0
    p = field.p
    norm = _resultant(field.modulus, _trim(x.coeffs), p)  # nonzero: the modulus is irreducible
    return 1 if pow(norm, (p - 1) // 2, p) == 1 else -1
