"""Arithmetic for small finite fields GF(p^e).

Elements are coefficient vectors over F_p in a fixed polynomial basis. The
reducing modulus is chosen canonically (lexicographically smallest monic
irreducible, comparing coefficients from the constant term upward), so element
indices are reproducible across runs: element i has coefficients equal to the
base-p digits of i, index 0 is zero and index 1 is the multiplicative
identity.

Every field operation has one route.  Products go through one
multiply-and-reduce kernel, _mul_mod, on packed ints: an element's e digits
sit in fixed-width s-bit slots of one Python int (Kronecker substitution;
D. Harvey, J. Symbolic Comput. 44, 2009), so a product is one big-int
multiply, its e - 1 high slots fold back through packed rows x^(e+k) mod m,
and one multiply-shift-mask pass reduces every slot mod p.  The slot width
comes from a digit bound D = 2(p - 1), a sum of two reduced elements, so
callers may add two products before multiplying again (derivation at
_mul_mod).  FieldSpec.mul, the irreducibility test and the quadlin
invariant pass use it.  The inverse is the Fermat power a^(q-2); and a
candidate modulus is irreducible when it shares no factor with
x^(p^i) - x for i <= e/2 (Lidl and Niederreiter, Finite Fields, ch. 3).
Fields are built once per process and cached.

Everything here is pure and immutable; fields and elements can be shared
freely across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from operator import lshift
from typing import Iterator, NamedTuple

MAX_ORDER = 1 << 20


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
# Polynomial helpers over F_p.  Coefficient tuples, constant term first;
# products on packed ints, digit i in slot i.
# ---------------------------------------------------------------------------

def _trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


class _Kernel(NamedTuple):
    """The packed-slot plan of one modulus m of degree e over F_p, read by
    _mul_mod: the slot width s, the shifts s*i of the e low slots, the packed
    rows x^(e+k) mod m that fold the high slots back, and the quotient
    constants of the mod-p step.  FieldSpec.kernel builds it once per modulus.
    """

    p: int
    shifts: tuple[int, ...]
    mask: int                           # one slot, 2^s - 1
    low: int                            # the e low slots
    folds: tuple[tuple[int, int], ...]  # (s*(e+k), x^(e+k) mod m packed) for k < e - 1
    magic: int                          # ceil(2^t / p)
    t: int
    rep: int                            # the low s - t bits of each low slot
    ps: int                             # p in each low slot

    def pack(self, coeffs: tuple[int, ...]) -> int:
        """The int with coefficient i in slot i."""
        return sum(map(lshift, coeffs, self.shifts))

    def unpack(self, x: int) -> tuple[int, ...]:
        """The e low slots of x, each reduced mod p."""
        p, mask = self.p, self.mask
        return tuple([(x >> sh & mask) % p for sh in self.shifts])


def _mul_mod(x: int, y: int, kernel: _Kernel) -> int:
    """The product of two packed elements, reduced by the monic modulus and
    mod p: one big-int multiply, e - 1 folds and one quotient pass.

    The inputs' digits may be unreduced sums of two reduced elements, so each
    is at most D = 2(p - 1); the result's digits lie in [0, p).  A slot of the
    product x*y sums at most e digit products, so it is at most e D^2.  Fold
    k adds high slot e + k times the packed row x^(e+k) mod m, whose digits
    are below p, so after the e - 1 folds every low slot is at most
    V = e D^2 (1 + (e - 1)(p - 1)).  All slots are then reduced mod p at
    once: with M = ceil(2^t / p), floor(v M / 2^t) = floor(v / p) for
    0 <= v <= V when V (M p - 2^t) < 2^t, and M p - 2^t < p, so 2^t > V p
    suffices.  Each v M < 2^s keeps its own slot, so shifting r M right by
    t and keeping the low s - t bits of each slot (rep) leaves floor(v / p)
    there; r - p * that subtracts slot by slot with no borrow.  The kernel
    takes t = bitlen(V p) and s = bitlen(V M), which also bounds every
    slot of x*y and of the folds below 2^s.
    """
    p, _, mask, low, folds, magic, t, rep, _ = kernel
    z = x * y
    r = z & low
    for shift, row in folds:
        r += (z >> shift & mask) * row
    return r - p * (r * magic >> t & rep)


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


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial f of degree e >= 2 over F_p.

    A reducible f has an irreducible factor of degree d <= e // 2, and the
    product of all monic irreducibles of degree dividing i is x^(p^i) - x; so
    f is irreducible when gcd(f, x^(p^i) - x) = 1 for i = 1..e // 2.  Each
    x^(p^i) mod f is the p-th power of the one before, by square-and-multiply
    through _mul_mod on packed ints, with the candidate's own kernel.
    """
    e = len(coeffs) - 1
    kernel = FieldSpec(p, e, p ** e, coeffs).kernel
    t = 1 << kernel.shifts[1]  # x
    for _ in range(e // 2):
        power, k = 1, p
        while k:
            if k & 1:
                power = _mul_mod(power, t, kernel)
            t = _mul_mod(t, t, kernel)
            k >>= 1
        t = power
        digits = list(kernel.unpack(t))
        digits[1] = (digits[1] - 1) % p
        a, b = coeffs, _trim(tuple(digits))
        while b:
            a, b = b, _pdivmod(a, b, p)[1]
        if len(a) > 1:
            return False
    return True


def canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Coefficient vectors are compared from the constant term upward.  Degree 1
    uses the placeholder modulus x, i.e. (0, 1); arithmetic is then plain
    mod-p.  Above degree 1 a zero constant term leaves the factor x, so the
    candidates start at constant term 1.
    """
    if e == 1:
        return (0, 1)
    for tail in itertools.product(range(1, p), *[range(p)] * (e - 1)):
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

    @cached_property
    def kernel(self) -> _Kernel:
        """The packed-slot plan of this modulus for _mul_mod, built once per
        field (and once per candidate modulus in _is_irreducible).  Digit
        bound, slot width and quotient constants are derived at _mul_mod;
        row k holds x^(e+k) mod m, from x^e = -(m_0 + ... + m_(e-1) x^(e-1))
        by one multiplication by x per row."""
        p, e = self.p, self.e
        d = 2 * (p - 1)
        bound = e * d * d * (1 + (e - 1) * (p - 1))
        t = (bound * p).bit_length()
        magic = -(-(1 << t) // p)
        s = (bound * magic).bit_length()
        shifts = tuple(range(0, s * e, s))
        ones = sum(1 << sh for sh in shifts)
        x_e = tuple(-c % p for c in self.modulus[:e])
        folds, row = [], x_e
        for k in range(e - 1):
            folds.append((s * (e + k), sum(map(lshift, row, shifts))))
            row = tuple(((row[j - 1] if j else 0) + row[-1] * c) % p for j, c in enumerate(x_e))
        return _Kernel(p, shifts, (1 << s) - 1, (1 << s * e) - 1, tuple(folds), magic, t,
                       ones * ((1 << s - t) - 1), ones * p)

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
        k = self.kernel
        return self._trusted(k.unpack(_mul_mod(k.pack(a.coeffs), k.pack(b.coeffs), k)))

    def inv(self, a: FieldElement) -> FieldElement:
        """a^(q-2), the inverse by Fermat's little theorem; zero has none."""
        self._check(a)
        if a.is_zero():
            raise FieldError("inversion of zero")
        return self.pow_(a, self.q - 2)

    def pow_(self, a: FieldElement, k: int) -> FieldElement:
        """a**k by square-and-multiply; negative k inverts first."""
        self._check(a)
        if k < 0:
            return self.pow_(self.inv(a), -k)
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


def make_field(p: int, e: int) -> FieldSpec:
    """Construct GF(p^e) with the canonical modulus.

    Rejects non-prime p and orders above MAX_ORDER = 2**20.
    """
    if not isinstance(p, int) or not isinstance(e, int):
        raise FieldError("p and e must be integers")
    if not is_prime(p):
        raise FieldError(f"p={p} is not prime")
    if e < 1:
        raise FieldError(f"extension degree must be >= 1, got {e}")
    q = p ** e
    if q > MAX_ORDER:
        raise FieldError(f"field order {q} exceeds the configured bound {MAX_ORDER}")
    return _canonical_field(p, e)


@cache
def _canonical_field(p: int, e: int) -> FieldSpec:
    return FieldSpec(p=p, e=e, q=p ** e, modulus=canonical_modulus(p, e))


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
