import hashlib
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fqcount import oracle
from fqcount.ff import (
    FieldElement,
    FieldError,
    FieldSpec,
    _mul_mod,
    canonical_modulus,
    is_prime,
    make_field,
    quadratic_character,
)

from helpers import char_restriction_trivial, ref_mul_mod

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]
ODD_FIELDS_729 = [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
                  (5, 1), (5, 2), (5, 3), (5, 4),
                  (7, 1), (7, 2), (7, 3),
                  (11, 1), (11, 2), (13, 1), (13, 2), (17, 1), (19, 1), (23, 1)]


def brute_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree 1..deg-1."""
    deg = len(coeffs) - 1
    for d in range(1, deg):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            rem = list(coeffs)
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i] % p
                if c:
                    for j in range(d + 1):
                        rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if all(x % p == 0 for x in rem[:d]):
                return False
    return True


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_make_field_rejects_bad_input():
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(3, 0)
    with pytest.raises(FieldError):
        make_field(2, 21)  # 2**21 over the bound
    with pytest.raises(FieldError):
        make_field(1048583, 1)  # the least prime past MAX_ORDER = 2**20
    assert make_field(1048573, 1).q == 1048573  # the greatest prime below it


def test_canonical_moduli_pinned():
    assert make_field(3, 1).modulus == (0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1


def test_canonical_moduli_digest():
    """Every canonical modulus with e >= 2 and p^e <= 4096, 40 fields, p then
    e ascending, pinned by the sha256 of one line per field."""
    lines = [f"{p},{e}:{canonical_modulus(p, e)}"
             for p in range(2, 65) if is_prime(p) for e in range(2, 13) if p ** e <= 4096]
    assert len(lines) == 40
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "094b7fc80f1fa405dbc4c7feefdea4c99b4b83b284ed972feda52883f1e80a16")


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_canonical_modulus_is_first_irreducible(p, e):
    """The chosen modulus is irreducible and nothing smaller (constant-term-first
    lexicographic) is."""
    got = canonical_modulus(p, e)
    assert brute_irreducible(got, p)
    for tail in itertools.product(range(p), repeat=e):
        cand = tuple(tail) + (1,)
        if cand == got:
            break
        assert not brute_irreducible(cand, p)


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_enumeration_order(p, e):
    f = make_field(p, e)
    assert f.q == p ** e
    assert f.element(0) == f.zero
    if f.q > 1:
        assert f.element(1) == f.one
    for i in range(f.q):
        x = f.element(i)
        assert f.index(x) == i
        # coefficients are the base-p digits of the index
        assert sum(c * p ** j for j, c in enumerate(x.coeffs)) == i


def test_arith_identities():
    f4 = make_field(2, 2)
    w = f4.element(2)
    assert f4.mul(w, f4.pow_(w, 2)) == f4.one
    f3 = make_field(3, 1)
    assert f3.inv(f3.element(2)) == f3.element(2)  # 2*2 = 4 = 1 mod 3
    for p, e in SMALL_FIELDS:
        f = make_field(p, e)
        for x in f.elements():
            assert f.add(x, f.neg(x)) == f.zero


def test_element_construction_validates():
    """Elements built by the public constructor are checked; only the field's
    own arithmetic skips the check."""
    f9 = make_field(3, 2)
    for coeffs in ((1,), (1, 0, 0), (3, 0), (0, -1)):
        with pytest.raises(FieldError):
            FieldElement(f9, coeffs)
    with pytest.raises(FieldError):
        f9.element(9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(3, 2), (5, 2), (3, 4)]), st.data())
def test_operation_results_equal_validated_elements(pe, data):
    """Results of the field operations compare and hash equal to the same
    coefficients passed through the validating constructor."""
    f = make_field(*pe)
    index = st.integers(0, f.q - 1)
    x, y = (f.element(data.draw(index, label=name)) for name in ("x", "y"))
    k = data.draw(st.integers(-5, 2 * f.q), label="k")
    results = [f.add(x, y), f.sub(x, y), f.neg(x), f.mul(x, y), f.zero, f.one,
               f.from_int(data.draw(st.integers(-20, 20), label="c"))]
    if not x.is_zero():
        results += [f.inv(x), f.pow_(x, k)]
    for r in results:
        v = FieldElement(f, r.coeffs)
        assert r == v and hash(r) == hash(v) and r.index == v.index
        assert r.is_zero() == (v.index == 0)


def digit_index(x):
    """x's coefficients read as base-p digits, constant term lowest."""
    return sum(c * x.field.p ** i for i, c in enumerate(x.coeffs))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 3), (3, 1), (3, 2), (5, 2)]), st.data())
def test_cached_index_is_the_digit_index(pe, data):
    """The index computed once per element equals the digit index, for
    elements from `element`, from the public constructor and from every
    operation, read once and again."""
    f = make_field(*pe)
    i, j = (data.draw(st.integers(0, f.q - 1), label=name) for name in ("i", "j"))
    x, y = f.element(i), f.element(j)
    built = FieldElement(f, x.coeffs)
    results = [x, built, f.add(x, y), f.sub(x, y), f.neg(x), f.mul(x, y), f.zero, f.one,
               f.from_int(data.draw(st.integers(-20, 20), label="c"))]
    if not x.is_zero():
        results += [f.inv(x), f.pow_(x, data.draw(st.integers(-5, 2 * f.q), label="k"))]
    assert x.index == i and built.index == i
    for r in results:
        assert r.index == digit_index(r) == f.index(r)
        assert r.index == digit_index(r)  # the cached value


def test_index_cache_is_invisible_to_eq_and_hash():
    """Reading the index caches it on the element; equality and hashing
    read the field and the coefficients only."""
    f9 = make_field(3, 2)
    x, y = f9.element(7), FieldElement(f9, f9.element(7).coeffs)
    assert "index" not in vars(y)
    assert x.index == 7 and "index" in vars(x)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert y.index == 7 and x == y and hash(x) == hash(y)
    assert x != f9.element(8) and repr(x) == "FieldElement(q=9, index=7)"


def test_index_rejects_an_element_of_another_field():
    f9, f3 = make_field(3, 2), make_field(3, 1)
    x = f3.element(2)
    assert x.index == 2  # a cached index does not pass the field check
    with pytest.raises(FieldError):
        f9.index(x)
    with pytest.raises(FieldError):
        f3.index(f9.element(2))


def test_cross_field_elements_rejected():
    f9, f3 = make_field(3, 2), make_field(3, 1)
    with pytest.raises(FieldError):
        f9.add(f9.one, f3.one)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_field_axioms(p, e):
    """Distributivity and inverses exhaustively; associativity for q <= 16."""
    f = make_field(p, e)
    xs = list(f.elements())
    triples = xs if f.q <= 16 else []
    for a in xs:
        for b in xs:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            for c in triples:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in xs[1:]:
        assert f.mul(a, f.inv(a)) == f.one


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 4)])
def test_frobenius_fixed_points(p, e):
    """x^q = x for every element (exhaustive up to q = 81)."""
    f = make_field(p, e)
    for x in f.elements():
        assert f.pow_(x, f.q) == x
    for x in list(f.elements())[1:]:
        assert f.pow_(x, f.q - 1) == f.one


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 4)])
def test_quadratic_character_properties(p, e):
    f = make_field(p, e)
    chi = {i: quadratic_character(f, f.element(i)) for i in range(f.q)}
    assert chi[0] == 0
    # squares are detected
    squares = {f.index(f.mul(x, x)) for x in f.elements() if not x.is_zero()}
    for i in range(1, f.q):
        assert chi[i] == (1 if i in squares else -1)
    assert sum(1 for i in range(1, f.q) if chi[i] == 1) == (f.q - 1) // 2
    # multiplicative on nonzero arguments (exhaustive, q <= 81)
    for a in list(f.elements())[1:]:
        for b in list(f.elements())[1:]:
            assert quadratic_character(f, f.mul(a, b)) == chi[f.index(a)] * chi[f.index(b)]


ODD_FIELDS_BY_DEGREE = {
    e: [p for p in range(3, 730) if is_prime(p) and p ** e <= 729] for e in range(1, 7)}


def _euler_character(f, x):
    return 0 if x.is_zero() else 1 if f.pow_(x, (f.q - 1) // 2) == f.one else -1


@pytest.mark.parametrize("e", sorted(ODD_FIELDS_BY_DEGREE))
def test_quadratic_character_matches_euler(e):
    """The norm's Legendre symbol equals Euler's criterion x^((q-1)/2) at
    every element of every odd field with q <= 729."""
    for p in ODD_FIELDS_BY_DEGREE[e]:
        f = make_field(p, e)
        for x in f.elements():
            assert quadratic_character(f, x) == _euler_character(f, x), (p, e, x.coeffs)


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 4), (3, 6)])
def test_quadratic_character_takes_no_powers(p, e):
    """The character is read from the norm, with no exponentiation in F_q."""
    f = make_field(p, e)
    xs = [f.element(i) for i in range(0, f.q, max(1, f.q // 50))]
    expected = [_euler_character(f, x) for x in xs]
    with mock.patch.object(FieldSpec, "pow_", side_effect=AssertionError("pow_ called")):
        assert [quadratic_character(f, x) for x in xs] == expected


def test_quadratic_character_small_fields():
    f3 = make_field(3, 1)
    assert quadratic_character(f3, f3.element(1)) == 1
    assert quadratic_character(f3, f3.element(2)) == -1
    f9 = make_field(3, 2)
    assert all(quadratic_character(f9, f9.from_int(c)) == 1 for c in (1, 2))
    with pytest.raises(FieldError):
        quadratic_character(make_field(2, 2), make_field(2, 2).one)


@pytest.mark.parametrize("p,e", ODD_FIELDS_729)
def test_char_restriction_matches_degree_parity(p, e):
    assert char_restriction_trivial(make_field(p, e)) == (e % 2 == 0)


INVERSE_FIELDS = sorted(set(SMALL_FIELDS + ODD_FIELDS_729 + [(2, 5), (2, 6), (3, 3), (5, 3)]),
                        key=lambda pe: pe[0] ** pe[1])


@pytest.mark.parametrize("p,e", INVERSE_FIELDS)
def test_inverse_matches_fermat_power(p, e):
    """The Fermat inverse x^(q-2) against the oracle's inverse table, which
    reads it from discrete logs, and x * x^(-1) = 1, at every nonzero x."""
    f = make_field(p, e)
    table = oracle.field_tables(f)["inv"]
    for x in itertools.islice(f.elements(), 1, None):
        inv = f.inv(x)
        assert inv.index == table[x.index]
        assert f.mul(x, inv) == f.one


def _kernel_product(f, a, b):
    """_mul_mod on two coefficient tuples, read back slot by slot without
    reducing: the product must come out with every digit in [0, p) and no
    bit outside the e low slots."""
    k = f.kernel
    z = _mul_mod(k.pack(a), k.pack(b), k)
    digits = tuple(z >> sh & k.mask for sh in k.shifts)
    assert z == k.pack(digits) and all(d < f.p for d in digits), (a, b, digits)
    return digits


KERNEL_FIELDS = [(p, e) for p in (2, 3, 5, 7) for e in range(2, 7) if p ** e <= 81]


@pytest.mark.parametrize("p,e", KERNEL_FIELDS)
def test_kernel_matches_schoolbook_on_every_pair(p, e):
    """The packed kernel against the schoolbook product on every pair of
    elements of each field with e >= 2 and q <= 81."""
    f = make_field(p, e)
    coeffs = [f.element(i).coeffs for i in range(f.q)]
    for a in coeffs:
        for b in coeffs:
            assert _kernel_product(f, a, b) == ref_mul_mod(a, b, f.modulus, p)


# The largest prime p for each e with p^e <= MAX_ORDER = 2^20, and the
# largest e for p = 3 and p = 2.
WORST_FIELDS = [(1048573, 1), (1021, 2), (101, 3), (31, 4), (3, 12), (2, 20)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(WORST_FIELDS), st.data())
def test_kernel_matches_schoolbook_at_the_digit_bound(pe, data):
    """The kernel takes digits up to D = 2(p - 1), the unreduced sum of two
    reduced elements that the quadlin pass feeds it.  At the largest p for
    each e, all-(p - 1) and all-D inputs, and digits drawn from the extremes
    0, p - 1, D and anywhere in [0, D], match the schoolbook product."""
    p, e = pe
    f = make_field(p, e)
    top = 2 * (p - 1)
    reduced, unreduced = (p - 1,) * e, (top,) * e
    for a, b in ((reduced, reduced), (unreduced, unreduced), (unreduced, reduced)):
        assert _kernel_product(f, a, b) == ref_mul_mod(a, b, f.modulus, p)
    digit = st.sampled_from([0, p - 1, top]) | st.integers(0, top)
    a, b = (tuple(data.draw(st.lists(digit, min_size=e, max_size=e), label=name))
            for name in ("a", "b"))
    assert _kernel_product(f, a, b) == ref_mul_mod(a, b, f.modulus, p)
