"""The diagonal quadratic + linear system count against literal enumeration."""

import itertools
import random

import pytest

from fqcount import oracle
from fqcount.counting import quad_lin_solution_count, quadlin_case_count
from fqcount.ff import FieldSpec, make_field

from helpers import force_quadlin_case, ref_quadlin, ref_quadlin_cases


def test_pinned_small_cases():
    f3 = make_field(3, 1)
    one, two = f3.one, f3.element(2)
    assert quad_lin_solution_count(f3, [one, one], f3.zero, [one, one], f3.zero).value == 1
    assert quad_lin_solution_count(f3, [one, two], f3.zero, [one, one], f3.one).value == 1
    assert quad_lin_solution_count(f3, [one, two], f3.zero, [one, one], f3.zero).value == 3
    # n = 1: x^2 = 1 and x = 1 share exactly the solution x = 1
    assert quad_lin_solution_count(f3, [one], f3.one, [one], f3.one).value == 1


def test_preconditions():
    f3, f4 = make_field(3, 1), make_field(2, 2)
    one = f3.one
    with pytest.raises(ValueError):
        quad_lin_solution_count(f4, [f4.one], f4.zero, [f4.one], f4.zero)  # even q
    with pytest.raises(ValueError):
        quad_lin_solution_count(f3, [f3.zero], f3.zero, [one], f3.zero)  # zero a_i
    with pytest.raises(ValueError):
        quad_lin_solution_count(f3, [one], f3.zero, [f3.zero], f3.zero)  # all b_i zero
    with pytest.raises(ValueError):
        quad_lin_solution_count(f3, [one, one], f3.zero, [one], f3.zero)  # length mismatch


def test_exhaustive_q3_small_n():
    """Every admissible coefficient choice for q = 3, n <= 2."""
    f = make_field(3, 1)
    elems = list(f.elements())
    nonzero = elems[1:]
    for n in (1, 2):
        for a in itertools.product(nonzero, repeat=n):
            for bvec in itertools.product(elems, repeat=n):
                if all(b.is_zero() for b in bvec):
                    continue
                for a0 in elems:
                    for b0 in elems:
                        got = quad_lin_solution_count(f, list(a), a0, list(bvec), b0).value
                        want = ref_quadlin(f, list(a), a0, list(bvec), b0)
                        assert got == want, (n, a, a0, bvec, b0)


@pytest.mark.parametrize("p,e,n,samples", [(3, 1, 3, 40), (5, 1, 2, 40), (5, 1, 3, 30), (3, 2, 2, 30), (3, 2, 3, 20)])
def test_seeded_samples_against_reference(p, e, n, samples):
    f = make_field(p, e)
    q = f.q
    rng = random.Random(f"quadlin-test:{q}:{n}")
    for _ in range(samples):
        a = [f.element(rng.randrange(1, q)) for _ in range(n)]
        bvec = [f.element(rng.randrange(q)) for _ in range(n)]
        if all(b.is_zero() for b in bvec):
            bvec[0] = f.one
        a0 = f.element(rng.randrange(q))
        b0 = f.element(rng.randrange(q))
        got = quad_lin_solution_count(f, a, a0, bvec, b0).value
        assert got == ref_quadlin(f, a, a0, bvec, b0)


def test_degenerate_case_with_zero_a0():
    """b = 0 and b0 = 0 with a0 = 0 exercises the vanishing-character branch."""
    f = make_field(3, 2)
    one = f.one
    # three equal coefficients: b = 3 = 0 in characteristic 3
    a = [one, one, one]
    got = quad_lin_solution_count(f, a, f.zero, a, f.zero).value
    assert got == ref_quadlin(f, a, f.zero, a, f.zero)


def test_sum_over_a0_covers_hyperplane():
    """Summing the count over a0 yields the q^(n-1) points of the hyperplane."""
    f = make_field(5, 1)
    one, two = f.one, f.element(2)
    for n, a, bvec in [(2, [one, two], [one, one]), (3, [two, two, one], [one, two, one])]:
        total = sum(
            quad_lin_solution_count(f, a, f.element(a0), bvec, f.zero).value
            for a0 in range(f.q))
        assert total == f.q ** (n - 1)


def test_identity_never_inverts(monkeypatch):
    """At q = 625, n = 40 one instance of each case is counted with
    FieldSpec.inv disabled, and matches the earlier case table."""
    f = make_field(5, 4)
    rng = random.Random("quadlin-inverse-free")
    instances = []
    for case in (1, 2, 3, 4):
        instance = None
        while instance is None:
            a = [f.element(rng.randrange(1, f.q)) for _ in range(40)]
            bvec = [f.element(rng.randrange(1, f.q)) for _ in range(40)]
            a0, b0 = f.element(rng.randrange(f.q)), f.element(rng.randrange(f.q))
            instance = force_quadlin_case(f, a, a0, bvec, b0, case)
        instances.append((instance, ref_quadlin_cases(f, *instance)))

    def no_inverse(self, x):
        raise AssertionError("inverted a field element")

    monkeypatch.setattr(FieldSpec, "inv", no_inverse)
    for case, (instance, (want_case, want)) in enumerate(instances, start=1):
        got_case, got = quadlin_case_count(f, *instance)
        assert got_case == want_case == case
        assert got.value == want


@pytest.mark.parametrize("p,e,n", [(3, 3, 5), (3, 3, 6), (3, 4, 4), (3, 4, 5), (5, 3, 3), (5, 3, 4)])
def test_identity_against_the_dp_oracle_at_degree_3_and_4(p, e, n):
    """At q = 27, 81 and 125, two instances of each case against the DP
    oracle, whose product table is pinned by sha256 in test_oracle.py, so the
    check does not rest on the packed kernel that the invariant pass runs."""
    f = make_field(p, e)
    q = f.q
    rng = random.Random(f"quadlin-oracle:{q}:{n}")
    instances, cases = [], []
    for case in (1, 2, 3, 4):
        while cases.count(case) < 2:
            a = [f.element(rng.randrange(1, q)) for _ in range(n)]
            bvec = [f.element(rng.randrange(q)) for _ in range(n - 1)]
            bvec.append(f.element(rng.randrange(1, q)))  # force_quadlin_case needs b_n != 0
            a0, b0 = f.element(rng.randrange(q)), f.element(rng.randrange(q))
            instance = force_quadlin_case(f, a, a0, bvec, b0, case)
            if instance is not None:
                instances.append(instance)
                cases.append(case)
    got = [quadlin_case_count(f, *instance) for instance in instances]
    assert [case for case, _ in got] == cases
    assert [count.value for _, count in got] == oracle.quadlin_counts(f, instances)
