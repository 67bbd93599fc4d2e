"""Jumped Wenger graphs: construction, oracle and closed-form spectra, the
closed form's freedom from enumeration, the exponent-rule resolution, moment
verification, and the edge export format."""

import io
import re

import numpy as np
import pytest

from fqcount import oracle, wenger
from fqcount.cli import WENGER_FAMILIES
from fqcount.ff import make_field
from fqcount.wenger import (
    SpectrumReport,
    WengerFamily,
    alternative_spectrum,
    build_graph,
    export_edges,
    moment_check,
    spectrum_formula,
    spectrum_oracle,
    _orbit_point_gram_traces,
)

from helpers import is_edge, ref_nk_distribution, ref_orbit_point_gram_traces, ref_point_gram_traces


def wenger_acceptance_families():
    """The families of the `verify` wenger suite."""
    return [WengerFamily(variant, make_field(p, e), m) for variant, p, e, m in WENGER_FAMILIES]


@pytest.fixture(scope="module")
def fam31():
    return WengerFamily(1, make_field(3, 1), 1)


def test_family_validation():
    f3, f9 = make_field(3, 1), make_field(3, 2)
    WengerFamily(1, f3, 1)
    WengerFamily(2, f9, 3)
    with pytest.raises(ValueError):
        WengerFamily(1, f3, 2)  # m + 1 > q - 1
    with pytest.raises(ValueError):
        WengerFamily(2, f3, 1)  # m + 2 > q - 1
    with pytest.raises(ValueError):
        WengerFamily(3, f3, 1)


@pytest.mark.parametrize("p,e", [(7, 1), (3, 3), (2, 2)])
def test_variant2_formula_needs_odd_square_field(p, e):
    """Variant 2 builds on every field; only its closed form, the gap-3 one,
    refuses an odd extension degree or characteristic 2."""
    fam = WengerFamily(2, make_field(p, e), 1)
    with pytest.raises(ValueError):
        spectrum_formula(fam)
    report = spectrum_oracle(fam)
    assert moment_check(build_graph(fam), report, len(report.nonzero_levels()))


def test_basis_exponents_skip_one():
    f9 = make_field(3, 2)
    assert WengerFamily(1, f9, 3).basis_exponents() == (0, 1, 2, 4)
    assert WengerFamily(2, f9, 3).basis_exponents() == (0, 1, 2, 5)


def test_build_graph_structure(fam31):
    g = build_graph(fam31)
    assert g.n_points == g.n_lines == 9
    assert g.vertex_count == 18
    assert g.lines_of_point.size == 27  # q^(m+2) edges, q for each point
    line_deg = np.bincount(g.lines_of_point.ravel(), minlength=g.n_lines)
    assert set(line_deg.tolist()) == {3}


@pytest.mark.parametrize("variant,p,e,m", [(1, 3, 1, 1), (1, 2, 2, 1), (1, 5, 1, 2), (2, 3, 2, 1)])
def test_regularity_across_families(variant, p, e, m):
    g = build_graph(WengerFamily(variant, make_field(p, e), m))
    line_deg = np.bincount(g.lines_of_point.ravel(), minlength=g.n_lines)
    q = p ** e
    assert g.lines_of_point.shape == (q ** (m + 1), q) and set(line_deg.tolist()) == {q}
    assert all(len(set(lines)) == q for lines in g.lines_of_point.tolist())  # point degrees


def test_build_graph_charges_its_incidences():
    """The budget counts the q^(m+2) point/line incidences the lists hold,
    not the q^(m+1) vectors: 14 641 at q = 11, m = 2, over 1331 vectors."""
    fam = WengerFamily(1, make_field(11, 1), 2)
    with pytest.raises(oracle.BudgetExceededError, match="14641 point/line incidences"):
        build_graph(fam, oracle.EnumerationBudget(10 ** 4))
    assert build_graph(fam, oracle.EnumerationBudget(14641)).lines_of_point.size == 14641


def test_edges_match_predicate(fam31):
    """Every materialized edge satisfies the defining equalities and the
    incidence count is exactly q per point."""
    g = build_graph(fam31)
    q = 3
    for point, line in g.edges():
        p_coords = (point % q, point // q)
        l_coords = (line % q, line // q)
        assert is_edge(fam31, p_coords, l_coords)
    # non-edges are rejected
    incident = set(g.lines_of_point[0].tolist())
    for other in set(range(9)) - incident:
        assert not is_edge(fam31, (0, 0), (other % q, other // q))


def test_spectrum_oracle_pinned_31(fam31):
    report = spectrum_oracle(fam31)
    assert report.entries == ((3, 1), (2, 2), (1, 2), (0, 4))
    assert report.vertex_count == 18
    assert 2 * sum(mult for _, mult in report.entries) == 18
    assert report.multiplicity(2) == 2 and report.multiplicity(7) == 0


def test_spectrum_oracle_invariants():
    for fam in wenger_acceptance_families():
        report = spectrum_oracle(fam)
        q, m = fam.field.q, fam.m
        assert sum(mult for _, mult in report.entries) == q ** (m + 1)
        # each field point is a root for exactly q^m coefficient vectors
        assert sum(level * mult for level, mult in report.entries) == q ** (m + 1)
        assert report.multiplicity(q) == 1  # the zero vector alone


def test_spectrum_formula_matches_oracle_everywhere():
    for fam in wenger_acceptance_families():
        formula = spectrum_formula(fam)
        oracle_report = spectrum_oracle(fam)
        assert formula.same_spectrum(oracle_report), (fam.variant, fam.field.q, fam.m)


def test_variant2_pinned_91():
    fam = WengerFamily(2, make_field(3, 2), 1)
    report = spectrum_oracle(fam)
    assert report.entries == ((9, 1), (1, 72), (0, 8))
    assert spectrum_formula(fam).same_spectrum(report)


@pytest.mark.parametrize("variant,p,e,m", [
    (1, 7, 1, 1), (1, 7, 1, 2), (1, 2, 3, 1), (1, 3, 2, 2),
    (1, 2, 2, 2),  # m + 1 == q - 1 boundary
    (2, 5, 2, 1), (2, 5, 2, 3),
])
def test_spectrum_agreement_beyond_acceptance_grid(variant, p, e, m):
    """Extra families, including the size boundary and a 25-element field."""
    fam = WengerFamily(variant, make_field(p, e), m)
    assert spectrum_formula(fam).same_spectrum(spectrum_oracle(fam))


def _raise(*args, **kwargs):
    raise AssertionError("spectrum_formula enumerated")


@pytest.mark.parametrize("variant,fields", [
    (1, [(2, 6), (11, 2), (2, 8), (5, 4)]),   # q = 64, 121, 256, 625
    (2, [(7, 2), (3, 4), (11, 2), (5, 4)]),   # q = 49, 81, 121, 625
])
def test_spectrum_formula_enumerates_nothing(monkeypatch, variant, fields):
    """With the root oracle and the field tables patched to raise, the closed
    form still equals the oracle on every verify family, and far past the
    oracle's reach it keeps both counting identities: every coefficient
    vector has one level, and every field point is a root of q^m of them."""
    acceptance = [(fam, spectrum_oracle(fam)) for fam in wenger_acceptance_families()
                  if fam.variant == variant]
    for name in ("brute_nk_distribution", "span_root_distribution", "field_tables"):
        monkeypatch.setattr(wenger, name, _raise)
    monkeypatch.setattr(oracle, "field_tables", _raise)
    for fam, oracle_report in acceptance:
        assert spectrum_formula(fam).same_spectrum(oracle_report)
    for p, e in fields:
        fld, q = make_field(p, e), p ** e
        for m in range(1, 21):
            report = spectrum_formula(WengerFamily(variant, fld, m))
            assert sum(mult for _, mult in report.entries) == q ** (m + 1), (q, m)
            assert sum(level * mult for level, mult in report.entries) == q ** (m + 1), (q, m)


def test_exponent_rule_resolution():
    """The family's own jump exponent is the only low-level completion rule
    consistent with the oracle; the alternative fails on at least one family."""
    default_all = True
    alternative_all = True
    alternative_results = []
    for fam in wenger_acceptance_families():
        if fam.variant != 1:
            continue
        oracle_report = spectrum_oracle(fam)
        default_all &= spectrum_formula(fam).same_spectrum(oracle_report)
        alt = alternative_spectrum(fam)
        alternative_results.append(alt.same_spectrum(oracle_report))
    alternative_all = all(alternative_results)
    assert default_all and not alternative_all
    # the smallest family already separates the two rules
    fam31 = WengerFamily(1, make_field(3, 1), 1)
    alt = alternative_spectrum(fam31)
    assert alt.multiplicity(0) == 2  # oracle says 4
    # below level m the alternative counts completions of x^(m+2) in place of
    # x^(m+1); from level m up it is the family's own spectrum
    for fam in (fam31, WengerFamily(1, make_field(5, 1), 2), WengerFamily(1, make_field(2, 2), 1)):
        f, m, q = fam.field, fam.m, fam.field.q
        shift = [(q - 1) * (high - low) for high, low in
                 zip(ref_nk_distribution(f, [f.zero] * 2, m + 2, m - 1),
                     ref_nk_distribution(f, [f.zero], m + 1, m - 1))]
        alt, own = alternative_spectrum(fam), spectrum_formula(fam)
        for i in range(q + 1):
            assert alt.multiplicity(i) == own.multiplicity(i) + (shift[i] if i < m else 0), (fam, i)
    with pytest.raises(ValueError):
        alternative_spectrum(WengerFamily(2, make_field(3, 2), 1))


def test_moment_check_accepts_true_spectrum(fam31):
    g = build_graph(fam31)
    report = spectrum_oracle(fam31)
    assert moment_check(g, report, len(report.nonzero_levels()))
    # one extra moment is still consistent
    assert moment_check(g, report, 1 + len(report.nonzero_levels()))
    # too few moments cannot pin the spectrum and are refused
    with pytest.raises(ValueError):
        moment_check(g, report, len(report.nonzero_levels()) - 1)


def test_moment_check_rejects_tampered_spectrum(fam31):
    g = build_graph(fam31)
    bad = SpectrumReport(entries=((3, 1), (2, 3), (1, 1), (0, 4)),
                         vertex_count=18, method="tampered")
    assert not moment_check(g, bad, 3)
    wrong_vertices = SpectrumReport(entries=((3, 1),), vertex_count=20, method="tampered")
    assert not moment_check(g, wrong_vertices, 1)


def test_moment_check_trace_values(fam31):
    """tr(A^2) is twice the edge count; pinned for the smallest family."""
    g = build_graph(fam31)
    traces = _orbit_point_gram_traces(g, 1)
    assert 2 * traces[0] == 54 == 2 * g.lines_of_point.size


@pytest.mark.parametrize("variant,p,e,m", [(1, 5, 1, 2), (2, 3, 2, 1), (2, 3, 2, 2)])
def test_moment_check_larger_families(variant, p, e, m):
    fam = WengerFamily(variant, make_field(p, e), m)
    g = build_graph(fam)
    report = spectrum_oracle(fam)
    assert moment_check(g, report, len(report.nonzero_levels()))


@pytest.mark.parametrize("variant,p,e,m", [
    *(fam for fam in WENGER_FAMILIES if 2 * (fam[1] ** fam[2]) ** (fam[3] + 1) <= 4096),
    (1, 7, 1, 2), (2, 5, 2, 1),
])
def test_orbit_traces_agree_with_dense(variant, p, e, m):
    """The orbit walk counts equal the traces of dense Gram powers."""
    fam = WengerFamily(variant, make_field(p, e), m)
    g = build_graph(fam)
    big_t = 1 + len(spectrum_formula(fam).nonzero_levels())
    assert _orbit_point_gram_traces(g, big_t) == ref_point_gram_traces(g, big_t)


@pytest.mark.parametrize("variant,p,e,m", [*WENGER_FAMILIES, (1, 7, 1, 3), (1, 13, 1, 2)])
def test_two_start_traces_match_every_start(variant, p, e, m):
    """Walks from the two starts p1 = 0 and p1 = 1 give the traces that the
    walks from all q points (p1, 0, ..., 0) give."""
    fam = WengerFamily(variant, make_field(p, e), m)
    g = build_graph(fam)
    big_t = 1 + len(spectrum_formula(fam).nonzero_levels())
    assert _orbit_point_gram_traces(g, big_t) == ref_orbit_point_gram_traces(g, big_t)


@pytest.mark.parametrize("variant,p,e,m,vertices", [(1, 7, 1, 5, 235298), (1, 11, 1, 4, 322102)])
def test_large_families_verified(variant, p, e, m, vertices):
    """Families of 10^5 vertices: closed form against the oracle, and a
    complete moment check; the incidence lists are int32."""
    fam = WengerFamily(variant, make_field(p, e), m)
    formula = spectrum_formula(fam)
    assert formula.same_spectrum(spectrum_oracle(fam))
    g = build_graph(fam)
    assert g.vertex_count == vertices and g.lines_of_point.dtype == np.int32
    assert moment_check(g, formula, len(formula.nonzero_levels()))


def test_moment_check_big_integer_route(fam31):
    """Past the int64 walk-count range the walk vectors hold Python ints and
    stay exact."""
    g = build_graph(fam31)
    report = spectrum_oracle(fam31)
    assert _orbit_point_gram_traces(g, 40) == ref_point_gram_traces(g, 40)
    assert moment_check(g, report, 40)  # 9^80-scale moments
    bad = SpectrumReport(entries=((3, 1), (2, 2), (1, 1), (0, 5)),
                         vertex_count=18, method="tampered")
    assert not moment_check(g, bad, 40)


def test_moment_check_has_no_size_cap():
    """Families past the old dense and int64 limits check true; too few
    moments stays a ValueError."""
    f7 = make_field(7, 1)
    for m, big_t in ((2, 10), (3, 12)):  # 686 and 4802 vertices
        fam = WengerFamily(1, f7, m)
        assert moment_check(build_graph(fam), spectrum_formula(fam), big_t)
    with pytest.raises(ValueError):
        moment_check(build_graph(fam), spectrum_formula(fam), 1)  # fewer moments than levels


def test_export_format(fam31):
    g = build_graph(fam31)
    buf = io.StringIO()
    written = export_edges(g, buf)
    lines = buf.getvalue().splitlines()
    assert written == len(lines) == 27
    pattern = re.compile(r"^P:\d(,\d)* L:\d(,\d)*$")
    assert all(pattern.match(line) for line in lines)
    # deterministic order: points outer, l1 inner
    assert lines[0].startswith("P:0,0 L:0,")
    assert lines[1].startswith("P:0,0 L:1,")
    buf2 = io.StringIO()
    export_edges(g, buf2)
    assert buf.getvalue() == buf2.getvalue()
