"""Exact distinct-root counting over small finite fields.

Closed-form counts of monic polynomial completions with a prescribed number
of distinct roots (coefficient gaps 1-3), subset-sum and two-moment subset
counts, a distinct-coordinate sieve by the exponential formula, exhaustive
enumeration oracles validating every closed form, and the exact spectra of
jumped Wenger graphs built from those counts.
"""

from .counting import (
    ExactCount,
    alpha_beta,
    count_nk_gap1,
    count_nk_gap2,
    count_nk_gap3,
    moment_subset_count,
    moment_subset_count_m1,
    quad_lin_solution_count,
    s_plus_minus,
    subset_sum_count,
    v_of,
)
from .ff import (
    FieldElement,
    FieldError,
    FieldSpec,
    make_field,
    quadratic_character,
)
from .oracle import (
    BudgetExceededError,
    EnumerationBudget,
    brute_nk_distribution,
    brute_subsets_mss2,
    quadlin_counts,
    subset_pair_tally,
)
from .sieve import (
    s_plus_minus_type_sums,
    sieve_distinct,
    sieve_first_n_minus_1,
    subset_sum_counter,
    two_moment_counter,
    unconstrained_counter,
)
from .wenger import (
    BipartiteGraph,
    SpectrumReport,
    WengerFamily,
    build_graph,
    export_edges,
    moment_check,
    spectrum_formula,
    spectrum_oracle,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
