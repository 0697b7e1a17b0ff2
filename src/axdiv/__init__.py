"""p-divisibility of point counts of affine varieties over finite fields.

The package computes the Ax-Katz, digit-sum, and Newton-polytope lower bounds
for ord_q |V(F_q)| from support sets alone, builds the Hasse polynomials whose
nonvanishing detects sharpness, and verifies everything against exact counts
and a truncated Dwork trace formula.
"""

from .bounds import (
    BoundReport,
    ax_katz_bound,
    bound_report,
    digit_sum,
    moreno_moreno_bound,
    mu,
)
from .corpus import corpus_documents, generate_corpus
from .dwork import (
    GammaError,
    NonIntegralError,
    PiElt,
    TraceCount,
    from_int,
    gamma_approximation,
    invert_unit,
    leading_trace_congruence,
    pi_element,
    teichmuller_lift,
    trace_formula_count,
    window_trace,
)
from .ffcount import (
    CountGuardError,
    CountReport,
    FiniteField,
    build_field,
    count_points,
    count_report,
    ord_q,
)
from .geometry import (
    FiberReduction,
    enumerate_vertices,
    fiber_point,
    fiber_reduction,
    fiber_sum,
)
from .hasse import (
    HomogeneityReport,
    SparsePolynomialModP,
    artin_hasse_coefficients,
    artin_hasse_residues,
    artin_hasse_weights,
    checked_hasse_polynomial,
    hasse_blocks,
    hasse_polynomial,
    hasse_value,
    homogeneity_report,
    zero_polynomial,
)
from .lattice import (
    INFINITE_WEIGHT,
    ConsistencyError,
    LatticePair,
    MinimalData,
    WeightUnreachableError,
    lattice_window,
    minimal_data,
    psi_closure_check,
    weight_polytope,
    weight_wz,
    zmin_for_pair,
)
from .model import (
    SpecError,
    SubsetPair,
    SupportSystem,
    VarietySpec,
    coefficient_residue,
    enumerate_subset_pairs,
    parse_variety_spec,
    restrict_support,
    serialize_variety_spec,
    subset_pair,
    support_system,
    unit_variety,
    variety_spec,
    variety_spec_to_json,
)
from .reports import (
    DensityEstimate,
    SharpnessRecord,
    density_document,
    density_estimate,
    parse_report,
    record_document,
    render_csv,
    render_json,
    sharpness_record,
    sharpness_scan,
)
from .representations import (
    ConditionalReport,
    RationalRepresentation,
    admissible_primes,
    check_sparsity_criterion,
    conditional_number,
    default_theta,
    denominator_set,
    primes_upto,
    rational_representations,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
