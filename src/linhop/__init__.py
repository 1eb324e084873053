"""Hopfield memory retrieval: exact softmax dynamics, an almost-linear
low-rank approximation through polynomial feature maps, a gap nearest-neighbor
reduction with brute-force oracles, capacity analysis, and benchmark drivers.
"""

__version__ = "1.0.0"

from .errors import (
    LinhopError,
    CostCapExceeded,
    DegreeExhausted,
    DimensionMismatch,
    EmptyVector,
    InfeasiblePlant,
    InfeasibleStorage,
    InvalidBound,
    InvalidParams,
    MalformedPatternFile,
    NonFiniteInput,
    NonPositiveNormalizer,
    OutOfDomain,
    SingleMemory,
    SizeOverflow,
)
from .poly_approx import (
    ExpPolynomial,
    degree_bound,
    eval_poly,
    fit_exp_poly,
    sup_relative_error,
)
from .feature_map import (
    MonomialFeatureMap,
    build_factor_matrices,
    build_feature_map,
    factored_row_sums,
)
from .hopfield import (
    Normalization,
    PatternMatrix,
    RetrievalConfig,
    RetrievalResult,
    Trajectory,
    energy,
    fixed_point_iterate,
    lse,
    max_norm_error,
    pattern_radius,
    retrieval_error_bound,
    retrieve_dense,
    retrieve_lowrank,
    separation,
)
from .reduction import (
    AnnsInstance,
    CaseDecision,
    ReductionParams,
    brute_force_anns,
    build_ahop_instance,
    classify_queries,
    compute_params,
    generate_balanced_instance,
    generate_clustered_case2_instance,
    scenario1_brute_force,
    solve_gap_anns_via_ahop,
    verify_reduction,
)
from .capacity import (
    CapacityParams,
    capacity_lower_bound,
    check_well_separated,
    lambert_w0,
    run_capacity_experiment,
    well_separation_threshold,
)
from .bench import (
    ExperimentRecord,
    error_sweep,
    fit_slope,
    phase_sweep,
    runtime_scaling,
)
