"""Coalescing balls-into-boxes processes: exact kernels, seeded Monte Carlo,
deterministic envelopes, tail bounds, and desk-scale experiments."""

from .distributions import (
    DistributionError,
    Moments,
    ProbabilityVector,
    SolverError,
    from_descriptor,
    sample_fixed_c2,
    sample_fixed_c2_batch,
    three_level,
    topheavy,
    uniform,
)
from .dynamics import (
    early_threshold,
    empty_boxes_proxy,
    envelope_margin,
    expected_next_count,
    late_threshold,
    occupancy_proxy,
    one_step_envelope,
)
from .exact_chain import (
    PhaseTimes,
    TransitionRow,
    TriangularKernel,
    coalescence_time_cdf,
    collision_probability_bound,
    expected_coalescence_times,
    phase_decomposition,
    transition_row,
    uniform_row_exact,
    write_kernel_csv,
)
from .simulate import (
    AliasTable,
    BatchSummary,
    RunResult,
    RunningStats,
    SimConfig,
    batch,
    delta_audit,
    replicate_rng,
    run,
    runs,
    step,
)
from .tail_bounds import (
    CurvatureReport,
    TiltPoint,
    TiltSolveError,
    chernoff_lower_tail,
    chernoff_upper_tail,
    coalescence_time_lower_bound,
    curvature_report,
    solve_tilt,
    tilt_center,
    tilt_exponent,
)
from .variational import (
    OrderingReport,
    distinct_four_determinant,
    level_count,
    middle_pair_excess,
    minimize_proxy_fixed_c2,
    minimize_proxy_fixed_c2_c3,
    proxy_ordering,
)
from .asymptotics import (
    EarlyPhaseResult,
    LimitLawResult,
    ThresholdRow,
    early_phase_experiment,
    kingman_limit_samples,
    ks_two_sample,
    limit_law_experiment,
    threshold_experiment,
)

__version__ = "0.1.0"
