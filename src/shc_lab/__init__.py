"""Numerical laboratory for the spectral heat content of isotropic
stable processes under subordinator and inverse-subordinator time
changes."""

from .asymptotics import (
    FROZEN_SUP_MEAN,
    Regime,
    classify_regime,
    expected_monotonized_xlog,
    expected_supremum,
    expected_xlog,
    frac_perimeter_interval,
    frac_perimeter_numeric,
    jump_kernel_constant,
    large_time_asymptote,
    large_time_constant,
    monotonized_xlog,
    moment_asymptote,
    small_time_asymptote,
    small_time_constant,
    small_time_rate,
    subordinate_log_rate,
    tail_decay_probe,
    xlog_asymptote,
)
from .errors import (
    InversionError,
    RejectionBudgetError,
    ShcLabError,
    TruncationBudgetError,
    UnresolvedTailError,
    ValidationError,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    FitResult,
    fit_loglog,
    parse_config_file,
    run_experiment,
    write_outputs,
)
from .heat_content import (
    HeatContentValue,
    InverseTime,
    SubordinatorTime,
    heat_content,
    heat_content_inverse,
    heat_content_subordinate,
    monte_carlo_heat_content_grid,
)
from .special import fixed_talbot, laplace_invert, mittag_leffler
from .spectral import (
    EigenSystem,
    IntervalDomain,
    SeriesValue,
    bm_interval_eigensystem,
    load_eigensystem,
    save_eigensystem,
    weighted_series,
)
from .stable_motion import sample_symmetric_stable
from .subordinators import (
    DriftExponent,
    LaplaceExponent,
    QuadratureResult,
    StableExponent,
    SumOfStablesExponent,
    TemperedStableExponent,
    expected_functional,
    expected_laplace,
    inverse_time_transform,
    sample_increments,
    sample_inverse_stable,
    sample_positive_stable,
)

__version__ = "0.1.0"
