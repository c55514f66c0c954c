"""Exact likelihood inference for integrated signal-plus-noise observations.

The observed data are increments of X_t = X_0 + int f(alpha, s) ds +
int sigma(beta, s) dW_s read at deterministic, possibly uneven instants.
Increments are independent Gaussians whose means and variances are exact
time integrals of the drift and variance rates, so the likelihood, its
score, the information, and (for linear drifts) the MLE itself are all
available in closed form.  On top of the inference layer sits a
seeded Monte-Carlo harness that checks distributional claims about the
estimators at desk scale.
"""

from .errors import (
    ConfigError,
    DegeneratePosteriorError,
    DomainError,
    EvaluationError,
    GridError,
    NoiseFloorViolation,
    OptimizationError,
    OutOfSpaceError,
    PeriodicityError,
    QuadratureError,
    SignoiseError,
    SingularDesignError,
    SingularInformationError,
)
from .model import (
    ConstantFn,
    CosineFn,
    GeneralNoise,
    GeneralSignal,
    KnownNoise,
    LinearSignal,
    ModelSpec,
    ParameterSpace,
    PeriodicStepFn,
    Profile,
    ScaledNoise,
    SineFn,
    Theta,
    constant_profile,
)
from .sampling import (
    TimeGrid,
    grid_from_delays,
    grid_from_instants,
    periodic_pattern_grid,
    quantile_grid,
    save_grid_csv,
    uniform_grid,
)
from .increments import (
    IncrementMoments,
    LinearDesign,
    MomentCache,
    has_closed_form,
)
from .simulate import (
    IncrementSample,
    derive_seed,
    draw_block,
    load_sample,
    normal_stream,
    save_sample,
    simulate_batch,
    simulate_increments,
)
from .likelihood import (
    LocalExpansion,
    expected_power_identity,
    local_expansion,
    log_likelihood,
    score,
)
from .information import (
    InformationBundle,
    empirical_fisher,
    periodic_limit_fisher,
)
from .estimate import (
    ESTIMATORS,
    BayesResult,
    EstimateResult,
    Prior,
    closed_form_mle,
    mle_numeric,
    posterior_mean_importance,
    posterior_mean_quadrature,
    resolve_estimator,
)
from .experiments import (
    StudyConfig,
    StudyReport,
    gaussian_expected_loss,
    run_study,
    save_report,
    study_from_dict,
)

__version__ = "0.1.0"
