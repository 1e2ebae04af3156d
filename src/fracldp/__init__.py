"""Large-deviations toolkit for randomised fractional Stein-Stein volatility.

Modules: kernels (Volterra kernels, RKHS operators, Gram matrices), paths
(exact Gaussian path sampling), model (rescaled simulation and LDP slope
estimation), rates (variational rate-function solvers), smile (implied-vol
limits and Monte Carlo cross-checks), cli (JSON-config entry point).
"""

from .kernels import (
    DomainError,
    HurstParams,
    KernelKind,
    KernelSpec,
    QuadratureError,
    TimeGrid,
    apply_operator,
    eval_kernel,
    eval_kernel_batch,
    gram_matrix,
    kappa,
    l2_energy,
    operator_matrix,
)
from .paths import (
    FouConstruction,
    GaussianPathBatch,
    fbm_covariance,
    fbm_covariance_matrix,
    make_rng,
    sample_fbm,
    sample_fou,
)
from .model import (
    InitialLaw,
    LawKind,
    MCEstimate,
    ModelParams,
    RescalingScheme,
    ScalingReport,
    SchemeKind,
    SlopeFit,
    ThetaReport,
    VolFunction,
    VolKind,
    affine_abs_vol,
    check_scaling_assumption,
    check_theta_assumption,
    constant_vol,
    gaussian_law,
    ldp_slope,
    linear_vol,
    point_law,
    sample_initial,
    simulate,
    tail_estimate,
    tail_probability,
    uniform_law,
)
from .rates import (
    INFEASIBLE,
    ControlVector,
    RateResult,
    VariationalProblem,
    brute_force_rate,
    path_from_controls,
    penalized_objective,
    rate_with_random_start,
    smalltime_rate,
    solve,
    tail_rate,
)
from .smile import (
    SmilePoint,
    SmileResult,
    bs_call_price,
    bs_implied_vol,
    forward_smile,
    mc_smile,
    smalltime_smile,
    tail_smile_slope,
)

__version__ = "0.1.0"
