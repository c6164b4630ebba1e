"""Measure parametrization of reflectionless Jacobi and Schrodinger operators.

A finite positive measure sigma with the right support and boundary
inequality determines exactly one bounded whole-line Jacobi matrix that is
reflectionless on (-2, 2) (norm <= R), or one Schrodinger potential
reflectionless on (0, inf) (spectrum in [-R^2, inf)).  This package
validates such measures, evaluates the attached Herglotz functions, carries
out both reconstructions, and verifies every result against independent
oracles (continued fractions, Riccati integration, boundary identities).
"""

from .errors import (
    AdmissibilityRequired,
    BadR,
    BranchAmbiguity,
    FreeOperator,
    HankelBreakdown,
    InadmissibleSigma,
    IoError,
    MomentMismatch,
    NegativeMomentAtZero,
    NegativeWeight,
    NonConvergent,
    OnSupport,
    ReflectionlessError,
    RiccatiBlowUp,
    SchemaError,
    StepTooLarge,
    SupportViolation,
    TruncationBlowup,
    UnknownCommand,
)
from .herglotz import (
    AdmissibilityReport,
    DensityEstimate,
    Setting,
    admissible_continuous,
    admissible_discrete,
    boundary_value_discrete,
    default_residual_grid,
    f_continuous,
    f_discrete,
    h_fn,
    herglotz_exp,
    m_value,
    phi,
    phi_inv,
    reflectionless_residual,
    stieltjes_density,
)
from .jacobi import (
    AsymptoticMoments,
    JacobiWindow,
    RatioReport,
    m_oracle,
    moments_to_recurrence,
    prop311_check,
    reconstruct,
    rho_minus_moments,
    rho_plus_moments,
)
from .measure import (
    EMPTY_SUPPORT,
    Measure,
    Piece,
    SupportInfo,
    cauchy,
    moment,
    support_bounds,
    validate,
)
from .schrodinger import (
    BoundsReport,
    MomentFlowState,
    PotentialTrace,
    binomial_sum_identity,
    flow_derivative,
    init_flow,
    integrate_flow,
    moment_bounds_ok,
    moment_generating,
    riccati_oracle,
)

__version__ = "0.1.0"
