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
    BadParameter,
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
    NonFiniteOutput,
    OnSupport,
    ReflectionlessError,
    RiccatiBlowUp,
    SchemaError,
    StepTooLarge,
    SupportViolation,
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
    herglotz_exp,
    m_value,
    phi_inv,
    reflectionless_residual,
    stieltjes_density,
)
from .jacobi import (
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
    Measure,
    Piece,
    cauchy,
    moment,
    validate,
)
from .schrodinger import (
    PotentialTrace,
    binomial_sum_identity,
    generating_function,
    init_flow,
    integrate_flow,
    riccati_oracle,
)

__version__ = "0.1.0"
