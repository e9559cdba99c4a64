"""Nets of numbers and vectors over a finite regularization grid.

Arithmetic and order for generalized numbers sampled along eps_k =
base**k, inner-product modules over them, projections onto convex set
nets, interleaved Gram-Schmidt for finitely generated submodules,
coercive variational problems with per-sample certificates, and 1D
elliptic model problems with singular (regularized) coefficients.
"""

from .errors import (
    CoercivityFailure,
    ConfigInvalid,
    ContractionBoundViolated,
    DimMismatch,
    EmptySet,
    EmptyTailIntersection,
    GennetError,
    GridMismatch,
    InvalidBasis,
    InvalidCertificate,
    InvalidSpec,
    IterationBudgetExceeded,
    LengthMismatch,
    MalformedSummary,
    MixedScaleGenerator,
    NoConvergence,
    NotNonnegative,
    NotZeroProduct,
    OutputUnwritable,
    ProbeNotInSet,
    ResidualTargetMissed,
    SingularSample,
    SplitFailed,
)
from .gennum import (
    CloseInfimumResult,
    EpsGrid,
    GenScalar,
    IndexSet,
    Invertibility,
    NumericPolicy,
    arithmetic,
    close_infimum_check,
    eq,
    format_cells,
    ge,
    ge_zero,
    idempotent,
    invertible_wrt,
    is_moderate,
    is_negligible,
    le,
    make_power_net,
    net_verdicts,
    sharp_norm,
    sqrt_nonneg,
    valuation_estimate,
    write_grid_csv,
    zero_divisor_split,
    zero_wrt,
)
from .hilbert import GenVector, inner, lincomb, normalize, rnorm, upn
from .convex import (
    ConvexSetNet,
    characterization_residual,
    midpoint_closure_check,
    project_point,
)
from .operators import (
    BasicFunctional,
    BasicOperator,
    TridiagonalOperator,
    adjoint,
    apply,
    classify_operator,
    defect_threshold,
    op_norm_net,
    riesz_representer,
)
from .submodules import (
    GeneratorSet,
    OrthoBasis,
    SubmoduleClassification,
    classify_submodule,
    extend_functional,
    idempotent_normalize,
    interleaved_gram_schmidt,
    project_submodule,
    submodule_projection_operator,
)
from .variational import (
    CoercivityCertificate,
    VISolution,
    certify_coercivity,
    lax_milgram_solve,
    vi_solve_contraction,
    vi_solve_minimization,
)
from .fem import (
    CoefficientNet,
    DirichletResult,
    Mesh1D,
    ObstacleResult,
    ProblemSpec,
    classical_consistency_check,
    h1_norm_net,
    mollifier_eval,
    mollify_measure,
    poincare_constant,
    solve_dirichlet,
    solve_obstacle,
    under_resolved_indices,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
