"""Exception types shared across the library.

Every error raised on a documented contract violation lives here so that
callers (and the CLI) can catch them by family.  ``GennetError`` is the
common base.  The CLI exits 1 on ``ConfigInvalid``, ``MalformedSummary``,
``InvalidSpec`` and ``InvalidBasis`` (bad input) and on ``OutputUnwritable``,
and 2 on every other ``GennetError`` (a computation ran but a mathematical
verdict failed).
"""


class GennetError(Exception):
    """Base class for all library errors."""


class GridMismatch(GennetError):
    """Operands live on different epsilon grids."""


class DimMismatch(GennetError):
    """Vector/matrix dimensions are incompatible."""


class LengthMismatch(GennetError):
    """Parallel lists (coefficients vs vectors) differ in length."""


class NotNonnegative(GennetError):
    """sqrt_nonneg called on a net that fails the order test."""


class EmptyTailIntersection(GennetError):
    """An index set misses the asymptotic tail window entirely."""


class NotZeroProduct(GennetError):
    """zero_divisor_split called on nets whose product is not negligible."""


class SplitFailed(GennetError):
    """The zero-divisor split heuristic could not be certified.

    Carries both residuals so the caller can see how far each side is
    from being zero with respect to its index set.
    """

    def __init__(self, residual_x, residual_y):
        self.residual_x = residual_x
        self.residual_y = residual_y
        super().__init__(
            f"split not certified (residuals {residual_x:.3e} / {residual_y:.3e})"
        )


class EmptySet(GennetError):
    """A per-epsilon convex set is empty."""


class NoConvergence(GennetError):
    """Dykstra's projection or the obstacle active-set solve failed to settle."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class ProbeNotInSet(GennetError):
    """A probe point handed to characterization_residual is outside C."""


class MixedScaleGenerator(GennetError):
    """A generator's norm is neither invertible nor zero on the tail.

    The finite-scale signature of the beta-type pathology: the support
    of the norm net dies out before the asymptotic window (or a tail
    sample falls in the open gap between the invertibility and
    negligibility thresholds).  ``indices`` lists the offending grid
    indices (1-based).
    """

    def __init__(self, indices, message=None):
        self.indices = sorted(indices)
        super().__init__(
            message
            or f"norm net has no uniform scale; offending indices {self.indices}"
        )


class InvalidBasis(GennetError):
    """An OrthoBasis fails its orthogonality/idempotent-norm invariants."""


class InvalidCertificate(GennetError):
    """A solver was handed a coercivity certificate with valid=False."""


class SingularSample(GennetError):
    """A per-epsilon linear solve hit a singular matrix."""

    def __init__(self, k, message=None):
        self.k = k
        super().__init__(message or f"singular sample at grid index k={k}")


class ResidualTargetMissed(GennetError):
    """A per-epsilon solve missed its residual target after every refinement."""

    def __init__(self, k, residual, target):
        self.k, self.residual, self.target = k, residual, target
        super().__init__(f"k={k}: relative residual {residual:.3e} misses the target "
                         f"{target:.3e} after iterative refinement")


class IterationBudgetExceeded(GennetError):
    """The contraction iteration ran out of its certified budget."""

    def __init__(self, k, budget, step_norm):
        self.k = k
        self.budget = budget
        self.step_norm = step_norm
        super().__init__(
            f"k={k}: no convergence within {budget} iterations "
            f"(last step {step_norm:.3e})"
        )


class ContractionBoundViolated(GennetError):
    """An observed step ratio exceeds the certified contraction factor."""

    def __init__(self, k, ratio, factor):
        self.k, self.ratio, self.factor = k, ratio, factor
        super().__init__(f"k={k}: observed step ratio {ratio:.6g} exceeds the certified "
                         f"contraction factor {factor:.6g}")


class CoercivityFailure(GennetError):
    """A discretized problem could not be certified coercive."""


class InvalidSpec(GennetError):
    """Problem data violates its invariants: a ProblemSpec, or a NaN set bound."""


class ConfigInvalid(GennetError):
    """A CLI config file is malformed; message names the JSON pointer."""


class MalformedSummary(GennetError):
    """A summary file handed to `gennet report` is not a summary."""


class OutputUnwritable(GennetError):
    """An output file could not be written; message names the path and the reason."""
