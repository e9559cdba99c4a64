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


class EmptyTailIntersection(GennetError):
    """An index set misses the asymptotic tail window entirely."""


class EmptySet(GennetError):
    """A per-epsilon convex set is empty."""


class NoConvergence(GennetError):
    """An iterative solve cannot settle: the obstacle active-set loop, or a
    contraction iteration whose factor rounds to 1 at some grid point."""


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

    def __init__(self, indices, message):
        self.indices = sorted(indices)
        super().__init__(message)


class InvalidBasis(GennetError):
    """An OrthoBasis is given a support mask that is not one (K,) support per vector."""


class InvalidCertificate(GennetError):
    """A solver was handed an invalid certificate, or an alpha_k <= 0 it cannot use.

    ``check``, a certificate's tail check or "alpha_k <= 0" (NaN included), fails
    at grid index ``k`` (1-based), where alpha_k is ``alpha``."""

    def __init__(self, k, check, alpha):
        self.k, self.check, self.alpha = k, check, alpha
        head = ("the solver needs alpha_k > 0" if check == "alpha_k <= 0"
                else f"coercivity certificate is not valid ({check})")
        super().__init__(f"{head}: alpha = {alpha:.3e} at grid index k={k}")


class SingularSample(GennetError):
    """A per-epsilon linear solve hit a singular matrix."""

    def __init__(self, k):
        self.k = k
        super().__init__(f"singular sample at grid index k={k}")


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
    """A discretized problem could not be certified coercive at grid index ``k``.

    ``check``, one of the coefficient checks below or a certificate's tail
    check on the coercivity bound ``alpha`` = alpha_k, fails there."""

    _COEFFICIENT = {
        "diffusion_k <= 0": "diffusion is not positive at the quadrature points (grid point {k})",
        "potential_k not finite":
            "potential_k not finite: ±inf or NaN at a quadrature point (grid point {k})",
        "diffusion_k outside eps_k^±N_mod":
            "diffusion leaves the moderate window eps^±N_mod at grid point {k}",
    }

    def __init__(self, k, check, alpha=None):
        self.k, self.check, self.alpha = k, check, alpha
        template = self._COEFFICIENT.get(
            check, "coercivity bound alpha = {alpha:.6g} is not "
                   "invertible-nonnegative ({check}) at grid point {k}")
        super().__init__(template.format(k=k, check=check, alpha=alpha))


class InvalidSpec(GennetError):
    """Problem data violates its invariants: a ProblemSpec (a load, point-load
    weight or boundary value that is not finite included), or a NaN set bound."""


class ConfigInvalid(GennetError):
    """A CLI config file is malformed; message names the JSON pointer."""


class MalformedSummary(GennetError):
    """A summary file handed to `gennet report` is not a summary."""


class OutputUnwritable(GennetError):
    """An output file could not be written; message names the path and the reason."""
