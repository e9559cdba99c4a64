"""Exception types shared across the library.

Every error raised on a documented contract violation lives here so that
callers (and the CLI) can catch them by family.  ``GennetError`` is the
common base.  The CLI exits 1 on ``ConfigInvalid``, ``MalformedSummary``,
``InvalidSpec`` and ``InvalidBasis`` (bad input) and on ``OutputUnwritable``,
and 2 on every other ``GennetError`` (a computation ran but a mathematical
verdict failed).

A verdict holds on the tail of the eps grid, so its failure is one check
failing at one grid point: a ``GridPointFailure`` names the two.
"""


class GennetError(Exception):
    """Base class for all library errors."""


class GridMismatch(GennetError):
    """Operands live on different epsilon grids."""


class DimMismatch(GennetError):
    """Vector/matrix dimensions are incompatible."""


class EmptyTailIntersection(GennetError):
    """An index set misses the asymptotic tail window entirely."""


class MixedScaleGenerator(GennetError):
    """A generator's norm is neither invertible nor zero on the tail.

    The finite-scale signature of the beta-type pathology, read from the
    norms the generator left the Gram-Schmidt sweep with: a tail sample
    falls in the open gap between the invertibility and negligibility
    thresholds, or the support dies out before the asymptotic window.
    ``indices`` lists the offending grid indices (1-based).
    """

    def __init__(self, indices, message):
        self.indices = sorted(indices)
        super().__init__(message)


class InvalidBasis(GennetError):
    """An OrthoBasis is given a support mask that is not one (K,) support per vector."""


class GridPointFailure(GennetError):
    """``check`` fails at grid index ``k`` (1-based).  ``k``, ``check`` and each
    keyword value are attributes; the message is ``<check>[: name = value, ...]
    at grid index k=<k>``, floats in ``.6g``.  The subclasses add no code."""

    def __init__(self, k, check, **values):
        vars(self).update(k=k, check=check, **values)
        shown = [f"{name} = {v:.6g}" if isinstance(v, float) else f"{name} = {v}"
                 for name, v in values.items()]
        super().__init__(f"{check}{': ' if shown else ''}{', '.join(shown)} at grid index k={k}")


class SingularSample(GridPointFailure):
    """A per-epsilon linear solve hit a singular matrix: ``T_k singular``."""


class ResidualTargetMissed(GridPointFailure):
    """A per-epsilon solve misses its residual target after every refinement:
    ``residual_k > target after refinement`` (NaN included); ``residual``, ``target``."""


class IterationBudgetExceeded(GridPointFailure):
    """The contraction iteration ran out of its certified budget:
    ``iterations_k > budget_k``; ``budget`` and the last ``step_norm``."""


class ContractionBoundViolated(GridPointFailure):
    """An observed step ratio exceeds the certified contraction factor:
    ``max_step_ratio_k > contraction_k``; ``ratio``, ``factor``."""


class NoConvergence(GridPointFailure):
    """An iterative solve cannot settle: ``active set still changes`` after ``steps``
    (the obstacle solve), or ``contraction_k rounds to 1`` at ``alpha_over_M`` =
    alpha_k / M_k (the contraction iteration, which then has no budget)."""


class EmptySet(GridPointFailure):
    """A per-epsilon convex set is empty: ``box has lower > upper``, ``lower bound
    is +inf`` (``obstacle bound ...`` for an obstacle set) or ``upper bound is -inf``."""


class ProbeNotInSet(GridPointFailure):
    """A probe handed to characterization_residual is outside C: ``probe outside set``."""


class CoercivityFailure(GridPointFailure):
    """A problem is not certified coercive, or its alpha_k is not usable: a FEM
    coefficient check (``diffusion_k <= 0``, NaN included; ``diffusion_k outside
    eps_k^±N_mod``; ``potential_k not finite``), a certificate's tail check
    (``alpha_k < -eps_k^q_neg``, ``|alpha_k| < eps_k^m_inv``) or a solver's
    ``alpha_k <= 0`` (NaN included); the last three carry ``alpha`` = alpha_k."""


class InvalidSpec(GennetError):
    """Problem data violates its invariants: a ProblemSpec (a load, point-load
    weight or boundary value that is not finite included), or a NaN set bound."""


class ConfigInvalid(GennetError):
    """A CLI config file is malformed; message names the JSON pointer."""


class MalformedSummary(GennetError):
    """A summary file handed to `gennet report` is not a summary."""


class OutputUnwritable(GennetError):
    """An output file could not be written; message names the path and the reason."""
