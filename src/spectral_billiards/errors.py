"""Exception hierarchy shared across the toolkit.

Validation errors (bad inputs, out-of-range parameters) derive from
ValidationError; numerical failures (divergent solvers, non-convergent
quadratures) derive from NumericalError.  The CLI maps the two branches
to exit codes 2 and 3.
"""


class ToolkitError(Exception):
    pass


class ValidationError(ToolkitError):
    pass


class ParameterOutOfRange(ValidationError):
    """A numeric parameter lies outside the range where its formula holds,
    such as a spectrum bound that is not finite and positive, a disk angle
    outside (0, pi), an index, order or tolerance below its least value."""


class NumericalError(ToolkitError):
    pass


# -- billiard map ------------------------------------------------------------

class GlancingRay(ValidationError):
    """Tangential momentum too close to +-1 for a reliable chord."""


class NoTransversalHit(NumericalError):
    """Chord solver found no transversal boundary intersection."""


class NewtonDivergence(NumericalError):
    """Safeguarded Newton refinement failed to converge."""


# -- invariant circles -------------------------------------------------------

class OrbitTooShort(ValidationError):
    pass


class ResonantRotation(ValidationError):
    """Rotation number is resonant within the scanned lattice."""


class FitDiverged(NumericalError):
    """Conjugacy fit did not reach the requested residual."""


# -- homological equation ----------------------------------------------------

class NonZeroMean(ValidationError):
    pass


class ModeDimensionMismatch(ValidationError):
    """A Fourier mode has more or fewer components than the torus has
    dimensions."""


class ResonantMode(ValidationError):
    def __init__(self, k, message=None):
        self.k = k
        super().__init__(message or f"resonant Fourier mode k={k}")


# -- Radon machinery ---------------------------------------------------------

class GlancingCircle(ValidationError):
    pass


class HOutOfRange(ValidationError):
    pass


class CirclesNotExchanged(ValidationError):
    """The two level-set components are not swapped by the symmetry."""


class QuadratureNonConvergence(NumericalError):
    pass


# -- quasi-eigenvalues -------------------------------------------------------

class DegenerateAction(ValidationError):
    pass


class NonPositiveD(ValidationError):
    pass


class MissingJet(ValidationError):
    """Requested expansion order exceeds the supplied Taylor data of L."""


# -- spectra / clusters ------------------------------------------------------

class EmptySpectrumAboveAlpha(ValidationError):
    pass


class DTooSmall(ValidationError):
    """Cluster exponent d must exceed n/2."""


class GridTooCoarse(ValidationError):
    pass


class NoClusters(ValidationError):
    """Every cluster component was dropped: nothing lies between alpha and
    the top of the supplied spectrum."""


class TooFewIntervals(ValidationError):
    """The H1 tail test needs at least 10 cluster intervals."""


class TooFewEigenvalues(ValidationError):
    """The Weyl fit needs at least 50 eigenvalues."""


class CutoffOutOfRange(ValidationError):
    """A cutoff (the H2 threshold a, the trap exponent M) is below its
    admissible range."""


class PathCountMismatch(ValidationError):
    """mu0_list and the trap paths disagree in length."""


# -- rigidity ----------------------------------------------------------------

class RankDeficient(NumericalError):
    pass


# -- CLI ---------------------------------------------------------------------

class ConfigError(ValidationError):
    pass
