"""Exception hierarchy shared by all nnspectra modules."""


class SpectraError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(SpectraError):
    """Matrix dimensions do not conform."""


class DomainError(SpectraError):
    """Input violates a documented precondition (sign, range, shape)."""


class SingularMatrixError(SpectraError):
    """An exact solve or inverse hit a singular matrix."""


class SpectralDominanceError(SpectraError):
    """A block's spectral radius is not strictly below the required bound."""


class CouplingError(SpectraError):
    """The manufactured coupling block would vanish."""


class PerronNotSimple(SpectraError):
    """The Perron root has algebraic multiplicity greater than one.

    The constant-row-sum reduction requires a simple Perron root; the
    2x2 witness [[1,0],[1,1]] shows the hypothesis cannot be dropped.
    """


class ModeError(SpectraError):
    """Exact mode was requested but the data needs float mode (or vice versa)."""


class UnsupportedLayoutError(SpectraError):
    """The reducible block layout is outside the implemented reduction."""


class CollisionError(SpectraError):
    """A shifted Perron root would collide with another eigenvalue."""


class NonnegativityLossError(SpectraError):
    """A transform produced a negative entry; the result is attached."""

    def __init__(self, message, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class CornerMismatchError(SpectraError):
    """The bonding corner entry does not equal the shared eigenvalue."""


class NormalizationError(SpectraError):
    """Left/right eigenvectors are not normalized to u^T v = 1."""


class EntrySignError(SpectraError):
    """A parametric matrix entry is negative for the chosen parameter."""


class NotRealizableError(SpectraError):
    """The coefficient test rejects the requested list."""


class ConstructionUnavailableError(SpectraError):
    """No construction implemented for this input (documented limitation)."""


class SpectrumMismatchError(DomainError):
    """A characteristic polynomial does not split over the claimed spectrum."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CertificationError(SpectraError):
    """An internal certification step failed; indicates a bug upstream."""
