"""Exception types raised by the library."""


class QutritError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(QutritError):
    """Input matrix is not Hermitian within tolerance."""


class TraceError(QutritError):
    """Density matrix trace differs from 1 beyond tolerance."""


class InvalidStateError(QutritError):
    """Input is not a valid density matrix."""


class NotPositiveError(InvalidStateError):
    """Density matrix has an eigenvalue below the positivity tolerance."""


class InconsistentParamsError(QutritError):
    """State parameter bundle is internally inconsistent."""


class MetricUndefinedError(QutritError):
    """Metric tensor requested where det(1 - T) vanishes."""


class NotSymmetricError(QutritError):
    """Two-qubit state is not a symmetric (triplet-sector) state.

    ``reason`` names the violated sub-check: "bloch_mismatch",
    "tensor_asymmetry" or "singlet_overlap".
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        msg = reason if not detail else f"{reason}: {detail}"
        super().__init__(msg)


class NotNormalizedError(QutritError):
    """Pure-state amplitudes are not normalized within tolerance."""


class OutOfBallError(QutritError):
    """Bloch vector lies outside the admissible ball."""


class DegenerateMeshError(QutritError):
    """Surface mesh requested for a degenerate (segment/point) scene."""


class InternalCheckError(QutritError):
    """A library self-check failed: two routes to one result disagree."""
