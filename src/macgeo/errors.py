"""Exception types raised by the numeric routines.

Every error that callers are expected to catch and act on gets its own
class; plain ``ValueError`` is reserved for bad arguments.
"""


class MacGeoError(Exception):
    """Base class for all package-specific errors."""


class SingularityError(MacGeoError):
    """Field evaluated too close to a transmitter location (gain diverges)."""


class UnboundedReceptionError(MacGeoError):
    """No closed boundary around the transmitter: the search ray finds no
    SIR-threshold crossing (the region is unbounded or passes the network
    edge), or the curve it finds bounds an interferer's exclusion hole."""


class NonClosureError(MacGeoError):
    """Contour trace exhausted its step budget without returning to the
    start point.  The partial trace is attached as ``.trace``."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class StationaryPointError(MacGeoError):
    """Contour trace stepped onto a point with vanishing SIR gradient."""


class PrecisionLossError(MacGeoError):
    """A result lost too many digits to cancellation to be meaningful.  No
    routine raises it at present; it stays in the public error set for
    callers that catch it."""


class UnsupportedFadingError(MacGeoError):
    """Requested analytic expression does not exist for this fading model."""


class DivergentMomentError(MacGeoError):
    """Fading moment E[F^s] does not exist for the requested exponent."""


class FloatRangeError(MacGeoError):
    """A result passes the float64 range, so it has no value to return;
    a log-domain counterpart (such as ``log_psi``) may still exist."""
