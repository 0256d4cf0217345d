"""Exception taxonomy shared across the package."""


class LoewnerError(Exception):
    """Base class for all package errors."""


class DomainError(LoewnerError, ValueError):
    """Input outside the mathematical domain of an operation."""


class PoleError(LoewnerError, ZeroDivisionError):
    """Evaluation requested at (or numerically on top of) a pole."""


class ValidationError(LoewnerError, ValueError):
    """A structural invariant of a value object is violated."""


class IntegrationError(LoewnerError, RuntimeError):
    """ODE integration could not continue.

    Carries the last accepted time and state so a caller can report
    how far the trajectory got before failing, and why it stopped:
    ``reason`` is ``"step_underflow"`` (the step-size controller drove
    the step below ``min_step``), ``"boundary_guard"`` (the boundary
    guard rejected every step down to ``min_step``) or ``"left_disk"``
    (an RK4 oracle step left the closed disk); ``window`` is the
    integration window (t0, t1) that failed and ``last_h`` the step that
    underflowed, the last one the guard rejected, or the oracle step.
    """

    def __init__(self, message, t=None, w=None, reason=None, window=None, last_h=None):
        super().__init__(message)
        self.t = t
        self.w = w
        self.reason = reason
        self.window = window
        self.last_h = last_h


class NotTangentError(DomainError):
    """A boundary-arc operation was asked for a field that is not
    tangent to the unit circle along the arc."""


class ConfigError(LoewnerError, ValueError):
    """Configuration text failed to parse or validate.

    ``pointer`` is a JSON-pointer-style path to the offending member;
    ``byte_offset`` is set for syntax errors.
    """

    def __init__(self, message, pointer=None, byte_offset=None):
        detail = message
        if pointer is not None:
            detail = f"{pointer}: {message}"
        if byte_offset is not None:
            detail = f"{detail} (byte offset {byte_offset})"
        super().__init__(detail)
        self.pointer = pointer
        self.byte_offset = byte_offset
