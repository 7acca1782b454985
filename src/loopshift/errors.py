"""Exception types shared across the package."""

from contextlib import contextmanager


class LoopShiftError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(LoopShiftError, ValueError):
    """A value violates an operation's precondition."""


class ImproperShiftError(LoopShiftError):
    """Loop shifting produced an improper transfer function.

    Signals that the controller shape is outside what the shifted feedback
    form supports (leading coefficients cancelled in the new denominator).
    """


class UnstableSystemError(LoopShiftError):
    """An H-infinity norm was requested for a system that is not stable."""


class UnsupportedPresetError(LoopShiftError, ValueError):
    """No parameter preset is defined for the requested method family."""


class UnsupportedFactorizationError(LoopShiftError, ValueError):
    """The method family has no integrator/lag factorization."""


class NoCertificateError(LoopShiftError):
    """No convergence rate below one is certifiable for the configuration."""


class InsufficientDataError(LoopShiftError, ValueError):
    """Too few usable residuals to fit a convergence rate."""


@contextmanager
def json_block(block, what: str):
    """Check that ``block`` is a JSON object, and report a missing field or
    a wrongly typed value inside the ``with`` body as
    :class:`InvalidParameterError` rather than a bare KeyError, TypeError or
    ValueError."""
    if not isinstance(block, dict):
        raise InvalidParameterError(f"{what} must be a JSON object, got {block!r}")
    try:
        yield
    except LoopShiftError:
        raise
    except KeyError as exc:
        raise InvalidParameterError(f"{what} is missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed {what}: {exc}") from exc
