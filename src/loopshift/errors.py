"""Exception types shared across the package, and the JSON input checks."""

import math
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


def json_keys(block: dict, allowed: tuple[str, ...], what: str) -> None:
    """Reject the keys of ``block`` outside ``allowed``: a key its builder
    does not read would otherwise be dropped without a word."""
    extra = sorted(map(str, set(block) - set(allowed)))
    if extra:
        raise InvalidParameterError(
            f"{what} takes only the keys {sorted(allowed)}; unknown or unused: {extra}")


def json_number(value, name: str, kind: type = float):
    """``value`` as ``kind`` (float or int) if it is a JSON number of that
    kind; bools, strings and non-finite floats raise InvalidParameterError."""
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed) or \
            (isinstance(value, float) and not math.isfinite(value)):
        expected = "an integer" if kind is int else "a finite number"
        raise InvalidParameterError(f"{name} must be {expected}, got {value!r}")
    return kind(value)


def json_numbers(value, name: str) -> list[float]:
    """A JSON list of numbers, each checked by :func:`json_number`."""
    if not isinstance(value, (list, tuple)):
        raise InvalidParameterError(f"{name} must be a list of numbers, got {value!r}")
    return [json_number(v, name) for v in value]
