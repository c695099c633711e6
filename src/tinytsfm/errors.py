"""Exception taxonomy shared across the package.

Every error raised by library code derives from TsfmError so callers (and the
CLI) can distinguish domain failures from programming bugs with one except
clause. Most also derive from ValueError because that is what plain Python
code expects from bad arguments.

`check_value` is the one rule for a typed value; `check_fields` applies it
to a config record's fields, each with the bounds it declares by `bounded`.
"""

import math
from dataclasses import field, fields


class TsfmError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(TsfmError, ValueError):
    """Array dimensions do not satisfy an operation's contract."""


class ContractError(TsfmError, ValueError):
    """A documented precondition was violated (non-scalar backward, empty mask, ...)."""


class ConfigError(TsfmError, ValueError):
    """Invalid or inconsistent configuration (odd d_model, missing head, ...)."""


def check_value(name, value, kind, low=-math.inf, above=-math.inf, below=math.inf):
    """The one rule for a typed value: an int when kind is int, an int or a
    float when it is float, and then >= low, > above and < below. A bool is
    neither, though Python counts it an int; nor is a numpy integer, which
    json cannot write. below defaults to +inf, so a float is also finite.
    Anything else is a ConfigError naming `name`, the kind, the bounds and
    the value, one message for a wrong type and a value out of range."""
    kinds = (int, float) if kind is float else kind
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or not (value >= low and above < value < below)):
        bounds = " and".join(f" {op} {b}" for op, b in ((">=", low), (">", above), ("<", below))
                             if not math.isinf(b))
        what = "an int" if kind is int else "a finite float"
        raise ConfigError(f"{name} must be {what}{bounds}, got {value!r}")


def bounded(default, **bounds):
    """A dataclass field whose check_value bounds (low, above, below) are
    declared in its metadata, for check_fields to apply."""
    return field(default=default, metadata=bounds)


def check_fields(record, optional=()):
    """check_value on every field of a dataclass record, against its annotated
    type and its declared bounds; a field named in optional may also be None."""
    for f in fields(record):
        value = getattr(record, f.name)
        if value is not None or f.name not in optional:
            check_value(f.name, value, f.type, **f.metadata)


class TrainingError(TsfmError, RuntimeError):
    """Training aborted (NaN loss or gradients); message names the step or parameter."""


class NumericError(TsfmError, ArithmeticError):
    """Non-finite activation produced during a forward pass; message names the
    layer. `row` is the first batch row holding one, when known."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EmptySeriesError(TsfmError, ValueError):
    """No observed timesteps (or no usable patches) where at least one is required."""


class HorizonError(TsfmError, ValueError):
    """Requested forecast horizon exceeds what the window can support."""


class ParseError(TsfmError, ValueError):
    """Malformed input file; message carries the offending line number."""


class UndefinedMetricError(TsfmError, ValueError):
    """Metric has no defined value on this input (e.g. single-class ROC-AUC)."""


class StratificationError(TsfmError, ValueError):
    """A class label required by the protocol is absent from the training split."""


class NotFittedError(TsfmError, RuntimeError):
    """Estimator method requiring a fit was called before fit."""
