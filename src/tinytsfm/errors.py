"""Exception taxonomy shared across the package.

Every error raised by library code derives from TsfmError so callers (and the
CLI) can distinguish domain failures from programming bugs with one except
clause. Most also derive from ValueError because that is what plain Python
code expects from bad arguments.
"""


class TsfmError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeError(TsfmError, ValueError):
    """Array dimensions do not satisfy an operation's contract."""


class ContractError(TsfmError, ValueError):
    """A documented precondition was violated (non-scalar backward, empty mask, ...)."""


class ConfigError(TsfmError, ValueError):
    """Invalid or inconsistent configuration (odd d_model, missing head, ...)."""


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
