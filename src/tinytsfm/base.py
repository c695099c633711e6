"""Minimal estimator protocol: get_params / set_params over __init__ keywords.

Follows the scikit-learn convention closely enough that sklearn.base.clone,
Pipeline and grid-search duck-type against these classes, without making
scikit-learn a dependency. Estimators store constructor arguments verbatim
and put everything learned in trailing-underscore attributes.
"""

import inspect

from .errors import ConfigError, NotFittedError


class Estimator:
    """Base class providing the get_params/set_params protocol."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep=True):
        """Return constructor parameters as a dict (sklearn protocol)."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Set constructor parameters by name; an unknown name raises a
        ConfigError (a ValueError, as scikit-learn expects) naming it."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ConfigError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_fitted(estimator, attribute):
    """Raise NotFittedError unless `estimator` carries the fitted `attribute`."""
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} instance is not fitted yet; "
            f"call fit before using this method"
        )
