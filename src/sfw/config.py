"""Resource caps and the spectrum tolerance.

All limits live in one immutable Config, so library calls stay
deterministic for a fixed config.  Every value is validated whenever a
Config is made, by construction or by replace(): caps are integers of
at least 1 (theta_k_cap may be 0), and tol_spectrum is a finite number
of at least 0.  Nothing else needs a tolerance: character tables,
multiplicities, graph norms and commutant dimensions are exact.  A JSON
config file overrides the defaults, environment variables with the SFW_
prefix override the file, and CLI flags override both.  An SFW_
variable or a file key that names no field is rejected, so a misspelt
setting cannot be dropped without a word.
"""

from __future__ import annotations

import json
import math
import numbers
import os

_ENV_PREFIX = "SFW_"


class Config:
    """Five immutable settings, validated whenever a Config is made."""

    __slots__ = ("order_cap", "aut_cap", "theta_k_cap", "oracle_cap",
                 "tol_spectrum")

    def __init__(self, order_cap: int = 5000, aut_cap: int = 300,
                 theta_k_cap: int = 3, oracle_cap: int = 20000,
                 tol_spectrum: float = 1e-9):
        values = (order_cap, aut_cap, theta_k_cap, oracle_cap, tol_spectrum)
        for (name, kind), value in zip(config_fields(), values):
            if kind is int:
                least = 0 if name == "theta_k_cap" else 1
                if (isinstance(value, bool)
                        or not isinstance(value, numbers.Integral)
                        or value < least):
                    raise ValueError("%s must be an integer >= %d, got %r"
                                     % (name, least, value))
            elif (isinstance(value, bool)
                    or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0):
                raise ValueError("%s must be a finite number >= 0, got %r"
                                 % (name, value))
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Config is immutable; use replace()")

    def __delattr__(self, name):
        raise AttributeError("Config is immutable; use replace()")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not Config:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "Config(%s)" % ", ".join(
            "%s=%r" % pair for pair in zip(self.__slots__, self._values()))

    def replace(self, **kw) -> "Config":
        """A copy with the given fields changed, validated like any Config."""
        return Config(**dict(zip(self.__slots__, self._values()), **kw))

    @classmethod
    def env_overrides(cls, environ=None) -> dict:
        environ = os.environ if environ is None else environ
        known = {_ENV_PREFIX + name.upper() for name, _ in config_fields()}
        bad = sorted(key for key in environ
                     if key.startswith(_ENV_PREFIX) and key not in known)
        if bad:
            raise ValueError("unknown variables: %s" % ", ".join(bad))
        kw = {}
        for name, kind in config_fields():
            key = _ENV_PREFIX + name.upper()
            raw = environ.get(key)
            if raw is None:
                continue
            try:
                kw[name] = kind(raw)
            except ValueError:
                raise ValueError("%s=%r is not a valid %s"
                                 % (key, raw, kind.__name__)) from None
        return kw

    @classmethod
    def from_file(cls, path: str, base: "Config" = None) -> "Config":
        base = base if base is not None else cls()
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        known = {name for name, _ in config_fields()}
        bad = sorted(set(data) - known)
        if bad:
            raise ValueError("unknown config keys: %s" % ", ".join(bad))
        return base.replace(**data)


def config_fields() -> tuple:
    """(name, int or float) for each Config field, in declaration order.

    The kind is the type of the field's default; validation, environment
    variables and the CLI flags all read the fields from here.
    """
    return _FIELDS


_FIELDS = tuple(zip(Config.__slots__,
                    map(type, Config.__init__.__defaults__)))


DEFAULT = Config()
