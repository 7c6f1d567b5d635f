"""Resource caps and the spectrum tolerance.

All limits live in one frozen dataclass so library calls stay deterministic
for a fixed config.  Every value is validated on construction: caps are
integers of at least 1 (theta_k_cap may be 0), and tol_spectrum is a finite
number of at least 0.  Nothing else needs a tolerance: character tables,
multiplicities, graph norms and commutant dimensions are exact.  A JSON
config file overrides the defaults, environment variables with the SFW_
prefix override the file, and CLI flags override both.  An SFW_ variable or a file key that names no field is rejected, so
a misspelt setting cannot be dropped without a word.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os

_ENV_PREFIX = "SFW_"


@dataclasses.dataclass(frozen=True)
class Config:
    order_cap: int = 5000
    aut_cap: int = 300
    theta_k_cap: int = 3
    oracle_cap: int = 20000
    tol_spectrum: float = 1e-9

    def __post_init__(self):
        for name, kind in config_fields():
            value = getattr(self, name)
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

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)

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
    return tuple((f.name, type(f.default))
                 for f in dataclasses.fields(Config))


DEFAULT = Config()
