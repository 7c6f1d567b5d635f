"""Resource caps and numerical tolerances.

All limits live in one frozen dataclass so library calls stay deterministic
for a fixed config.  Environment variables with the SFW_ prefix override the
defaults; CLI flags override both.
"""

from __future__ import annotations

import dataclasses
import json
import os

_ENV_PREFIX = "SFW_"

_INT_FIELDS = ("order_cap", "aut_cap", "theta_k_cap", "oracle_cap")
_FLOAT_FIELDS = ("tol_char", "tol_multiplicity", "tol_norm", "tol_spectrum")


@dataclasses.dataclass(frozen=True)
class Config:
    order_cap: int = 5000
    aut_cap: int = 300
    theta_k_cap: int = 3
    oracle_cap: int = 20000
    tol_char: float = 1e-9
    tol_multiplicity: float = 1e-6
    tol_norm: float = 1e-6
    tol_spectrum: float = 1e-9

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)

    @classmethod
    def env_overrides(cls, environ=None) -> dict:
        environ = os.environ if environ is None else environ
        kw = {}
        for name in _INT_FIELDS + _FLOAT_FIELDS:
            key = _ENV_PREFIX + name.upper()
            raw = environ.get(key)
            if raw is None:
                continue
            kind = int if name in _INT_FIELDS else float
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
        known = {f.name for f in dataclasses.fields(cls)}
        bad = sorted(set(data) - known)
        if bad:
            raise ValueError("unknown config keys: %s" % ", ".join(bad))
        return base.replace(**data)


DEFAULT = Config()
