"""Index arithmetic: the admissible index spectrum and virtual embedding
index values.

Arithmetic on index values alone; no group is built here.  `spectrum`
and `vindex` print jones_spectrum_query and virtual_index, and the
arithmetic verify suite holds jones_spectrum_query to the discrete
points 4 cos^2(pi/n).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .config import Config, DEFAULT
from .errors import ConstraintError, ParseError, PreconditionError


class SpectrumVerdict(NamedTuple):
    """Membership verdict for the admissible index value set.

    kind is one of "discrete" (value is 4 cos^2(pi/n), n recorded),
    "continuous" (value >= 4 up to tolerance), or "not-in-spectrum".
    residual is the distance to the nearest admissible value.
    """

    kind: str
    value: float
    n: Optional[int] = None
    residual: float = 0.0


def _discrete_point(n: int) -> float:
    return 4.0 * math.cos(math.pi / n) ** 2


def _first_stop(x: float, tol: float) -> int:
    """First n >= 3 whose discrete point lies within tol of x or above x + tol.

    The points increase with n, so the condition turns true once and
    stays true: doubling brackets the first such n, and bisection finds
    it.  The caller keeps x + tol below 4, the limit of the points, so
    the doubling ends.
    """
    def stops(n: int) -> bool:
        point = _discrete_point(n)
        return abs(x - point) <= tol or point > x + tol

    # lo < n <= hi, with lo = 2 standing for "before the first point"
    lo, hi = 2, 3
    while not stops(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stops(mid):
            hi = mid
        else:
            lo = mid
    return hi


def jones_spectrum_query(x: float,
                         config: Config = DEFAULT) -> SpectrumVerdict:
    """Locate x in {4 cos^2(pi/n) : n >= 3} union [4, inf).

    tol is config.tol_spectrum.  Values within tol of 4 or above are
    reported continuous; this takes precedence over the accumulating
    discrete points just below 4.  Otherwise the verdict is read at the
    first point that lies within tol of x (discrete) or above x + tol
    (not in the spectrum, with the distance to the nearer of that point
    and the one before it).
    """
    x = float(x)
    tol = config.tol_spectrum
    if not math.isfinite(x):
        # NaN fails every comparison below, so the search would never end,
        # and an infinite value has no JSON form
        raise ParseError("spectrum query needs finite numbers, got value "
                         "%r and tolerance %r" % (x, tol))
    if x < 1.0 - tol:
        raise PreconditionError("index values start at 1, got %r" % x)
    if x >= 4.0 - tol:
        return SpectrumVerdict("continuous", x, None, max(0.0, 4.0 - x))
    n = _first_stop(x, tol)
    point = _discrete_point(n)
    if abs(x - point) <= tol:
        return SpectrumVerdict("discrete", x, n, abs(x - point))
    lower = abs(x - _discrete_point(n - 1)) if n > 3 else point - x
    return SpectrumVerdict("not-in-spectrum", x, None, min(lower, point - x))


class VirtualPart(NamedTuple):
    """One summand of a virtual embedding: multiplicity s and two indices."""

    s: int
    index_G_K: int
    index_H_gammaK: int


class VirtualEmbeddingSpec(NamedTuple):
    t: int
    parts: tuple

    @classmethod
    def make(cls, t: int, parts: Sequence) -> "VirtualEmbeddingSpec":
        vp = tuple(VirtualPart(*p) if not isinstance(p, VirtualPart) else p
                   for p in parts)
        if not vp:
            raise PreconditionError("need at least one virtual part")
        for p in vp:
            if p.s < 1 or p.index_G_K < 1 or p.index_H_gammaK < 1:
                raise PreconditionError("virtual part entries must be >= 1")
        return cls(int(t), vp)


def virtual_index(spec: VirtualEmbeddingSpec) -> int:
    """Index of a virtual embedding built from parts (s_i, K_i, gamma_i).

    Requires sum s_i [G:K_i] == t; the value is t * sum s_i [H:gamma_i(K_i)].
    """
    total = sum(p.s * p.index_G_K for p in spec.parts)
    if total != spec.t:
        raise ConstraintError(
            "sum s_i [G:K_i] = %d but t = %d" % (total, spec.t))
    return spec.t * sum(p.s * p.index_H_gammaK for p in spec.parts)

