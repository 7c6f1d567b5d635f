"""Index arithmetic: the admissible index spectrum, virtual embedding
index values, local index combination and chain inequalities.

The block monomial map of G into matrices over a subgroup algebra that
`induce` prints is theta at k = 1 (theta.induced_theta).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

from .config import Config, DEFAULT
from .errors import (
    ConstraintError,
    HomomorphismError,
    ParseError,
    PreconditionError,
    SubgroupError,
)

if TYPE_CHECKING:
    from .permgroup import Perm, PermGroup


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
    stays true.  It is false for points below y = x - tol, and the
    closed form n(y) = pi / arccos(sqrt(y) / 2), evaluated as
    pi / arcsin(sqrt(4 - y) / 2) to keep its precision near 4, guesses
    the first n with a point of at least y.  The guess is bracketed by
    doubling steps and bisected against the float points themselves:
    close to 4 a run of millions of n shares one float point, so the
    rounded points can put the answer far from the exact guess.
    """
    def stops(n: int) -> bool:
        point = _discrete_point(n)
        return abs(x - point) <= tol or point > x + tol

    y = x - tol
    guess = 3
    if y > 1.0:
        root = math.sqrt(4.0 - y) / 2.0
        guess = max(3, math.ceil(math.pi / math.asin(root)))
    # bracket lo < n <= hi, with lo = 2 standing for "before the first point"
    step = 1
    if stops(guess):
        lo, hi = guess - 1, guess
        while lo >= 3 and stops(lo):
            lo, hi, step = lo - step, lo, 2 * step
        lo = max(lo, 2)
    else:
        lo, hi = guess, guess + 1
        while not stops(hi):
            lo, hi, step = hi, hi + step, 2 * step
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


def virtual_index_concrete(G: PermGroup, H: PermGroup, t: int,
                           parts: Sequence) -> int:
    """virtual_index with concrete subgroups and embeddings.

    parts are (s_i, K_i, gamma_i) with K_i <= G and gamma_i a verified
    injective homomorphism K_i -> H given as a total mapping.  The two
    index factors are recomputed from the data.
    """
    built = []
    for s, K, gamma in parts:
        if not K.is_subgroup_of(G):
            raise SubgroupError("part subgroup is not inside G")
        image = _verified_injective_hom(K, H, gamma)
        built.append(VirtualPart(int(s), G.order // K.order,
                                 H.order // len(image)))
    return virtual_index(VirtualEmbeddingSpec.make(t, built))


def _verified_injective_hom(K: PermGroup, H: PermGroup,
                            gamma: Mapping[Perm, Perm]) -> set:
    # imported here, so that vindex and spectrum never run sfw.permgroup
    from .permgroup import homomorphism_from_images
    if set(gamma) != set(K.elements):
        raise HomomorphismError("mapping must be total on the subgroup")
    phi = homomorphism_from_images(
        K.generators, [gamma[s] for s in K.generators], K.order)
    if phi is None or any(phi[x] != gamma[x] for x in K.elements):
        raise HomomorphismError("mapping is not a homomorphism")
    image = {gamma[x] for x in K.elements}
    if len(image) != K.order:
        raise HomomorphismError("mapping is not injective")
    if any(y not in H for y in image):
        raise HomomorphismError("image is not inside the target group")
    return image


def local_index_combine(parts: Sequence) -> float:
    """Global index sum local_p / tr_p over a trace partition.

    parts: (tr_p, local_index_p) pairs with the tr_p summing to 1.
    Fractions are accepted and kept exact until the final conversion.
    """
    from fractions import Fraction
    if not parts:
        raise PreconditionError("need at least one trace block")
    traces = []
    for tr, _ in parts:
        if isinstance(tr, Fraction):
            traces.append(tr)
        elif isinstance(tr, int):
            traces.append(Fraction(tr))
        else:
            traces.append(Fraction(tr).limit_denominator(10 ** 12))
    if any(tr <= 0 or tr > 1 for tr in traces):
        raise PreconditionError("trace weights must lie in (0, 1]")
    if any(local < 1 for _, local in parts):
        raise PreconditionError("local indices must be at least 1")
    total = sum(traces)
    if total != 1:
        raise ConstraintError("trace weights sum to %s, need 1" % total)
    locals_ = [local for _, local in parts]
    if all(isinstance(x, (int, Fraction)) for x in locals_):
        return float(sum(Fraction(x) / tr for x, tr in zip(locals_, traces)))
    return float(sum(float(x) / float(tr) for x, tr in zip(locals_, traces)))


def index_chain_check(index_outer: int, index_top: int,
                      index_bottom: int) -> bool:
    """max of the two factors <= composite <= product, exactly."""
    return (max(index_top, index_bottom) <= index_outer
            <= index_top * index_bottom)


def commutant_bound_check(commutant_dim: int, index: int) -> bool:
    """Relative commutant dimension is at most index + 1."""
    return commutant_dim <= index + 1

