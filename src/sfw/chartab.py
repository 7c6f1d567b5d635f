"""Complex character tables of finite groups by the class-algebra method.

The table is obtained from simultaneous diagonalization of the class-sum
structure-constant matrices: a random real combination of them (seeded, so
the run is deterministic) is diagonalized, each eigenvector is normalized
at the identity class, and degrees are recovered from the column norm.
Orthogonality relations are asserted before anything is returned.

Besides the table, the module holds what the graph builders use:
restriction to a subgroup and the inner product that turns a restricted
character into multiplicities.  Induction is not needed by any command;
the tests keep a reference implementation for Frobenius reciprocity.

Conjugacy classes come from permgroup.conjugacy_classes, which this
module re-exports; the class cap applies only to the table, since it
bounds the size of the eigen-solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import Config, DEFAULT
from .errors import (
    NumericalDegeneracyError,
    PreconditionError,
    SubgroupError,
)
from .permgroup import ConjClassData, PermGroup, conjugacy_classes

CLASS_CAP = 64


@dataclass(frozen=True)
class ClassFunction:
    """A class function, with a flag marking genuine characters."""

    group: PermGroup
    values: tuple
    is_character: bool = False


@dataclass(frozen=True)
class CharacterTable:
    group: PermGroup
    classes: ConjClassData
    characters: tuple  # of ClassFunction, sorted by (degree, values)
    degrees: tuple

    @property
    def count(self) -> int:
        return len(self.characters)

    def trivial_index(self) -> int:
        for i, chi in enumerate(self.characters):
            if all(abs(v - 1.0) < 1e-8 for v in chi.values):
                return i
        raise PreconditionError("no trivial character found")


def _structure_matrices(classes: ConjClassData) -> list:
    """B_i[j][k] = number of x in C_i with x * g_j in C_k.

    The plain character-value vector (chi(g_k))_k is then a right
    eigenvector of every B_i with eigenvalue |C_i| chi(g_i) / chi(1).
    """
    G = classes.group
    r = classes.count
    members = [[] for _ in range(r)]
    for p in G.elements:
        members[classes.class_index(p)].append(p)
    mats = []
    for i in range(r):
        B = np.zeros((r, r))
        for j, gj in enumerate(classes.reps):
            for x in members[i]:
                k = classes.class_index(x * gj)
                B[j][k] += 1.0
        mats.append(B)
    return mats


def _eigenbasis(mats: Sequence[np.ndarray]):
    """Common eigenvectors of the commuting family, via a random combination."""
    r = mats[0].shape[0]
    last_residual = None
    for attempt in range(8):
        rng = np.random.default_rng(12345 + attempt)
        weights = rng.normal(size=len(mats))
        M = sum(w * N for w, N in zip(weights, mats))
        eigvals, eigvecs = np.linalg.eig(M)
        scale = max(1.0, float(np.max(np.abs(eigvals))))
        min_gap = np.inf
        for a in range(r):
            for b in range(a + 1, r):
                min_gap = min(min_gap, abs(eigvals[a] - eigvals[b]))
        if r > 1 and min_gap < 1e-8 * scale:
            last_residual = float(min_gap)
            continue
        vectors = []
        ok = True
        for c in range(r):
            v = eigvecs[:, c]
            m = int(np.argmax(np.abs(v)))
            residual = 0.0
            for N in mats:
                w = N @ v
                lam = w[m] / v[m]
                residual = max(residual, float(np.max(np.abs(w - lam * v))))
            if residual > 1e-6 * scale:
                ok = False
                last_residual = residual
                break
            vectors.append(v)
        if ok:
            return vectors
    raise NumericalDegeneracyError(
        "class algebra diagonalization failed; residual %r" % (last_residual,))


def character_table(G: PermGroup, config: Config = DEFAULT) -> CharacterTable:
    """All irreducible complex characters of G.

    Characters are sorted by (degree, rounded real parts, rounded
    imaginary parts of the values), which fixes the table layout.  The
    table is kept in G's cache, keyed by the two tolerances it uses.
    """
    tol_char, tol_mult = config.tol_char, config.tol_multiplicity
    return G.cached(("character_table", tol_char, tol_mult),
                    lambda: _character_table(G, tol_char, tol_mult))


def _character_table(G: PermGroup, tol_char: float,
                     tol_mult: float) -> CharacterTable:
    classes = conjugacy_classes(G)
    r = classes.count
    if r > CLASS_CAP:
        # bounds the r x r structure matrices and their eigen-solve
        raise PreconditionError(
            "group has %d conjugacy classes, cap is %d" % (r, CLASS_CAP))
    order = G.order
    id_idx = classes.class_index(G.identity)
    mats = _structure_matrices(classes)
    vectors = _eigenbasis(mats)

    chars = []
    degrees = []
    for v in vectors:
        if abs(v[id_idx]) < 1e-12:
            raise NumericalDegeneracyError(
                "eigenvector vanishes at the identity class")
        beta = v / v[id_idx]
        s = sum(classes.sizes[j] * abs(beta[j]) ** 2 for j in range(r))
        deg_sq = order / s
        deg = float(np.sqrt(deg_sq))
        deg_int = round(deg)
        if abs(deg - deg_int) > tol_mult or deg_int < 1:
            raise NumericalDegeneracyError(
                "non-integral character degree %r" % deg)
        values = tuple(complex(beta[j]).conjugate() * deg_int for j in range(r))
        chars.append(values)
        degrees.append(deg_int)

    if sum(d * d for d in degrees) != order:
        raise NumericalDegeneracyError(
            "degree squares sum to %d, expected %d"
            % (sum(d * d for d in degrees), order))

    def sort_key(item):
        deg, values = item
        re = tuple(round(v.real, 6) for v in values)
        im = tuple(round(v.imag, 6) for v in values)
        return (deg, re, im)

    paired = sorted(zip(degrees, chars), key=sort_key)
    degrees = tuple(d for d, _ in paired)
    functions = tuple(
        ClassFunction(G, values, is_character=True) for _, values in paired)

    # first orthogonality: <chi_a, chi_b> = delta_ab
    for a, fa in enumerate(functions):
        for b, fb in enumerate(functions):
            ip = sum(classes.sizes[j] * fa.values[j] * fb.values[j].conjugate()
                     for j in range(r)) / order
            target = 1.0 if a == b else 0.0
            if abs(ip - target) > tol_char:
                raise NumericalDegeneracyError(
                    "row orthogonality residual %r at (%d, %d)"
                    % (abs(ip - target), a, b))
    # column orthogonality
    for j in range(r):
        for k in range(r):
            s = sum(f.values[j] * f.values[k].conjugate() for f in functions)
            target = order / classes.sizes[j] if j == k else 0.0
            if abs(s - target) > tol_char * order:
                raise NumericalDegeneracyError(
                    "column orthogonality residual %r at (%d, %d)"
                    % (abs(s - target), j, k))

    return CharacterTable(G, classes, functions, degrees)


def inner_product(chi: ClassFunction, psi: ClassFunction,
                  config: Config = DEFAULT):
    """<chi, psi> = |G|^-1 sum |C| chi conj(psi).

    For two genuine characters the value must be a nonnegative integer
    within tolerance and the rounded integer is returned.
    """
    if chi.group != psi.group:
        raise PreconditionError("class functions live on different groups")
    classes = conjugacy_classes(chi.group)
    total = sum(classes.sizes[j] * chi.values[j] * psi.values[j].conjugate()
                for j in range(classes.count)) / chi.group.order
    if chi.is_character and psi.is_character:
        n = round(total.real)
        if abs(total - n) > config.tol_multiplicity or n < 0:
            raise NumericalDegeneracyError(
                "character inner product %r is not a nonnegative integer"
                % (total,))
        return int(n)
    return total


def multiplicity(chi: ClassFunction, irr: ClassFunction,
                 config: Config = DEFAULT) -> int:
    m = inner_product(chi, irr, config)
    if not isinstance(m, int):
        raise PreconditionError("multiplicity requires two characters")
    return m


def restrict(chi: ClassFunction, H: PermGroup) -> ClassFunction:
    """Restriction of a class function on G to a subgroup H."""
    if not H.is_subgroup_of(chi.group):
        raise SubgroupError("restriction target is not a subgroup")
    g_classes = conjugacy_classes(chi.group)
    h_classes = conjugacy_classes(H)
    values = tuple(chi.values[g_classes.class_index(rep)]
                   for rep in h_classes.reps)
    return ClassFunction(H, values, is_character=chi.is_character)
