"""The amplification (theta) maps of a group-subgroup inclusion.

With right coset representatives g_1 = e, ..., g_t of H in G, every
element of the group algebra of G amplifies to a t^k x t^k matrix over
the algebra of H, indexed by k-tuples of coset indices.  The image of
u_g is monomial, an element of H wr Sym(t^k): the action of G on the
tuples with a label in H per column, so products compose the actions
and multiply the labels (ThetaMap.matrix, theta_matrix_product).  At
k = 1 on the inverted left transversal (induced_theta, built with
CosetData.with_reps) the amplification is the block monomial embedding
of G into t x t matrices over the algebra of H that `induce` prints; it
is checked on the generators of G on every call.  nested_theta_entry
computes any entry by nested conditional expectations, the exact
reference that the theta verify suite and the tests hold the matrices
to.

Only `induce`, the verify suites and the commutant oracle reach this
module; `index` and the graphs count commutants without it.  Tuples
are 0-based index vectors ordered lexicographically.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

# reached through its module, so that under sfw.cli's lazy registration
# it runs only when the reference entry builds an algebra element
from . import groupalgebra
from .commutant import _check_k
from .config import Config, DEFAULT
from .errors import InvariantViolationError, PreconditionError
from .permgroup import CosetData, Perm, PermGroup, right_coset_data

if TYPE_CHECKING:
    from .groupalgebra import GroupAlgebraElement


class ThetaMap:
    """The amplification of the inclusion to tuple-indexed matrices."""

    def __init__(self, cosets: CosetData, k: int, config: Config = DEFAULT):
        _check_k(k, config)
        self.cosets = cosets
        self.k = k
        self.tuples = tuple(itertools.product(range(cosets.index), repeat=k))
        self._prod = {}
        self._prod_inv = {}
        # the cosets of a tuple's suffix products, last one first, fix
        # the tuple; matrix looks its rows up by them
        self._suffix_cosets = []
        self._by_suffix_cosets = {}
        for position, tu in enumerate(self.tuples):
            p = cosets.group.identity
            suffix_cosets = []
            for i in reversed(tu):
                p = cosets.reps[i] * p
                suffix_cosets.append(cosets.coset_index(p))
            suffix_cosets = tuple(suffix_cosets)
            self._prod[tu] = p
            self._prod_inv[tu] = p.inv()
            self._suffix_cosets.append(suffix_cosets)
            self._by_suffix_cosets[suffix_cosets] = position

    def rep_product(self, tu) -> Perm:
        return self._prod[tuple(tu)]

    def matrix(self, g: Perm) -> tuple:
        """theta(g) in H wr Sym(tuples): a (row, w) pair per column.

        Column n, the tuple j = self.tuples[n], holds its one nonzero
        entry u_w in row `row`, a position in self.tuples too: the row
        tuple i is the image of j under the tuple action, a bijection of
        the tuples, and w = prod_i * g * prod_j^-1 lies in H.  Every
        other entry is zero.  nested_theta_entry computes any entry by
        nested conditional expectations and serves as the reference.

        With p_l(j) = g_{j_l} * ... * g_{j_k} the suffix products of j,
        the tuple action (action_on_tuples) gives the row i with
        H p_l(i) = H p_l(j) g^-1 for every l, and the suffix cosets fix
        a tuple.  So the row is looked up from the moved suffix cosets
        of j, at one product per coset for the whole matrix, and the
        label takes two products per column.  A label outside H is a
        fault of this code, not of the input.
        """
        cosets = self.cosets
        if g not in cosets.group:
            raise PreconditionError("element is outside the ambient group")
        H = cosets.subgroup
        moved = cosets.action(g.inv())
        out = []
        for j, suffix in zip(self.tuples, self._suffix_cosets):
            row = self._by_suffix_cosets[tuple(moved[c] for c in suffix)]
            i = self.tuples[row]
            w = self._prod[i] * g * self._prod_inv[j]
            if w not in H:
                raise InvariantViolationError(
                    "theta entry (%r, %r) of %r lies outside the subgroup"
                    % (i, j, g))
            out.append((row, w))
        return tuple(out)


def induced_theta(G: PermGroup, K: PermGroup) -> ThetaMap:
    """The block monomial map G -> M_t(L(K)) that `induce` prints.

    It is theta at k = 1 on the inverted left transversal: with a_l the
    sort-key-least element of the l-th left coset a_l K, the cosets
    listed by a_l, the representative of the right coset K a_l^-1 is
    a_l^-1, and entry (m, l) of theta(g) is u_c with
    c = a_m^-1 g a_l in K (the Kaloujnine-Krasner embedding of G into
    K wr Sym(t)).  The map takes the default config, so theta_k_cap
    does not bind it.  Multiplicativity and unitarity are checked on
    the generators of G before it is returned.
    """
    cosets = right_coset_data(G, K)
    # the left coset x K is the inverse of the right coset K x^-1
    lefts = sorted((min((rep.inv() * k for k in K.elements),
                        key=Perm.sort_key) for rep in cosets.reps),
                   key=Perm.sort_key)
    theta = ThetaMap(cosets.with_reps([a.inv() for a in lefts]), 1)
    _check_on_generators(theta)
    return theta


def _check_on_generators(theta: ThetaMap) -> None:
    """theta(g) theta(h) = theta(gh) and theta(g) theta(g)* = 1 on generators."""
    gens = theta.cosets.group.generators
    mats = {g: theta.matrix(g) for g in gens}
    for g in gens:
        for h in gens:
            if theta_matrix_product(mats[g], mats[h]) != theta.matrix(g * h):
                raise InvariantViolationError(
                    "theta is not multiplicative at (%r, %r)" % (g, h))
        # a monomial matrix over H is unitary when its rows permute its columns
        if sorted(row for row, _ in mats[g]) != list(range(len(mats[g]))):
            raise InvariantViolationError(
                "theta of %r is not unitary" % (g,))


def action_on_tuples(g: Perm, j_tuple, cosets: CosetData,
                     k: Optional[int] = None,
                     config: Config = DEFAULT) -> tuple:
    """The image tuple i with amplified-u_g entry (i, j) nonzero.

    Left action of G on index tuples: solving coset membership
    conditions from the last coordinate backwards gives each i_l
    uniquely.
    """
    j_tuple = tuple(j_tuple)
    if k is None:
        k = len(j_tuple)
    _check_k(k, config)
    if len(j_tuple) != k:
        raise PreconditionError("tuple length must equal k")
    for i in j_tuple:
        if not 0 <= i < cosets.index:
            raise PreconditionError(
                "tuple entry %r outside coset range 0..%d" % (i, cosets.index - 1))
    if g not in cosets.group:
        raise PreconditionError("element is outside the ambient group")
    reps = cosets.reps
    ginv = g.inv()
    out = [0] * k
    suffix_j = cosets.group.identity
    suffix_i = cosets.group.identity
    for l in range(k - 1, -1, -1):
        suffix_j = reps[j_tuple[l]] * suffix_j
        idx = cosets.coset_index(suffix_j * ginv * suffix_i.inv())
        out[l] = idx
        suffix_i = reps[idx] * suffix_i
    return tuple(out)


def theta_matrix_product(m1: tuple, m2: tuple) -> tuple:
    """Product of two matrices in ThetaMap.matrix form.

    Column c of m2 has w in row r, and column r of m1 has v in row
    m1[r][0], where the product has v * w.
    """
    return tuple((m1[r][0], m1[r][1] * w) for r, w in m2)


def stabilizer_matches_intersection(G: PermGroup, H: PermGroup) -> bool:
    """Stab_H(i) under the tuple action equals H intersect g_i^-1 H g_i."""
    cosets = right_coset_data(G, H)
    for i, rep in enumerate(cosets.reps):
        stab = {h for h in H.elements
                if action_on_tuples(h, (i,), cosets) == (i,)}
        conj = {rep.inv() * h * rep for h in H.elements}
        if stab != {h for h in H.elements if h in conj}:
            return False
    return True


def nested_theta_entry(cosets: CosetData, g: Perm, i_tuple,
                       j_tuple) -> GroupAlgebraElement:
    """Entry (i_tuple, j_tuple) of the amplified u_g, by nested expectations.

    Reference for ThetaMap.matrix: from the last
    coordinate backwards, y <- E_H(u_{g_{i_l}} * y * u_{g_{j_l}}^-1),
    starting from y = u_g, with honest group-algebra products.
    """
    G = cosets.group
    H = cosets.subgroup
    reps = cosets.reps
    from_perm = groupalgebra.GroupAlgebraElement.from_perm
    y = from_perm(G, g)
    for l in range(len(i_tuple) - 1, -1, -1):
        left = from_perm(G, reps[i_tuple[l]])
        right = from_perm(G, reps[j_tuple[l]].inv())
        y = groupalgebra.conditional_expectation(left * y * right, H)
    return y

