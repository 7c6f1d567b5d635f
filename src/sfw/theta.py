"""The amplification (theta) maps of a group-subgroup inclusion.

With right coset representatives g_1 = e, ..., g_t of H in G, every
element of the group algebra of G amplifies to a t^k x t^k matrix over
the algebra of H, indexed by k-tuples of coset indices.  The image of
u_g is monomial, an element of H wr Sym(t^k): the action of G on the
tuples with a label in H per column, so products compose the actions
and multiply the labels (ThetaMap.matrix, theta_matrix_product).  At
k = 1 on the inverted left transversal (induced_theta, built with
CosetData.with_reps) the amplification is the block monomial embedding
of G into t x t matrices over the algebra of H that `induce` prints.
theta is a homomorphism by construction (ThetaMap.matrix), and only the
theta verify suite checks it.  nested_theta_entry computes any entry by
nested conditional expectations, the reference that the suite holds the
matrices to.  Each expectation of a single basis element u_x is u_x or
zero, so the reference is a chain of group products with one membership
test in H per level.

Only `induce`, the verify suites and the commutant oracle reach this
module; `index` and the graphs count commutants without it.  Tuples
are 0-based index vectors ordered lexicographically.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .commutant import _check_k
from .config import Config, DEFAULT
from .errors import InvariantViolationError, PreconditionError
from .permgroup import CosetData, Perm, PermGroup, right_coset_data


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
        # the tuple; matrix looks its rows up by them, and finds one for
        # every tuple of cosets once the t^k of them are distinct
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
        if len(self._by_suffix_cosets) != len(self.tuples):
            raise InvariantViolationError(
                "two index tuples share their suffix cosets, so the "
                "representatives do not lie in distinct cosets")

    def rep_product(self, tu) -> Perm:
        return self._prod[tuple(tu)]

    def matrix(self, g: Perm) -> tuple:
        """theta(g) in H wr Sym(tuples): a (row, w) pair per column.

        Column n, the tuple j = self.tuples[n], holds its one nonzero
        entry u_w in row `row`, the tuple i = self.tuples[row] with
        H p_l(i) = H p_l(j) g^-1 for every l, where p_l(j) = g_{j_l} *
        ... * g_{j_k} are the suffix products; w = p_i g p_j^-1 lies in H.
        The row is looked up from the moved suffix cosets of j, at one
        product per coset for the whole matrix, and the label takes two
        products per column.  A label outside H is a fault of this code,
        not of the input.  nested_theta_entry is the reference.

        theta is a unitary homomorphism by construction, so no call
        checks it.  The labels compose: p_i g p_j^-1 p_j h p_l^-1 =
        p_i gh p_l^-1.  The rows compose, since they are read off
        CosetData.action(g^-1), a homomorphism.  theta(g) is unitary, its
        rows being the image of a bijection: one permutation moves the
        t^k distinct suffix-coset tuples, which fill [t]^k.
        """
        cosets = self.cosets
        _check_element(cosets, g)
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


def _check_element(cosets: CosetData, g: Perm) -> None:
    if g not in cosets.group:
        raise PreconditionError("element %s is outside the group"
                                % g.cycle_string())


def induced_theta(G: PermGroup, K: PermGroup) -> ThetaMap:
    """The block monomial map G -> M_t(L(K)) that `induce` prints.

    It is theta at k = 1 on the inverted left transversal: with a_l the
    sort-key-least element of the l-th left coset a_l K, the cosets
    listed by a_l, the representative of the right coset K a_l^-1 is
    a_l^-1, and entry (m, l) of theta(g) is u_c with
    c = a_m^-1 g a_l in K (the Kaloujnine-Krasner embedding of G into
    K wr Sym(t)).  The map takes the default config, so theta_k_cap
    does not bind it.  It is a unitary homomorphism by construction
    (ThetaMap.matrix); the theta:<case>:induced verify case checks it.
    """
    cosets = right_coset_data(G, K)
    # the left coset x K is the inverse of the right coset K x^-1
    lefts = sorted((min((rep.inv() * k for k in K.elements),
                        key=Perm.sort_key) for rep in cosets.reps),
                   key=Perm.sort_key)
    return ThetaMap(cosets.with_reps([a.inv() for a in lefts]), 1)


def theta_matrix_product(m1: tuple, m2: tuple) -> tuple:
    """Product of two matrices in ThetaMap.matrix form.

    Column c of m2 has w in row r, and column r of m1 has v in row
    m1[r][0], where the product has v * w.
    """
    return tuple((m1[r][0], m1[r][1] * w) for r, w in m2)


def verify_stabilizers(G: PermGroup, H: PermGroup) -> None:
    """Stab_H(i) under the coset action equals H intersect g_i^-1 H g_i.

    h fixes the coset H g_i exactly when g_i h g_i^-1 lies in H.  The
    first (h, i) where the two disagree raises InvariantViolationError
    with that witness.
    """
    cosets = right_coset_data(G, H)
    pairs = tuple(enumerate(zip(cosets.reps, map(Perm.inv, cosets.reps))))
    for h in H.elements:
        moved = cosets.action(h)
        for i, (rep, rep_inv) in pairs:
            if (moved[i] == i) != (rep * h * rep_inv in H):
                raise InvariantViolationError(
                    "stabilizer of the coset differs from the "
                    "intersection", (h, i))


def nested_theta_entry(cosets: CosetData, g: Perm, i_tuple,
                       j_tuple) -> Optional[Perm]:
    """Entry (i_tuple, j_tuple) of the amplified u_g, by nested expectations.

    Reference for ThetaMap.matrix: from the last coordinate backwards,
    y <- E_H(u_{g_{i_l}} * y * u_{g_{j_l}}^-1), starting from y = u_g.
    y stays one basis element u_w or zero, so w <- g_{i_l} w g_{j_l}^-1
    with a membership test in H at each level.  Returns the label w in
    H of a nonzero entry, or None for a zero one.
    """
    _check_element(cosets, g)
    H = cosets.subgroup
    reps = cosets.reps
    w = g
    for l in range(len(i_tuple) - 1, -1, -1):
        w = reps[i_tuple[l]] * w * reps[j_tuple[l]].inv()
        if w not in H:
            return None
    return w
