"""Standard invariant data of a finite group-subgroup inclusion.

Given H <= G with right coset representatives g_1 = e, ..., g_t, every
element of the group algebra of G amplifies to a t^k x t^k matrix over the
algebra of H, indexed by k-tuples of coset indices (the theta maps of
sfw.theta).  This module computes the dimensions of the relative
commutants of those amplifications, and the principal and dual
principal graphs with their operator norms.  Commutant dimensions are
exact orbit counts (Burnside's lemma over one histogram of fixed cosets
per (G0, H)); no theta matrix, character table or float enters them.
Both graphs take their edges from one builder that reads the exact
integer restriction matrix of a pair of character tables
(chartab.restrict), computed once per pair of groups; equal double
coset stabilizers are one group, so they share one table and one
matrix.  The squared norm of a graph is the index [G:H], certified in
integers by a positive Perron eigenvector (the odd vertex degrees); no
eigen-solve runs.
An exact brute-force reference for the dimensions (rational linear
algebra over the theta matrices and groupalgebra) is kept for the
graphs verify suite, which compares it with the orbit count, and for
the tests; no other path calls it.
"""

from __future__ import annotations

from typing import NamedTuple

# reached through their modules, so that under sfw.cli's lazy
# registration they run only when a table or an algebra element is
# built: `index` needs neither, and only the oracle builds elements
from . import chartab, groupalgebra
from .config import Config, DEFAULT
from .errors import (
    CapExceededError,
    InvariantViolationError,
    PreconditionError,
    SubgroupError,
)
from .permgroup import PermGroup, double_coset_data, right_coset_data

IN_SUBGROUP = "in-L(H)"
IN_GROUP = "in-L(G)"
SIDES = (IN_SUBGROUP, IN_GROUP)


def _check_k(k: int, config: Config) -> None:
    if k < 1:
        raise PreconditionError("tuple length k=%d must be positive" % k)
    if k > config.theta_k_cap:
        raise CapExceededError(
            "tuple length k=%d exceeds cap %d" % (k, config.theta_k_cap))


# ---------------------------------------------------------------------------
# relative commutants

def relative_commutant_dim(G: PermGroup, G0: PermGroup, H: PermGroup,
                           k: int, side: str,
                           config: Config = DEFAULT) -> int:
    """Dimension of the relative commutant of the amplified copy of G0.

    side selects where the commutant is formed: IN_SUBGROUP means inside
    the t^k x t^k matrices over the subgroup algebra, IN_GROUP inside
    matrices over the full group algebra.  With N and M the algebras of
    H and G, the four combinations (G0 in {H, G}) x side give the tower
    relative commutants N' or M' intersected with M_{2k-1} or M_{2k}.

    A tuple is determined by its sequence of suffix cosets, and on those
    the tuple action is the diagonal action of G on (H\\G)^k by right
    multiplication.  The dimension is therefore the number of G0-orbits
    on (H\\G)^n, with n = 2k for IN_GROUP and n = 2k - 1 for
    IN_SUBGROUP, and Burnside's lemma counts them exactly: the sum over
    g in G0 of fix(g)^n divided by |G0|, where fix(g) is the number of
    cosets Hx with Hxg = Hx.  Every k and both sides read one histogram
    of fix over G0 (see _fixed_point_histogram).
    """
    if side not in SIDES:
        raise PreconditionError("side must be one of %r" % (SIDES,))
    _check_k(k, config)
    if not H.is_subgroup_of(G0) or not G0.is_subgroup_of(G):
        raise SubgroupError("need H <= G0 <= G")
    n = 2 * k if side == IN_GROUP else 2 * k - 1
    total = sum(count * fixed ** n
                for fixed, count in _fixed_point_histogram(G, G0, H).items())
    dim, rest = divmod(total, G0.order)
    if rest:
        raise InvariantViolationError(
            "Burnside sum %d is not divisible by |G0| = %d"
            % (total, G0.order))
    return dim


def _fixed_point_histogram(G: PermGroup, G0: PermGroup,
                           H: PermGroup) -> dict:
    """{fix: number of g in G0 fixing exactly fix cosets of H\\G}.

    One pass over G0, kept in G0's cache keyed by (G, H).
    """
    def compute():
        cosets = right_coset_data(G, H)
        coset_of = cosets.coset_of
        histogram = {}
        for g in G0.elements:
            fixed = sum(1 for i, rep in enumerate(cosets.reps)
                        if coset_of[rep * g] == i)
            histogram[fixed] = histogram.get(fixed, 0) + 1
        return histogram
    return G0.cached(("fixed_points", G, H), compute)


# ---------------------------------------------------------------------------
# exact brute-force oracle: commutant dimensions

def _rational_rank(rows) -> int:
    """Rank of a sparse rational matrix, exact Gaussian elimination.

    rows: iterable of {column: Fraction}.
    """
    from fractions import Fraction
    pivots = {}
    rank = 0
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            if c in pivots:
                piv = pivots[c]
                factor = row[c] / piv[c]
                for cc, vv in piv.items():
                    nv = row.get(cc, Fraction(0)) - factor * vv
                    if nv:
                        row[cc] = nv
                    else:
                        row.pop(cc, None)
            else:
                pivots[c] = row
                rank += 1
                break
    return rank


def brute_force_commutant_dim(G: PermGroup, G0: PermGroup, H: PermGroup,
                              k: int, side: str,
                              config: Config = DEFAULT) -> int:
    """Same dimension as relative_commutant_dim, by literal linear algebra.

    The ambient space consists of tuple-indexed matrices whose (i, j)
    entry is an unknown scalar times u_{g_i-bar * g_j-bar^-1}; for
    side IN_SUBGROUP the entry must also land inside the subgroup.  The
    commutation equations against the amplified generators of G0 are
    expanded with honest group-algebra products and solved by exact
    rational elimination.
    """
    from fractions import Fraction
    # theta takes _check_k from this module, so it is imported here
    from .theta import ThetaMap
    if side not in SIDES:
        raise PreconditionError("side must be one of %r" % (SIDES,))
    _check_k(k, config)
    if not H.is_subgroup_of(G0) or not G0.is_subgroup_of(G):
        raise SubgroupError("need H <= G0 <= G")
    cosets = right_coset_data(G, H)
    # up to t^(2k) unknowns, one per pair of tuples, and the commutation
    # equations are expanded over the elements of G
    size = G.order * cosets.index ** (2 * k)
    if size > config.oracle_cap:
        raise CapExceededError(
            "oracle size %d exceeds cap %d" % (size, config.oracle_cap))
    theta = ThetaMap(cosets, k, config)
    tuples = theta.tuples
    from_perm = groupalgebra.GroupAlgebraElement.from_perm
    unknown = {}
    entry_perm = {}
    for a in tuples:
        for b in tuples:
            w = theta.rep_product(a) * theta.rep_product(b).inv()
            if side == IN_SUBGROUP and w not in H:
                continue
            entry_perm[(a, b)] = w
            unknown[(a, b)] = len(unknown)
    rows = []
    for g0 in G0.generators:
        act, inv_act, mat = {}, {}, {}
        for j, (row, w) in zip(tuples, theta.matrix(g0)):
            i = tuples[row]
            act[j], inv_act[i] = i, j
            mat[(i, j)] = from_perm(H, w)
        for a in tuples:
            for b in tuples:
                # coefficient function of (x * Theta(g0) - Theta(g0) * x)_(a, b)
                expr = {}
                kk = act[b]
                if (a, kk) in unknown:
                    val = from_perm(G, entry_perm[(a, kk)]) * mat[(kk, b)]
                    for p, c in val.coeffs.items():
                        expr.setdefault(p, {})[unknown[(a, kk)]] = \
                            expr.get(p, {}).get(unknown[(a, kk)], Fraction(0)) \
                            + Fraction(c.real)
                ll = inv_act[a]
                if (ll, b) in unknown:
                    val = mat[(a, ll)] * from_perm(G, entry_perm[(ll, b)])
                    for p, c in val.coeffs.items():
                        cur = expr.setdefault(p, {})
                        cur[unknown[(ll, b)]] = \
                            cur.get(unknown[(ll, b)], Fraction(0)) \
                            - Fraction(c.real)
                for p, row in expr.items():
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        rows.append(row)
    return len(unknown) - _rational_rank(rows)


# ---------------------------------------------------------------------------
# principal graphs

class GraphVertex(NamedTuple):
    """A vertex labeled by an irreducible character of a finite group."""

    label: str
    group_index: int
    irrep_index: int
    degree: int


class BipartiteMultiGraph(NamedTuple):
    """Connected bipartite multigraph with a designated even vertex.

    edges are (even_index, odd_index, multiplicity) triples.  The odd
    vertex carrying the trivial character is marked separately so both
    base points stay visible in emitted data.
    """

    even: tuple
    odd: tuple
    edges: tuple
    designated: str
    marked_odd: str
    norm_squared: float


def _component(seed_even: int, n_even: int, n_odd: int, edges) -> tuple:
    """Vertex sets of the connected component containing an even seed."""
    adj_e = {i: set() for i in range(n_even)}
    adj_o = {i: set() for i in range(n_odd)}
    for e, o, m in edges:
        if m:
            adj_e[e].add(o)
            adj_o[o].add(e)
    even_in = {seed_even}
    odd_in = set()
    frontier_e = [seed_even]
    frontier_o = []
    while frontier_e or frontier_o:
        new_o = {o for e in frontier_e for o in adj_e[e]} - odd_in
        odd_in |= new_o
        frontier_o = list(new_o)
        new_e = {e for o in frontier_o for e in adj_o[o]} - even_in
        even_in |= new_e
        frontier_e = list(new_e)
    return even_in, odd_in


def _assemble_graph(even, odd, edges, designated_idx, marked_odd_idx,
                    index: int) -> BipartiteMultiGraph:
    """The component of the designated vertex, with its norm certified.

    With B the even-by-odd multiplicity matrix of the component and d
    the odd vertex degrees, B d is the vector of even weights (deg chi
    on the dual graph, [H:K_i] deg sigma on the principal graph), and
    Frobenius reciprocity gives B^T B d = [G:H] d.  That identity is
    checked in integers.  d is positive, and a non-negative matrix with
    a positive eigenvector has its eigenvalue as spectral radius, so
    the squared norm of B is exactly [G:H] (Goodman, de la Harpe and
    Jones, Coxeter Graphs and Towers of Algebras, ch. 1).
    """
    even_in, odd_in = _component(designated_idx, len(even), len(odd), edges)
    if marked_odd_idx not in odd_in:
        raise InvariantViolationError(
            "trivial odd vertex fell outside the designated component")
    even_map = {old: new for new, old in enumerate(sorted(even_in))}
    odd_map = {old: new for new, old in enumerate(sorted(odd_in))}
    kept_even = tuple(even[i] for i in sorted(even_in))
    kept_odd = tuple(odd[i] for i in sorted(odd_in))
    kept_edges = tuple(sorted((even_map[e], odd_map[o], m)
                              for e, o, m in edges
                              if m and e in even_in and o in odd_in))
    even_weight = [0] * len(kept_even)
    for e, o, m in kept_edges:
        even_weight[e] += m * kept_odd[o].degree
    odd_weight = [0] * len(kept_odd)
    for e, o, m in kept_edges:
        odd_weight[o] += m * even_weight[e]
    for v, w in zip(kept_odd, odd_weight):
        if w != index * v.degree:
            raise InvariantViolationError(
                "Perron certificate fails at %s: B^T B d gives %d, "
                "want [G:H] * %d = %d" % (v.label, w, v.degree,
                                          index * v.degree))
    return BipartiteMultiGraph(
        kept_even, kept_odd, kept_edges,
        even[designated_idx].label, odd[marked_odd_idx].label,
        float(index))


def _vertices(table, prefix: str, group_index: int) -> list:
    """One vertex per irreducible character of the table."""
    return [GraphVertex("%s:chi%d" % (prefix, j), group_index, j, d)
            for j, d in enumerate(table.degrees)]


def _restriction_edges(big_table, small_table) -> list:
    """Edges (b, s, m) from a group's character table to a subgroup's.

    m > 0 is the multiplicity of the subgroup's irreducible s in the
    restriction of the group's irreducible b.
    """
    return [(b, s, m)
            for b, row in enumerate(chartab.restrict(big_table, small_table))
            for s, m in enumerate(row) if m]


def principal_graph(G: PermGroup, H: PermGroup,
                    config: Config = DEFAULT) -> BipartiteMultiGraph:
    """Principal graph of the inclusion, from double coset stabilizers.

    Even vertices are irreducible characters of the stabilizers K_i of
    the double cosets, odd vertices are characters of H, and the edge
    multiplicity is the multiplicity of the even character inside the
    restriction of the odd one to K_i.  Only the connected component of
    the trivial characters is returned; the designated vertex is the
    trivial character of K_1 = H.  The graph depends on no setting;
    config is accepted for callers that pass one.
    """
    dc = double_coset_data(G, H)
    h_tab = chartab.character_table(H)
    even = []
    edges = []
    for i, K in enumerate(dc.stabilizers):
        k_tab = chartab.character_table(K)
        offset = len(even)
        even.extend(_vertices(k_tab, "K%d" % (i + 1), i))
        edges.extend((offset + s, b, m)
                     for b, s, m in _restriction_edges(h_tab, k_tab))
    odd = _vertices(h_tab, "H", 0)
    # K_1 is H and its vertices come first
    trivial = h_tab.trivial_index()
    return _assemble_graph(even, odd, edges, trivial, trivial,
                           G.order // H.order)


def dual_principal_graph(G: PermGroup, H: PermGroup,
                         config: Config = DEFAULT) -> BipartiteMultiGraph:
    """Dual principal graph: characters of G against characters of H.

    Edge multiplicity is the multiplicity of the odd (subgroup)
    character inside the restriction of the even (group) character.
    The designated vertex is the trivial character of G.  config is
    accepted as in principal_graph.
    """
    if not H.is_subgroup_of(G):
        raise SubgroupError("need H <= G")
    g_tab = chartab.character_table(G)
    h_tab = chartab.character_table(H)
    return _assemble_graph(_vertices(g_tab, "G", 0), _vertices(h_tab, "H", 0),
                           _restriction_edges(g_tab, h_tab),
                           g_tab.trivial_index(), h_tab.trivial_index(),
                           G.order // H.order)
