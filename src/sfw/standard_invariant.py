"""Principal graphs of a finite group-subgroup inclusion, and the oracle.

Both graphs take their edges from one builder that reads the exact
integer restriction matrix of a pair of character tables
(chartab.restrict), computed once per pair of groups; equal double
coset stabilizers are one group, so they share one table and one
matrix.  The squared norm of a graph is the index [G:H], certified in
integers by a positive Perron eigenvector (the odd vertex degrees); no
eigen-solve runs.
An exact brute-force reference for the relative commutant dimensions
(the commutation equations with the theta matrices, expanded over the
group by products of group elements and ranked by fraction-free
elimination in integers) is kept for the graphs verify suite, which
compares it with the orbit count of sfw.commutant, and for the tests;
no other path calls it.
The orbit count and its names live in sfw.commutant, so that `index`
runs neither the graphs nor the oracle; they are imported here too, for
callers that take them from this module.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, NamedTuple

# reached through its module, so that under sfw.cli's lazy registration
# it runs only when a table is built
from . import chartab
from .commutant import (
    IN_GROUP,
    IN_SUBGROUP,
    SIDES,
    _check_tower,
    relative_commutant_dim,
)
from .config import Config, DEFAULT
from .errors import CapExceededError, InvariantViolationError
from .permgroup import (
    PermGroup,
    double_coset_data,
    require_subgroup,
    right_coset_data,
    right_mul,
)

if TYPE_CHECKING:
    from .theta import ThetaMap


# ---------------------------------------------------------------------------
# exact brute-force oracle: commutant dimensions

def _integer_rank(rows) -> int:
    """Rank of a sparse integer matrix, by fraction-free elimination.

    rows: iterable of {column: int}.  Each row is divided by the gcd of
    its entries, so the entries stay small, and reduced at its least
    column c against the pivot row kept for c, as piv[c] * row -
    row[c] * piv (over their gcd), which cancels c and leaves the span
    unchanged since piv[c] is not zero.  A row that reaches a column
    with no pivot becomes its pivot; the pivots are in echelon form, so
    their number is the rank.
    """
    pivots = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            g = gcd(*row.values())
            if g != 1:
                row = {c: v // g for c, v in row.items()}
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            g = gcd(piv[c], row[c])
            a, b = piv[c] // g, row[c] // g
            row = {cc: a * v for cc, v in row.items()}
            for cc, v in piv.items():
                nv = row.get(cc, 0) - b * v
                if nv:
                    row[cc] = nv
                else:
                    del row[cc]
    return len(pivots)


class _OracleTables(NamedTuple):
    """What the oracle needs of (G, H, k), whatever G0 and the side.

    theta amplifies the generators of G0; entries[a][b] is the element
    g_a-bar * g_b-bar^-1 of the entry (a, b) of x, for tuple positions
    a and b, and right[a][b] is the map p -> p * entries[a][b].
    """

    theta: ThetaMap
    entries: tuple
    right: tuple


def _oracle_tables(G: PermGroup, H: PermGroup, k: int,
                   config: Config) -> _OracleTables:
    """The oracle's tables for (G, H, k), kept in G's cache."""

    def build():
        # imported here, so that the graphs never run sfw.theta
        from .theta import ThetaMap
        theta = ThetaMap(right_coset_data(G, H), k, config)
        prods = [theta.rep_product(tu) for tu in theta.tuples]
        inverses = [p.inv() for p in prods]
        entries = tuple(tuple(p * q for q in inverses) for p in prods)
        right = tuple(tuple(map(right_mul, row)) for row in entries)
        return _OracleTables(theta, entries, right)

    return G.cached(("commutant_oracle", H, k), build)


def brute_force_commutant_dim(G: PermGroup, G0: PermGroup, H: PermGroup,
                              k: int, side: str,
                              config: Config = DEFAULT) -> int:
    """Same dimension as relative_commutant_dim, by literal linear algebra.

    The ambient space consists of tuple-indexed matrices whose (a, b)
    entry is an unknown scalar times u_{g_a-bar * g_b-bar^-1}; for
    side IN_SUBGROUP the entry must also land inside the subgroup.  The
    commutation equations against the amplified generators of G0 are
    expanded over the group: every entry of x and of theta(g0) is one
    basis element u_w with coefficient 1, so each product of entries
    is the basis element of the product of the two group elements, and
    the coefficient of each group element gives one integer equation.
    Their rank comes from exact fraction-free elimination in integers.
    """
    _check_tower(G, G0, H, k, side, config)
    index = right_coset_data(G, H).index
    # up to t^(2k) unknowns, one per pair of tuples, and the commutation
    # equations are expanded over the elements of G
    size = G.order * index ** (2 * k)
    if size > config.oracle_cap:
        raise CapExceededError("oracle size", size, config.oracle_cap,
                               "oracle_cap")
    theta, entries, right = _oracle_tables(G, H, k, config)
    positions = range(len(theta.tuples))
    # unknown[a][b] numbers the unknown of entry (a, b), None where the
    # entry must vanish
    count = 0
    unknown = []
    for row in entries:
        numbers = []
        for w in row:
            if side == IN_SUBGROUP and w not in H:
                numbers.append(None)
            else:
                numbers.append(count)
                count += 1
        unknown.append(numbers)
    rows = []
    for g0 in G0.generators:
        # column n of theta(g0) holds u_{label[n]} in row act[n]
        act, label = zip(*theta.matrix(g0))
        inv_act = [0] * len(act)
        for n, row in enumerate(act):
            inv_act[row] = n
        times_label = [right_mul(w) for w in label]
        for a in positions:
            # theta(g0)_(a, d) is the one entry of row a
            d = inv_act[a]
            left_label = label[d]
            for b in positions:
                # (x theta(g0) - theta(g0) x)_(a, b) is
                # x_(a, c) theta(g0)_(c, b) - theta(g0)_(a, d) x_(d, b):
                # one equation per group element it has a coefficient at
                expr = {}
                c = act[b]
                u = unknown[a][c]
                if u is not None:
                    expr[times_label[b](entries[a][c])] = {u: 1}
                u = unknown[d][b]
                if u is not None:
                    row = expr.setdefault(right[d][b](left_label), {})
                    row[u] = row.get(u, 0) - 1
                rows.extend(expr.values())
    return count - _integer_rank(rows)


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
    require_subgroup(G, H)
    g_tab = chartab.character_table(G)
    h_tab = chartab.character_table(H)
    return _assemble_graph(_vertices(g_tab, "G", 0), _vertices(h_tab, "H", 0),
                           _restriction_edges(g_tab, h_tab),
                           g_tab.trivial_index(), h_tab.trivial_index(),
                           G.order // H.order)
