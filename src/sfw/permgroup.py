"""Finite permutation groups with exact arithmetic.

Conventions used throughout the package:

- Points are 0-based: a permutation of degree n acts on {0, ..., n-1}.
- A permutation is the tuple of its images: Perm is a tuple subclass,
  and p[x] is the image of x.  Hashing, equality and ordering are the
  tuple's own, in C.  The hot loops compose image tuples through
  operator.itemgetter (right_mul, conjugator) and never call Perm
  methods per element.
- Composition is rightmost-first: (a * b)(x) == a(b(x)).
- Group elements are enumerated in lexicographic order of their
  images, so the identity is always element 0.
- Coset and double coset representatives are chosen canonically: the
  minimum of the coset under the key (number of moved points, moved
  points, images).  Under this key the identity is the global minimum,
  so the coset of the subgroup itself always comes first and its
  representative is the identity.  CosetData.with_reps relabels those
  cosets by another transversal, in another order; the theta map of
  `induce` and the crossed product decomposition take theirs that way.
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from typing import (
    Callable,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

from .config import Config, DEFAULT
from .errors import (
    CapExceededError,
    InvalidActionError,
    InvariantViolationError,
    NotNormalError,
    ParseError,
    PreconditionError,
    SubgroupError,
)


class Perm(tuple):
    """An element of a finite symmetric group: the tuple of its images.

    p[x] is the image of x.  Being a tuple, a Perm hashes, compares and
    sorts by its images in C, and a plain tuple of the same images is an
    equal dictionary key.
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Perm":
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for x in images:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError("not a bijection on 0..%d: %r" % (n - 1, images))
            seen[x] = True
        return _perm(images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Perm":
        """Product of the given cycles, rightmost cycle applied first."""
        result = cls.identity(degree)
        for cycle in reversed(list(cycles)):
            images = list(range(degree))
            for a, b in zip(cycle, cycle[1:]):
                if not (0 <= a < degree and 0 <= b < degree):
                    raise ValueError("cycle point out of range 0..%d" % (degree - 1))
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
            result = cls(images) * result
        return result

    @property
    def images(self) -> tuple:
        return tuple(self)

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, x: int) -> int:
        return self[x]

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("degree mismatch: %d vs %d" % (len(self), len(other)))
        if len(other) < 2:
            return self  # both are the identity
        return _perm(itemgetter(*other)(self))

    def __rmul__(self, other):
        # a tuple would repeat itself: 2 * p is no product
        return NotImplemented

    def __add__(self, other):
        # nor is p + q a concatenation
        return NotImplemented

    def inv(self) -> "Perm":
        out = [0] * len(self)
        for x, y in enumerate(self):
            out[y] = x
        return _perm(out)

    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self))

    def support(self) -> tuple:
        return tuple(x for x, i in enumerate(self) if i != x)

    def sort_key(self):
        """Canonical key for representative selection; identity is minimal."""
        moved = self.support()
        return (len(moved), moved, self)

    def order(self) -> int:
        n = 1
        p = self
        while not p.is_identity():
            p = p * self
            n += 1
        return n

    def cycles(self) -> list:
        """Disjoint cycles of length >= 2, each starting at its least point."""
        seen = set()
        out = []
        for start in range(len(self)):
            if start in seen or self[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            x = self[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self[x]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(%s)" % " ".join(str(x) for x in c) for c in cycs)

    def __repr__(self) -> str:
        return "Perm[%s]" % self.cycle_string()


# A Perm from images known to be a bijection, without the check.
_perm = functools.partial(tuple.__new__, Perm)


def right_mul(g: Perm) -> Callable[[tuple], tuple]:
    """The map p -> p * g on image tuples, as one C call.

    itemgetter(*g)(p) is the tuple of p[g[x]], that is p * g.  Given one
    index, itemgetter returns a scalar, so for degree 1 (where g is the
    identity) the map is tuple.  The result is a plain tuple, which looks
    up the Perm with the same images in any dict or set.
    """
    return itemgetter(*g) if len(g) > 1 else tuple


def conjugator(g: Perm) -> Callable[[tuple], tuple]:
    """The map x -> g * x * g^-1 on image tuples.

    x * g^-1 is one precomputed itemgetter; g * y is itemgetter(*y)(g).
    """
    if len(g) < 2:
        return tuple
    after = itemgetter(*g.inv())
    return lambda x: itemgetter(*after(x))(g)


def parse_cycle_string(degree: int, text: str) -> Perm:
    """Parse "(0 1)(2 3)" style notation.  "()" or "" is the identity."""
    text = text.strip()
    if text in ("", "()"):
        return Perm.identity(degree)
    if not text.startswith("(") or not text.endswith(")"):
        raise ParseError("cycle string must look like \"(0 1)(2 3)\": %r" % text)
    cycles = []
    for chunk in text[1:-1].split(")("):
        pts = []
        for tok in chunk.replace(",", " ").split():
            try:
                pts.append(int(tok))
            except ValueError:
                raise ParseError("bad point %r in cycle string %r" % (tok, text)) from None
        if len(set(pts)) != len(pts):
            raise ParseError("repeated point inside one cycle: %r" % text)
        cycles.append(pts)
    try:
        return Perm.from_cycles(degree, cycles)
    except ValueError as e:
        raise ParseError("%s in cycle string %r" % (e, text)) from None


def mulclose(generators: Sequence[Perm], cap: int) -> list:
    """Breadth-first closure of the generators under multiplication.

    Raises CapExceededError as soon as more than cap elements appear.
    Products are image tuples composed by right_mul; the elements come
    back as Perms, in the order found.
    """
    if not generators:
        raise ValueError("mulclose needs at least one element")
    degree = generators[0].degree
    if any(len(g) != degree for g in generators):
        raise ValueError("mulclose needs generators of one degree")
    steps = [right_mul(g) for g in generators]
    identity = tuple(range(degree))
    seen = {identity}
    found = [identity]
    # found grows while it is read, one level after the other
    for p in found:
        for step in steps:
            q = step(p)
            if q not in seen:
                if len(seen) >= cap:
                    raise CapExceededError(
                        "group order exceeds cap %d" % cap)
                seen.add(q)
                found.append(q)
    return list(map(_perm, found))


class PermGroup:
    """A finite permutation group, fully enumerated at construction."""

    def __init__(self, degree: int, generators: Iterable[Perm],
                 config: Config = DEFAULT):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise PreconditionError(
                    "generator degree %d does not match group degree %d"
                    % (g.degree, degree))
        gens = tuple(g for g in generators if not g.is_identity())
        elements = mulclose(gens or (Perm.identity(degree),), config.order_cap)
        elements.sort()
        self.degree = degree
        self.generators = gens if gens else (Perm.identity(degree),)
        self.elements = tuple(elements)
        self.order = len(elements)
        self._index = dict(zip(elements, range(len(elements))))
        # elements never change, so the hash is computed once
        self._hash = hash((degree, self.elements))
        self._cache = {}

    @property
    def identity(self) -> Perm:
        return self.elements[0]

    def __contains__(self, p) -> bool:
        return isinstance(p, Perm) and p in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def element_index(self, p: Perm) -> int:
        return self._index[p]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PermGroup) and self.degree == other.degree
                and self.elements == other.elements)

    def __hash__(self) -> int:
        return self._hash

    def cached(self, key, compute: Callable[[], object]):
        """The value stored under key for this group, computed on first use.

        Derived data (cosets, classes, character tables) lives here, so it
        is freed together with the group.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    def __repr__(self) -> str:
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree or self.order > other.order:
            return False
        return all(p in other for p in self.elements)

    def subgroup(self, generators: Iterable[Perm],
                 config: Config = DEFAULT) -> "PermGroup":
        sub = PermGroup(self.degree, generators, config)
        if not sub.is_subgroup_of(self):
            raise SubgroupError("generated group is not inside the parent")
        return sub

    def center(self) -> tuple:
        return self.cached("center", lambda: tuple(
            p for p in self.elements
            if all(p * g == g * p for g in self.generators)))

    def element_order_histogram(self) -> dict:
        hist = {}
        for p in self.elements:
            n = p.order()
            hist[n] = hist.get(n, 0) + 1
        return hist


def symmetric_group(n: int, config: Config = DEFAULT) -> PermGroup:
    if n <= 1:
        return PermGroup(max(n, 1), (), config)
    gens = [Perm.from_cycles(n, [list(range(n))]), Perm.from_cycles(n, [[0, 1]])]
    return PermGroup(n, gens, config)


def alternating_group(n: int, config: Config = DEFAULT) -> PermGroup:
    if n <= 2:
        return PermGroup(max(n, 1), (), config)
    gens = [Perm.from_cycles(n, [[i, i + 1, i + 2]]) for i in range(n - 2)]
    return PermGroup(n, gens, config)


def cyclic_group(n: int, config: Config = DEFAULT) -> PermGroup:
    if n <= 1:
        return PermGroup(max(n, 1), (), config)
    return PermGroup(n, [Perm.from_cycles(n, [list(range(n))])], config)


class ConjClassData(NamedTuple):
    """Conjugacy classes: canonical reps, sizes, and element -> class map.

    Classes are sorted by (size, least element by images), and each rep
    is the least element of its class, so the identity's class is first.
    """

    group: PermGroup
    reps: tuple
    sizes: tuple
    class_of: Mapping[Perm, int]

    @property
    def count(self) -> int:
        return len(self.reps)

    def class_index(self, p: Perm) -> int:
        return self.class_of[p]


def conjugacy_classes(G: PermGroup) -> ConjClassData:
    """Classes of G with an element -> class map, kept in G's cache."""
    return G.cached("conjugacy_classes", lambda: _conjugacy_classes(G))


def _conjugacy_classes(G: PermGroup) -> ConjClassData:
    # elements run in images order, so each orbit is found from its least
    # element and the orbit number n grows with that element: sorting on
    # (size, n) sorts on (size, least element)
    conjugates = [conjugator(g) for g in G.generators if not g.is_identity()]
    orbit_of = {}
    reps, sizes = [], []
    for p in G.elements:
        if p in orbit_of:
            continue
        n = len(reps)
        orbit_of[p] = n
        frontier = [p]
        size = 1
        while frontier:
            x = frontier.pop()
            for conj in conjugates:
                y = conj(x)
                if y not in orbit_of:
                    orbit_of[y] = n
                    frontier.append(y)
                    size += 1
        reps.append(p)
        sizes.append(size)
    order = sorted(range(len(reps)), key=lambda n: (sizes[n], n))
    rank = {n: i for i, n in enumerate(order)}
    # keyed by the elements themselves, not by the image tuples found
    class_of = {x: rank[orbit_of[x]] for x in G.elements}
    return ConjClassData(G, tuple(reps[n] for n in order),
                         tuple(sizes[n] for n in order), class_of)


def _require_subgroup(G: PermGroup, H: PermGroup) -> None:
    if not H.is_subgroup_of(G):
        raise SubgroupError(
            "not a subgroup: degree %d order %d inside degree %d order %d"
            % (H.degree, H.order, G.degree, G.order))


class CosetData(NamedTuple):
    """Right cosets H\\G.  reps[0] is the identity; index = [G:H]."""

    group: PermGroup
    subgroup: PermGroup
    reps: tuple
    index: int
    coset_of: Mapping[Perm, int]

    def coset_index(self, g: Perm) -> int:
        return self.coset_of[g]

    def coset_elements(self, i: int) -> list:
        rep = self.reps[i]
        return sorted(h * rep for h in self.subgroup.elements)

    def with_reps(self, reps: Sequence[Perm]) -> "CosetData":
        """The same cosets, represented by reps and listed in their order.

        reps must hold one element of every coset, the identity first,
        so that callers needing another transversal (inverted left
        coset minima, the largest elements) relabel this one instead of
        partitioning G again.
        """
        reps = tuple(reps)
        old = [self.coset_of.get(rep) for rep in reps]
        if len(reps) != self.index or set(old) != set(range(self.index)):
            raise PreconditionError(
                "a relabelling needs one representative per coset")
        if not reps[0].is_identity():
            raise PreconditionError(
                "a relabelling must represent the subgroup by the identity")
        position = {i: n for n, i in enumerate(old)}
        coset_of = {x: position[i] for x, i in self.coset_of.items()}
        return CosetData(self.group, self.subgroup, reps, self.index,
                         coset_of)


def right_coset_data(G: PermGroup, H: PermGroup) -> CosetData:
    """Partition G into right cosets H*g with canonical representatives.

    The result is kept in G's cache, keyed by H.
    """
    return G.cached(("right_cosets", H), lambda: _right_cosets(G, H))


def _right_cosets(G: PermGroup, H: PermGroup) -> CosetData:
    _require_subgroup(G, H)
    assigned = {}
    reps = []
    for g in sorted(G.elements, key=Perm.sort_key):
        if g in assigned:
            continue
        assigned.update(dict.fromkeys(map(right_mul(g), H.elements),
                                      len(reps)))
        reps.append(g)
    index = len(reps)
    if index * H.order != G.order:
        raise InvariantViolationError(
            "coset partition inconsistent: %d cosets of size %d in order %d"
            % (index, H.order, G.order))
    # keyed by the elements of G, in their order, not by image tuples
    return CosetData(G, H, tuple(reps), index,
                     {g: assigned[g] for g in G.elements})


class DoubleCosetData(NamedTuple):
    """Double cosets H\\G/H with stabilizers K_i = H  *intersect*  g_i^-1 H g_i."""

    group: PermGroup
    subgroup: PermGroup
    reps: tuple
    sizes: tuple
    stabilizers: tuple

    @property
    def count(self) -> int:
        return len(self.reps)


def double_coset_data(G: PermGroup, H: PermGroup) -> DoubleCosetData:
    """Partition G into double cosets H*g*H; reps chosen like coset reps.

    Each double coset is an orbit of H on the right cosets H\\G under
    right multiplication.  Coset representatives are sorted by
    Perm.sort_key, so the first coset of an orbit holds the minimum of
    the whole double coset.  The stabilizer of coset i is generated by
    the Schreier generators u_j s u_{j.s}^-1 of its orbit (Seress,
    Permutation Group Algorithms, 2003, ch. 4), where u_j in H carries
    coset i to coset j and s runs over the generators of H.  K_1 is H,
    and equal stabilizers are one object (H when they equal H), so data
    cached on a stabilizer (its character table) is computed once per
    distinct group.  Every stabilizer is checked to lie in
    H  *intersect*  g_i^-1 H g_i, and orbit-stabilizer then shows it is
    the whole intersection.  The result is kept in G's cache, keyed by H.
    """
    return G.cached(("double_cosets", H), lambda: _double_cosets(G, H))


def _double_cosets(G: PermGroup, H: PermGroup) -> DoubleCosetData:
    cosets = right_coset_data(G, H)
    reps = cosets.reps
    coset_of = cosets.coset_of
    orbit_of = [None] * cosets.index
    cap = Config(order_cap=H.order)
    dc_reps, sizes, stabs = [], [], []
    interned = {H: H}
    in_h = H._index
    steps = [right_mul(s) for s in H.generators]
    for start in range(cosets.index):
        if orbit_of[start] is not None:
            continue
        orbit_of[start] = len(dc_reps)
        orbit = [start]
        transversal = {start: H.identity}
        schreier = {}
        for j in orbit:
            u = transversal[j]
            rep = reps[j]
            for step in steps:
                image = coset_of[step(rep)]
                us = _perm(step(u))
                if image not in transversal:
                    transversal[image] = us
                    orbit_of[image] = orbit_of[start]
                    orbit.append(image)
                else:
                    x = us * transversal[image].inv()
                    if not x.is_identity():
                        schreier[x] = None
        if len(orbit) == 1:
            # K <= H and |K| = |H| / 1 by orbit-stabilizer: K is H, and
            # the checks below still run over its elements
            K = H
        else:
            K = PermGroup(G.degree, tuple(schreier), cap)
            K = interned.setdefault(K, K)
        g = reps[start]
        conj = conjugator(g)
        for x in K.elements:
            if x not in H or conj(x) not in in_h:
                raise InvariantViolationError(
                    "stabilizer element %r is outside the intersection"
                    % (x,))
        if len(orbit) * K.order != H.order:
            raise InvariantViolationError(
                "orbit of length %d and stabilizer of order %d violate "
                "|H| = %d" % (len(orbit), K.order, H.order))
        dc_reps.append(g)
        sizes.append(len(orbit) * H.order)
        stabs.append(K)
    if sum(sizes) != G.order:
        raise InvariantViolationError(
            "double cosets do not partition the group")
    for size, K in zip(sizes, stabs):
        if size * K.order != H.order * H.order:
            raise InvariantViolationError(
                "double coset size %d inconsistent with |H|=%d, |K|=%d"
                % (size, H.order, K.order))
    return DoubleCosetData(G, H, tuple(dc_reps), tuple(sizes), tuple(stabs))


def normal_core(G: PermGroup, H: PermGroup) -> PermGroup:
    """The largest normal subgroup of G contained in H.

    It is the kernel of H acting on H\\G by right multiplication.
    """
    cosets = right_coset_data(G, H)
    reps = cosets.reps
    coset_of = cosets.coset_of
    kernel = [h for h in H.elements
              if all(coset_of[x] == i
                     for i, x in enumerate(map(right_mul(h), reps)))]
    K = PermGroup(G.degree, _generating_subset(kernel, len(kernel)),
                  Config(order_cap=len(kernel)))
    if K.order != len(kernel):
        raise InvariantViolationError(
            "core is not closed; subgroup data corrupt")
    for g in G.generators:
        ginv = g.inv()
        if any(g * x * ginv not in K for x in K.generators):
            raise NotNormalError("computed core is not normal")
    return K


# ---------------------------------------------------------------------------
# automorphisms

class AutomorphismData(NamedTuple):
    """Aut(G) acting on the element list of G.

    aut.degree == G.order; automorphism p sends G.elements[i] to
    G.elements[p(i)].  inner is the subgroup of conjugations, and
    out_cosets decomposes aut by inner, one coset per outer class.
    """

    group: PermGroup
    aut: PermGroup
    inner: PermGroup
    out_cosets: CosetData


def automorphism_perm(G: PermGroup, mapping: Mapping[Perm, Perm]) -> Perm:
    """Encode a bijection G -> G as a permutation of element indices."""
    return Perm([G.element_index(mapping[p]) for p in G.elements])


def conjugation_perm(G: PermGroup, g: Perm) -> Perm:
    ginv = g.inv()
    return Perm([G.element_index(g * p * ginv) for p in G.elements])


def is_automorphism_perm(G: PermGroup, a: Perm) -> bool:
    """Check that index permutation a respects the multiplication of G."""
    if a.degree != G.order:
        return False
    elems = G.elements
    idx = G.element_index
    for i, x in enumerate(elems):
        ax = elems[a(i)]
        for s in G.generators:
            if elems[a(idx(x * s))] != ax * elems[a(idx(s))]:
                return False
    return True


def _generating_subset(candidates: Sequence[Perm], order: int) -> list:
    """The candidates that enlarge the group generated by those before.

    Stops once that group has the given order.  Candidates that generate
    more than order elements are a fault of the caller's data, not a
    resource cap, and raise InvariantViolationError.
    """
    kept = []
    known = set()
    for g in candidates:
        if g in known or g.is_identity():
            continue
        kept.append(g)
        try:
            known = set(mulclose(kept, order))
        except CapExceededError:
            raise InvariantViolationError(
                "the set is not closed: it generates more than %d elements"
                % order) from None
        if len(known) == order:
            break
    return kept


def _reduced_generators(G: PermGroup) -> list:
    return _generating_subset(G.generators, G.order) or [G.identity]


def automorphism_group(G: PermGroup, config: Config = DEFAULT) -> AutomorphismData:
    """Aut(G) by constrained search over generator images.

    Candidate images of a generator are limited to elements with the same
    order and conjugacy class size.  Every candidate tuple is checked to
    define a bijective homomorphism, so the result is exhaustive.
    """
    if G.order > config.aut_cap:
        raise CapExceededError(
            "automorphism search capped at order %d, group has order %d"
            % (config.aut_cap, G.order))
    gens = _reduced_generators(G)
    classes = conjugacy_classes(G)
    class_size = {p: classes.sizes[i] for p, i in classes.class_of.items()}
    orders = {p: p.order() for p in G.elements}
    candidates = []
    for g in gens:
        pool = [p for p in G.elements
                if orders[p] == orders[g] and class_size[p] == class_size[g]]
        candidates.append(pool)
    total = 1
    for pool in candidates:
        total *= len(pool)
    if total > 200000:
        raise CapExceededError(
            "automorphism candidate space too large (%d tuples)" % total)

    # express every element as parent * generator so candidate maps extend
    # to all of G in one pass
    derivation = {G.identity: None}
    frontier = [G.identity]
    while frontier:
        new = []
        for p in frontier:
            for gi, g in enumerate(gens):
                q = p * g
                if q not in derivation:
                    derivation[q] = (p, gi)
                    new.append(q)
        frontier = new

    elems = G.elements
    idx = G.element_index
    found = []
    for images in itertools.product(*candidates):
        phi = {G.identity: G.identity}
        ok = True
        for p in elems:
            if p in phi:
                continue
            chain = []
            q = p
            while q not in phi:
                chain.append(q)
                q = derivation[q][0]
            for q in reversed(chain):
                phi[q] = phi[derivation[q][0]] * images[derivation[q][1]]
        if len({phi[p] for p in elems}) != G.order:
            continue
        for p in elems:
            pp = phi[p]
            for gi, g in enumerate(gens):
                if phi[p * g] != pp * images[gi]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(automorphism_perm(G, phi))
    aut = PermGroup(G.order, _generating_subset(found, len(found)), config)
    if aut.elements != tuple(sorted(found)):
        raise InvariantViolationError("automorphism set is not closed")
    inner = PermGroup(G.order, [conjugation_perm(G, g) for g in gens], config)
    if inner.order * len(G.center()) != G.order:
        raise InvariantViolationError(
            "inner automorphism count violates |G/Z(G)|")
    out = right_coset_data(aut, inner)
    return AutomorphismData(G, aut, inner, out)


# ---------------------------------------------------------------------------
# wreath-like products

class WreathData(NamedTuple):
    """A wreath product A wr B realized on len(I) * deg(A) points.

    Block i occupies points [i*deg(A), (i+1)*deg(A)).  kappa maps each
    element of the product onto the acting group B; its kernel is the
    direct sum of the base copies.
    """

    group: PermGroup
    base: PermGroup
    base_copies: tuple
    acting: PermGroup
    action: Mapping[Perm, tuple]
    kappa: Mapping[Perm, Perm]


def natural_action(B: PermGroup) -> dict:
    """B acting on its own points, as an action table."""
    return {b: b.images for b in B.elements}


def verify_action_table(B: PermGroup, action: Mapping[Perm, Sequence[int]],
                        size: int) -> None:
    """Raise InvalidActionError unless action is a homomorphism B -> Sym(size)."""
    if set(action) != set(B.elements):
        raise InvalidActionError("action table must cover exactly the acting group")
    for b, img in action.items():
        if len(img) != size or sorted(img) != list(range(size)):
            raise InvalidActionError(
                "action of %r is not a bijection on the index set" % (b,))
    id_img = tuple(range(size))
    if tuple(action[B.identity]) != id_img:
        raise InvalidActionError("identity must act trivially")
    for b1 in B.elements:
        a1 = action[b1]
        for b2 in B.generators:
            a2 = action[b2]
            composed = tuple(a1[x] for x in a2)
            if tuple(action[b1 * b2]) != composed:
                raise InvalidActionError("action table is not a homomorphism")


def wreath_product(A: PermGroup, B: PermGroup,
                   action: Optional[Mapping[Perm, tuple]] = None,
                   config: Config = DEFAULT) -> WreathData:
    """Wreath-like product of A by B along a faithful action of B on I.

    Returns the product group together with the base copies and the
    quotient map kappa recovered from the block structure.
    """
    if action is None:
        action = natural_action(B)
    size = len(next(iter(action.values())))
    verify_action_table(B, action, size)
    by_image = {}
    for b, img in action.items():
        key = tuple(img)
        if key in by_image:
            raise InvalidActionError(
                "action must be faithful so the quotient map is recoverable")
        by_image[key] = b
    dA = A.degree
    degree = size * dA
    gens = []
    copy_gens = [[] for _ in range(size)]
    for i in range(size):
        for a in A.generators:
            images = list(range(degree))
            for x in range(dA):
                images[i * dA + x] = i * dA + a(x)
            p = Perm(images)
            gens.append(p)
            copy_gens[i].append(p)
    for b in B.generators:
        img = action[b]
        images = [0] * degree
        for i in range(size):
            for x in range(dA):
                images[i * dA + x] = img[i] * dA + x
        gens.append(Perm(images))
    G = PermGroup(degree, gens, config)
    copies = tuple(PermGroup(degree, cg, config) for cg in copy_gens)
    kappa = {}
    for g in G.elements:
        key = tuple(g(i * dA) // dA for i in range(size))
        if key not in by_image:
            raise InvalidActionError("element does not permute blocks per the action")
        kappa[g] = by_image[key]
    return WreathData(G, A, copies, B, dict(action), kappa)


class WreathReport(NamedTuple):
    ok: bool
    reason: str = ""
    witness: tuple = ()


def verify_wreath_like(G: PermGroup, copies: Sequence[PermGroup],
                       kappa: Mapping[Perm, Perm], B: PermGroup,
                       action: Optional[Mapping[Perm, tuple]] = None) -> WreathReport:
    """Check the defining properties of a wreath-like decomposition.

    kappa must be a surjective homomorphism G -> B whose kernel is the
    internal direct sum of the copies, and conjugation must permute the
    copies according to the action of kappa(g) on the index set.
    """
    copies = tuple(copies)
    n = len(copies)
    if action is None:
        if n == 1:
            action = {b: (0,) for b in B.elements}
        elif B.degree == n:
            action = natural_action(B)
        else:
            raise InvalidActionError(
                "no action given and the acting group degree does not match "
                "the number of copies")
    try:
        verify_action_table(B, action, n)
    except InvalidActionError as exc:
        return WreathReport(False, "bad action table: %s" % exc)
    if set(kappa) != set(G.elements):
        return WreathReport(False, "kappa is not a total map on the group")
    for g in sorted(G.elements, key=Perm.sort_key):
        for s in G.generators:
            if kappa[g * s] != kappa[g] * kappa[s]:
                return WreathReport(False, "kappa is not a homomorphism",
                                    (g, s))
    if {kappa[g] for g in G.elements} != set(B.elements):
        return WreathReport(False, "kappa is not surjective")
    for A in copies:
        if not A.is_subgroup_of(G):
            return WreathReport(False, "copy is not a subgroup")
    gen_union = [g for A in copies for g in A.generators]
    D = PermGroup(G.degree, gen_union, Config(order_cap=G.order + 1))
    kernel = sorted(g for g in G.elements if kappa[g].is_identity())
    if list(D.elements) != kernel:
        return WreathReport(False, "kernel of kappa differs from the span of the copies")
    prod_order = 1
    for A in copies:
        prod_order *= A.order
    if prod_order != D.order:
        return WreathReport(False,
                            "copies are not in direct sum: orders %d vs %d"
                            % (prod_order, D.order))
    for a, A in enumerate(copies):
        for b in range(a + 1, n):
            for x in A.generators:
                for y in copies[b].generators:
                    if x * y != y * x:
                        return WreathReport(False, "copies do not commute",
                                            (x, y))
    elem_sets = [set(A.elements) for A in copies]
    for g in G.generators:
        ginv = g.inv()
        img = action[kappa[g]]
        for i in range(n):
            conj = {g * x * ginv for x in copies[i].elements}
            if conj != elem_sets[img[i]]:
                return WreathReport(
                    False, "conjugation does not permute copies per kappa",
                    (g, i))
    return WreathReport(True)

