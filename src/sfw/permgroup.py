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
- G acts on the cosets by CosetData.action(g), i -> coset of reps[i] * g,
  so action(a * b)[i] == action(b)[action(a)[i]]; other modules move
  cosets by it and never read the labels coset_of.

This module holds what every group command runs: permutations, group
closure, cosets, double cosets and conjugacy classes, and the one test
that generator images define a homomorphism.  Automorphisms
and normal cores (sfw.automorphisms), which only `extend` and `verify`
run, and wreath products (sfw.wreath), which only `verify` runs, build
on it in modules of their own.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .config import Config, DEFAULT
from .errors import (
    CapExceededError,
    InvariantViolationError,
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
            if (not isinstance(x, int) or isinstance(x, bool)
                    or not 0 <= x < n or seen[x]):
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
            if not all(0 <= x < degree for x in cycle):
                raise ValueError("cycle point out of range 0..%d" % (degree - 1))
            for a, b in zip(cycle, cycle[1:]):
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


def mulclose(generators: Sequence[Perm], cap: int,
             field: Optional[str] = None) -> list:
    """Breadth-first closure of the generators under multiplication.

    Raises CapExceededError, naming field as the Config field of the
    cap, as soon as more than cap elements appear.  Products are image
    tuples composed by right_mul; the elements come back as Perms, in
    the order found.
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
                    raise CapExceededError("group order", None, cap, field)
                seen.add(q)
                found.append(q)
    return list(map(_perm, found))


def homomorphism_from_images(gens: Sequence[Perm], images: Sequence[Perm],
                             order: int) -> Optional[dict]:
    """The homomorphism sending each generator to its image, or None.

    gens generate a group of the given order and each image is a Perm,
    all of one degree m.  A map given on generators extends to a
    homomorphism exactly when the pairs (g, phi(g)) generate its graph
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    2005): a group that projects onto <gens> one to one.  Each
    pair is one image tuple on n + m points, g's images and then phi(g)'s
    shifted by n, and mulclose capped at order closes them; a map that
    is not well defined makes the closure larger, and the cap stops it
    at order + 1.  Returns {x: phi(x)} for every x in the group.
    """
    n = gens[0].degree
    pairs = [_perm((*g, *map(n.__add__, a))) for g, a in zip(gens, images)]
    try:
        graph = mulclose(pairs, order)
    except CapExceededError:
        return None
    return {_perm(p[:n]): _perm(map(n.__rsub__, p[n:])) for p in graph}


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
        elements = mulclose(gens or (Perm.identity(degree),),
                            config.order_cap, "order_cap")
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
        """Whether every element of this group lies in other.

        The elements are the closure of the generators under products,
        and other is closed under products, so the generators lying in
        other is as strong as every element lying there.
        """
        if self.degree != other.degree or self.order > other.order:
            return False
        return all(p in other for p in self.generators)

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


class ConjClassData(NamedTuple):
    """Conjugacy classes: canonical reps, sizes, and element -> class map.

    Classes are sorted by (size, least element by images), and each rep
    is the least element of its class, so the identity's class is first.
    """

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
    return ConjClassData(tuple(reps[n] for n in order),
                         tuple(sizes[n] for n in order), class_of)


def require_subgroup(G: PermGroup, H: PermGroup) -> None:
    """Refuse H unless it lies in G, naming both by degree and order."""
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

    def action(self, g: Perm) -> tuple:
        """The right action of g on the cosets: i -> coset of reps[i] * g.

        It is a homomorphism for the rightmost-first product,
        action(a * b)[i] == action(b)[action(a)[i]], and the identity
        acts as range(index).  One C pass over the representatives.
        """
        return tuple(map(self.coset_of.__getitem__,
                         map(right_mul(g), self.reps)))

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
    require_subgroup(G, H)
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
    """Double cosets H\\G/H with stabilizers K_i = H  *intersect*  g_i^-1 H g_i.

    The double coset of reps[i] has |H|^2 / |K_i| elements.
    """

    reps: tuple
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
    H  *intersect*  g_i^-1 H g_i, a group, by testing its generators,
    and orbit-stabilizer then shows it is the whole intersection.  The
    result is kept in G's cache, keyed by H.
    """
    return G.cached(("double_cosets", H), lambda: _double_cosets(G, H))


def _double_cosets(G: PermGroup, H: PermGroup) -> DoubleCosetData:
    """The double cosets as orbits of H on the right cosets, checked.

    Two facts need no check of their own.  The double coset of an orbit
    has |orbit| |H| elements, which is |H|^2 / |K| by the
    orbit-stabilizer check below.  And these sizes sum to |G|: the
    orbits partition the t right cosets, so they sum to t |H|, and the
    coset partition check of _right_cosets gives t |H| = |G|.
    """
    cosets = right_coset_data(G, H)
    orbit_of = [None] * cosets.index
    cap = Config(order_cap=H.order)
    dc_reps, stabs = [], []
    interned = {H: H}
    in_h = H._index
    # a generator s moves coset j to action(s)[j] and u to u * s
    steps = [(cosets.action(s), right_mul(s)) for s in H.generators]
    for start in range(cosets.index):
        if orbit_of[start] is not None:
            continue
        orbit_of[start] = len(dc_reps)
        orbit = [start]
        transversal = {start: H.identity}
        schreier = {}
        for j in orbit:
            u = transversal[j]
            for moved, step in steps:
                image = moved[j]
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
            # the checks below still run on its generators
            K = H
        else:
            K = PermGroup(G.degree, tuple(schreier), cap)
            K = interned.setdefault(K, K)
        g = cosets.reps[start]
        conj = conjugator(g)
        # H and g^-1 H g are groups and so is their intersection, so K
        # lies in it when its generators do
        for x in K.generators:
            if x not in H or conj(x) not in in_h:
                raise InvariantViolationError(
                    "stabilizer element %r is outside the intersection"
                    % (x,))
        if len(orbit) * K.order != H.order:
            raise InvariantViolationError(
                "orbit of length %d and stabilizer of order %d violate "
                "|H| = %d" % (len(orbit), K.order, H.order))
        dc_reps.append(g)
        stabs.append(K)
    return DoubleCosetData(tuple(dc_reps), tuple(stabs))

