"""Two-cocycles, outer-automorphism extensions, crossed product checks."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from sfw import cocycle, permgroup
from sfw.cocycle import (
    Cocycle2,
    _crossed_product_data,
    crossed_product_check,
    extension_from_out,
)
from sfw.config import DEFAULT
from sfw.errors import (
    InvariantViolationError,
    NontrivialCenterError,
    NotNormalError,
    ParseError,
)
from sfw.automorphisms import automorphism_group, conjugation_perm
from sfw.permgroup import (
    Perm,
    PermGroup,
    conjugacy_classes,
    parse_cycle_string,
    right_coset_data,
)
from oracles import (
    alternating_group,
    assert_cocycle_axioms,
    cyclic_group,
    symmetric_group,
)


def perm(degree, text):
    return parse_cycle_string(degree, text)


def a4_extension():
    """Aut(A4) and the extension by its one outer class (Out(A4) = C2)."""
    auts = automorphism_group(alternating_group(4))
    return auts, extension_from_out(auts, [1])


def c3sq_c2():
    """C3^2 x| C2, the inversion acting on both factors: Out = S4."""
    return PermGroup(6, [perm(6, t) for t in ("(0 1 2)", "(3 4 5)",
                                              "(1 2)(4 5)")])


# ------------------------------------------------------------- extensions


def test_a4_extension_has_order_24_and_index_2():
    auts, res = a4_extension()
    assert res.cocycle.quotient.order == 2
    assert res.ambient.order == 24
    assert auts.inner.order == 12
    assert res.cocycle.base is auts.group
    assert res.fingerprint() == {1: 1, 2: 9, 3: 8, 4: 6}


def law_inputs(auts, res):
    """The inputs of the crossed law that extension_from_out checked."""
    _, lifts, table, _ = cocycle._decompose(
        right_coset_data(res.ambient, auts.inner), DEFAULT)
    return (res.cocycle, list(lifts), list(lifts.values()), table,
            cocycle._inner_embedding(auts.group).__getitem__)


def test_a4_extension_cocycle_is_verified_and_normalized():
    auts, res = a4_extension()
    cocycle._check_crossed_law(*law_inputs(auts, res))
    assert res.cocycle.is_normalized()
    identity = res.cocycle.quotient.elements[0]
    trivial_action = Perm(tuple(range(auts.group.order)))
    assert res.cocycle.alpha[identity] == trivial_action


def test_a4_subfactor_report():
    auts, res = a4_extension()
    A4 = auts.group
    # the one outer class is that of conjugation by a transposition
    t = perm(4, "(0 1)")
    assert conjugation_perm(A4, t) in res.ambient
    assert conjugation_perm(A4, t) not in auts.inner
    assert res.cocycle.quotient.order == 2
    assert sum(lift not in auts.inner
               for lift in res.cocycle.alpha.values()) == 1
    crossed_product_check(res.ambient, auts.inner)


def test_empty_outer_data_gives_a_trivial_extension():
    S3 = symmetric_group(3)
    res = extension_from_out(automorphism_group(S3), [])
    assert res.cocycle.quotient.order == 1
    assert res.ambient.order == 6


def test_s3_times_s3_with_swap():
    gens = [perm(6, t) for t in ("(0 1)", "(0 1 2)", "(3 4)", "(3 4 5)")]
    G = PermGroup(6, gens)
    assert G.order == 36
    # Out(S3 x S3) = C2, and its class is the swap of the two factors
    auts = automorphism_group(G)
    res = extension_from_out(auts, [1])
    assert res.cocycle.quotient.order == 2
    assert res.ambient.order == 72
    swap = conjugation_perm(G, perm(6, "(0 3)(1 4)(2 5)"))
    assert swap in res.ambient and swap not in auts.inner


@pytest.mark.parametrize("degree, generators", [
    (4, ("(0 1 2)", "(1 2 3)")),
    (4, ("(0 1 2 3)", "(0 1)")),
    (6, ("(0 1 2)", "(3 4 5)", "(1 2)(4 5)")),
])
def test_the_embedding_is_conjugation_by_every_element(degree, generators):
    # A4, S4 and C3^2 x| C2: the embedding is composed from the images
    # of the generators, and must agree with conjugation computed anew
    G = PermGroup(degree, [perm(degree, text) for text in generators])
    embedding = cocycle._inner_embedding(G)
    assert list(embedding) == list(G.elements)
    assert embedding == {x: conjugation_perm(G, x) for x in G.elements}


def test_extension_requires_a_trivial_centre():
    with pytest.raises(NontrivialCenterError):
        extension_from_out(automorphism_group(cyclic_group(4)), [])


@pytest.mark.parametrize("classes, bad", [([0], 0), ([-1], -1), ([2], 2),
                                         ([1, 2], 2)])
def test_an_outer_class_out_of_range_is_refused(classes, bad):
    # Out(A4) = C2: class 1 is the only one.  Class 0 would add Inn(A4)
    # again, and -1 would pick a coset from the end of the list
    auts = automorphism_group(alternating_group(4))
    with pytest.raises(ParseError) as excinfo:
        extension_from_out(auts, classes)
    assert str(excinfo.value) == "outer class %d out of range, have 1..1" % bad


def test_a_group_without_outer_classes_refuses_every_class():
    auts = automorphism_group(symmetric_group(3))
    with pytest.raises(ParseError, match="outer class 1 out of range: the "
                       "group has no outer automorphism classes"):
        extension_from_out(auts, [1])


def test_the_range_is_checked_before_the_centre():
    # C4 has a nontrivial centre and one outer class: a bad class is a
    # ParseError (exit 2) before the centre is a PreconditionError
    auts = automorphism_group(cyclic_group(4))
    with pytest.raises(ParseError):
        extension_from_out(auts, [auts.out_cosets.index])


@pytest.mark.parametrize("classes", [[], [16], [1, 5, 9], range(1, 23),
                                     "all"])
def test_an_extension_closes_three_groups_whatever_it_picks(monkeypatch,
                                                            classes):
    # the conjugation embedding, the extension and its quotient: the
    # automorphisms and Inn(G) are read from automorphism_group, which
    # checked them, and the cosets of Aut(G) over Inn(G) are its own.
    # With every class the extension is Aut(G) itself, closed no second
    # time; [1, 5, 9] and 22 of the 23 classes generate it too, and are
    # closed, then replaced by Aut(G) since their order is its order
    auts = automorphism_group(c3sq_c2())
    closed = 3
    if classes == "all":
        classes, closed = range(1, auts.out_cosets.index), 2
    closures = []
    mulclose = permgroup.mulclose

    def counted(*args, **kwargs):
        closures.append(args[0])
        return mulclose(*args, **kwargs)

    monkeypatch.setattr(permgroup, "mulclose", counted)
    res = extension_from_out(auts, list(classes))
    assert len(closures) == closed
    # an extension that is all of Aut(G) is the very group
    assert (res.ambient is auts.aut) == (res.ambient.order == auts.aut.order)
    assert (res.ambient is auts.aut) == (list(classes) not in ([], [16]))


# ---------------------------------------------------------------- cocycles
#
# Each fault below is injected into the inputs of the crossed law that
# the A4 extension checked, and the law raises at its first failure,
# with the failing point as its witness.


def test_bad_identity_lift_is_detected_deterministically():
    auts, res = a4_extension()
    c, elements, lifts, table, embed = law_inputs(auts, res)
    other_inner = next(g for g in auts.inner.elements
                       if g != res.ambient.identity)
    lifts[elements.index(c.quotient.identity)] = other_inner
    with pytest.raises(InvariantViolationError,
                       match="lift of the identity is not 1") as r1:
        cocycle._check_crossed_law(c, elements, lifts, table, embed)
    with pytest.raises(InvariantViolationError) as r2:
        cocycle._check_crossed_law(c, elements, lifts, table, embed)
    assert r1.value.witness == r2.value.witness == (c.quotient.identity,)


def test_tampered_cocycle_fails_an_axiom():
    c, elements, lifts, table, embed = law_inputs(*a4_extension())
    t = elements[1]
    nontrivial = c.base.elements[1]
    values = dict(c.values)
    values[(t, t)] = nontrivial * values[(t, t)]
    with pytest.raises(InvariantViolationError,
                       match="twisted product relation fails") as excinfo:
        cocycle._check_crossed_law(c._replace(values=values), elements,
                                   lifts, table, embed)
    assert excinfo.value.witness == (t, t)
    # the axioms the law stands for fail on the same cocycle
    with pytest.raises(AssertionError):
        assert_cocycle_axioms(c._replace(values=values))


def test_a_table_with_its_rows_swapped_breaks_the_quotient_product():
    c, elements, lifts, table, embed = law_inputs(*a4_extension())
    with pytest.raises(InvariantViolationError,
                       match="multiplication law fails") as excinfo:
        cocycle._check_crossed_law(c, elements, lifts, table[::-1], embed)
    one = c.quotient.identity
    assert excinfo.value.witness == (one, one)


def test_a_trivial_action_breaks_the_extension_conjugation():
    # alpha_t = 1 keeps every twisted product, but t acts on A4 by an
    # outer automorphism, which moves some element of A4
    c, elements, lifts, table, embed = law_inputs(*a4_extension())
    A4 = c.base
    identity = Perm.identity(A4.order)
    with pytest.raises(InvariantViolationError,
                       match="conjugation relation fails") as excinfo:
        cocycle._check_crossed_law(
            c._replace(alpha=dict.fromkeys(c.alpha, identity)), elements,
            lifts, table, embed)
    g, b = excinfo.value.witness
    assert g == elements[1] and b in A4 and b != A4.identity


def test_an_action_right_on_the_generators_alone_is_caught():
    # alpha_t kept on the identity and the generators of A4 but with the
    # images of two other elements swapped: a permutation of A4 that is
    # no homomorphism, which the law finds at one of those elements
    c, elements, lifts, table, embed = law_inputs(*a4_extension())
    A4 = c.base
    t = elements[1]
    images = list(c.alpha[t].images)
    x, y = [k for k, b in enumerate(A4.elements)
            if b != A4.identity and b not in A4.generators][:2]
    images[x], images[y] = images[y], images[x]
    alpha = dict(c.alpha)
    alpha[t] = Perm(images)
    with pytest.raises(InvariantViolationError,
                       match="conjugation relation fails") as excinfo:
        cocycle._check_crossed_law(c._replace(alpha=alpha), elements,
                                   lifts, table, embed)
    assert excinfo.value.witness == (t, A4.elements[x])


# ---------------------------------------------------------- crossed products


def test_crossed_product_over_the_normal_core():
    S3 = symmetric_group(3)
    A3 = S3.subgroup([perm(3, "(0 1 2)")])
    crossed = crossed_product_check(S3, A3)
    assert isinstance(crossed, Cocycle2)
    assert crossed.quotient.order == 2
    assert crossed.base is A3
    assert crossed.is_normalized()
    # both transversals the check decides give cocycles, "max" returned
    for rule in ("min", "max"):
        assert_cocycle_axioms(_crossed_product_data(S3, A3, rule, DEFAULT)[3])
    assert crossed == _crossed_product_data(S3, A3, "max", DEFAULT)[3]
    assert_cocycle_axioms(crossed)


def test_crossed_product_of_a4_over_v4():
    A4 = alternating_group(4)
    V4 = A4.subgroup([perm(4, "(0 1)(2 3)"), perm(4, "(0 2)(1 3)")])
    assert crossed_product_check(A4, V4).quotient.order == 3


def test_crossed_product_sees_a_nonsplit_extension():
    # C4 over its order-two subgroup: whatever transversal is chosen, the
    # square of the nontrivial representative is the nontrivial element of
    # the subgroup, so the cocycle cannot be constantly trivial.
    C4 = cyclic_group(4)
    half = C4.subgroup([perm(4, "(0 2)(1 3)")])
    crossed = crossed_product_check(C4, half)
    assert crossed.quotient.order == 2
    identity = C4.elements[0]
    nontrivial = [v for v in crossed.values.values() if v != identity]
    assert len(nontrivial) == 1
    assert nontrivial[0] == perm(4, "(0 2)(1 3)")


def test_extension_and_crossed_product_decompose_alike():
    # C3^2 x| C2 has Out = S4: a quotient of order 24, on which right
    # translation and the rows of the product table are different
    # permutations of the coset indices
    G = c3sq_c2()
    auts = automorphism_group(G)
    res = extension_from_out(auts, range(1, auts.out_cosets.index))
    assert res.cocycle.quotient.order == 24
    # every class picked: the extension is Aut(G), with its cached cosets
    assert res.ambient is auts.aut
    assert right_coset_data(res.ambient, auts.inner) is auts.out_cosets
    _, _, elements, crossed = _crossed_product_data(
        res.ambient, auts.inner, "min", DEFAULT)
    assert list(elements) == list(res.cocycle.alpha)
    assert crossed.quotient == res.cocycle.quotient
    embedding = cocycle._inner_embedding(G)
    assert crossed.values == {pair: embedding[x]
                              for pair, x in res.cocycle.values.items()}
    for g in elements:
        for x in G.elements:
            assert crossed.apply_alpha(g, embedding[x]) == \
                embedding[res.cocycle.apply_alpha(g, x)]


def test_crossed_product_requires_a_normal_subgroup():
    S3 = symmetric_group(3)
    flip = S3.subgroup([perm(3, "(0 1)")])
    with pytest.raises(NotNormalError):
        crossed_product_check(S3, flip)


# -------------------------------------------- facts the construction gives
#
# Neither the extension nor the crossed product check re-decides these;
# the docstrings of extension_from_out, _decompose and
# crossed_product_check prove them, and random groups test them here.


@st.composite
def outer_data(draw):
    """A random centreless subgroup G of S3, S4 or S5, its automorphism
    group, and a subset of its outer class indices."""
    n = draw(st.integers(3, 5))
    perms = st.permutations(range(n)).map(Perm)
    G = PermGroup(n, draw(st.lists(perms, min_size=1, max_size=2)))
    assume(len(G.center()) == 1)
    auts = automorphism_group(G)
    outer = range(1, auts.out_cosets.index)
    return auts, sorted(draw(st.sets(st.sampled_from(outer)) if outer
                             else st.just(set())))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(outer_data())
def test_extensions_lift_the_identity_first_and_are_normalized(drawn):
    auts, classes = drawn
    res = extension_from_out(auts, classes)
    lifts = res.cocycle.alpha
    identity = res.cocycle.quotient.identity
    assert next(iter(lifts)) == identity
    assert lifts[identity] == res.ambient.identity
    # coset representatives: only the identity class lifts into Inn(G)
    assert all((g == identity) == (lift in auts.inner)
               for g, lift in lifts.items())
    assert res.cocycle.is_normalized()
    assert auts.inner.is_subgroup_of(res.ambient)
    assert_cocycle_axioms(res.cocycle)


def normal_closure(G, gens):
    """The least normal subgroup of G holding gens."""
    K = G.subgroup(gens)
    while True:
        conjugates = [g * x * g.inv() for g in G.generators
                      for x in K.generators]
        outside = [y for y in conjugates if y not in K]
        if not outside:
            return K
        K = G.subgroup(K.generators + tuple(outside))


@st.composite
def normal_pairs(draw):
    """A random subgroup G of S3, S4 or S5 and a normal subgroup K, with
    G/K of order at most 24.

    K is drawn from the normal closures of the conjugacy classes of G.
    """
    n = draw(st.integers(3, 5))
    perms = st.permutations(range(n)).map(Perm)
    G = PermGroup(n, draw(st.lists(perms, min_size=1, max_size=2)))
    normal = {normal_closure(G, [x]) for x in conjugacy_classes(G).reps}
    K = draw(st.sampled_from(sorted(normal, key=lambda N: N.elements)))
    assume(G.order <= 24 * K.order)
    return G, K


@settings(derandomize=True, max_examples=60, deadline=None)
@given(normal_pairs())
def test_crossed_product_bases_on_random_groups(pair):
    G, K = pair
    crossed_product_check(G, K)
    for rule in ("min", "max"):
        reps, table, elements, crossed = _crossed_product_data(
            G, K, rule, DEFAULT)
        assert reps[0] == G.identity
        assert elements[0] == crossed.quotient.identity
        # the a r_i with a in K are the elements of G once each
        assert sorted(a * r for r in reps for a in K.elements) == \
            list(G.elements)
        # K is normal, so conjugation by every lift keeps it in place
        assert all(r * x * r.inv() in K for r in reps for x in K.elements)
        # the crossed law that crossed_product_check passed gives these
        assert_cocycle_axioms(crossed)


# ---------------------------------------------------- internal consistency
#
# Each check below can fail only through a fault in sfw, so it raises
# InvariantViolationError (exit 1), not an input error.


def test_a_lift_moved_inside_its_coset_breaks_the_multiplication_law(
        monkeypatch):
    # A4 over V4: the lift r_1 is replaced by c r_1, c in V4, while the
    # table, the defects and alpha stay those of r_1.  Then
    # r_1' r_1' = c alpha_1(c) r_1 r_1, and alpha_1 fixes no c != 1, so
    # the twisted product fails first at (g_1, g_1)
    A4 = alternating_group(4)
    c = perm(4, "(0 1)(2 3)")
    V4 = A4.subgroup([c, perm(4, "(0 2)(1 3)")])
    data = cocycle._crossed_product_data
    moved = []

    def moved_lift(G, K, rule, config):
        reps, table, elements, crossed = data(G, K, rule, config)
        moved.append(elements[1])
        reps = (reps[0], c * reps[1]) + tuple(reps[2:])
        return reps, table, elements, crossed

    monkeypatch.setattr(cocycle, "_crossed_product_data", moved_lift)
    with pytest.raises(InvariantViolationError,
                       match="twisted product relation fails") as excinfo:
        crossed_product_check(A4, V4)
    assert excinfo.value.witness == (moved[0], moved[0])


def test_a_trivial_action_breaks_the_multiplication_law(monkeypatch):
    # S3 over A3 with alpha replaced by the identity: w is trivial, so the
    # cocycle axioms and the twisted products still hold, but r_1 b = b r_1
    # fails for the 3-cycle that generates A3
    S3 = symmetric_group(3)
    A3 = S3.subgroup([perm(3, "(0 1 2)")])
    data = cocycle._crossed_product_data

    def trivial_action(G, K, rule, config):
        reps, table, elements, crossed = data(G, K, rule, config)
        identity = Perm.identity(K.order)
        crossed = crossed._replace(
            alpha={g: identity for g in crossed.alpha})
        return reps, table, elements, crossed

    monkeypatch.setattr(cocycle, "_crossed_product_data", trivial_action)
    with pytest.raises(InvariantViolationError,
                       match="conjugation relation fails") as excinfo:
        crossed_product_check(S3, A3)
    g, b = excinfo.value.witness
    assert g != Perm.identity(len(g)) and b in A3.generators


def test_an_inner_embedding_that_is_no_homomorphism_is_a_fault(monkeypatch):
    # the 3-cycle of S3 sent to the conjugation by a transposition, of
    # order 2, and the transposition to the identity
    S3 = symmetric_group(3)
    auts = automorphism_group(S3)
    flip = perm(3, "(0 1)")

    def swapped(G, g):
        if g.order() == 3:
            return conjugation_perm(G, flip)
        return Perm.identity(G.order)

    monkeypatch.setattr(cocycle, "conjugation_perm", swapped)
    with pytest.raises(InvariantViolationError,
                       match="conjugation is not a homomorphism"):
        extension_from_out(auts, [])


def test_a_quotient_over_a_subgroup_that_is_not_normal_is_a_fault(
        monkeypatch):
    # crossed_product_check decides normality before it decomposes; with
    # that check skipped, the lifts of the three cosets of <(0 1)> act on
    # them as all of S3, a quotient of order 6 over 3 cosets
    monkeypatch.setattr(cocycle, "_check_normal", lambda G, K: None)
    S3 = symmetric_group(3)
    with pytest.raises(InvariantViolationError) as excinfo:
        crossed_product_check(S3, S3.subgroup([perm(3, "(0 1)")]))
    assert str(excinfo.value) == "quotient of order 6 over 3 cosets"
