"""JSON and DOT serialization round trips and validation."""

from __future__ import annotations

import pytest

from sfw.chartab import character_table
from sfw.config import DEFAULT
from sfw.corpus import builtin_cases, case_by_name
from sfw.errors import CapExceededError, ParseError
from sfw.formats import (
    canonical_json,
    chartab_to_json,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    group_from_json,
    group_to_json,
    parse_json_text,
)
from sfw.standard_invariant import dual_principal_graph, principal_graph


def test_group_round_trip_is_exact():
    for case in builtin_cases():
        for G in (case.group, case.subgroup):
            back = group_from_json(group_to_json(G))
            assert back.degree == G.degree
            assert back.elements == G.elements


def test_group_json_accepts_cycle_strings():
    obj = {
        "degree": 4,
        "convention": "rightmost-first",
        "generators": ["(0 1 2 3)", "(0 1)"],
    }
    G = group_from_json(obj)
    assert G.order == 24


def test_group_json_validation():
    base = {
        "degree": 3,
        "convention": "rightmost-first",
        "generators": ["(0 1)"],
    }
    wrong_conv = dict(base, convention="leftmost-first")
    with pytest.raises(ParseError):
        group_from_json(wrong_conv)
    disagree = dict(
        base, generators=[{"cycles": "(0 1)", "images": [2, 1, 0]}]
    )
    with pytest.raises(ParseError):
        group_from_json(disagree)
    with pytest.raises(ParseError):
        group_from_json(dict(base, degree=None))
    with pytest.raises(ParseError):
        group_from_json([1, 2, 3])


def test_group_json_respects_the_order_cap():
    obj = {
        "degree": 5,
        "convention": "rightmost-first",
        "generators": ["(0 1 2 3 4)", "(0 1)"],
    }
    with pytest.raises(CapExceededError):
        group_from_json(obj, DEFAULT.replace(order_cap=10))


def test_canonical_json_is_byte_stable():
    case = case_by_name("s4-d4")
    obj = group_to_json(case.group)
    text = canonical_json(obj)
    assert text == canonical_json(obj)
    assert text.endswith("\n")
    assert text == canonical_json(parse_json_text(text))


def test_parse_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_json_text('{"a": 1,\n  broken}')
    assert "line 2" in str(err.value)


def test_graph_round_trip():
    for case in builtin_cases():
        for build in (principal_graph, dual_principal_graph):
            g = build(case.group, case.subgroup)
            back = graph_from_json(graph_to_json(g))
            assert [v.label for v in back.even] == [v.label for v in g.even]
            assert [v.label for v in back.odd] == [v.label for v in g.odd]
            assert back.edges == g.edges
            assert back.designated == g.designated
            assert back.marked_odd == g.marked_odd
            # The stored norm is rounded for stable output, so compare with
            # a tolerance rather than exactly.
            assert abs(back.norm_squared - g.norm_squared) < 1e-9


def test_graph_json_validation():
    case = case_by_name("s3-flip")
    g = principal_graph(case.group, case.subgroup)
    obj = graph_to_json(g)
    bad = dict(obj, edges=[[99, 0, 1]])
    with pytest.raises(ParseError):
        graph_from_json(bad)
    bad = dict(obj, designated="nowhere")
    with pytest.raises(ParseError):
        graph_from_json(bad)
    bad = dict(obj, edges=[[0, 0, 0]])
    with pytest.raises(ParseError):
        graph_from_json(bad)


def test_dot_output_mentions_every_vertex():
    case = case_by_name("s3-flip")
    g = principal_graph(case.group, case.subgroup)
    dot = graph_to_dot(g)
    for v in list(g.even) + list(g.odd):
        assert v.label in dot
    assert "doublecircle" in dot
    assert "rank=same" in dot
    assert dot.count(" -- ") == len(g.edges)


def test_dot_labels_multiple_edges():
    # a4-v4 has simple edges; build a fake multigraph through JSON instead.
    case = case_by_name("s3-flip")
    g = principal_graph(case.group, case.subgroup)
    obj = graph_to_json(g)
    obj["edges"] = [[0, 0, 2]] + [list(e) for e in obj["edges"][1:]]
    doubled = graph_from_json(obj)
    assert 'label="2"' in graph_to_dot(doubled)


def test_chartab_round_trip():
    for case in builtin_cases():
        table = character_table(case.group)
        back = parse_json_text(canonical_json(chartab_to_json(table)))
        assert back["degrees"] == list(table.degrees)
        assert back["group_order"] == case.group.order
        assert sum(c["size"] for c in back["classes"]) == case.group.order
        assert len(back["values"]) == len(table.degrees)


def test_chartab_json_shape():
    case = case_by_name("s3-flip")
    table = character_table(case.group)
    obj = chartab_to_json(table)
    assert obj["degrees"] == [1, 1, 2]
    assert sum(entry["size"] for entry in obj["classes"]) == 6
    assert len(obj["values"]) == 3
    for row in obj["values"]:
        assert all(isinstance(entry, list) and len(entry) == 2 for entry in row)
