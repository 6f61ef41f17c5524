import json

import pytest

from dirspan import (
    BadSpec,
    DuplicateEdge,
    GenSpec,
    GraphSyntaxError,
    build_graph,
    dumps_report,
    generate_instance,
    parse_gen_spec,
    parse_graph,
    serialize_graph,
)

from dirspan.io import parse_subgraph
from oracles import make_rng, random_edge_list
from support import listed_generator_edges


def test_parse_basic():
    g = parse_graph("3 2\n0 1 1\n1 2 2.5\n")
    assert g.n == 3
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.5))


def test_parse_comments_and_blanks():
    text = "# a graph\n\n3 1   # header\n0 1 1 # edge\n\n"
    g = parse_graph(text)
    assert g.m == 1


def test_roundtrip_identity():
    rng = make_rng(83)
    for _ in range(20):
        n = rng.randint(1, 8)
        g = build_graph(n, random_edge_list(rng, n, 0.4, max_len=5))
        back = parse_graph(serialize_graph(g))
        assert (back.n, back.edges) == (g.n, g.edges)


def test_serialize_integer_lengths_stay_short():
    g = build_graph(2, [(0, 1, 3.0)])
    assert "3\n" in serialize_graph(g)
    assert "3.0" not in serialize_graph(g)


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 0),
        ("2\n", 1),
        ("x y\n", 1),
        ("2 1\n0 1\n", 2),
        ("2 1\n0 one 1\n", 2),
        ("2 2\n0 1 1\n", 0),
        ("2 1\n0 1 1\n1 0 1\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph(text)
    if line:
        assert exc.value.line == line


def test_parse_subgraph_shares_the_graph_line_rules():
    g = parse_graph("3 3\n0 1 1\n0 2 1\n1 2 1\n")
    assert parse_subgraph(g, "# H\n\n1 2   # second\n0 1\n1 2\n") == frozenset({0, 2})
    assert parse_subgraph(g, "") == frozenset()
    # a line holds exactly the two tokens 'tail head'
    for text, line in (("0 1\n\n# c\n2\n", 4), ("# c\n0 one\n", 2), ("0 1 junk words\n", 1), ("0 1\n1 2 1\n", 2)):
        with pytest.raises(GraphSyntaxError) as exc:
            parse_subgraph(g, text)
        assert exc.value.line == line
    with pytest.raises(BadSpec, match=r"subgraph edge \(2, 1\) is not an edge of the graph"):
        parse_subgraph(g, "0 1\n2 1\n")


def test_parse_surfaces_semantic_errors():
    with pytest.raises(DuplicateEdge):
        parse_graph("2 2\n0 1 1\n0 1 2\n")


def test_float_precision_roundtrips():
    report = {"v": 0.1, "w": 1 / 3, "big": 12345.678901234567}
    text = dumps_report(report)
    back = json.loads(text)
    assert back["v"] == 0.1
    assert back["w"] == 1 / 3
    assert back["big"] == 12345.678901234567


def test_dumps_report_is_valid_json():
    obj = {
        "s": 'quote " backslash \\ newline \n tab \t',
        "xs": [1, 2.5, None, True, False],
        "nested": {"empty": [], "blank": {}},
    }
    assert json.loads(dumps_report(obj)) == obj


# the escape of every code point below 0x80: the short escapes, \u00XX for other control characters
CONTROL_ESCAPES = (
    r"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r\u000e\u000f"
    r"\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f"
)
PRINTABLE_ESCAPES = (
    ' !\\"#$%&\'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\\\]^_`abcdefghijklmnopqrstuvwxyz{|}~\x7f'
)


def test_dumps_report_escapes_are_pinned():
    ascii_text = "".join(map(chr, range(0x80)))
    assert dumps_report(ascii_text) == f'"{CONTROL_ESCAPES}{PRINTABLE_ESCAPES}"'
    assert dumps_report({ascii_text: 0}) == f'{{"{CONTROL_ESCAPES}{PRINTABLE_ESCAPES}": 0}}'
    for c in range(0x80):
        assert json.loads(dumps_report(chr(c))) == chr(c)
    # a non-ASCII and an astral character pass through unescaped
    assert dumps_report("é\U0001d11e") == '"é\U0001d11e"'


def test_dumps_report_deterministic_bytes():
    obj = {"b": [0.25, {"k": 7}], "a": 1.5}
    assert dumps_report(obj) == dumps_report(obj)
    assert dumps_report(obj).encode() == dumps_report(obj).encode()


def test_dumps_report_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_report({"bad": float("inf")})
    with pytest.raises(ValueError):
        dumps_report({"bad": float("nan")})


def test_er_generator_edge_counts():
    full = generate_instance(GenSpec("er", {"n": 10, "p": 1.0}, gen_seed=0))
    assert full.n == 10
    assert full.m == 90
    empty = generate_instance(GenSpec("er", {"n": 10, "p": 0.0}, gen_seed=0))
    assert empty.m == 0


def test_er_generator_deterministic():
    a = generate_instance(GenSpec("er", {"n": 8, "p": 0.3}, gen_seed=5))
    b = generate_instance(GenSpec("er", {"n": 8, "p": 0.3}, gen_seed=5))
    c = generate_instance(GenSpec("er", {"n": 8, "p": 0.3}, gen_seed=6))
    assert (a.n, a.edges) == (b.n, b.edges)
    assert (a.n, a.edges) != (c.n, c.edges)


@pytest.mark.parametrize(
    "spec,listed",
    [
        ("er:n=2,p=1", ("er", 2, 1.0)),
        ("er:n=10,p=0.35,max_len=4,seed=4", ("er", 10, 0.35, 4, None, 4)),
        ("er:n=40,p=0.1,seed=1", ("er", 40, 0.1, 1, None, 1)),
        ("er:n=200,p=0.01,seed=1", ("er", 200, 0.01, 1, None, 1)),
        ("er:n=31,p=0.5,max_len=9,seed=12", ("er", 31, 0.5, 9, None, 12)),
        ("layered:layers=2,width=1,p=1", ("layered", 2, 1.0, 1, 1)),
        ("layered:layers=4,width=3,seed=2", ("layered", 4, 0.5, 1, 3, 2)),
        ("layered:layers=5,width=7,p=0.3,max_len=5,seed=8", ("layered", 5, 0.3, 5, 7, 8)),
        ("layered:layers=3,width=1,p=0.5,seed=3", ("layered", 3, 0.5, 1, 1, 3)),
    ],
)
def test_index_array_generators_match_listed_pairs(spec, listed):
    # every generated graph, and every digest built on one, is pinned to the
    # draw-per-listed-pair construction
    assert generate_instance(parse_gen_spec(spec)).edges == listed_generator_edges(*listed)


def test_cycle_generator():
    g = generate_instance(GenSpec("cycle", {"n": 7}, gen_seed=0))
    assert g.n == 7
    assert g.m == 7
    assert all(g.edge_index[(i, (i + 1) % 7)] is not None for i in range(7))


def test_grid_generator():
    g = generate_instance(GenSpec("grid", {"rows": 3, "cols": 4}, gen_seed=0))
    assert g.n == 12
    # right and down edges only
    assert g.m == 3 * 3 + 2 * 4


def test_layered_generator_is_forward_only():
    g = generate_instance(GenSpec("layered", {"layers": 3, "width": 2, "p": 1.0}, gen_seed=1))
    assert g.n == 6
    for tail, head, _ in g.edges:
        assert head // 2 == tail // 2 + 1


def test_generator_lengths_are_small_integers():
    g = generate_instance(GenSpec("er", {"n": 6, "p": 0.8, "max_len": 4}, gen_seed=9))
    lengths = {l for _, _, l in g.edges}
    assert lengths <= {1.0, 2.0, 3.0, 4.0}
    assert all(float(int(l)) == l for l in lengths)


@pytest.mark.parametrize(
    "family,params",
    [
        ("nope", {}),
        ("er", {"n": 5}),
        ("er", {"n": 5, "p": 0.5, "bogus": 1}),
        ("er", {"n": -1, "p": 0.5}),
        ("er", {"n": 5, "p": 1.5}),
    ],
)
def test_bad_specs_rejected(family, params):
    with pytest.raises(BadSpec):
        generate_instance(GenSpec(family, params, gen_seed=0))


def test_parse_gen_spec():
    spec = parse_gen_spec("er:n=8,p=0.25,seed=4")
    assert spec.family == "er"
    assert spec.params == {"n": "8", "p": "0.25"}
    assert spec.gen_seed == 4
    g = generate_instance(spec)
    assert g.n == 8


def test_parse_gen_spec_defaults_and_errors():
    assert parse_gen_spec("cycle:n=5").gen_seed == 0
    # bare family parses; the missing parameter surfaces at generation time
    with pytest.raises(BadSpec):
        generate_instance(parse_gen_spec("er"))
    with pytest.raises(BadSpec):
        parse_gen_spec("er:n")
    with pytest.raises(BadSpec):
        parse_gen_spec(":n=3")
