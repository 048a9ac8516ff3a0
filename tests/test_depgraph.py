"""Graph construction vs. a brute-force prefix-rescan oracle, plus format tests."""

import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malgraph import depgraph
from malgraph.depgraph import (
    DepEdge,
    DepGraph,
    DepNode,
    build_graph,
    from_json,
    load_graph,
    save_graph,
    to_json,
)
from malgraph.errors import (
    EmptyGraph,
    GraphFormatError,
    IoError,
    MalformedFile,
    MalgraphError,
    VersionMismatch,
)
from malgraph.ir import INT32, parse_trace, sizeof_type


def oracle_edges(unit, control=False, memory=False):
    """Quadratic reference: rescan the whole prefix for every dependency.

    Independent of the incremental builder; used to cross-check its edge set.
    """
    insts = unit.instructions
    out = {}
    for c in insts:
        for r in c.sources:
            for j in range(c.index - 1, -1, -1):
                if insts[j].dest == r:
                    out.setdefault((j, c.index, "data"), sizeof_type(insts[j].result_type))
                    break
        if memory and c.opcode == "load" and c.mem_addr is not None:
            for j in range(c.index - 1, -1, -1):
                p = insts[j]
                if p.opcode == "store" and p.mem_addr == c.mem_addr:
                    out.setdefault((j, c.index, "memory"), sizeof_type(p.result_type))
                    break
        if control and c.opcode in ("br", "ret") and c.index + 1 < len(insts):
            out.setdefault((c.index, c.index + 1, "control"), 1)
    return {(s, d, k, w) for (s, d, k), w in out.items()}


def edge_set(g):
    return {(e.src, e.dst, e.kind, e.weight) for e in g.edges}


def test_two_line_dependency():
    unit = parse_trace("%3 = sub i32 %1, %2\n%5 = sub i32 %3, %4", "t")
    g = build_graph(unit)
    assert g.num_nodes == 2
    assert g.edges == (DepEdge(0, 1, 4, "data"),)


def test_no_shared_registers_no_edges():
    unit = parse_trace("%a = add i32 %x, %y\n%b = add i32 %u, %v\n%c = add i32 %p, %q", "t")
    assert build_graph(unit).num_edges == 0


def test_shadowing_uses_most_recent_definition():
    text = "\n".join([
        "%a = add i32 %x, %y",    # 0
        "%a = mul i64 %x, %y",    # 1 shadows %a
        "%b = sub i32 %a, %x",    # 2 must depend on 1, not 0
    ])
    g = build_graph(parse_trace(text, "t"))
    assert edge_set(g) == {(1, 2, "data", 8)}


def test_self_reference_uses_previous_definition():
    text = "%a = add i32 %x, %y\n%a = add i32 %a, %a"
    g = build_graph(parse_trace(text, "t"))
    # both uses of %a resolve to line 0; duplicates collapse to one edge
    assert edge_set(g) == {(0, 1, "data", 4)}


def test_weight_is_producer_size():
    text = "%a = fadd double %x, %y\n%b = fadd float %a, %a\n%c = fadd double %b, %a"
    g = build_graph(parse_trace(text, "t"))
    assert edge_set(g) == {(0, 1, "data", 8), (1, 2, "data", 4), (0, 2, "data", 8)}


def test_memory_edges_most_recent_store():
    text = "\n".join([
        "store i64 %a, i64* %p ; addr=0x10",   # 0
        "store i32 %b, i32* %p ; addr=0x10",   # 1 shadows the first store
        "%v = load i32, i32* %p ; addr=0x10",  # 2
        "%w = load i32, i32* %p ; addr=0x20",  # 3 no store at 0x20
    ])
    g = build_graph(parse_trace(text, "t"), memory_edges=True)
    mem = {t for t in edge_set(g) if t[2] == "memory"}
    assert mem == {(1, 2, "memory", 4)}
    # without the flag, no memory edges at all
    g2 = build_graph(parse_trace(text, "t"))
    assert all(e.kind == "data" for e in g2.edges)


def test_control_edges():
    text = "br label %x\n%a = add i32 %b, %c\nret i32 %a\n%d = add i32 %a, %a\nbr label %y"
    g = build_graph(parse_trace(text, "t"), control_edges=True)
    ctrl = {t for t in edge_set(g) if t[2] == "control"}
    # the final br has no successor, so only two control edges exist
    assert ctrl == {(0, 1, "control", 1), (2, 3, "control", 1)}


def test_build_is_deterministic():
    text = "%a = add i32 %x, %y\n%b = mul i32 %a, %x"
    u = parse_trace(text, "t")
    assert build_graph(u, control_edges=True, memory_edges=True) == \
        build_graph(u, control_edges=True, memory_edges=True)


_REGS = [f"r{i}" for i in range(6)]
_TYS = ["i8", "i32", "i64", "double"]


@st.composite
def _trace_line(draw):
    k = draw(st.integers(0, 5))
    a, b, d = (draw(st.sampled_from(_REGS)) for _ in range(3))
    ty = draw(st.sampled_from(_TYS))
    if k == 0:
        return f"%{d} = add {ty} %{a}, %{b}"
    if k == 1:
        return f"%{d} = icmp eq {ty} %{a}, %{b}"
    if k == 2:
        return f"%{d} = load {ty}, {ty}* %{a} ; addr=0x{draw(st.integers(0, 3)):x}"
    if k == 3:
        return f"store {ty} %{a}, {ty}* %{b} ; addr=0x{draw(st.integers(0, 3)):x}"
    if k == 4:
        return f"br label %{a}"
    return f"ret {ty} %{a}"


@given(st.lists(_trace_line(), min_size=1, max_size=60),
       st.booleans(), st.booleans())
@settings(max_examples=120)
def test_matches_rescan_oracle(lines, ctrl, mem):
    unit = parse_trace("\n".join(lines), "prop")
    g = build_graph(unit, control_edges=ctrl, memory_edges=mem)
    assert edge_set(g) == oracle_edges(unit, control=ctrl, memory=mem)


def test_matches_oracle_on_large_unit():
    rng = random.Random(7)
    lines = []
    for _ in range(300):
        d, a, b = (rng.choice(_REGS) for _ in range(3))
        ty = rng.choice(_TYS)
        roll = rng.random()
        if roll < 0.5:
            lines.append(f"%{d} = add {ty} %{a}, %{b}")
        elif roll < 0.7:
            lines.append(f"%{d} = load {ty}, {ty}* %{a} ; addr=0x{rng.randrange(4):x}")
        elif roll < 0.9:
            lines.append(f"store {ty} %{a}, {ty}* %{b} ; addr=0x{rng.randrange(4):x}")
        else:
            lines.append(f"ret {ty} %{a}")
    unit = parse_trace("\n".join(lines), "big")
    g = build_graph(unit, control_edges=True, memory_edges=True)
    assert edge_set(g) == oracle_edges(unit, control=True, memory=True)


@given(st.lists(_trace_line(), min_size=1, max_size=60))
@settings(max_examples=80)
def test_data_edges_point_forward(lines):
    g = build_graph(parse_trace("\n".join(lines), "prop"),
                    control_edges=True, memory_edges=True)
    assert all(e.src < e.dst for e in g.edges)
    assert [n.id for n in g.nodes] == list(range(g.num_nodes))
    triples = [(e.src, e.dst, e.kind) for e in g.edges]
    assert len(set(triples)) == len(triples)
    assert triples == sorted(triples)


# --- interchange format -----------------------------------------------------

def _labeled(text, label=1, family="worm"):
    g = build_graph(parse_trace(text, "t"))
    return dataclasses.replace(g, label=label, family=family)


def test_json_golden_bytes():
    g = _labeled("%3 = sub i32 %1, %2\n%5 = sub i32 %3, %4")
    assert to_json(g) == (
        b'{"version":1,"origin":"t","label":1,"family":"worm",'
        b'"nodes":[{"id":0,"op":"sub","type":"i32"},{"id":1,"op":"sub","type":"i32"}],'
        b'"edges":[{"src":0,"dst":1,"w":4,"kind":"data"}]}'
    )


def test_json_roundtrip_and_canonical():
    g = _labeled("%a = add i32 %x, %y\n%b = mul i64 %a, %a\nstore i64 %b, i64* %p")
    assert from_json(to_json(g)) == g
    assert to_json(from_json(to_json(g))) == to_json(g)


def test_json_accepts_unsorted_edges():
    doc = (b'{"version":1,"origin":"x","label":null,"family":null,'
           b'"nodes":[{"id":0,"op":"add","type":"i32"},{"id":1,"op":"add","type":"i32"},'
           b'{"id":2,"op":"add","type":"i32"}],'
           b'"edges":[{"src":1,"dst":2,"w":4,"kind":"data"},{"src":0,"dst":1,"w":4,"kind":"data"}]}')
    g = from_json(doc)
    assert [(e.src, e.dst) for e in g.edges] == [(0, 1), (1, 2)]
    assert g.label is None and g.family is None


def _exactly(message):
    return f"^{re.escape(message)}$"


def test_json_rejections():
    ok = to_json(_labeled("%3 = sub i32 %1, %2\n%5 = sub i32 %3, %4"))
    with pytest.raises(VersionMismatch, match=_exactly("unsupported graph version 2")):
        from_json(ok.replace(b'"version":1', b'"version":2'))
    with pytest.raises(GraphFormatError, match=_exactly(
            "not valid JSON: Expecting value: line 1 column 1 (char 0)")):
        from_json(b"not json at all")
    with pytest.raises(GraphFormatError, match=_exactly("missing field 'origin'")):
        from_json(b'{"version":1}')
    with pytest.raises(GraphFormatError, match=_exactly("label must be 0, 1 or null")):
        from_json(ok.replace(b'"label":1', b'"label":true'))
    with pytest.raises(GraphFormatError, match=_exactly("label must be 0, 1 or null")):
        from_json(ok.replace(b'"label":1', b'"label":3'))
    with pytest.raises(GraphFormatError, match=_exactly(
            "edge weight must be >= 1: {'src': 0, 'dst': 1, 'w': 0, 'kind': 'data'}")):
        from_json(ok.replace(b'"w":4', b'"w":0'))
    with pytest.raises(GraphFormatError, match=_exactly(
            "edge endpoint out of range: {'src': 0, 'dst': 9, 'w': 4, 'kind': 'data'}")):
        from_json(ok.replace(b'"dst":1', b'"dst":9'))
    with pytest.raises(GraphFormatError, match=_exactly("duplicate edge (0, 1, 'data')")):
        from_json(ok.replace(
            b'"edges":[{"src":0,"dst":1,"w":4,"kind":"data"}]',
            b'"edges":[{"src":0,"dst":1,"w":4,"kind":"data"},'
            b'{"src":0,"dst":1,"w":8,"kind":"data"}]'))
    with pytest.raises(GraphFormatError, match=_exactly("node ids must be dense 0..n-1")):
        from_json(ok.replace(b'"id":1', b'"id":5'))
    with pytest.raises(EmptyGraph, match=_exactly("graph 'x' has no nodes")):
        from_json(b'{"version":1,"origin":"x","label":null,"family":null,"nodes":[],"edges":[]}')


@pytest.mark.parametrize("doc,detail", [
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    (b'{"version":1,"origin":"x","label":null,"family":null,"nodes":[],"edges":[],'
     b'"id":1' + b"0" * 5000 + b"}", "Exceeds the limit"),
], ids=["deep_nesting", "long_number"])
def test_json_too_deep_or_too_long_is_a_format_error(doc, detail):
    with pytest.raises(GraphFormatError, match=f"^not valid JSON: .*{detail}"):
        from_json(doc)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=5) | st.sampled_from(["data", "memory", "i32", "<2 x i8>", "add"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "op", "type", "src", "dst", "w", "kind"]), inner, max_size=4),
    max_leaves=8)


@st.composite
def _mutated_document(draw):
    """A valid graph document with a few values replaced or keys deleted."""
    obj = json.loads(to_json(_labeled(
        "%a = add i32 %x, %y\n%b = load i64, i64* %a\nstore i64 %b, i64* %a\nret i64 %b")))
    for _ in range(draw(st.integers(1, 4))):
        where = draw(st.sampled_from(["top", "node", "edge"]))
        if where == "top":
            target = obj
        else:
            items = obj.get("nodes" if where == "node" else "edges")
            if not isinstance(items, list) or not items:
                continue
            target = items[draw(st.integers(0, len(items) - 1))]
            if not isinstance(target, dict):
                continue
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(_JSON_VALUES)
    data = json.dumps(obj).encode()
    cut = draw(st.integers(0, len(data)))
    return data if draw(st.booleans()) else data[:cut] + draw(st.binary(max_size=3))


@given(_mutated_document())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_raise_only_malgraph_errors(data):
    try:
        g = from_json(data)
    except MalgraphError:
        return
    assert from_json(to_json(g)) == g


def test_save_and_load(tmp_path):
    g = _labeled("%a = add i32 %x, %y\n%b = mul i32 %a, %a", label=0, family=None)
    p = tmp_path / "g.json"
    save_graph(g, p)
    assert load_graph(p) == g
    assert b'"label":0' in p.read_bytes()

    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{broken")
    with pytest.raises(MalformedFile) as exc:
        load_graph(bad)
    assert "bad.json" in str(exc.value)
    with pytest.raises(IoError):
        load_graph(tmp_path / "missing.json")


def test_node_types_survive_roundtrip():
    text = "%p = alloca double\n%v = load double, double* %p\n%c = fcmp oeq double %v, %v"
    g = build_graph(parse_trace(text, "t"))
    back = from_json(to_json(g))
    assert [n.result_type for n in back.nodes] == [n.result_type for n in g.nodes]
    assert back.nodes[0].result_type.kind == "pointer"
    assert back.nodes[2].result_type.bits == 1
