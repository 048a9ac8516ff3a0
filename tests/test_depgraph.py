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
    EDGE_KINDS,
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
from malgraph.ir import parse_trace


def oracle_edges(unit, control=False, memory=False):
    """Quadratic reference: rescan the whole prefix for every dependency.

    Independent of the incremental builder; used to cross-check its edge set.
    """
    ops, dest, ptr, addr = unit.opcodes, unit.dest.tolist(), unit.src_ptr.tolist(), unit.mem_addr
    out = set()
    for i, op in enumerate(ops):
        for r in unit.src[ptr[i]:ptr[i + 1]].tolist():
            for j in range(i - 1, -1, -1):
                if dest[j] == r:
                    out.add((j, i, "data"))
                    break
        if memory and op == "load" and i in addr:
            for j in range(i - 1, -1, -1):
                if ops[j] == "store" and addr.get(j) == addr[i]:
                    out.add((j, i, "memory"))
                    break
        if control and op in ("br", "ret") and i + 1 < len(ops):
            out.add((i, i + 1, "control"))
    return out


def edge_list(g):
    """(src, dst, kind) of every edge, in stored order."""
    src, dst = g.edge_index.tolist()
    return list(zip(src, dst, [EDGE_KINDS[k] for k in g.edge_kind.tolist()]))


def edge_set(g):
    return set(edge_list(g))


def test_two_line_dependency():
    unit = parse_trace("%3 = sub i32 %1, %2\n%5 = sub i32 %3, %4", "t")
    g = build_graph(unit)
    assert g.num_nodes == 2
    assert edge_list(g) == [(0, 1, "data")]


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
    assert edge_set(g) == {(1, 2, "data")}


def test_self_reference_uses_previous_definition():
    text = "%a = add i32 %x, %y\n%a = add i32 %a, %a"
    g = build_graph(parse_trace(text, "t"))
    # both uses of %a resolve to line 0; duplicates collapse to one edge
    assert edge_set(g) == {(0, 1, "data")}


def test_memory_edges_most_recent_store():
    text = "\n".join([
        "store i64 %a, i64* %p ; addr=0x10",   # 0
        "store i32 %b, i32* %p ; addr=0x10",   # 1 shadows the first store
        "%v = load i32, i32* %p ; addr=0x10",  # 2
        "%w = load i32, i32* %p ; addr=0x20",  # 3 no store at 0x20
    ])
    g = build_graph(parse_trace(text, "t"), memory_edges=True)
    mem = {t for t in edge_set(g) if t[2] == "memory"}
    assert mem == {(1, 2, "memory")}
    # without the flag, no memory edges at all
    g2 = build_graph(parse_trace(text, "t"))
    assert all(t[2] == "data" for t in edge_list(g2))


def test_memory_edges_at_addresses_past_64_bits():
    big = 2**64 + 0x10  # an int64 column would wrap it onto 0x10
    text = "\n".join([
        f"store i32 %a, i32* %p ; addr=0x{big:x}",  # 0
        "store i32 %b, i32* %p ; addr=0x10",         # 1
        f"%v = load i32, i32* %p ; addr=0x{big:x}",  # 2 reads store 0
        f"%w = load i32, i32* %p ; addr=0x{2**200:x}",  # 3 no store there
    ])
    g = build_graph(parse_trace(text, "t"), memory_edges=True)
    assert {t for t in edge_set(g) if t[2] == "memory"} == {(0, 2, "memory")}


def test_one_name_in_two_scopes_makes_no_cross_scope_edge():
    text = ("define i32 @f(i32 %a) {\n  %x = add i32 %a, %a\n  ret i32 %x\n}\n"
            "define i32 @g(i32 %b) {\n  %y = add i32 %x, %b\n  %x = add i32 %b, %b\n"
            "  ret i32 %x\n}\n")
    unit = parse_trace(text, "t")
    assert unit.scopes["f"]["x"] != unit.scopes["g"]["x"]
    assert unit.dest[[0, 3]].tolist() == [unit.scopes["f"]["x"], unit.scopes["g"]["x"]]
    # %x in @g's first add names @g's later %x, not @f's
    assert edge_list(build_graph(unit)) == [(0, 1, "data"), (3, 4, "data")]


def test_control_edges():
    text = "br label %x\n%a = add i32 %b, %c\nret i32 %a\n%d = add i32 %a, %a\nbr label %y"
    g = build_graph(parse_trace(text, "t"), control_edges=True)
    ctrl = {t for t in edge_set(g) if t[2] == "control"}
    # the final br has no successor, so only two control edges exist
    assert ctrl == {(0, 1, "control"), (2, 3, "control")}


def test_build_is_deterministic():
    text = "%a = add i32 %x, %y\n%b = mul i32 %a, %x"
    u = parse_trace(text, "t")
    assert to_json(build_graph(u, control_edges=True, memory_edges=True)) == \
        to_json(build_graph(u, control_edges=True, memory_edges=True))


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
    assert all(t[0] < t[1] for t in edge_list(g))
    assert g.num_nodes == len(lines)
    triples = edge_list(g)
    assert len(set(triples)) == len(triples)
    assert triples == sorted(triples)


def test_graph_arrays_are_read_only():
    g = build_graph(parse_trace("%a = add i32 %x, %y\n%b = add i32 %a, %a", "t"))
    for h in (g, from_json(to_json(g))):
        with pytest.raises(ValueError, match="read-only"):
            h.edge_index[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            h.edge_kind[0] = 0
    assert to_json(g) == to_json(from_json(to_json(g)))


# --- interchange format -----------------------------------------------------

def _built(text):
    return build_graph(parse_trace(text, "t"))


def test_json_golden_bytes():
    g = _built("%3 = sub i32 %1, %2\n%5 = sub i32 %3, %4")
    golden = b'{"version":3,"origin":"t","ops":["sub","sub"],"src":[0],"dst":[1],"kind":["data"]}'
    assert to_json(g) == golden


def test_a_graph_has_no_label_or_family():
    """Labels and families live in the manifest; the golden bytes above show
    that a graph document has neither."""
    assert [f.name for f in dataclasses.fields(depgraph.DepGraph)] == \
        ["ops", "edge_index", "edge_kind", "origin"]


def test_json_reads_a_label_and_family_as_extra_keys():
    """A document written when graphs carried a label and family loads to the
    graph without them, and writes back without them."""
    new = to_json(_built("%3 = sub i32 %1, %2\n%5 = sub i32 %3, %4"))
    for label, family in ((b"1", b'"worm"'), (b"null", b"null")):
        old = (b'{"version":3,"origin":"t","label":' + label + b',"family":' + family
               + b',"ops":["sub","sub"],"src":[0],"dst":[1],"kind":["data"]}')
        assert to_json(from_json(old)) == new


def test_json_roundtrip_and_canonical():
    g = _built("%a = add i32 %x, %y\n%b = mul i64 %a, %a\nstore i64 %b, i64* %p")
    assert edge_list(from_json(to_json(g))) == edge_list(g)
    assert to_json(from_json(to_json(g))) == to_json(g)


def test_json_accepts_unsorted_edges():
    # extra keys, such as an old edge weight column, are not read
    doc = (b'{"version":3,"origin":"x","label":null,"family":null,"ops":["add","add","add"],'
           b'"src":[1,0],"dst":[2,1],"kind":["data","data"],"w":[4,4]}')
    g = from_json(doc)
    assert g.edge_index.tolist() == [[0, 1], [1, 2]]


def _exactly(message):
    return f"^{re.escape(message)}$"


def test_json_rejections():
    ok = to_json(_built("%3 = sub i32 %1, %2\n%5 = sub i32 %3, %4"))
    with pytest.raises(VersionMismatch, match=_exactly("unsupported graph version 4")):
        from_json(ok.replace(b'"version":3', b'"version":4'))
    with pytest.raises(GraphFormatError, match=_exactly(
            "not valid JSON: Expecting value: line 1 column 1 (char 0)")):
        from_json(b"not json at all")
    with pytest.raises(GraphFormatError, match=_exactly("missing field 'origin'")):
        from_json(b'{"version":3}')
    with pytest.raises(GraphFormatError, match=_exactly("missing field 'kind'")):
        from_json(ok.replace(b',"kind":["data"]', b''))
    with pytest.raises(GraphFormatError, match=_exactly(
            "edge endpoint out of range: (0, 9, 'data')")):
        from_json(ok.replace(b'"dst":[1]', b'"dst":[9]'))
    with pytest.raises(GraphFormatError, match=_exactly("duplicate edge (0, 1, 'data')")):
        from_json(ok.replace(b'"src":[0],"dst":[1],"kind":["data"]',
                             b'"src":[0,0],"dst":[1,1],"kind":["data","data"]'))
    with pytest.raises(EmptyGraph, match=_exactly("graph 'x' has no nodes")):
        from_json(b'{"version":3,"origin":"x","label":null,"family":null,'
                  b'"ops":[],"src":[],"dst":[],"kind":[]}')
    with pytest.raises(EmptyGraph, match=_exactly("graph 't' has no nodes")):
        from_json(ok.replace(b'"ops":["sub","sub"]', b'"ops":[]'))


@pytest.mark.parametrize("old,new,message", [
    (b'"src":[0]', b'"src":[18446744073709551616]',
     "edge endpoint out of range: (18446744073709551616, 1, 'data')"),
    (b'"src":[0]', b'"src":[-1]', "edge endpoint out of range: (-1, 1, 'data')"),
    (b'"dst":[1]', b'"dst":[true]', "dst must be an array of integers"),
    (b'"src":[0]', b'"src":[0.0]', "src must be an array of integers"),
    (b'"src":[0]', b'"src":null', "src must be an array of integers"),
    (b'"dst":[1]', b'"dst":[1,0]', "src, dst and kind must have equal lengths"),
    (b'"kind":["data"]', b'"kind":["ctrl"]', "kind must hold only control, data or memory"),
    (b'"ops":["sub","sub"]', b'"ops":[1]', "ops must be an array of strings"),
], ids=["src_past_uint64", "src_negative", "dst_true", "src_float", "src_null",
        "unequal_lengths", "unknown_kind", "op_integer"])
def test_json_column_rejections(old, new, message):
    ok = to_json(_built("%3 = sub i32 %1, %2\n%5 = sub i32 %3, %4"))
    assert old in ok
    with pytest.raises(GraphFormatError, match=_exactly(message)):
        from_json(ok.replace(old, new))


@pytest.mark.parametrize("version", [b"true", b"1.0", b"2.0", b"3.0", b'"2"', b"null", b"1", b"2"])
def test_json_version_must_be_the_integer_3(version):
    """The version must be exactly the integer 3: versions 1 and 2 are not read."""
    ok = to_json(_built("%3 = sub i32 %1, %2\n%5 = sub i32 %3, %4"))
    message = f"unsupported graph version {json.loads(version)!r}"
    with pytest.raises(VersionMismatch, match=_exactly(message)):
        from_json(ok.replace(b'"version":3', b'"version":' + version))


@pytest.mark.parametrize("doc,detail", [
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    (b'{"version":3,"origin":"x","label":null,"family":null,"ops":[],"src":[],"dst":[],'
     b'"kind":[],"id":1' + b"0" * 5000 + b"}", "Exceeds the limit"),
], ids=["deep_nesting", "long_number"])
def test_json_too_deep_or_too_long_is_a_format_error(doc, detail):
    with pytest.raises(GraphFormatError, match=f"^not valid JSON: .*{detail}"):
        from_json(doc)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from([2**63, 2**64, -2**63 - 1])
    | st.text(max_size=5) | st.sampled_from(["data", "memory", "i32", "<2 x i8>", "add"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "op", "type", "src", "dst", "w", "kind"]), inner, max_size=4),
    max_leaves=8)


@st.composite
def _mutated_document(draw):
    """A valid document with a few values replaced or deleted: whole columns
    (top-level keys) and single column elements."""
    obj = json.loads(to_json(_built(
        "%a = add i32 %x, %y\n%b = load i64, i64* %a\nstore i64 %b, i64* %a\nret i64 %b")))
    for _ in range(draw(st.integers(1, 4))):
        where = draw(st.sampled_from(["top", "ops", "src", "dst", "kind"]))
        target = obj if where == "top" else obj.get(where)
        if isinstance(target, dict):
            key = draw(st.sampled_from(sorted(target) + ["extra"]))
            if draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = draw(_JSON_VALUES)
        elif isinstance(target, list) and target:  # one element of a column
            i = draw(st.integers(0, len(target) - 1))
            if draw(st.booleans()):
                del target[i]
            else:
                target[i] = draw(_JSON_VALUES)
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
    assert to_json(from_json(to_json(g))) == to_json(g)


def test_save_and_load(tmp_path):
    g = _built("%a = add i32 %x, %y\n%b = mul i32 %a, %a")
    p = tmp_path / "g.json"
    save_graph(g, p)
    assert to_json(load_graph(p)) == to_json(g)
    assert p.read_bytes() == to_json(g)

    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{broken")
    with pytest.raises(MalformedFile) as exc:
        load_graph(bad)
    assert "bad.json" in str(exc.value)
    with pytest.raises(IoError):
        load_graph(tmp_path / "missing.json")
