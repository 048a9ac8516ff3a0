"""Frontend tests: line grammar, structure, and register bookkeeping."""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malgraph import ir
from malgraph.depgraph import build_graph
from malgraph.errors import EmptyUnit, MalformedLine, MalgraphError
from malgraph.ir import parse_trace


def rows(unit):
    """Each instruction as (opcode, dest, sources, mem_addr), read from the
    columns; every register id becomes its (name, scope) through `unit.scopes`,
    and a missing destination (-1) becomes None."""
    reg = {i: (name, scope) for scope, ids in unit.scopes.items() for name, i in ids.items()}
    ptr = unit.src_ptr.tolist()
    return [(op, reg.get(d), tuple(reg[r] for r in unit.src[ptr[i]:ptr[i + 1]].tolist()),
             unit.mem_addr.get(i))
            for i, (op, d) in enumerate(zip(unit.opcodes, unit.dest.tolist()))]


def test_basic_sub_line():
    unit = parse_trace("%3 = sub i32 %1, %2", "t")
    assert rows(unit) == [("sub", ("3", ""), (("1", ""), ("2", "")), None)]


VALUE_CALL = ("call", ("r", ""), (("x", ""),), None)
VOID_CALL = ("call", None, (("x", ""),), None)


@pytest.mark.parametrize("token,expected", [
    ("i32", VALUE_CALL),
    ("i64", VALUE_CALL),
    ("i1", VALUE_CALL),
    ("float", VALUE_CALL),
    ("double", VALUE_CALL),
    ("i32*", VALUE_CALL),
    ("double**", VALUE_CALL),
    ("ptr", VALUE_CALL),
    ("void", VOID_CALL),
    ("i7", VALUE_CALL),       # unsupported width
    ("banana", VALUE_CALL),
    ("<4 x i32>", VALUE_CALL),
    ("<2 x double>", VALUE_CALL),
    ("i064", VALUE_CALL),     # leading zeros
    pytest.param("i" + "0" * 253 + "64", VALUE_CALL, id="i0...064"),
    (" <2 x i32*> ", VALUE_CALL),
    pytest.param("i" + "7" * 5000, VALUE_CALL, id="i777..."),
    pytest.param("<1 x " * 1200 + "i32" + ">" * 1200, VALUE_CALL,
                 id="<1 x <1 x ...>>"),
])
def test_parse_type_token(token, expected):
    """Any type token is opaque; `void` alone makes a call valueless."""
    dest, other = ("%r = ", "") if expected[1] else ("", "%r = ")
    assert rows(parse_trace(f"{dest}call {token} @f({token} %x)", "t")) == [expected]
    with pytest.raises(MalformedLine):
        parse_trace(f"{other}call {token} @f({token} %x)", "t")


def test_type_tokens_past_the_length_bound_are_opaque():
    """No type token is too long; a named type's %-token counts as a source."""
    store = ("store", None, (("v", ""), ("p", "")), None)
    for token in ["i" + "0" * 254 + "64", "<02 x i" + "0" * 250 + "8>"]:
        assert rows(parse_trace(f"store {token} %v, ptr %p", "t")) == [store]
    named = "struct." + "x" * 1000
    assert rows(parse_trace(f"store %{named}* %v, ptr %p", "t")) == [
        ("store", None, ((named, ""),) + store[2], None)]


def test_type_tokens_and_registers_are_shared():
    """One id per name and scope, wherever the name is read or written."""
    unit = parse_trace("%a = add i32 %x, %x\n%b = mul i32 %a, %x\n%a = sub i32 %b, %a", "t")
    a, b, x = (unit.scopes[""][n] for n in "abx")
    assert unit.dest.tolist() == [a, b, a]
    assert unit.src.tolist() == [x, x, a, x, b, a]
    assert unit.src_ptr.tolist() == [0, 2, 4, 6]
    ll = parse_trace("%t = add i32 %x, %x\n"
                     "define i32 @f(i32 %x) {\n  %a = add i32 %x, %x\n  ret i32 %a\n}\n"
                     "define i32 @g(i32 %x) {\n  ret i32 %x\n}\n"
                     "%u = add i32 %x, %t\n", "t")
    top, f, g = ll.scopes[""], ll.scopes["f"], ll.scopes["g"]
    assert len({top["x"], f["x"], g["x"]}) == 3
    assert ll.dest.tolist() == [top["t"], f["a"], -1, -1, top["u"]]
    assert ll.src.tolist() == [top["x"], top["x"], f["x"], f["x"], f["a"], g["x"],
                               top["x"], top["t"]]


def test_empty_input_rejected():
    with pytest.raises(EmptyUnit):
        parse_trace("", "t")
    with pytest.raises(EmptyUnit):
        parse_trace("; only a comment\n\n", "t")


GOLDEN = """\
define i32 @main(i32 %argc) {
  %p = alloca i32
  store i32 %argc, i32* %p ; addr=0x10
  %v = load i32, i32* %p ; addr=0x10
  %one = add i32 %v, %v
  %cmp = icmp sgt i32 %one, %argc
  br i1 %cmp, label %then, label %done
then:
  %q = getelementptr i32, i32* %p, i64 %v
  %r = call double @helper(i32 %one, i32* %q)
  br label %done
done:
  ret i32 %one
}
"""


def test_golden_structure():
    unit = parse_trace(GOLDEN, "golden.ll")
    def m(*names):
        return tuple((n, "main") for n in names)

    assert rows(unit) == [
        ("alloca", ("p", "main"), (), None),
        ("store", None, m("argc", "p"), 0x10),
        ("load", ("v", "main"), m("p"), 0x10),
        ("add", ("one", "main"), m("v", "v"), None),
        ("icmp", ("cmp", "main"), m("one", "argc"), None),
        ("br", None, m("cmp", "then", "done"), None),
        ("getelementptr", ("q", "main"), m("p", "v"), None),
        ("call", ("r", "main"), m("one", "q"), None),
        ("br", None, m("done"), None),
        ("ret", None, m("one"), None),
    ]


def test_trace_allows_redefinition():
    text = "\n".join([
        "%a = add i32 %x, %y",
        "%b = mul i32 %a, %a",
        "%a = sub i32 %b, %x",   # shadows the first %a
        "%c = add i32 %a, %b",
    ])
    unit = parse_trace(text, "t")
    assert len(unit.opcodes) == 4
    assert unit.dest[0] == unit.dest[2] == unit.scopes[""]["a"]


def test_call_with_a_function_type():
    """The return token before a function type decides the destination."""
    assert rows(parse_trace("call void (i8*, ...) @f(i8* %a)", "t")) == [
        ("call", None, (("a", ""),), None)]
    assert rows(parse_trace("%x = call i32 (i8*, ...) @f(i8* %a)", "t")) == [
        ("call", ("x", ""), (("a", ""),), None)]


@pytest.mark.parametrize("prefix", ["tail", "musttail", "notail"])
def test_tail_call_prefixes_are_calls(prefix):
    """A tail-call marker is dropped, so the line is a call with the call's checks."""
    assert rows(parse_trace(f"%t = {prefix} call i32 @f(i32 %v)", "t")) == [
        ("call", ("t", ""), (("v", ""),), None)]
    assert rows(parse_trace(f"{prefix} call void @f(i32 %v)", "t")) == [
        ("call", None, (("v", ""),), None)]
    with pytest.raises(MalformedLine, match="void"):
        parse_trace(f"%t = {prefix} call void @f(i32 %v)", "t")
    with pytest.raises(MalformedLine, match="destination"):
        parse_trace(f"{prefix} call i32 @f(i32 %v)", "t")
    # only before `call`: otherwise the word is the opcode
    assert parse_trace(f"%t = {prefix} add i32 %v", "t").opcodes == (prefix,)


@pytest.mark.parametrize("call", [
    "call fastcc void @f(i32 %a)",
    "call void bitcast (void (...)* @g to void (i32)*)(i32 %a)",
    'call void asm sideeffect "nop", "r"(i32 %a)',
])
def test_void_among_the_tokens_before_the_callee(call):
    """A calling convention, a constant-expression callee or inline asm may
    stand beside `void`; the call is still valueless."""
    assert rows(parse_trace(call, "t")) == [("call", None, (("a", ""),), None)]
    with pytest.raises(MalformedLine, match="call returning void cannot have a destination"):
        parse_trace(f"%r = {call}", "t")


def test_multi_line_switch_is_one_instruction():
    """LLVM prints a jump table over several lines; its sources are the
    condition, the default label and the case labels."""
    text = """\
define i32 @f(i32 %op) {
entry:
  switch i32 %op, label %d [   ; the jump table
    i32 0, label %a
    i32 1, label %b
  ]
a:
  ret i32 %op
}
"""
    unit = parse_trace(text, "t")
    assert rows(unit) == [
        ("switch", None, (("op", "f"), ("d", "f"), ("a", "f"), ("b", "f")), None),
        ("ret", None, (("op", "f"),), None),
    ]
    assert unit.scopes["f"] == {"op": 0, "d": 1, "a": 2, "b": 3}


def test_lines_after_a_switch_keep_their_numbers():
    text = "switch i32 %op, label %d [\n  i32 0, label %a\n]\n%bad\n"
    with pytest.raises(MalformedLine) as exc:
        parse_trace(text, "t")
    assert exc.value.line_no == 4


@pytest.mark.parametrize("text", [
    "define void @f(i32 %op) {\n  switch i32 %op, label %d [\n    i32 0, label %a\n}\n",
    "%x = add i32 %a, %b\nswitch i32 %op, label %d [\n  i32 0, label %a\n",
])
def test_unclosed_jump_table_names_the_line_of_its_bracket(text):
    with pytest.raises(MalformedLine, match=r"'\[' is not closed") as exc:
        parse_trace(text, "t")
    assert exc.value.line_no == 2


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def regs(scope, *names):
    return tuple((name, scope) for name in names)


def test_invoke_and_landingpad_continuation_lines_make_no_node():
    """An invoke's `to ... unwind ...` line adds its labels to the invoke's
    sources, as br's labels are; a landingpad's clause lines are skipped."""
    unit = parse_trace((FIXTURES / "invoke.ll").read_text(), "invoke.ll")
    assert rows(unit) == [
        ("invoke", ("r", "main"), regs("main", "x", "ok", "lpad"), None),
        ("ret", None, regs("main", "r"), None),
        ("landingpad", ("lp", "main"), (), None),
        ("extractvalue", ("v", "main"), regs("main", "lp"), None),
        ("ret", None, regs("main", "v"), None),
    ]
    assert build_graph(unit).edge_index.T.tolist() == [[0, 1], [2, 3], [3, 4]]


def test_quoted_block_labels_make_no_node():
    """Every line that ends in `:` once its comment is cut is a block label,
    quoted as LLVM prints a label that holds a space or a `:`, or not."""
    text = ('define i32 @f(i32 %n) {\n'
            '  br label %"odd block"\n'
            '"odd block":                ; preds = %0\n'
            '  %m = sub i32 0, %n\n'
            '  br label %"a:b"\n'
            '"a:b":\n'
            '  br label %3\n'
            '3:                          ; preds = %"a:b"\n'
            '  ret i32 %m\n'
            '}\n')
    assert rows(parse_trace(text, "t")) == [
        ("br", None, regs("f", '"odd block"'), None),
        ("sub", ("m", "f"), regs("f", "n"), None),
        ("br", None, regs("f", '"a:b"'), None),
        ("br", None, regs("f", "3"), None),
        ("ret", None, regs("f", "m"), None),
    ]


def test_module_asm_makes_no_node():
    text = 'module asm "nop"\nmodule asm ".globl x"\n%x = add i32 %a, %b\nret i32 %x\n'
    assert parse_trace(text, "t").opcodes == ("add", "ret")


@pytest.mark.parametrize("name,nodes,edges,calls", [
    ("typed", 7, 6, 2),
    ("switch", 6, 3, 1),
    ("quoted", 3, 2, 0),
    ("module_asm", 6, 3, 0),
])
def test_ll_fixtures_compile_to_their_counts(name, nodes, edges, calls):
    """The committed `.ll` modules, which CI's console smoke also compiles
    and scores, give their pinned node, edge and call counts."""
    g = build_graph(parse_trace((FIXTURES / f"{name}.ll").read_text(), name))
    assert (g.num_nodes, g.num_edges, g.ops.count("call")) == (nodes, edges, calls)


def test_callbr_continues_and_funclet_instructions_stay():
    """callbr's labels continue on a `to` line as invoke's do; a `filter`
    clause is skipped, and the instructions whose names begin like a clause
    keyword stay instructions."""
    text = """\
define void @f(i32 %x) {
entry:
  callbr void asm "", "r,X"(i32 %x, i8* blockaddress(@f, %b))
          to label %a [label %b]
b:
  %lp = landingpad { i8*, i32 }
          filter [0 x i8*] zeroinitializer
  cleanupret from %cp unwind to caller
  catchret from %c to label %a
a:
  ret void
}
"""
    assert rows(parse_trace(text, "t")) == [
        ("callbr", None, regs("f", "x", "b", "a", "b"), None),
        ("landingpad", ("lp", "f"), (), None),
        ("cleanupret", None, regs("f", "cp"), None),
        ("catchret", None, regs("f", "c", "a"), None),
        ("ret", None, (), None),
    ]


def test_columns_give_one_register_per_name_and_scope():
    text = ("%x = add i32 %a, %a\n"
            "define i32 @f(i32 %a) {\n  %x = add i32 %a, %x\n  ret i32 %x\n}\n"
            "%y = add i32 %x, %a\n")
    unit = parse_trace(text, "t")
    assert {s: sorted(ids) for s, ids in unit.scopes.items()} == {
        "": ["a", "x", "y"], "f": ["a", "x"]}
    ids = sorted(i for names in unit.scopes.values() for i in names.values())
    assert ids == list(range(5))
    assert rows(unit) == [
        ("add", ("x", ""), (("a", ""), ("a", "")), None),
        ("add", ("x", "f"), (("a", "f"), ("x", "f")), None),
        ("ret", None, (("x", "f"),), None),
        ("add", ("y", ""), (("x", ""), ("a", "")), None),
    ]
    assert unit.dest[0] == unit.src[-2] and unit.dest[1] == unit.src[3] == unit.src[4]
    assert all(not c.flags.writeable for c in (unit.dest, unit.src_ptr, unit.src))


def test_quoted_function_names_open_their_own_scopes():
    """`define ... @"odd name"(...)` opens a function scope keyed by the name
    as written, so two such functions that each define %x share no register."""
    text = ('define i32 @"odd name"(i32 %n) {\n  %x = add i32 %n, %n\n  ret i32 %x\n}\n'
            'define i32 @"other$name"(i32 %n) {\n  %x = mul i32 %n, %n\n  ret i32 %x\n}\n')
    unit = parse_trace(text, "t")
    odd, other = '"odd name"', '"other$name"'
    assert rows(unit) == [
        ("add", ("x", odd), regs(odd, "n", "n"), None),
        ("ret", None, regs(odd, "x"), None),
        ("mul", ("x", other), regs(other, "n", "n"), None),
        ("ret", None, regs(other, "x"), None),
    ]
    assert set(unit.scopes) == {"", odd, other}


def test_quoted_register_names_are_read_as_written():
    """`%"…"` names, as LLVM prints a name with a space, a `:` or an escape,
    are destinations and sources like plain ones, keyed with their quotes;
    a quoted named type is a type definition, not an instruction."""
    text = ('%"class.std::a b" = type { i32 }\n'
            'define i32 @main(i32 %n) {\n'
            '  %"x y" = add i32 %n, 1\n'
            '  %z = mul i32 %"x y", %n\n'
            '  %"a\\22=b" = alloca %"class.std::a b"\n'
            '  br label %"next block"\n'
            '}\n')
    unit = parse_trace(text, "t")
    assert rows(unit) == [
        ("add", ('"x y"', "main"), regs("main", "n"), None),
        ("mul", ("z", "main"), regs("main", '"x y"', "n"), None),
        ("alloca", ('"a\\22=b"', "main"), regs("main", '"class.std::a b"'), None),
        ("br", None, regs("main", '"next block"'), None),
    ]


def test_skipped_preamble_lines():
    text = """\
; ModuleID = 'demo'
source_filename = "demo.c"
target datalayout = "e-m:e"
declare i32 @puts(i8*)
@.str = constant [4 x i8] c"hey\\00"
!0 = !{i32 1}
$f = comdat any
%struct.S = type { i32, i32 }
%T = type opaque
%x = add i32 %a, %b
"""
    assert parse_trace(text, "t").opcodes == ("add",)


@pytest.mark.parametrize("line,fragment", [
    ("%a", "without '='"),
    ("%a =", "right-hand side"),
    ("%a = 123", "opcode"),
    ("%a = store i32 %b, i32* %c", "store"),
    ("load i32, i32* %p", "destination"),
    ("%x = call void @f()", "void"),
    ("call i32 @f()", "destination"),
    ("%a = br label %next", "br"),
    ("%x = call void (i8*, ...) @f(i8* %a)", "void"),
    ("%a = sTore i32 %b, i32* %c", "store"),
    ("lOad i32, i32* %p", "destination"),
    ("%t = tail call void @f(i32 %v)", "void"),
    ("tail call i32 @f(i32 %v)", "destination"),
    ('%"x y" add i32 %n, 1', "without '='"),
    ('%"x y = add i32 %n, 1', "without '='"),
    ('%"x y" =', "right-hand side"),
    ('%"x y" = 123', "opcode"),
])
def test_malformed_lines(line, fragment):
    with pytest.raises(MalformedLine) as exc:
        parse_trace(line, "t")
    assert fragment in str(exc.value)


def test_malformed_line_number():
    text = "%a = add i32 %x, %y\n\n%bad\n"
    with pytest.raises(MalformedLine) as exc:
        parse_trace(text, "t")
    assert exc.value.line_no == 3


def test_unknown_opcode_keeps_registers():
    unit = parse_trace("%d = frobnicate i32 %a, [ %b, %c ]", "t")
    assert rows(unit) == [("frobnicate", ("d", ""), (("a", ""), ("b", ""), ("c", "")), None)]


def test_llvm_style_zext_falls_back():
    # the trailing 'to <ty>' of LLVM's form holds no register
    unit = parse_trace("%d = zext i32 %a to i64", "t")
    assert rows(unit) == [("zext", ("d", ""), (("a", ""),), None)]


def test_addr_only_on_memory_ops():
    assert parse_trace("%x = add i32 %a, %b ; addr=0xff", "t").mem_addr == {}
    assert parse_trace("store i64 %a, i64* %p ; addr=0xff", "t").mem_addr == {0: 0xFF}


def test_branch_forms():
    assert rows(parse_trace("br label %loop", "t"))[0][2] == (("loop", ""),)
    assert len(rows(parse_trace("br i1 %c, label %a, label %b", "t"))[0][2]) == 3
    assert rows(parse_trace("ret void", "t"))[0][2] == ()


# --- property tests -------------------------------------------------------

_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=3)
_tyname = st.sampled_from(["i1", "i8", "i16", "i32", "i64", "float", "double"])
_binop = st.sampled_from(sorted(ir.BINARY_OPCODES - {"icmp", "fcmp"}))
_ICMP_PREDICATES = ["eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"]


@st.composite
def _line(draw):
    kind = draw(st.integers(0, 8))
    a, b, c = (draw(_name) for _ in range(3))
    d = draw(_name)
    ty = draw(_tyname)
    if kind == 0:
        n = draw(st.integers(1, 3))
        srcs = ", ".join(f"%{draw(_name)}" for _ in range(n))
        return f"%{d} = {draw(_binop)} {ty} %{a}" + ("" if n == 0 else f", {srcs}")
    if kind == 1:
        pred = draw(st.sampled_from(_ICMP_PREDICATES))
        return f"%{d} = icmp {pred} {ty} %{a}, %{b}"
    if kind == 2:
        addr = draw(st.integers(0, 2**16))
        return f"%{d} = load {ty}, {ty}* %{a} ; addr=0x{addr:x}"
    if kind == 3:
        return f"store {ty} %{a}, {ty}* %{b}"
    if kind == 4:
        return f"%{d} = getelementptr {ty}, {ty}* %{a}, i64 %{b}"
    if kind == 5:
        return f"%{d} = alloca {ty}"
    if kind == 6:
        return f"%{d} = call {ty} @fn({ty} %{a}, {ty} %{b})"
    if kind == 7:
        return f"br i1 %{a}, label %{b}, label %{c}"
    return f"%{d} = mystery.op %{a}, %{b}"


def _opcode_of(line):
    return line.split(" = ", 1)[-1].split()[0]


@given(st.lists(_line(), min_size=1, max_size=20))
@settings(max_examples=100)
def test_indices_are_dense(lines):
    # every generated line is one instruction, so node i is line i
    unit = parse_trace("\n".join(lines), "prop")
    assert list(unit.opcodes) == [_opcode_of(line) for line in lines]


_VALUE_OPCODES = sorted(ir.BINARY_OPCODES | {"load", "getelementptr", "alloca"})
_OPCODES = _VALUE_OPCODES + sorted(ir.VALUELESS_OPCODES) + ["call", "weird.op", "frobnicate"]
_NOT_REGISTERS = st.sampled_from(["i32", "ptr", "i8*", "<4 x i64>", "label", "void",
                                  "@g", "[", "]", "0", "to", "eq", "{ i32 }"])


@given(st.sampled_from(_OPCODES),
       st.lists(st.one_of(_name.map(lambda n: "%" + n), _NOT_REGISTERS), max_size=8),
       st.booleans())
def test_sources_are_every_register_right_of_the_opcode(opcode, operands, valued):
    """Every opcode: the sources are the %-tokens right of it, in order."""
    if opcode in ir.VALUELESS_OPCODES:
        valued = False
    elif opcode in _VALUE_OPCODES:
        valued = True
    rest = ", ".join(operands)
    if opcode == "call":
        rest = f"{'i32' if valued else 'void'} @f({rest})"
    line = ("%d = " if valued else "") + f"{opcode} {rest}"
    if line.endswith("["):
        line += "\n]"  # the `[` opens a table that runs on to a line ending in `]`
    ((op, dest, sources, _),) = rows(parse_trace(line, "prop"))
    assert [name for name, _ in sources] == [t[1:] for t in operands if t.startswith("%")]
    assert (op, dest) == (opcode, ("d", "") if valued else None)


_FRAGMENTS = ["%a", "%b", " = ", ", ", "add", "icmp", "slt", "load", "store",
              "getelementptr", "alloca", "call", "@f(", ")", "br", "label", "ret",
              "void", "i1", "i32", "i64", "i064", "double", "ptr", "*", "<4 x ", ">",
              " ; addr=0x1f", ";", "define i32 @g(i32 %x) {", "}", "bb:", "target x",
              "\n", "\t", "\r"]


@given(st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=6)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_raises_only_malgraph_errors(parts):
    text = "".join(parts)
    try:
        unit = parse_trace(text, "fuzz")
    except MalgraphError:
        return
    assert unit.opcodes  # an empty parse raises EmptyUnit
