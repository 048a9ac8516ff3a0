"""Frontend tests: line grammar, structure, and register bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malgraph import ir
from malgraph.errors import EmptyUnit, MalformedLine, MalgraphError
from malgraph.ir import Instruction, Register, parse_trace


def test_basic_sub_line():
    unit = parse_trace("%3 = sub i32 %1, %2", "t")
    (inst,) = unit.instructions
    assert inst.opcode == "sub"
    assert inst.dest == Register("3")
    assert inst.sources == (Register("1"), Register("2"))
    assert inst.mem_addr is None


VALUE_CALL = Instruction("call", Register("r"), (Register("x"),))
VOID_CALL = Instruction("call", None, (Register("x"),))


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
    dest, other = ("%r = ", "") if expected.dest else ("", "%r = ")
    (inst,) = parse_trace(f"{dest}call {token} @f({token} %x)", "t").instructions
    assert inst == expected
    with pytest.raises(MalformedLine):
        parse_trace(f"{other}call {token} @f({token} %x)", "t")


def test_type_tokens_past_the_length_bound_are_opaque():
    """No type token is too long; a named type's %-token counts as a source."""
    store = Instruction("store", None, (Register("v"), Register("p")))
    for token in ["i" + "0" * 254 + "64", "<02 x i" + "0" * 250 + "8>"]:
        (inst,) = parse_trace(f"store {token} %v, ptr %p", "t").instructions
        assert inst == store
    named = "struct." + "x" * 1000
    (inst,) = parse_trace(f"store %{named}* %v, ptr %p", "t").instructions
    assert inst == Instruction("store", None, (Register(named),) + store.sources)


def test_type_tokens_and_registers_are_shared():
    unit = parse_trace("%a = add i32 %x, %x\n%b = mul i32 %a, %x\n%a = sub i32 %b, %a", "t")
    add, mul, sub = unit.instructions
    assert add.sources[0] is add.sources[1] is mul.sources[1]
    assert add.dest is mul.sources[0] is sub.dest is sub.sources[1]
    ll = parse_trace("%t = add i32 %x, %x\n"
                     "define i32 @f(i32 %x) {\n  %a = add i32 %x, %x\n  ret i32 %a\n}\n"
                     "define i32 @g(i32 %x) {\n  ret i32 %x\n}\n"
                     "%u = add i32 %x, %t\n", "t")
    t, f_add, f_ret, g_ret, u = ll.instructions
    assert f_add.sources[0] is f_add.sources[1] and f_add.dest is f_ret.sources[0]
    assert g_ret.sources[0] == Register("x", "g") != f_add.sources[0]
    assert u.sources[0] is t.sources[0] and u.sources[1] is t.dest


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
    ops = [i.opcode for i in unit.instructions]
    assert ops == ["alloca", "store", "load", "add", "icmp", "br",
                   "getelementptr", "call", "br", "ret"]

    alloca, store, load, add, icmp, br1, gep, call, br2, ret = unit.instructions
    assert alloca.dest == Register("p", "main")
    assert store.dest is None
    assert store.sources == (Register("argc", "main"), Register("p", "main"))
    assert store.mem_addr == 0x10
    assert load.mem_addr == 0x10 and load.sources == (Register("p", "main"),)
    assert add.mem_addr is None
    assert icmp.sources == (Register("one", "main"), Register("argc", "main"))
    assert br1.sources == (Register("cmp", "main"), Register("then", "main"),
                           Register("done", "main"))
    assert gep.sources == (Register("p", "main"), Register("v", "main"))
    assert call.dest == Register("r", "main")
    assert call.sources == (Register("one", "main"), Register("q", "main"))
    assert ret.sources == (Register("one", "main"),)


def test_trace_allows_redefinition():
    text = "\n".join([
        "%a = add i32 %x, %y",
        "%b = mul i32 %a, %a",
        "%a = sub i32 %b, %x",   # shadows the first %a
        "%c = add i32 %a, %b",
    ])
    unit = parse_trace(text, "t")
    assert len(unit.instructions) == 4
    assert unit.instructions[0].dest == unit.instructions[2].dest == Register("a")


def test_call_with_a_function_type():
    """The return token before a function type decides the destination."""
    (inst,) = parse_trace("call void (i8*, ...) @f(i8* %a)", "t").instructions
    assert inst == Instruction("call", None, (Register("a"),))
    (inst,) = parse_trace("%x = call i32 (i8*, ...) @f(i8* %a)", "t").instructions
    assert inst == Instruction("call", Register("x"), (Register("a"),))


@pytest.mark.parametrize("prefix", ["tail", "musttail", "notail"])
def test_tail_call_prefixes_are_calls(prefix):
    """A tail-call marker is dropped, so the line is a call with the call's checks."""
    (inst,) = parse_trace(f"%t = {prefix} call i32 @f(i32 %v)", "t").instructions
    assert inst == Instruction("call", Register("t"), (Register("v"),))
    (inst,) = parse_trace(f"{prefix} call void @f(i32 %v)", "t").instructions
    assert inst == Instruction("call", None, (Register("v"),))
    with pytest.raises(MalformedLine, match="void"):
        parse_trace(f"%t = {prefix} call void @f(i32 %v)", "t")
    with pytest.raises(MalformedLine, match="destination"):
        parse_trace(f"{prefix} call i32 @f(i32 %v)", "t")
    # only before `call`: otherwise the word is the opcode
    (inst,) = parse_trace(f"%t = {prefix} add i32 %v", "t").instructions
    assert inst.opcode == prefix


def test_columns_give_one_register_per_name_and_scope():
    text = ("%x = add i32 %a, %a\n"
            "define i32 @f(i32 %a) {\n  %x = add i32 %a, %x\n  ret i32 %x\n}\n"
            "%y = add i32 %x, %a\n")
    unit = parse_trace(text, "t")
    assert len(unit.instructions) == 4
    assert "registers" not in vars(unit)  # len() builds no records
    assert sorted((r.name, r.scope) for r in unit.registers) == [
        ("a", ""), ("a", "f"), ("x", ""), ("x", "f"), ("y", "")]
    assert [unit.registers[d] if d >= 0 else None for d in unit.dest] == [
        Register("x"), Register("x", "f"), None, Register("y")]
    first, second = list(unit.instructions), list(unit.instructions)
    assert first == second
    # every read hands out the table's one Register per name and scope
    for a, b in zip(first, second):
        assert all(r is s for r, s in zip(a.sources, b.sources))
    assert first[0].dest is second[3].sources[0] is unit.registers[unit.dest[0]]
    assert first[1].sources[1] is first[2].sources[0] is first[1].dest
    assert unit.instructions[-1] == first[3]
    with pytest.raises(IndexError):
        unit.instructions[4]


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
    unit = parse_trace(text, "t")
    assert len(unit.instructions) == 1
    assert unit.instructions[0].opcode == "add"


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
    (inst,) = unit.instructions
    assert inst.opcode == "frobnicate"
    assert inst.dest == Register("d")
    assert inst.sources == (Register("a"), Register("b"), Register("c"))


def test_llvm_style_zext_falls_back():
    # the trailing 'to <ty>' of LLVM's form holds no register
    unit = parse_trace("%d = zext i32 %a to i64", "t")
    (inst,) = unit.instructions
    assert inst.opcode == "zext"
    assert inst.sources == (Register("a"),)


def test_addr_only_on_memory_ops():
    unit = parse_trace("%x = add i32 %a, %b ; addr=0xff", "t")
    assert unit.instructions[0].mem_addr is None
    unit = parse_trace("store i64 %a, i64* %p ; addr=0xff", "t")
    assert unit.instructions[0].mem_addr == 0xFF


def test_branch_forms():
    u = parse_trace("br label %loop", "t")
    assert u.instructions[0].sources == (Register("loop"),)
    u = parse_trace("br i1 %c, label %a, label %b", "t")
    assert len(u.instructions[0].sources) == 3
    u = parse_trace("ret void", "t")
    assert u.instructions[0].sources == ()


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
    assert [i.opcode for i in unit.instructions] == [_opcode_of(line) for line in lines]


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
    (inst,) = parse_trace(line, "prop").instructions
    assert [r.name for r in inst.sources] == [t[1:] for t in operands if t.startswith("%")]
    assert (inst.opcode, inst.dest) == (opcode, Register("d") if valued else None)


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
    assert unit.instructions  # an empty parse raises EmptyUnit
