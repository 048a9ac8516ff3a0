"""Textual IR and instruction-trace parsing.

Accepts a fixed SSA-style instruction subset (one instruction per line) in two
flavours: static ``.ll``-like files with ``define``/block structure, and flat
dynamic trace files where the same register name may be redefined.  Lines whose
opcode is outside the supported set are kept permissively (opcode plus all
register tokens) so every instruction still becomes a graph node.

Supported instruction forms, after comment stripping::

    %D = <op> <ty> %S1(, %S2)*      op in BINARY_OPCODES (add, sub, icmp, ...)
    %D = load <ty>, <ty>* %P        optional trailing "; addr=0x<hex>"
    store <ty> %V, <ty>* %P         optional trailing "; addr=0x<hex>"
    %D = getelementptr <ty>, <ty>* %P(, <ity> %I)*
    %D = alloca <ty>
    %D = call <ty> @name(<ty> %A, ...)   /  call void @name(...)
    br label %L  |  br i1 %C, label %L1, label %L2
    ret <ty> %V  |  ret void

``define ... @name(...) {`` and ``}`` delimit a function, whose registers form
their own scope.  Block labels and preamble/metadata lines (``target``,
``declare``, ``@`` globals, ``!`` metadata, ``attributes``,
``source_filename``) are skipped.

Type tokens and registers are shared immutable values: each type token maps
to one ``ValueType`` through a bounded cache, and a parse hands out one
``Register`` per name and function scope.  A type token longer than
``MAX_TYPE_TOKEN`` characters (an integer width with thousands of digits, a
vector nested hundreds deep) is ``opaque``, like any other unknown token.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

from .errors import EmptyUnit, MalformedLine

# Opcodes parsed with the shared "%D = <op> <ty> %S1(, %S2)*" production.
BINARY_OPCODES = frozenset({
    "add", "sub", "mul", "udiv", "sdiv", "fadd", "fsub", "fmul", "fdiv",
    "and", "or", "xor", "shl", "lshr", "ashr", "icmp", "fcmp", "select",
    "phi", "zext", "sext", "trunc", "bitcast",
})
SUPPORTED_OPCODES = BINARY_OPCODES | {
    "load", "store", "getelementptr", "alloca", "call", "br", "ret",
}
# Opcodes that never produce a value (call is handled via its return type).
VALUELESS_OPCODES = frozenset({"store", "br", "ret"})
# Opcodes that always produce one.
_DEST_OPCODES = BINARY_OPCODES | {"load", "getelementptr", "alloca"}

ICMP_PREDICATES = frozenset({
    "eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle",
})
FCMP_PREDICATES = frozenset({
    "false", "oeq", "ogt", "oge", "olt", "ole", "one", "ord",
    "ueq", "ugt", "uge", "ult", "ule", "une", "uno", "true",
})

VALID_INT_BITS = frozenset({1, 8, 16, 32, 64})


@dataclass(frozen=True)
class ValueType:
    """A value type; determines the byte size carried on dependency edges."""

    kind: str  # "int" | "float32" | "float64" | "pointer" | "vector" | "void" | "opaque"
    bits: int = 0
    count: int = 0
    elem: "ValueType | None" = None

    def __post_init__(self):
        if self.kind == "int" and self.bits not in VALID_INT_BITS:
            raise ValueError(f"int width must be one of {sorted(VALID_INT_BITS)}, got {self.bits}")
        if self.kind == "vector" and (self.count < 1 or self.elem is None):
            raise ValueError("vector type needs count >= 1 and an element type")


INT1 = ValueType("int", bits=1)
INT8 = ValueType("int", bits=8)
INT16 = ValueType("int", bits=16)
INT32 = ValueType("int", bits=32)
INT64 = ValueType("int", bits=64)
FLOAT32 = ValueType("float32")
FLOAT64 = ValueType("float64")
POINTER = ValueType("pointer")
VOID = ValueType("void")
OPAQUE = ValueType("opaque")


def sizeof_type(t: ValueType) -> int:
    """Byte size of a value of type `t`; void/opaque default to 1."""
    if t.kind == "int":
        return math.ceil(t.bits / 8)
    if t.kind == "float32":
        return 4
    if t.kind == "float64":
        return 8
    if t.kind == "pointer":
        return 8  # fixed 64-bit data layout
    if t.kind == "vector":
        return t.count * sizeof_type(t.elem)
    return 1


_INT_TOKEN = re.compile(r"^i(\d+)$")
_VECTOR_TOKEN = re.compile(r"^<\s*(\d+)\s*x\s+(.+?)\s*>$")
# Longer type tokens are opaque.  This bounds the digits handed to int() and
# the vector nesting depth, so the recursion below and the recursive
# ValueType methods stay far from the interpreter's limits.
MAX_TYPE_TOKEN = 256


def parse_type_token(token: str) -> ValueType:
    """Map a type token to a ValueType; unknown and oversize tokens become opaque."""
    token = token.strip()
    if token.endswith("*"):
        return POINTER
    return _parse_bare_type(token) if len(token) <= MAX_TYPE_TOKEN else OPAQUE


@functools.lru_cache(maxsize=1024)
def _parse_bare_type(token: str) -> ValueType:
    """parse_type_token of a stripped token that is not a pointer."""
    if token == "ptr":
        return POINTER
    if token == "void":
        return VOID
    if token == "float":
        return FLOAT32
    if token == "double":
        return FLOAT64
    m = _INT_TOKEN.match(token)
    if m:
        bits = int(m.group(1))
        if bits in VALID_INT_BITS:
            return ValueType("int", bits=bits)
        return OPAQUE
    m = _VECTOR_TOKEN.match(token)
    if m:
        count = int(m.group(1))
        if count >= 1:
            return ValueType("vector", count=count, elem=parse_type_token(m.group(2)))
        return OPAQUE
    return OPAQUE


def format_type(t: ValueType) -> str:
    """Canonical token for a ValueType (inverse of parse_type_token)."""
    if t.kind == "int":
        return f"i{t.bits}"
    if t.kind == "float32":
        return "float"
    if t.kind == "float64":
        return "double"
    if t.kind == "pointer":
        return "ptr"
    if t.kind == "vector":
        return f"<{t.count} x {format_type(t.elem)}>"
    return t.kind  # void, opaque


@dataclass(frozen=True)
class Register:
    """A register token; equal iff name and function scope both match."""

    name: str
    scope: str = ""


@dataclass(frozen=True)
class Instruction:
    index: int
    opcode: str
    dest: Register | None
    sources: tuple[Register, ...]
    result_type: ValueType
    mem_addr: int | None = None


@dataclass(frozen=True)
class TraceUnit:
    """A parsed file: the instruction sequence plus register bookkeeping.

    `args` holds declared function parameters; `externals` holds every register
    (or branch label) that is consumed before any definition is seen, so no
    source token is ever silently dropped.
    """

    origin: str
    instructions: tuple[Instruction, ...]
    args: frozenset[Register] = field(default_factory=frozenset)
    externals: frozenset[Register] = field(default_factory=frozenset)


_REG_TOKEN = re.compile(r"%([\w.$-]+)")
_DEST_RE = re.compile(r"^%([\w.$-]+)\s*=\s*(.*)$")
_OPCODE_RE = re.compile(r"^([a-z][\w.]*)\b\s*(.*)$", re.DOTALL)
_ADDR_ANNOT = re.compile(r";\s*addr=0x([0-9a-fA-F]+)\s*$")
_DEFINE_RE = re.compile(r"^define\b.*?@([\w.$-]+)\s*\((.*?)\)")
_LABEL_RE = re.compile(r"^([\w.$-]+):\s*$")
_CALLEE_RE = re.compile(r"^(.*?)\s*@[\w.$-]+\s*\((.*)\)\s*$", re.DOTALL)
_TYPE_REG_RE = re.compile(r"^(.*?)\s*%([\w.$-]+)$", re.DOTALL)
_PREDICATE_RE = re.compile(r"^([a-z]+)\s+(.*)$", re.DOTALL)
_BR_RE = re.compile(r"label\s+(%[\w.$-]+)")
_COND_BR_RE = re.compile(
    r"i1\s+(%[\w.$-]+)\s*,\s*label\s+(%[\w.$-]+)\s*,\s*label\s+(%[\w.$-]+)")

_SKIP_PREFIXES = ("target ", "source_filename", "declare ", "attributes ", "@", "!")


class _StrictFail(Exception):
    pass


class _Registers(dict):
    """The registers of one function scope: one shared Register per name."""

    def __init__(self, scope: str):
        super().__init__()
        self.scope = scope

    def __missing__(self, name: str) -> Register:
        reg = self[name] = Register(name, self.scope)
        return reg


def _reg_from_operand(text: str, regs: _Registers) -> Register:
    """Expect `text` to be exactly one %-register token."""
    text = text.strip()
    m = _REG_TOKEN.fullmatch(text)
    if not m:
        raise _StrictFail(f"expected register, got {text!r}")
    return regs[m.group(1)]


def _split_type_reg(chunk: str, regs: _Registers) -> tuple[ValueType, Register]:
    """Parse a `<ty> %R` operand chunk (the type may contain spaces)."""
    chunk = chunk.strip()
    m = _TYPE_REG_RE.match(chunk)
    if not m or not m.group(1).strip():
        raise _StrictFail(f"expected '<ty> %reg', got {chunk!r}")
    return parse_type_token(m.group(1)), regs[m.group(2)]


def _parse_strict(opcode: str, rest: str, regs: _Registers):
    """Parse the operand text of a supported opcode.

    Returns (dest_required, sources, result_type); raises _StrictFail when the
    operands do not match the grammar, and MalformedLine-worthy contradictions
    are detected by the caller via the returned dest requirement.
    """
    chunks = [c.strip() for c in rest.split(",")] if rest.strip() else []

    if opcode in BINARY_OPCODES:
        if not chunks:
            raise _StrictFail("missing operands")
        first = chunks[0]
        if opcode in ("icmp", "fcmp"):
            preds = ICMP_PREDICATES if opcode == "icmp" else FCMP_PREDICATES
            m = _PREDICATE_RE.match(first)
            if not m or m.group(1) not in preds:
                raise _StrictFail("missing comparison predicate")
            first = m.group(2)
            _, src0 = _split_type_reg(first, regs)
            result = INT1
        else:
            result, src0 = _split_type_reg(first, regs)
        sources = [src0] + [_reg_from_operand(c, regs) for c in chunks[1:]]
        return True, tuple(sources), result

    if opcode == "load":
        if len(chunks) != 2:
            raise _StrictFail("load expects '<ty>, <ty>* %P'")
        result = parse_type_token(chunks[0])
        if "%" in chunks[0]:
            raise _StrictFail("load result type must not contain a register")
        _, ptr = _split_type_reg(chunks[1], regs)
        return True, (ptr,), result

    if opcode == "store":
        if len(chunks) != 2:
            raise _StrictFail("store expects '<ty> %V, <ty>* %P'")
        stored_ty, val = _split_type_reg(chunks[0], regs)
        _, ptr = _split_type_reg(chunks[1], regs)
        # the stored value's type is recorded so memory edges can weigh it
        return False, (val, ptr), stored_ty

    if opcode == "getelementptr":
        if len(chunks) < 2 or "%" in chunks[0]:
            raise _StrictFail("getelementptr expects '<ty>, <ty>* %P(, <ity> %I)*'")
        _, base = _split_type_reg(chunks[1], regs)
        sources = [base]
        for c in chunks[2:]:
            _, idx = _split_type_reg(c, regs)
            sources.append(idx)
        return True, tuple(sources), POINTER

    if opcode == "alloca":
        if len(chunks) != 1 or "%" in chunks[0] or not chunks[0]:
            raise _StrictFail("alloca expects '<ty>'")
        parse_type_token(chunks[0])
        return True, (), POINTER

    if opcode == "call":
        m = _CALLEE_RE.match(rest.strip())
        if not m:
            raise _StrictFail("call expects '<ty> @name(...)'")
        result = parse_type_token(m.group(1))
        if not m.group(1).strip() or "%" in m.group(1):
            raise _StrictFail("call return type missing")
        args_text = m.group(2).strip()
        sources = []
        if args_text:
            for c in args_text.split(","):
                _, arg = _split_type_reg(c, regs)
                sources.append(arg)
        if result == VOID:
            return False, tuple(sources), VOID
        return True, tuple(sources), result

    if opcode == "br":
        flat = rest.strip()
        m = _BR_RE.fullmatch(flat)
        if m:
            return False, (_reg_from_operand(m.group(1), regs),), VOID
        m = _COND_BR_RE.fullmatch(flat)
        if m:
            srcs = tuple(_reg_from_operand(m.group(i), regs) for i in (1, 2, 3))
            return False, srcs, VOID
        raise _StrictFail("br expects 'label %L' or 'i1 %C, label %L1, label %L2'")

    if opcode == "ret":
        flat = rest.strip()
        if flat == "void":
            return False, (), VOID
        ty, val = _split_type_reg(flat, regs)
        return False, (val,), ty

    raise _StrictFail(f"no strict rule for {opcode}")


def _parse_instruction_line(code: str, line_no: int, regs: _Registers) -> tuple:
    """Parse one instruction line into (opcode, dest_name, sources, result_type).

    Falls back to the permissive form (opcode + all rhs register tokens,
    result_type opaque) when the strict grammar does not match but the line is
    still instruction-shaped.  Raises MalformedLine for structural breakage and
    for dest-presence contradictions on supported opcodes.
    """
    dest_name = None
    rhs = code
    if code.startswith("%"):
        m = _DEST_RE.match(code)
        if not m:
            raise MalformedLine(line_no, "register token without '='")
        dest_name, rhs = m.group(1), m.group(2).strip()
        if not rhs:
            raise MalformedLine(line_no, "empty right-hand side")

    m = _OPCODE_RE.match(rhs)
    if not m:
        raise MalformedLine(line_no, f"expected an opcode, got {rhs!r}")
    opcode, rest = m.group(1), m.group(2)

    if opcode in SUPPORTED_OPCODES:
        if opcode in VALUELESS_OPCODES and dest_name is not None:
            raise MalformedLine(line_no, f"{opcode} cannot produce a value")
        if opcode in _DEST_OPCODES and dest_name is None:
            raise MalformedLine(line_no, f"{opcode} requires a destination")
        try:
            needs_dest, sources, result = _parse_strict(opcode, rest, regs)
        except _StrictFail:
            if opcode == "call":
                # explicit 'call void' with a dest, or explicit non-void without
                # one, is contradictory even when the rest is unparseable
                first = rest.split("(", 1)[0].split("@", 1)[0].strip()
                explicit_void = first == "void"
                if explicit_void and dest_name is not None:
                    raise MalformedLine(line_no, "call returning void cannot have a destination")
                if first and not explicit_void and "%" not in first and dest_name is None:
                    raise MalformedLine(line_no, "non-void call requires a destination")
            return _fallback(opcode, dest_name, rest, regs)
        if opcode == "call":
            if needs_dest and dest_name is None:
                raise MalformedLine(line_no, "non-void call requires a destination")
            if not needs_dest and dest_name is not None:
                raise MalformedLine(line_no, "call returning void cannot have a destination")
        return opcode, dest_name, sources, result

    return _fallback(opcode, dest_name, rest, regs)


def _fallback(opcode: str, dest_name: str | None, rest: str, regs: _Registers) -> tuple:
    sources = tuple(regs[t] for t in _REG_TOKEN.findall(rest))
    return opcode.lower(), dest_name, sources, OPAQUE


def _parse_unit(text: str, origin: str) -> TraceUnit:
    instructions: list[Instruction] = []
    args: set[Register] = set()
    function = ""
    scopes = {function: _Registers(function)}
    regs = scopes[function]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        mem_addr = None
        if ";" in raw:
            m = _ADDR_ANNOT.search(raw)
            if m:
                mem_addr = int(m.group(1), 16)
                raw = raw[: m.start()]
            raw = raw.split(";", 1)[0]
        line = raw.strip()
        if not line:
            continue

        if line == "}":
            function = ""
            regs = scopes.setdefault(function, _Registers(function))
            continue
        m = _DEFINE_RE.match(line)
        if m:
            function = m.group(1)
            regs = scopes.setdefault(function, _Registers(function))
            args.update(regs[t] for t in _REG_TOKEN.findall(m.group(2)))
            continue
        if _LABEL_RE.match(line) or line.startswith(_SKIP_PREFIXES):
            continue

        opcode, dest_name, sources, result = _parse_instruction_line(line, line_no, regs)
        dest = regs[dest_name] if dest_name is not None else None
        if opcode not in ("load", "store"):
            mem_addr = None
        instructions.append(Instruction(
            index=len(instructions),
            opcode=opcode,
            dest=dest,
            sources=sources,
            result_type=result,
            mem_addr=mem_addr,
        ))

    if not instructions:
        raise EmptyUnit(f"no instructions found in {origin}")

    defined: set[Register] = set()
    externals: set[Register] = set()
    for inst in instructions:
        for src in inst.sources:
            if src not in defined and src not in args:
                externals.add(src)
        if inst.dest is not None:
            defined.add(inst.dest)

    return TraceUnit(
        origin=str(origin),
        instructions=tuple(instructions),
        args=frozenset(args),
        externals=frozenset(externals),
    )


def parse_ll(text: str, origin) -> TraceUnit:
    """Parse a static .ll-style file into a TraceUnit."""
    return _parse_unit(text, str(origin))


def parse_trace(text: str, origin) -> TraceUnit:
    """Parse a flat dynamic-trace file (one executed instruction per line).

    Redefinition of a register name is legal here; each line stays a distinct
    instruction and later definitions shadow earlier ones when dependencies are
    resolved downstream.
    """
    return _parse_unit(text, str(origin))
