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

Type tokens are checked for shape only (each register operand needs a
non-empty token before it) and are not kept: graph nodes carry opcodes.  A
parse hands out one shared ``Register`` per name and function scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Register:
    """A register token; equal iff name and function scope both match."""

    name: str
    scope: str = ""


@dataclass(frozen=True)
class Instruction:
    opcode: str
    dest: Register | None
    sources: tuple[Register, ...]
    mem_addr: int | None = None


@dataclass(frozen=True)
class TraceUnit:
    """A parsed file: its origin and its instruction sequence."""

    origin: str
    instructions: tuple[Instruction, ...]


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


def _split_type_reg(chunk: str, regs: _Registers) -> Register:
    """The register of a `<ty> %R` operand chunk (the type may contain spaces)."""
    chunk = chunk.strip()
    m = _TYPE_REG_RE.match(chunk)
    if not m or not m.group(1).strip():
        raise _StrictFail(f"expected '<ty> %reg', got {chunk!r}")
    return regs[m.group(2)]


def _parse_strict(opcode: str, rest: str, regs: _Registers):
    """Parse the operand text of a supported opcode.

    Returns (dest_required, sources); raises _StrictFail when the operands do
    not match the grammar, and MalformedLine-worthy contradictions are
    detected by the caller via the returned dest requirement.
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
        sources = [_split_type_reg(first, regs)]
        sources += [_reg_from_operand(c, regs) for c in chunks[1:]]
        return True, tuple(sources)

    if opcode == "load":
        if len(chunks) != 2:
            raise _StrictFail("load expects '<ty>, <ty>* %P'")
        if "%" in chunks[0]:
            raise _StrictFail("load result type must not contain a register")
        return True, (_split_type_reg(chunks[1], regs),)

    if opcode == "store":
        if len(chunks) != 2:
            raise _StrictFail("store expects '<ty> %V, <ty>* %P'")
        return False, (_split_type_reg(chunks[0], regs), _split_type_reg(chunks[1], regs))

    if opcode == "getelementptr":
        if len(chunks) < 2 or "%" in chunks[0]:
            raise _StrictFail("getelementptr expects '<ty>, <ty>* %P(, <ity> %I)*'")
        return True, tuple(_split_type_reg(c, regs) for c in chunks[1:])

    if opcode == "alloca":
        if len(chunks) != 1 or "%" in chunks[0] or not chunks[0]:
            raise _StrictFail("alloca expects '<ty>'")
        return True, ()

    if opcode == "call":
        m = _CALLEE_RE.match(rest.strip())
        if not m:
            raise _StrictFail("call expects '<ty> @name(...)'")
        if not m.group(1).strip() or "%" in m.group(1):
            raise _StrictFail("call return type missing")
        args = m.group(2).strip()
        sources = tuple(_split_type_reg(c, regs) for c in args.split(",")) if args else ()
        return m.group(1).strip() != "void", sources

    if opcode == "br":
        flat = rest.strip()
        m = _BR_RE.fullmatch(flat)
        if m:
            return False, (_reg_from_operand(m.group(1), regs),)
        m = _COND_BR_RE.fullmatch(flat)
        if m:
            return False, tuple(_reg_from_operand(m.group(i), regs) for i in (1, 2, 3))
        raise _StrictFail("br expects 'label %L' or 'i1 %C, label %L1, label %L2'")

    if opcode == "ret":
        flat = rest.strip()
        if flat == "void":
            return False, ()
        return False, (_split_type_reg(flat, regs),)

    raise _StrictFail(f"no strict rule for {opcode}")


def _parse_instruction_line(code: str, line_no: int, regs: _Registers) -> tuple:
    """Parse one instruction line into (opcode, dest_name, sources).

    Falls back to the permissive form (opcode + all rhs register tokens) when
    the strict grammar does not match but the line is still
    instruction-shaped.  Raises MalformedLine for structural breakage and for
    dest-presence contradictions on supported opcodes.
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
            needs_dest, sources = _parse_strict(opcode, rest, regs)
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
        return opcode, dest_name, sources

    return _fallback(opcode, dest_name, rest, regs)


def _fallback(opcode: str, dest_name: str | None, rest: str, regs: _Registers) -> tuple:
    sources = tuple(regs[t] for t in _REG_TOKEN.findall(rest))
    return opcode.lower(), dest_name, sources


def parse_trace(text: str, origin) -> TraceUnit:
    """Parse a static ``.ll``-style file or a flat dynamic trace into a TraceUnit.

    Redefinition of a register name is legal; each line stays a distinct
    instruction and later definitions shadow earlier ones when dependencies are
    resolved downstream.
    """
    instructions: list[Instruction] = []
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
            continue
        if _LABEL_RE.match(line) or line.startswith(_SKIP_PREFIXES):
            continue

        opcode, dest_name, sources = _parse_instruction_line(line, line_no, regs)
        dest = regs[dest_name] if dest_name is not None else None
        if opcode not in ("load", "store"):
            mem_addr = None
        instructions.append(Instruction(opcode, dest, sources, mem_addr))

    if not instructions:
        raise EmptyUnit(f"no instructions found in {origin}")
    return TraceUnit(str(origin), tuple(instructions))
