"""Textual IR and instruction-trace parsing.

Reads SSA-style text, one instruction per line, in two flavours: static
``.ll``-like files with ``define``/block structure, and flat dynamic trace
files where the same register name may be redefined.  After comment stripping
each instruction line has the form ``[%D =] <opcode> <operands>``, with an
optional trailing ``; addr=0x<hex>`` that load and store keep.

One rule gives the sources: every ``%`` register token right of the opcode,
in order.  Operands, branch labels and named types (``%struct.S``) all count;
other type tokens are not kept, since graph nodes carry opcodes.  The
destination ``%D`` must agree with the opcode: ``store``, ``br`` and ``ret``
never have one; ``BINARY_OPCODES``, ``load``, ``getelementptr`` and
``alloca`` always do; a ``call`` has one unless its return token, the text
before the first ``(`` or ``@``, is ``void``.

``define ... @name(...) {`` and ``}`` delimit a function, whose registers form
their own scope.  Block labels, named-type definitions (``%T = type ...``)
and preamble/metadata lines (``target``, ``declare``, ``@`` globals, ``!``
metadata, ``attributes``, ``source_filename``) are skipped.  A parse hands
out one shared ``Register`` per name and function scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import EmptyUnit, MalformedLine

# Value-producing opcodes; with load, getelementptr and alloca they need a
# destination.
BINARY_OPCODES = frozenset({
    "add", "sub", "mul", "udiv", "sdiv", "fadd", "fsub", "fmul", "fdiv",
    "and", "or", "xor", "shl", "lshr", "ashr", "icmp", "fcmp", "select",
    "phi", "zext", "sext", "trunc", "bitcast",
})
_DEST_OPCODES = BINARY_OPCODES | {"load", "getelementptr", "alloca"}
# Opcodes that never produce a value (a call's return token decides).
VALUELESS_OPCODES = frozenset({"store", "br", "ret"})


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

_SKIP_PREFIXES = ("target ", "source_filename", "declare ", "attributes ", "@", "!")


class _Registers(dict):
    """The registers of one function scope: one shared Register per name."""

    def __init__(self, scope: str):
        super().__init__()
        self.scope = scope

    def __missing__(self, name: str) -> Register:
        reg = self[name] = Register(name, self.scope)
        return reg


def _parse_instruction_line(code: str, line_no: int, regs: _Registers) -> tuple:
    """Parse one instruction line into (opcode, dest_name, sources).

    Raises MalformedLine for structural breakage and for a destination that
    the opcode, or a call's return token, contradicts.
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

    if opcode in VALUELESS_OPCODES and dest_name is not None:
        raise MalformedLine(line_no, f"{opcode} cannot produce a value")
    if opcode in _DEST_OPCODES and dest_name is None:
        raise MalformedLine(line_no, f"{opcode} requires a destination")
    if opcode == "call":
        returns = rest.split("(", 1)[0].split("@", 1)[0].strip()
        if returns == "void" and dest_name is not None:
            raise MalformedLine(line_no, "call returning void cannot have a destination")
        if returns and returns != "void" and "%" not in returns and dest_name is None:
            raise MalformedLine(line_no, "non-void call requires a destination")
    return opcode.lower(), dest_name, tuple(regs[t] for t in _REG_TOKEN.findall(rest))


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
        if opcode == "type" and dest_name is not None:
            continue  # a named-type definition, %T = type {...}
        dest = regs[dest_name] if dest_name is not None else None
        if opcode not in ("load", "store"):
            mem_addr = None
        instructions.append(Instruction(opcode, dest, sources, mem_addr))

    if not instructions:
        raise EmptyUnit(f"no instructions found in {origin}")
    return TraceUnit(str(origin), tuple(instructions))
