"""Textual IR and instruction-trace parsing, into columns.

Reads SSA-style text, one instruction per line, in two flavours: static
``.ll``-like files with ``define``/block structure, and flat dynamic trace
files where the same register name may be redefined.  After comment stripping
each instruction line has the form ``[%D =] <opcode> <operands>``, with an
optional trailing ``; addr=0x<hex>`` that load and store keep.  An
instruction line that ends in ``[`` runs on through the next line that ends
in ``]``, and those lines are read as one instruction: that is how LLVM
prints a ``switch`` jump table.  A line that starts with ``to`` right after
an ``invoke`` or ``callbr`` continues it (``to label %ok unwind label
%lpad``), and the ``cleanup``, ``catch`` and ``filter`` clause lines of a
``landingpad`` make no instruction.  The opcode is read lower-case, and a
``tail``, ``musttail`` or ``notail`` before ``call`` is dropped, so those
lines are calls.

One rule gives the sources: every ``%`` register token right of the opcode,
in order.  Operands, branch labels and named types (``%struct.S``) all count;
other type tokens are not kept, since graph nodes carry opcodes.  The
destination ``%D`` must agree with the opcode: ``store``, ``br`` and ``ret``
never have one; ``BINARY_OPCODES``, ``load``, ``getelementptr`` and
``alloca`` always do; a ``call`` has one unless ``void`` is one of the
whitespace tokens before the first ``(`` or ``@``, where the return type
stands among any calling convention and attributes and before a
constant-expression or ``asm`` callee.

A register name may be quoted, ``%"x y"``, as LLVM prints a name that holds a
space, a ``:`` or an escape; destinations, sources and named types
(``%"class.std::a b" = type ...``) read it as written, quotes kept.  LLVM
quotes only the names that need it, so each name has one written form.

``define ... @name(...) {`` and ``}`` delimit a function, whose registers form
their own scope, keyed by the name as written (``@"odd name"`` gives the
scope ``"odd name"``, quotes kept).  Block labels, named-type definitions
(``%T = type ...``) and preamble/metadata lines (``target``, ``declare``,
``@`` globals, ``!`` metadata, ``attributes``, ``source_filename``) are
skipped.

A parse gives columns, not records.  Each register name in each function
scope gets one id, ``scopes[scope][name]``; the ids of all scopes together
run from 0 without a gap.  The ``i``-th instruction has opcode
``opcodes[i]``, destination id ``dest[i]`` (-1 for none) and source ids
``src[src_ptr[i]:src_ptr[i + 1]]`` (CSR form); ``mem_addr`` maps the index
of each load and store that carries an address to that address.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True, eq=False)
class TraceUnit:
    """A parsed file: its origin and its instruction columns (see the module docs)."""

    origin: str
    opcodes: tuple[str, ...]
    dest: np.ndarray
    src_ptr: np.ndarray
    src: np.ndarray
    mem_addr: dict[int, int]
    scopes: dict[str, dict[str, int]]  # function scope -> register name -> id

    @property
    def instructions(self) -> tuple[str, ...]:
        """The opcodes, by the name whose length the benchmark harness counts."""
        return self.opcodes


# a register name, plain or quoted (`%"x y"`), as written; the common form first
_REG = r'%([\w.$-]+|"[^"]*")'
_REG_TOKEN = re.compile(_REG)
# One match per instruction line: destination, opcode, the rest.
_LINE_RE = re.compile(rf"(?:{_REG}\s*=\s*)?(?i:(?:must|no)?tail\s+(?=call\b(?!\.)))?"
                      r"([a-z][\w.]*)\b\s*(.*)")
_DEST_RE = re.compile(rf"^{_REG}\s*=\s*(.*)$")
_ADDR_ANNOT = re.compile(r";\s*addr=0x([0-9a-fA-F]+)\s*$")
# a function name, quoted (`@"odd name"`) or not; scopes key names as written
_DEFINE_RE = re.compile(r'^define\b.*?@("[^"]*"|[\w.$-]+)\s*\((.*?)\)')
_LABEL_RE = re.compile(r"^([\w.$-]+):\s*$")

_SKIP_PREFIXES = ("target ", "source_filename", "declare ", "attributes ", "@", "!", "$")
# landingpad clause lines, besides `cleanup` alone
_CLAUSE_PREFIXES = ("catch ", "filter ")
# the opcodes whose destination labels LLVM prints on a next line that starts with `to`
_TO_OPCODES = frozenset({"invoke", "callbr"})


def _malformed(line: str, line_no: int) -> MalformedLine:
    """The error for an instruction line that ``_LINE_RE`` does not match."""
    rhs = line
    if line.startswith("%"):
        m = _DEST_RE.match(line)
        if not m:
            return MalformedLine(line_no, "register token without '='")
        rhs = m.group(2).strip()
        if not rhs:
            return MalformedLine(line_no, "empty right-hand side")
    return MalformedLine(line_no, f"expected an opcode, got {rhs!r}")


def _unclosed(line_no: int) -> MalformedLine:
    """The error for a ``[`` that no line ending in ``]`` closes."""
    return MalformedLine(line_no, "'[' is not closed by a line ending in ']'")


def parse_trace(text: str, origin) -> TraceUnit:
    """Parse a static ``.ll``-style file or a flat dynamic trace into a TraceUnit.

    Redefinition of a register name is legal; each line stays a distinct
    instruction and later definitions shadow earlier ones when dependencies are
    resolved downstream.  Raises MalformedLine for structural breakage and for
    a destination that the opcode, or a call's return token, contradicts.
    """
    opcodes, dest, src, src_ptr, mem_addr = [], [], [], [0], {}
    new_id = itertools.count().__next__
    ids = defaultdict(new_id)  # register name -> id, in the current scope
    scopes = {"": ids}
    table = None  # [line number, text so far] of an instruction whose `[` is open

    for line_no, raw in enumerate(text.splitlines(), start=1):
        addr = None
        if ";" in raw:
            m = _ADDR_ANNOT.search(raw)
            if m:
                addr = int(m.group(1), 16)
                raw = raw[: m.start()]
            raw = raw.split(";", 1)[0]
        line = raw.strip()
        if not line:
            continue

        if table is not None:
            if line == "}":
                raise _unclosed(table[0])
            table[1] += " " + line
            if not line.endswith("]"):
                continue
            (line_no, line), table = table, None
        elif line[0] != "%":  # no structural line starts with %
            m = _DEFINE_RE.match(line)
            if m or line == "}":
                ids = scopes.setdefault(m.group(1) if m else "", defaultdict(new_id))
                continue
            if (_LABEL_RE.match(line) or line.startswith(_SKIP_PREFIXES)
                    or line == "cleanup" or line.startswith(_CLAUSE_PREFIXES)):
                continue
            if line.startswith("to ") and opcodes and opcodes[-1] in _TO_OPCODES:
                src.extend(map(ids.__getitem__, _REG_TOKEN.findall(line)))
                src_ptr[-1] = len(src)
                continue
        if line.endswith("["):
            table = [line_no, line]
            continue

        m = _LINE_RE.match(line)
        if m is None:
            raise _malformed(line, line_no)
        dest_name, opcode, rest = m.groups()
        opcode = opcode.lower()
        if dest_name is None:
            if opcode in _DEST_OPCODES:
                raise MalformedLine(line_no, f"{opcode} requires a destination")
        elif opcode in VALUELESS_OPCODES:
            raise MalformedLine(line_no, f"{opcode} cannot produce a value")
        elif opcode == "type":
            continue  # a named-type definition, %T = type {...}
        if opcode == "call":
            returns = rest.split("(", 1)[0].split("@", 1)[0]
            void = "void" in returns.split()
            if void and dest_name is not None:
                raise MalformedLine(line_no, "call returning void cannot have a destination")
            if returns.strip() and not void and "%" not in returns and dest_name is None:
                raise MalformedLine(line_no, "non-void call requires a destination")

        if addr is not None and opcode in ("load", "store"):
            mem_addr[len(opcodes)] = addr
        opcodes.append(opcode)
        dest.append(-1 if dest_name is None else ids[dest_name])
        src.extend(map(ids.__getitem__, _REG_TOKEN.findall(rest)))
        src_ptr.append(len(src))

    if table is not None:
        raise _unclosed(table[0])
    if not opcodes:
        raise EmptyUnit(f"no instructions found in {origin}")
    columns = [np.array(c, dtype=np.int64) for c in (dest, src_ptr, src)]
    for c in columns:
        c.flags.writeable = False
    return TraceUnit(str(origin), tuple(opcodes), *columns, mem_addr,
                     {scope: dict(names) for scope, names in scopes.items()})
