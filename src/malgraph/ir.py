"""Textual IR and instruction-trace parsing, into columns.

Reads SSA-style text, one instruction per line, in two flavours: static
``.ll``-like files with ``define``/block structure, and flat dynamic trace
files where the same register name may be redefined.  After comment stripping
each instruction line has the form ``[%D =] <opcode> <operands>``, with an
optional trailing ``; addr=0x<hex>`` that load and store keep.  The opcode is
read lower-case, and a ``tail``, ``musttail`` or ``notail`` before ``call``
is dropped, so those lines are calls.

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
metadata, ``attributes``, ``source_filename``) are skipped.

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


_REG_TOKEN = re.compile(r"%([\w.$-]+)")
# One match per instruction line: destination, opcode, the rest.
_LINE_RE = re.compile(r"(?:%([\w.$-]+)\s*=\s*)?(?i:(?:must|no)?tail\s+(?=call\b(?!\.)))?"
                      r"([a-z][\w.]*)\b\s*(.*)")
_DEST_RE = re.compile(r"^%([\w.$-]+)\s*=\s*(.*)$")
_ADDR_ANNOT = re.compile(r";\s*addr=0x([0-9a-fA-F]+)\s*$")
_DEFINE_RE = re.compile(r"^define\b.*?@([\w.$-]+)\s*\((.*?)\)")
_LABEL_RE = re.compile(r"^([\w.$-]+):\s*$")

_SKIP_PREFIXES = ("target ", "source_filename", "declare ", "attributes ", "@", "!", "$")


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

        if line[0] != "%":  # no structural line starts with %
            m = _DEFINE_RE.match(line)
            if m or line == "}":
                ids = scopes.setdefault(m.group(1) if m else "", defaultdict(new_id))
                continue
            if _LABEL_RE.match(line) or line.startswith(_SKIP_PREFIXES):
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
            returns = rest.split("(", 1)[0].split("@", 1)[0].strip()
            if returns == "void" and dest_name is not None:
                raise MalformedLine(line_no, "call returning void cannot have a destination")
            if returns and returns != "void" and "%" not in returns and dest_name is None:
                raise MalformedLine(line_no, "non-void call requires a destination")

        if addr is not None and opcode in ("load", "store"):
            mem_addr[len(opcodes)] = addr
        opcodes.append(opcode)
        dest.append(-1 if dest_name is None else ids[dest_name])
        src.extend(map(ids.__getitem__, _REG_TOKEN.findall(rest)))
        src_ptr.append(len(src))

    if not opcodes:
        raise EmptyUnit(f"no instructions found in {origin}")
    columns = [np.array(c, dtype=np.int64) for c in (dest, src_ptr, src)]
    for c in columns:
        c.flags.writeable = False
    return TraceUnit(str(origin), tuple(opcodes), *columns, mem_addr,
                     {scope: dict(names) for scope, names in scopes.items()})
