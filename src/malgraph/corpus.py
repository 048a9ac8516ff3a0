"""Synthetic labeled trace corpus with class-distinct graph topology.

Benign generators emit mostly straight-line dependency chains (low fan-out,
one or two internal sources per instruction); malicious generators emit dense
motifs — wide call/getelementptr fan-in, hub registers consumed by many later
instructions, store/load address cycles, and (for some families) register
redefinition loops.  Both classes draw from the same opcode set by default so
classes differ in structure more than vocabulary; ``easy=True`` skews the
vocabulary instead for quick smoke tests.

Every file draws from its own generator, seeded by (seed, file index), so its
bytes do not depend on the files generated before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import make_dir, write_file
from .pipeline import Manifest, ManifestEntry, save_manifest

BENIGN_FAMILIES = {"compute": 1.0, "io": 1.0, "container": 1.0}

# mixture weights proportional to the family sample counts the per-family
# report is meant to resemble
MALICIOUS_FAMILIES = {
    "spyware": 4757.0,
    "botnet": 1548.0,
    "trojan": 4645.0,
    "rootkit": 3048.0,
    "backdoor": 3097.0,
    "worm": 1548.0,
    "ransomware": 900.0,
    "injection": 900.0,
    "mixed": 3933.0,
}

ARITH_OPS = ("add", "sub", "mul", "and", "or", "xor", "shl")
INT_TYPES = ("i8", "i16", "i32", "i64")
CALLEES = tuple(f"f{i}" for i in range(8))


@dataclass(frozen=True)
class CorpusSpec:
    benign_count: int
    malicious_count: int
    seed: int
    size_range: tuple = (50, 400)
    easy: bool = False

    def __post_init__(self):
        if self.benign_count < 1 or self.malicious_count < 1:
            raise ValueError("both class counts must be >= 1")
        lo, hi = self.size_range
        if lo < 5 or hi < lo:
            raise ValueError("size_range must satisfy 5 <= min <= max")


# Motif knobs per family: probabilities of instruction categories, fan-in
# ranges, and structural quirks.  Values not listed fall back to the class
# defaults below.
_BENIGN_KNOBS = {
    "compute": {"p_mem": 0.08, "p_call": 0.08, "p_gep": 0.03, "p_select": 0.02},
    "io": {"p_mem": 0.28, "p_call": 0.10, "p_gep": 0.04, "p_select": 0.02},
    "container": {"p_mem": 0.12, "p_call": 0.06, "p_gep": 0.14, "p_select": 0.03},
}

_MAL_KNOBS = {
    "spyware": {"p_mem": 0.25, "p_call": 0.22, "mem_cycle": 0.6},
    "botnet": {"p_call": 0.38, "arity": (4, 6), "hub_p": 0.6},
    "trojan": {"p_select": 0.18, "p_gep": 0.18, "hub_p": 0.55},
    "rootkit": {"p_mem": 0.30, "p_gep": 0.16, "mem_cycle": 0.7},
    "backdoor": {"p_call": 0.30, "p_flow": 0.10, "arity": (3, 6)},
    "worm": {"redefine": 0.35, "hub_p": 0.55},
    "ransomware": {"p_mem": 0.22, "two_src": 0.9, "arity": (3, 4)},
    "injection": {"p_gep": 0.26, "p_mem": 0.22, "hub_p": 0.5},
    "mixed": {},
}


def _knobs(rng, family: str, benign: bool) -> dict:
    if benign:
        k = {"p_mem": 0.10, "p_call": 0.08, "p_gep": 0.05, "p_select": 0.02,
             "p_flow": 0.05, "two_src": float(rng.uniform(0.05, 0.80)),
             "arity": (1, 2), "gep_idx": (1, 1), "hub_p": 0.0,
             "redefine": 0.0, "mem_cycle": 0.1, "window": 6}
        k.update(_BENIGN_KNOBS[family])
    else:
        k = {"p_mem": 0.14, "p_call": 0.24, "p_gep": 0.12, "p_select": 0.08,
             "p_flow": 0.05, "two_src": float(rng.uniform(0.2, 0.95)),
             "arity": (2, 5), "gep_idx": (2, 3), "hub_p": 0.45,
             "redefine": 0.0, "mem_cycle": 0.4, "window": 24}
        k.update(_MAL_KNOBS[family])
        if family == "mixed":
            k["p_call"] = float(rng.uniform(0.15, 0.38))
            k["hub_p"] = float(rng.uniform(0.3, 0.65))
            k["arity"] = (2, int(rng.integers(4, 7)))
        # per-file intensity so the sparse tail of malware overlaps busy benign
        density = float(rng.uniform(0.5, 1.0))
        for knob in ("p_call", "p_gep", "p_select", "hub_p"):
            k[knob] *= density
    return k


def _emit_lines(rng, size: int, knobs: dict, easy_skew: str | None) -> list:
    regs: list[str] = []
    hub: str | None = None
    counter = 0
    stored_addrs: list[int] = []
    lines: list[str] = []

    def fresh() -> str:
        nonlocal counter
        if knobs["redefine"] > 0 and regs and rng.random() < knobs["redefine"]:
            return regs[int(rng.integers(0, len(regs)))]
        counter += 1
        return f"t{counter}"

    def pick() -> str:
        if not regs:
            return f"in{int(rng.integers(0, 6))}"
        if hub is not None and rng.random() < knobs["hub_p"]:
            return hub
        lo = max(0, len(regs) - knobs["window"])
        return regs[int(rng.integers(lo, len(regs)))]

    def ty() -> str:
        return INT_TYPES[int(rng.integers(0, len(INT_TYPES)))]

    while len(lines) < size:
        roll = rng.random()
        p_mem, p_call = knobs["p_mem"], knobs["p_call"]
        p_gep, p_sel, p_flow = knobs["p_gep"], knobs["p_select"], knobs["p_flow"]
        if easy_skew == "benign":
            roll, p_mem, p_call, p_gep, p_sel, p_flow = 1.0, 0, 0, 0, 0, 0
        elif easy_skew == "malicious":
            p_mem, p_call, p_gep = 0.3, 0.5, 0.2
            p_sel = p_flow = 0
            roll = rng.random() * (p_mem + p_call + p_gep)

        d = fresh()
        if roll < p_mem:
            addr = int(rng.integers(0, 8))
            if stored_addrs and rng.random() < knobs["mem_cycle"]:
                addr = stored_addrs[int(rng.integers(0, len(stored_addrs)))]
            t = ty()
            if rng.random() < 0.5:
                lines.append(f"store {t} %{pick()}, {t}* %{pick()} ; addr=0x{addr:x}")
                stored_addrs.append(addr)
                continue
            lines.append(f"%{d} = load {t}, {t}* %{pick()} ; addr=0x{addr:x}")
        elif roll < p_mem + p_call:
            lo, hi = knobs["arity"]
            arity = int(rng.integers(lo, hi + 1))
            args = ", ".join(f"i64 %{pick()}" for _ in range(arity))
            callee = CALLEES[int(rng.integers(0, len(CALLEES)))]
            lines.append(f"%{d} = call {ty()} @{callee}({args})")
        elif roll < p_mem + p_call + p_gep:
            lo, hi = knobs["gep_idx"]
            n_idx = int(rng.integers(lo, hi + 1))
            idxs = "".join(f", i64 %{pick()}" for _ in range(n_idx))
            lines.append(f"%{d} = getelementptr i64, i64* %{pick()}{idxs}")
        elif roll < p_mem + p_call + p_gep + p_sel:
            lines.append(f"%{d} = select i1 %{pick()}, %{pick()}, %{pick()}")
        elif roll < p_mem + p_call + p_gep + p_sel + p_flow:
            if rng.random() < 0.5:
                c = fresh()
                lines.append(f"%{c} = icmp slt {ty()} %{pick()}, %{pick()}")
                regs.append(c)
                if len(lines) >= size:
                    break
                b1, b2 = rng.integers(0, 9, size=2)
                lines.append(f"br i1 %{c}, label %B{b1}, label %B{b2}")
            else:
                lines.append(f"%{d} = alloca {ty()}")
            if lines[-1].startswith("br"):
                continue
        else:
            op = ARITH_OPS[int(rng.integers(0, len(ARITH_OPS)))]
            if rng.random() < knobs["two_src"]:
                a, b = pick(), pick()
            else:
                a, b = pick(), f"in{int(rng.integers(0, 6))}"
            lines.append(f"%{d} = {op} {ty()} %{a}, %{b}")
        regs.append(d)
        if knobs["hub_p"] > 0 and (hub is None or rng.random() < 0.08):
            hub = regs[int(rng.integers(max(0, len(regs) - 4), len(regs)))]

    del lines[size:]
    if lines and lines[-1].startswith("%"):
        lines[-1] = f"ret i64 %{regs[-1] if regs else 'in0'}"
    return lines


def _make_file(spec: CorpusSpec, index: int, benign: bool):
    """(family, text) for global file `index`; deterministic in (seed, index)."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, index)))
    fams = BENIGN_FAMILIES if benign else MALICIOUS_FAMILIES
    names = sorted(fams)
    weights = np.array([fams[n] for n in names], dtype=float)
    family = names[int(rng.choice(len(names), p=weights / weights.sum()))]
    size = int(rng.integers(spec.size_range[0], spec.size_range[1] + 1))
    skew = None
    if spec.easy:
        skew = "benign" if benign else "malicious"
    lines = _emit_lines(rng, size, _knobs(rng, family, benign), skew)
    return family, "\n".join(lines) + "\n"


def generate(spec: CorpusSpec, out_dir) -> Manifest:
    """Write the corpus under out_dir/traces plus out_dir/manifest.jsonl."""
    out_dir = Path(out_dir)
    traces = out_dir / "traces"
    make_dir(traces)

    entries = []
    total = spec.benign_count + spec.malicious_count
    for index in range(total):
        benign = index < spec.benign_count
        family, text = _make_file(spec, index, benign)
        rel = f"traces/{family}_{index}.trace"
        write_file(out_dir / rel, text.encode("utf-8"))
        entries.append(ManifestEntry(rel, 0 if benign else 1,
                                     "benign" if benign else family))

    manifest = Manifest(tuple(entries), base_dir=str(out_dir))
    save_manifest(manifest, out_dir / "manifest.jsonl")
    return manifest
