"""Run one benchmark workload against the malgraph sources of this checkout.

    python3 perfbench/run.py --workload train --seed 42 --seconds 20 --trace 0

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured
with nothing wrapped.  With ``--trace 1`` commands alternate between plain
and traced, and the per-layer metrics come from the traced ones.  Human
readable lines come first; the last line of standard output is the result
as one JSON object.  ``--record-reference`` runs each workload once on the
default seed and rewrites reference.json from its outputs.

See README.md next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_totals, median_of, percentile  # noqa: E402
from workloads import TARGETS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 42          # the seed reference.json was recorded on
SETUP_REPEATS = 5          # setup_s is the median of at least this many set-ups,
SETUP_MIN_S = 2.0          # and of as many more as fit in this many seconds
MIN_PLAIN = 3              # untraced commands a run makes at least
MIN_TRACED = 3             # traced commands a traced run makes at least
HARD_STOP_S = 120.0        # no new command starts after this, whatever the minimums
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help=f"rewrite {REFERENCE.name} from one run per workload on "
                        f"seed {DEFAULT_SEED}")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    return args


# -- environment ------------------------------------------------------------------

def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _openblas():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            threads = getattr(lib, symbol.format("get_num_threads"), None)
            core = getattr(lib, symbol.format("get_corename"), None)
            if threads is not None and core is not None:
                threads.restype, core.restype = ctypes.c_int, ctypes.c_char_p
                info.update(threads=threads(), core=core().decode())
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy
    from malgraph.pipeline import worker_count
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "pool_workers": worker_count(),
        "MGN_THREADS": os.environ.get("MGN_THREADS"),
        "openblas": _openblas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# -- one run -----------------------------------------------------------------------

def _setup(wl, work: Path, seed: int, tracer):
    """Set up repeatedly and keep the last one.  Returns (seconds, span groups)."""
    seconds, groups = [], []
    while len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_MIN_S:
        if seconds:
            shutil.rmtree(work / f"setup{len(seconds) - 1}")
        where = work / f"setup{len(seconds)}"
        where.mkdir()
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            wl.setup(where, seed)
        finally:
            seconds.append(time.perf_counter() - start)
            if tracer:
                tracer.uninstall()
                groups.append(layer_totals(tracer.take()))
    return seconds, groups


def _focus_share(wl, spans) -> float:
    """Share of the command taken by the layers the workload was chosen for.

    "wall" divides their wall time by the command's.  "cpu" divides their
    thread CPU time by that of the Python threads: the main thread's over the
    whole command plus each pool thread's over the spans it ran for the main
    thread.  BLAS threads are left out of both.
    """
    kind, layers = wl.focus
    root = next(s for s in spans if s.name == "iteration")
    if kind == "wall":
        return sum(s.wall for s in spans if s.name in layers) / root.wall
    by_id = {s.id: s for s in spans}
    pool = sum(s.cpu for s in spans
               if s.thread != root.thread and by_id[s.parent].thread != s.thread)
    return sum(s.cpu for s in spans if s.name in layers) / (root.cpu + pool)


def run(wl, seed: int, seconds: float, trace: bool, ref) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    tracer = Tracer(TARGETS) if trace else None
    try:
        setup_s, setup_groups = _setup(wl, work, seed, tracer)
        commands = []
        begin = time.perf_counter()
        while True:
            traced = trace and len(commands) % 2 == 1
            out = work / f"cmd{len(commands)}"
            result, problems, spans = None, [], []
            if traced:
                tracer.install()
                root = tracer.open("iteration")
            start = time.perf_counter()
            try:
                result = wl.execute(out)
            except Exception as e:   # a crash is a failed command, not a failed benchmark
                problems.append(f"command raised {type(e).__name__}: {e}")
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.close(root)
                    tracer.uninstall()
                    spans = tracer.take()
            if result is not None:
                try:
                    problems += wl.check(result, ref)
                except (OSError, ValueError) as e:   # an output missing or unreadable
                    problems.append(f"output unreadable: {type(e).__name__}: {e}")
            shutil.rmtree(out, ignore_errors=True)
            commands.append({"seconds": elapsed, "rate": wl.graphs / elapsed,
                             "traced": traced, "problems": problems, "spans": spans})
            plain = sum(not c["traced"] for c in commands)
            spent = time.perf_counter() - begin
            if spent >= HARD_STOP_S or (
                    spent >= seconds and plain >= MIN_PLAIN
                    and len(commands) - plain >= (MIN_TRACED if trace else 0)):
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return {"setup_s": setup_s, "setup_groups": setup_groups, "commands": commands,
            "missing": dict(tracer.missing) if tracer else {},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


# -- metrics -----------------------------------------------------------------------

def _rate(commands) -> float:
    good = [c["rate"] for c in commands if not c["problems"]]
    return statistics.median(good or [c["rate"] for c in commands])


def end_to_end(done: dict) -> dict:
    plain = [c for c in done["commands"] if not c["traced"]]
    return {
        "graphs_per_s": _rate(plain),
        "setup_s": statistics.median(done["setup_s"]),
        "peak_rss_mb": done["peak_rss_mb"],
    }


# metrics whose layer or count is not spelled out by their own name
_ALIASES = {
    "ir.instructions": ("ir.parse_trace", "instructions"),
    "depgraph.nodes": ("depgraph.build_graph", "nodes"),
    "depgraph.edges": ("depgraph.build_graph", "edges"),
}


def per_layer(wl, done: dict, names) -> tuple[dict, dict]:
    """Every per-layer metric by name, and why any of them has no value."""
    traced = [c for c in done["commands"] if c["traced"]]
    groups = [layer_totals(c["spans"]) for c in traced]
    values, missing = {}, dict(done["missing"])

    def per_group(fn):
        got = [v for v in (fn(g, c["spans"]) for g, c in zip(groups, traced))
               if v is not None]
        return statistics.median(got) if got else None

    def json_bytes(g, _):
        rows = [g[k]["counts"].get("json_bytes") for k in ("depgraph.to_json",
                                                            "depgraph.from_json") if k in g]
        return sum(rows) if rows and None not in rows else None

    def parses_per_file(_, spans):
        origins = [s.counts.get("origin") for s in spans if s.name == "ir.parse_trace"]
        return len(origins) / len(set(origins)) if origins else None

    def gflop_per_s(layer):
        def fn(g, _):
            gflop = g.get(layer, {}).get("counts", {}).get("gflop")
            return None if gflop is None else gflop / g[layer]["wall_s"]
        return fn

    for name in names:
        layer, _, key = name.rpartition(".")
        if name == "trace.overhead":
            value = end_to_end(done)["graphs_per_s"] / _rate(traced) if traced else None
        elif name == "focus.share":
            value = per_group(lambda g, spans: _focus_share(wl, spans))
        elif name == "ir.parses_per_file":
            value = per_group(parses_per_file)
        elif name == "depgraph.json_bytes":
            value = per_group(json_bytes)
        elif name == "corpus.generate.wall_s":
            value = median_of(done["setup_groups"], layer, key)
        elif name in _ALIASES:
            value = median_of(groups, *_ALIASES[name])
        elif key in ("p50_ms", "p90_ms"):
            samples = [s.wall * 1e3 for c in traced for s in c["spans"] if s.name == layer]
            found = percentile(samples, float(key[1:3]))
            value = None if found is None else found[0]
            if found is not None:
                values[f"{name}.samples"] = found[1]
            elif samples:
                missing[name] = f"{len(samples)} samples leave fewer than ten beyond it"
        elif key == "gflop_per_s":
            value = per_group(gflop_per_s(layer))
        else:
            value = median_of(groups, layer, key)
        values[name] = value
        if value is None:
            missing.setdefault(name, "layer never called on this workload")
    return values, missing


# -- reporting ---------------------------------------------------------------------

def _fmt(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def report(wl, args, done, spec, env):
    commands = done["commands"]
    attempted = len(commands) * wl.graphs
    failed = sum(wl.graphs for c in commands if c["problems"])
    problems = [p for c in commands for p in c["problems"]]
    print(f"# workload {wl.name}, seed {args.seed}: {len(commands)} commands "
          f"({sum(c['traced'] for c in commands)} traced), {wl.graphs} graphs each, "
          f"{len(done['setup_s'])} set-ups")
    print("setup seconds: " + " ".join(f"{s:.3f}" for s in done["setup_s"]))
    print("command seconds: " + " ".join(
        f"{c['seconds']:.3f}{'t' if c['traced'] else ''}" for c in commands))
    for p in problems[:20]:
        print(f"check failed: {p}")
    metrics = {}
    if args.trace:
        values, missing = per_layer(wl, done, [m["name"] for m in spec["per_layer"]])
        for m in spec["per_layer"]:
            value = values[m["name"]]
            samples = values.get(f"{m['name']}.samples")
            note = f" (n={samples})" if samples else ""
            print(f"{m['name']} {_fmt(value)} {m['unit']}{note}")
            # the result line needs a number; `missing` below says which are not measured
            metrics[m["name"]] = {"value": 0.0 if value is None else value, "unit": m["unit"]}
        for name, why in sorted(missing.items()):
            print(f"missing {name}: {why}")
        _write_trace(wl, args, done, values, missing, env)
    else:
        values = end_to_end(done)
        for m in spec["end_to_end"]:
            print(f"{m['name']} {_fmt(values[m['name']])} {m['unit']}")
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} graphs failed)")
    summary = getattr(wl, "summary", None)
    if summary:
        print(f"test_auroc {summary['test_auroc']:.6g} ratio (final epoch; "
              f"test_acc {summary['test_acc']:.6g}, train_loss {summary['train_loss']:.6g})")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _write_trace(wl, args, done, values, missing, env):
    path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    doc = {
        "workload": wl.name, "seed": args.seed, "env": env,
        "metrics": values, "missing": missing,
        "commands": [{
            "seconds": c["seconds"], "traced": c["traced"], "problems": c["problems"],
            "layers": layer_totals(c["spans"]),
            "spans": [{"id": s.id, "name": s.name, "parent": s.parent,
                       "thread": s.thread, "start": s.start, "end": s.end,
                       "cpu": s.cpu, "counts": s.counts} for s in c["spans"]],
        } for c in done["commands"]],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"spans -> {path.relative_to(ROOT)}")


def record_reference():
    """One command per workload on the default seed; their outputs become reference.json."""
    ref = {"seed": DEFAULT_SEED}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT))
    try:
        for name, cls in sorted(WORKLOADS.items()):
            wl = cls()
            wl.setup(work / name, DEFAULT_SEED)
            result = wl.execute(work / f"{name}-out")
            problems = wl.check(result, None)
            if problems:
                raise SystemExit(f"{name}: {problems[0]}")
            ref[name] = wl.reference_of(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"reference -> {REFERENCE.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "malgraph" / "cli.py").is_file():
        print(f"error: no malgraph sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import malgraph.cli  # noqa: F401  first imports stay out of the timed set-up
    import malgraph.corpus  # noqa: F401
    if args.record_reference:
        record_reference()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ref = None
    if args.seed == DEFAULT_SEED:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
    wl = WORKLOADS[args.workload]()
    env = environment()
    done = run(wl, args.seed, args.seconds, bool(args.trace), ref)
    report(wl, args, done, spec, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
