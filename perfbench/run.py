"""linhop benchmark: one command, four workloads, an untraced run for the
end-to-end metrics and a traced run for the per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch-d4 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

Each run starts fresh worker processes one after another (one client, closed
loop), so every process starts with a cold fit cache.  Batch and stream
workloads use three processes that each measure set-up and then a warm loop
of a third of ``--seconds``.  The drivers workload runs cold repetitions
(phase sweep in one process, then capacity and reduction in each of three
more) until
``--seconds`` of driver time is spent, at least three times.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (metadata, sample counts, report figures) is written to
``perfbench/results/``, and the spans of a traced run next to it.  The exit
code is 0 only if every operation and correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from worker import SHAPES, SMOKE_SHAPES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
PROCESSES = 3  # fresh processes per batch or stream run
MIN_REPS = 3  # cold repetitions per drivers run
CHILD_TIMEOUT = 150.0
# tail percentiles, highest first.  Each workload declares its tail
# percentile per path (fixed, so it does not move when a change alters the
# sample count); a run with fewer than ten samples beyond it falls back down
# this ladder
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def blas_threads() -> int:
    nproc = os.cpu_count() or 1
    caps = [int(os.environ[v]) for v in BLAS_THREAD_VARS if os.environ.get(v, "").isdigit()]
    return max(1, min([nproc] + caps))


def spawn(cfg: dict) -> dict:
    """Run one worker process to completion; set-up time is measured from
    just before the process starts until its first calls completed."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads())
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    out["setup_s"] = out["ready_at"] - started
    return out


def run_children(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> list:
    shape = (SMOKE_SHAPES if smoke else SHAPES)[name]
    base = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke}
    children = []

    def one(**extra):
        cfg = dict(base, run_id=f"{name}-seed{seed}-p{len(children)}", **extra)
        children.append(spawn(cfg))
        return children[-1]

    if shape["kind"] == "drivers":
        spent, reps = 0.0, 0
        while reps < (1 if smoke else MIN_REPS) or spent < seconds:
            # the exact part is short and noisier, so it runs three times a rep
            for part in ("phase", "exact", "exact", "exact"):
                out = one(part=part, seconds=0.0)
                spent += sum(
                    t for path in ("phase", "capacity", "reduction")
                    for t, _ in out["ops"].get(path, [])
                )
            reps += 1
    else:
        count = 1 if smoke else PROCESSES
        for _ in range(count):
            one(seconds=seconds / count)
    return children


def tail_percentile(n: int, wanted: float) -> float:
    """The workload's declared tail percentile, or the next lower rung of the
    ladder when fewer than ten samples lie beyond it."""
    for p in TAIL_LADDER:
        if p <= wanted and n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def summarize(times: list, wanted: float = 99.0) -> dict:
    """Median and tail of a list of seconds, with the sample count."""
    if not times:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": 50.0}
    pct = tail_percentile(len(times), wanted)
    return {
        "n": len(times),
        "p50": float(np.median(times)),
        "tail": float(np.percentile(times, pct)),
        "tail_pct": pct,
    }


def end_to_end(children: list, tail_pct: dict) -> tuple:
    """The end-to-end metrics (name -> (value, unit, note)) and the pooled
    operations of all processes."""
    ops: dict = {}
    for child in children:
        for path, samples in child["ops"].items():
            ops.setdefault(path, []).extend(samples)
    setups = [c["setup_s"] for c in children]
    metrics = {"setup_s": (statistics.median(setups), "s", f"p50 of n={len(setups)}")}
    for path in ("lowrank", "dense"):
        samples = ops.get(path, [])
        times = [t for t, _ in samples]
        total_t = sum(times)
        cols = sum(c for _, c in samples)
        lat = summarize(times, tail_pct[path])
        metrics[f"{path}_qps"] = (
            cols / total_t if total_t else 0.0, "1/s", f"{cols} columns in {total_t:.3f} s"
        )
        metrics[f"{path}_p50_ms"] = (1e3 * lat["p50"], "ms", f"p50 of n={lat['n']}")
        metrics[f"{path}_tail_ms"] = (
            1e3 * lat["tail"], "ms", f"p{lat['tail_pct']:g} of n={lat['n']}"
        )
    return metrics, ops


def report_figures(name: str, children: list, ops: dict) -> dict:
    """Workload-specific figures printed with the metrics but not gated."""
    kind = SHAPES[name]["kind"]
    extra = [c["extra"] for c in children]
    out = {}

    def ms(path, label):
        lat = summarize([t for t, _ in ops.get(path, [])])
        out[label] = (1e3 * lat["p50"], "ms", f"p50 of n={lat['n']}")
        out[label.replace("_ms", "_tail_ms")] = (
            1e3 * lat["tail"], "ms", f"p{lat['tail_pct']:g} of n={lat['n']}"
        )

    if kind == "stream":
        ms("fixed_point", "fixed_point_ms")
        ms("fixed_point_dense", "fixed_point_dense_ms")
    if kind == "drivers":
        for path in ("phase", "capacity", "reduction"):
            times = [t for t, _ in ops.get(path, [])]
            out[f"{path}_s"] = (
                statistics.median(times) if times else 0.0, "s", f"p50 of n={len(times)}"
            )
        for key in ("phase_exhausted", "capacity_fallback"):
            vals = [e[key] for e in extra if key in e]
            out[key] = (max(vals, default=0), "count", "per cold run")
        flags = next((e["phase_flags"] for e in extra if "phase_flags" in e), [])
        out["phase_flags"] = (" ".join(flags), "", "per B, in order")
    for key in ("rank", "degree"):
        vals = [e[key] for e in extra if key in e]
        if vals:
            out[key] = (max(vals), "count", "of the low-rank fit")
    ratios = [e["err_over_bound"] for e in extra if "err_over_bound" in e]
    if ratios:
        out["err_over_bound"] = (max(ratios), "ratio", "largest measured error / error_bound")
    out["peak_rss_mb"] = (max(c["peak_rss_mb"] for c in children), "MB", "largest process")
    return out


def merged_spans(children: list) -> list:
    """Spans of all processes with ids made unique across processes."""
    spans = []
    for child in children:
        offset = len(spans)
        for span in child["spans"]:
            span["id"] += offset
            span["op"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
    return spans


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else f"unknown ({ref})"


def metadata(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def run_once(name, seed, seconds, trace, smoke, spec) -> dict:
    children = run_children(name, seed, seconds, trace, smoke)
    e2e, ops = end_to_end(children, SHAPES[name]["tail_pct"])
    report = report_figures(name, children, ops)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    report["fail_ratio"] = (failed / attempted if attempted else 1.0, "ratio",
                            f"{failed} failed of {attempted} attempted")
    layers = {}
    spans = []
    if trace:
        spans = merged_spans(children)
        tracing.add_self_times(spans)
        layers = tracing.layer_metrics(spans)
    emitted = layers if trace else {k: (v, u) for k, (v, u, _) in e2e.items()}
    wanted = spec["per_layer" if trace else "end_to_end"]
    chosen = {m["name"]: {"value": emitted[m["name"]][0], "unit": emitted[m["name"]][1]}
              for m in wanted}
    return {
        "workload": name,
        "trace": trace,
        "metadata": metadata(seed),
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "report": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in report.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "errors": [e for c in children for e in c["errors"]][:20],
        "spans": spans,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": chosen},
    }


def print_report(rec: dict, untraced: dict | None) -> None:
    print(f"# workload {rec['workload']}  trace {int(rec['trace'])}  "
          f"seed {rec['metadata']['seed']}  commit {rec['metadata']['git_commit']}")
    meta = rec["metadata"]
    print(f"# {meta['platform']}, {meta['cpus']} cpus, python {meta['python']}, "
          f"numpy {meta['numpy']}, {meta['blas']}, {meta['blas_threads']} BLAS threads")
    for section in ("end_to_end", "report", "per_layer"):
        for key, m in rec[section].items():
            note = m.get("samples") or m.get("note") or ""
            print(f"{section:10s} {key:34s} {m['value']!s:>22} {m['unit']:11s} {note}")
    if rec["trace"] and untraced is not None:
        for key, m in rec["end_to_end"].items():
            base = untraced["end_to_end"].get(key, {}).get("value")
            if base:
                print(f"overhead   {key:34s} {m['value'] - base:+22.6g} {m['unit']:11s} "
                      f"traced minus untraced ({100 * (m['value'] / base - 1):+.1f}%)")
    for err in rec["errors"]:
        print(f"FAILED: {err}", file=sys.stderr)


def save(rec: dict, name: str, seed: int, trace: bool) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}"
    spans = rec.pop("spans")
    with open(f"{stem}-trace{int(trace)}.json", "w") as fh:
        json.dump(rec, fh, indent=1)
    if trace:
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)


def smoke(spec: dict) -> int:
    """Every workload at a tiny size, untraced and traced; the metric names
    and units the code emits must match BENCHMARK.json."""
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(SHAPES):
        problems.append(f"workloads {names} != {sorted(SHAPES)}")
    for name in names:
        for trace in (False, True):
            rec = run_once(name, 0, 0.2, trace, True, spec)
            res = rec["result"]
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: emitted {got}, spec {want}")
            if not res["correct"]:
                problems.append(f"{name} trace={trace}: {rec['errors']}")
            print(f"smoke {name:9s} trace={int(trace)} attempted={res['attempted']} "
                  f"failed={res['failed']}")
    for p in problems:
        print(f"SMOKE FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check metric names")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "linhop" / "__init__.py").is_file():
        print(f"linhop sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        rec = run_once(args.workload, args.seed, args.seconds, bool(args.trace), False, spec)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    untraced_path = RESULTS / f"{args.workload}-seed{args.seed}-trace0.json"
    untraced = None
    if args.trace and untraced_path.is_file():
        with open(untraced_path) as fh:
            untraced = json.load(fh)
    print_report(rec, untraced)
    save(rec, args.workload, args.seed, bool(args.trace))
    print(json.dumps(rec["result"]))
    return 0 if rec["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
