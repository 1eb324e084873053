"""One fresh benchmark process: import linhop, build the workload's inputs
from the seed, make the first call of each solver (set-up), then run the
warm timed loop and the correctness gates.  Prints one JSON object.

Run by ``run.py`` as ``python3 perfbench/worker.py '<json config>'`` from the
root of a checkout; not meant to be run by hand.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Workload shapes.  Every workload is a closed loop with one client.
SHAPES = {
    "batch-d4": {
        "kind": "batch", "M": 2**14, "L": 2**14, "d": 4, "B": 1.0,
        "beta": 1 / 4, "delta_a": 1e-3, "normalization": "QUERY",
        "tail_pct": {"lowrank": 75, "dense": 50},
    },
    "batch-d8": {
        "kind": "batch", "M": 2**12, "L": 2**12, "d": 8, "B": 1.0,
        "beta": 1 / 8, "delta_a": 1e-3, "normalization": "MEMORY",
        "tail_pct": {"lowrank": 50, "dense": 50},
    },
    "stream": {
        "kind": "stream", "M": 4096, "d": 4, "B": 1.0, "beta": 1 / 4,
        "normalization": "QUERY",
        "delta_a": 1e-3, "noise": 0.05, "pool": 1024, "fp_steps": 8,
        # shares of the warm time budget
        "shares": {"lowrank": 0.5, "dense": 0.2, "fixed_point": 0.2, "fixed_point_dense": 0.1},
        "tail_pct": {"lowrank": 90, "dense": 99},
    },
    "drivers": {
        "kind": "drivers",
        "phase": {"B_list": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0], "tau": 256, "d": 8,
                  "beta": 1 / 8, "delta_a": 1e-3, "degree_cap": 16},
        "capacity": {"d_list": [8, 16, 32, 64], "M_list": [2, 4, 8, 16, 32, 64],
                     "trials": 200},
        "reduction": {"shapes": [[8, 8, 3.0, 34], [16, 10, 4.0, 34], [32, 8, 3.0, 32]],
                      "delta": 0.09, "check_instances": 4},
        "tail_pct": {"lowrank": 50, "dense": 50},
    },
}

# Tiny shapes for the smoke mode: same code paths, a fraction of a second.
SMOKE_SHAPES = {
    "batch-d4": dict(SHAPES["batch-d4"], M=64, L=64),
    "batch-d8": dict(SHAPES["batch-d8"], M=64, L=64),
    "stream": dict(SHAPES["stream"], M=64, pool=16, fp_steps=2),
    "drivers": {
        **SHAPES["drivers"],
        "phase": dict(SHAPES["drivers"]["phase"], B_list=[0.5, 1.0, 3.0], tau=16),
        "capacity": {"d_list": [8], "M_list": [2, 4], "trials": 4},
        "reduction": {"shapes": [[8, 8, 3.0, 2]], "delta": 0.09, "check_instances": 2},
    },
}


class Run:
    """What one process measured: timed operations per path, correctness
    gates, and the extra figures the report prints."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.extra: dict = {}

    def timed(self, path: str, columns: int, fn):
        """Run one operation of ``path`` and record its wall time; an
        exception counts as a failed operation and yields None."""
        self.attempted += 1
        try:
            with self.tracer.op(path):
                t0 = time.perf_counter()
                out = fn()
                elapsed = time.perf_counter() - t0
        except Exception:
            self.fail(f"{path} raised:\n{traceback.format_exc()}")
            return None
        self.ops.setdefault(path, []).append([elapsed, columns])
        return out

    def check(self, ok: bool, message: str) -> bool:
        """A correctness gate, evaluated outside the timed region."""
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def note_max(self, key: str, value: float) -> None:
        self.extra[key] = max(self.extra.get(key, value), value)


def _patterns(rng, shape, count):
    return rng.uniform(-shape["B"], shape["B"], size=(shape["d"], count))


def _config(lh, shape):
    return lh.RetrievalConfig(
        beta=shape["beta"],
        delta_a=shape["delta_a"],
        normalization=lh.Normalization[shape["normalization"]],
    )


def _check_close(run, lh, low, dense, what):
    """Gate: the low-rank result lies within its error bound of the dense
    result in max-norm."""
    err = lh.max_norm_error(low.Z, dense.Z)
    run.note_max("err_over_bound", err / low.error_bound)
    return run.check(
        err <= low.error_bound,
        f"{what}: low-rank error {err} exceeds error_bound {low.error_bound}",
    )


def balanced_loop(run, seconds, ops):
    """Warm loop over several operations.  ``ops`` maps a path to (share of
    the time budget, query columns per call, call(i), check(i, result)).  The
    path furthest below its share goes next, so each gets its share however
    different the call costs are; checks run outside the timed region."""
    spent = dict.fromkeys(ops, 0.0)
    i = 0
    while sum(spent.values()) < seconds:
        path = min(spent, key=lambda p: spent[p] / ops[p][0])
        _, columns, call, check = ops[path]
        out = run.timed(path, columns, lambda: call(i))
        if out is None:
            return
        spent[path] += run.ops[path][-1][0]
        check(i, out)
        i += 1


def batch(lh, shape, cfg_run, run):
    rng = np.random.default_rng([cfg_run["seed"], shape["d"], shape["M"]])
    memory = lh.PatternMatrix(_patterns(rng, shape, shape["M"]))
    queries = lh.PatternMatrix(_patterns(rng, shape, shape["L"]), role="query")
    cfg = _config(lh, shape)
    call = {
        "lowrank": lambda: lh.retrieve_lowrank(memory, queries, cfg),
        "dense": lambda: lh.retrieve_dense(memory, queries, cfg),
    }
    ref = {path: run.timed(f"setup.{path}", shape["L"], call[path]) for path in call}
    ready_at = time.monotonic()
    if None in ref.values():
        return ready_at
    _check_close(run, lh, ref["lowrank"], ref["dense"], "batch")
    run.extra["rank"] = ref["lowrank"].rank_used
    run.extra["degree"] = ref["lowrank"].degree_used

    def same_as_first(path):
        return lambda i, out: run.check(
            np.array_equal(out.Z, ref[path].Z),
            f"batch {path}: warm result differs from the first call",
        )

    balanced_loop(run, cfg_run["seconds"], {
        path: (0.5, shape["L"], lambda i, fn=fn: fn(), same_as_first(path))
        for path, fn in call.items()
    })
    return ready_at


def stream(lh, shape, cfg_run, run):
    rng = np.random.default_rng([cfg_run["seed"], shape["d"], shape["M"], 1])
    memory = lh.PatternMatrix(_patterns(rng, shape, shape["M"]))
    # queries: stored patterns plus noise, clipped to the entry bound so the
    # fit interval (and hence the fit-cache key) never changes
    picks = rng.integers(shape["M"], size=shape["pool"])
    noise = shape["noise"] * rng.standard_normal((shape["d"], shape["pool"]))
    pool = np.clip(memory.data[:, picks] + noise, -shape["B"], shape["B"])
    cfg = _config(lh, shape)
    lowrank_cfg = lh.RetrievalConfig(
        beta=cfg.beta, delta_a=cfg.delta_a, normalization=cfg.normalization,
        solver="lowrank",
    )

    def query(i):
        return lh.PatternMatrix(pool[:, i % shape["pool"], None], role="query")

    def lowrank(i):
        return lh.retrieve_lowrank(memory, query(i), cfg)

    def dense(i):
        return lh.retrieve_dense(memory, query(i), cfg)

    def close_to_dense(i, out):
        _check_close(run, lh, out, dense(i), f"stream query {i}")

    def in_hull(i, out):
        # a query-normalized retrieval is a convex combination of memories
        run.check(bool(np.all(np.abs(out.Z) <= shape["B"] + 1e-12)),
                  f"stream query {i}: dense result leaves the memory's box")

    steps = shape["fp_steps"]

    def trajectory(c):
        return lambda i: lh.fixed_point_iterate(memory, pool[:, i % shape["pool"]], c, steps, 0.0)

    def full_length(i, traj):
        run.check(len(traj.points) == steps + 1 and all(map(math.isfinite, traj.energies)),
                  f"trajectory {i}: expected {steps} steps with finite energies")

    first = run.timed("setup.lowrank", 1, lambda: lowrank(0))
    first_dense = run.timed("setup.dense", 1, lambda: dense(0))
    ready_at = time.monotonic()
    if first is None or first_dense is None:
        return ready_at
    _check_close(run, lh, first, first_dense, "stream query 0")
    run.extra["rank"] = first.rank_used

    shares = shape["shares"]
    balanced_loop(run, cfg_run["seconds"], {
        "lowrank": (shares["lowrank"], 1, lowrank, close_to_dense),
        "dense": (shares["dense"], 1, dense, in_hull),
        "fixed_point": (shares["fixed_point"], steps, trajectory(lowrank_cfg), full_length),
        "fixed_point_dense": (shares["fixed_point_dense"], steps, trajectory(cfg), full_length),
    })
    return ready_at


def drivers_phase(lh, shape, cfg_run, run):
    p = shape["phase"]
    ready_at = time.monotonic()
    records = run.timed(
        "phase", 0,
        lambda: lh.phase_sweep(p["B_list"], p["tau"], p["d"], p["beta"],
                               p["delta_a"], p["degree_cap"], cfg_run["seed"]),
    )
    if records is None:
        return ready_at
    feasible = [r for r in records if not r.flag]
    # phase_sweep runs only the low-rank path: it is this workload's
    # low-rank operation, counted in the query columns it retrieved
    run.ops["phase"][-1][1] = p["tau"] * len(feasible)
    run.ops["lowrank"] = run.ops["phase"]
    # expected infeasibility is a count, not a failure
    run.extra["phase_flags"] = [r.flag or "ok" for r in records]
    run.extra["phase_exhausted"] = sum(r.flag == "degree-exhausted" for r in records)
    for r in records:
        if r.flag:
            run.check(r.flag in ("degree-exhausted", "rank-overflow"),
                      f"phase B={r.B}: unexpected flag {r.flag!r}")
        else:
            run.check(r.g >= 1 and r.r_prime == math.comb(p["d"] + r.g, r.g),
                      f"phase B={r.B}: rank {r.r_prime} does not match degree {r.g}")
    run.extra["rank"] = max((r.r_prime for r in feasible), default=0)
    return ready_at


def drivers_exact(lh, shape, cfg_run, run):
    cap, red = shape["capacity"], shape["reduction"]
    seed = cfg_run["seed"]
    ready_at = time.monotonic()

    def capacity():
        return [
            lh.run_capacity_experiment(d, math.sqrt(d), 1.0, cap["M_list"],
                                       trials=cap["trials"], rng_seed=seed)
            for d in cap["d_list"]
        ]

    def reduction():
        return [
            lh.verify_reduction(n, d, t, red["delta"], trials=trials, rng_seed=seed)
            for n, d, t, trials in red["shapes"]
        ]

    rows = run.timed("capacity", len(cap["d_list"]) * len(cap["M_list"]) * cap["trials"], capacity)
    reports = run.timed(
        "reduction", sum(2 * n * trials for n, _, _, trials in red["shapes"]), reduction
    )
    if rows is None or reports is None:
        return ready_at
    # capacity (every probe falls back to the dense solver at these
    # settings) plus the reduction (dense statistic) is this workload's
    # exact-path operation
    (cap_s, cap_cols), (red_s, red_cols) = run.ops["capacity"][-1], run.ops["reduction"][-1]
    run.ops["dense"] = [[cap_s + red_s, cap_cols + red_cols]]

    flat = [row for per_d in rows for row in per_d]
    run.extra["capacity_fallback"] = sum(r["solver"] == "dense-fallback" for r in flat)
    for r in flat:
        run.check(
            r["solver"] in ("lowrank", "dense-fallback") and 0.0 <= r["success_rate"] <= 1.0,
            f"capacity d={r['d']} M={r['M']}: bad row {r}",
        )
    for rep in reports:
        run.check(
            rep["promised_queries"] > 0 and rep["agreements"] == rep["promised_queries"],
            f"verify_reduction n={rep['n']} d={rep['d']}: "
            f"{rep['agreements']}/{rep['promised_queries']} promised queries agree",
        )
    # independent gate on instances drawn here: verdicts agree with
    # classify_queries on every promised query
    n, d, t, _ = red["shapes"][0]
    for k in range(red["check_instances"]):
        if k % 2 == 0:
            inst = lh.generate_balanced_instance(n, d, t, red["delta"], planted=2,
                                                 rng_seed=seed + 1000 + k)
        else:
            inst = lh.generate_clustered_case2_instance(n, d, t, red["delta"],
                                                        rng_seed=seed + 1000 + k)
        oracle = lh.classify_queries(inst)
        verdicts = lh.solve_gap_anns_via_ahop(inst).verdicts
        bad = [j for j, v in enumerate(oracle) if v != "indeterminate" and verdicts[j] != v]
        run.check(not bad, f"reduction instance {k}: verdicts differ at {bad}")
    return ready_at


ROUTINES = {"batch": batch, "stream": stream, "phase": drivers_phase, "exact": drivers_exact}


def main(argv) -> int:
    cfg_run = json.loads(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import linhop as lh

    import tracing

    if cfg_run["trace"]:
        tracer = tracing.Tracer(cfg_run["run_id"])
        tracing.install(tracer)
    else:
        tracer = tracing.NullTracer()

    shapes = SMOKE_SHAPES if cfg_run["smoke"] else SHAPES
    shape = shapes[cfg_run["workload"]]
    routine = ROUTINES[cfg_run.get("part") or shape["kind"]]
    run = Run(tracer)
    ready_at = routine(lh, shape, cfg_run, run)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    json.dump(
        {
            "ready_at": ready_at,
            "ops": run.ops,
            "attempted": run.attempted,
            "failed": run.failed,
            "errors": run.errors,
            "extra": run.extra,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "spans": tracer.spans,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
