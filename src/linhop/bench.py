"""Runtime-scaling, error-sweep, and norm-phase experiment harness.

Timing hygiene: every time is a retrieval's own
``RetrievalResult.wall_time``; repeated runs keep the median of the repeats
after one discarded warm-up run; execution is strictly sequential.  Slope
fits are plain least squares on (log tau, log time) and are reproducible from
the emitted CSV.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
from dataclasses import dataclass, asdict, fields

import numpy as np

from .hopfield import (
    Normalization,
    PatternMatrix,
    RetrievalConfig,
    lowrank_error_bound,
    max_norm_error,
    plan,
    retrieve_dense,
    retrieve_lowrank,
)

DENSE_COST_CAP_SECONDS = 30.0


@dataclass
class ExperimentRecord:
    """One row of benchmark output.

    ``flag`` is empty on accepted records; otherwise it names the anomaly
    (bound violation, skipped dense run, degree exhaustion, ...).
    """

    kind: str
    tau: int
    d: int
    g: int
    r_prime: int
    B: float
    beta: float
    delta_a: float
    wall_time_dense: float
    wall_time_lowrank: float
    measured_error: float
    bound_2MBdA: float
    seed: int
    flag: str = ""

    def __post_init__(self):
        if self.kind not in ("scaling", "error", "phase"):
            raise ValueError(f"unknown record kind {self.kind!r}")
        if self.wall_time_dense < 0 or self.wall_time_lowrank < 0:
            raise ValueError("wall times must be >= 0")
        if (
            not self.flag
            and math.isfinite(self.measured_error)
            and math.isfinite(self.bound_2MBdA)
            and self.measured_error > self.bound_2MBdA
        ):
            self.flag = "bound-violation"


def _check_entry_bound(B) -> None:
    if not (math.isfinite(B) and B > 0):
        raise ValueError(f"B must be finite and positive, got {B}")


def _random_patterns(rng, d, count, B, role):
    return PatternMatrix(rng.uniform(-B, B, size=(d, count)), role=role)


def _median_time(fn, repeats):
    """Median ``wall_time`` of ``fn()`` over ``repeats`` runs after one
    discarded warm-up."""
    fn()
    return float(np.median([fn().wall_time for _ in range(repeats)]))


def fit_slope(x_vals, y_vals) -> float:
    """Least-squares slope of y against x."""
    x = np.asarray(x_vals, dtype=float)
    y = np.asarray(y_vals, dtype=float)
    if x.size < 2:
        raise ValueError("slope fit needs at least two points")
    return float(np.polyfit(x, y, 1)[0])


def runtime_scaling(
    tau_list,
    d: int,
    beta: float,
    B: float,
    delta_a: float,
    repeats: int = 3,
    seed: int = 0,
):
    """Median dense vs low-rank wall times at M = L = tau, plus log-log slopes.

    Dense runs are skipped (record flagged) once a single instance exceeds
    ``DENSE_COST_CAP_SECONDS``.  Measured low-rank error against the dense
    output is recorded at every tau that has a dense output, and the bound is
    the one the low-rank retrieval certified.
    """
    tau_list = [int(t) for t in tau_list]
    if not tau_list:
        raise ValueError("tau list must not be empty")
    if any(b >= a for a, b in zip(tau_list[1:], tau_list)):
        raise ValueError("tau values must be strictly increasing")
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    _check_entry_bound(B)
    cfg = RetrievalConfig(
        beta=beta, delta_a=delta_a, normalization=Normalization.QUERY
    )
    records = []
    dense_skipped = False
    for tau in tau_list:
        rng = np.random.default_rng([seed, tau])
        memory = _random_patterns(rng, d, tau, B, "memory")
        queries = _random_patterns(rng, d, tau, B, "query")
        first_low = retrieve_lowrank(memory, queries, cfg)
        # a fresh memory per repeat, so the time includes the memory side
        # that retrieve_lowrank would otherwise keep from the previous call
        time_low = _median_time(
            lambda: retrieve_lowrank(PatternMatrix(memory.data), queries, cfg),
            repeats,
        )
        flag = ""
        time_dense = float("nan")
        measured = float("nan")
        if dense_skipped:
            flag = "dense-skipped"
        else:
            z_dense = retrieve_dense(memory, queries, cfg)
            first = z_dense.wall_time
            if first > DENSE_COST_CAP_SECONDS:
                dense_skipped = True
                time_dense = first
                flag = "dense-cost-cap"
            else:
                time_dense = _median_time(
                    lambda: retrieve_dense(memory, queries, cfg), repeats
                )
            measured = max_norm_error(first_low.Z, z_dense.Z)
        records.append(
            ExperimentRecord(
                kind="scaling",
                tau=tau,
                d=d,
                g=first_low.degree_used,
                r_prime=first_low.rank_used,
                B=B,
                beta=beta,
                delta_a=delta_a,
                wall_time_dense=time_dense,
                wall_time_lowrank=time_low,
                measured_error=measured,
                bound_2MBdA=first_low.error_bound,
                seed=seed,
                flag=flag,
            )
        )
    slopes = {}
    log_tau = [math.log(r.tau) for r in records]
    dense_pts = [
        (lt, r.wall_time_dense)
        for lt, r in zip(log_tau, records)
        if math.isfinite(r.wall_time_dense) and r.wall_time_dense > 0
    ]
    if len(records) >= 2:
        if len(dense_pts) >= 2:
            slopes["dense"] = fit_slope(
                [p[0] for p in dense_pts], [math.log(p[1]) for p in dense_pts]
            )
        slopes["lowrank"] = fit_slope(
            log_tau, [math.log(r.wall_time_lowrank) for r in records]
        )
    return records, slopes


def error_sweep(
    delta_a_list,
    d: int = 4,
    M: int = 32,
    L: int = 32,
    B: float = 1.0,
    beta: float | None = None,
    seed: int = 0,
):
    """Measured max-norm error of the low-rank path per delta_a against the
    2 M B delta_a bound it certified, on one fixed random instance."""
    if d < 1:
        raise ValueError("d must be >= 1")
    _check_entry_bound(B)
    if beta is None:
        beta = 1.0 / d
    for da in delta_a_list:
        if not 0 < da < 0.1:
            raise ValueError(f"delta_a {da} must lie in (0, 0.1)")
    rng = np.random.default_rng([seed, d, M, L])
    memory = _random_patterns(rng, d, M, B, "memory")
    queries = _random_patterns(rng, d, L, B, "query")
    dense_cfg = RetrievalConfig(beta=beta, normalization=Normalization.QUERY)
    z_dense = retrieve_dense(memory, queries, dense_cfg)
    records = []
    for da in delta_a_list:
        cfg = RetrievalConfig(
            beta=beta, delta_a=da, normalization=Normalization.QUERY
        )
        out = retrieve_lowrank(memory, queries, cfg)
        records.append(
            ExperimentRecord(
                kind="error",
                tau=max(M, L),
                d=d,
                g=out.degree_used,
                r_prime=out.rank_used,
                B=B,
                beta=beta,
                delta_a=da,
                wall_time_dense=z_dense.wall_time,
                wall_time_lowrank=out.wall_time,
                measured_error=max_norm_error(out.Z, z_dense.Z),
                bound_2MBdA=out.error_bound,
                seed=seed,
            )
        )
    return records


def phase_sweep(
    B_list,
    tau: int,
    d: int,
    beta: float,
    delta_a: float,
    degree_cap: int = 16,
    seed: int = 0,
):
    """Low-rank feasibility as the norm bound B grows: records the fitted
    degree, rank, and runtime where each B's ``plan`` holds a fit, or the
    plan's refusal reason as the flag ("degree-exhausted" or
    "rank-overflow"), with no low-rank call, once the degree or rank budget
    is exhausted."""
    b_values = [float(b) for b in B_list]
    for b in b_values:
        _check_entry_bound(b)
    if any(b2 <= b1 for b1, b2 in zip(b_values, b_values[1:])):
        raise ValueError("B values must be strictly increasing")
    records = []
    for b in b_values:
        rng = np.random.default_rng([seed, int(1000 * b)])
        memory = _random_patterns(rng, d, tau, b, "memory")
        queries = _random_patterns(rng, d, tau, b, "query")
        cfg = RetrievalConfig(
            beta=beta,
            delta_a=delta_a,
            normalization=Normalization.QUERY,
            max_degree=degree_cap,
        )
        flag = plan(memory, queries, cfg)[0].reason
        out = None if flag else retrieve_lowrank(memory, queries, cfg)
        records.append(
            ExperimentRecord(
                kind="phase",
                tau=tau,
                d=d,
                g=out.degree_used if out else -1,
                r_prime=out.rank_used if out else -1,
                B=b,
                beta=beta,
                delta_a=delta_a,
                wall_time_dense=0.0,
                wall_time_lowrank=out.wall_time if out else 0.0,
                measured_error=float("nan"),
                bound_2MBdA=lowrank_error_bound(tau, b, delta_a),
                seed=seed,
                flag=flag,
            )
        )
    return records


def records_to_csv(records, path) -> None:
    columns = [f.name for f in fields(ExperimentRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for rec in records:
            writer.writerow(asdict(rec))


def machine_metadata() -> dict:
    return {
        "cpu": platform.processor() or platform.machine(),
        "cores": os.cpu_count(),
        "platform": platform.platform(),
    }


def summary_json(records, slopes) -> str:
    return json.dumps(
        {
            "slopes": slopes,
            "records": len(records),
            "flags": sorted({r.flag for r in records if r.flag}),
            "machine": machine_metadata(),
        },
        indent=2,
        sort_keys=True,
    )
