"""Tests for the benchmark harness records and sweeps."""

import csv
import math

import numpy as np
import pytest

from linhop import bench, hopfield
from linhop import feature_map as fm
from linhop.bench import (
    ExperimentRecord,
    error_sweep,
    fit_slope,
    phase_sweep,
    records_to_csv,
    runtime_scaling,
    summary_json,
)


def make_record(**overrides):
    base = dict(
        kind="error",
        tau=8,
        d=4,
        g=5,
        r_prime=126,
        B=1.0,
        beta=0.25,
        delta_a=1e-3,
        wall_time_dense=0.1,
        wall_time_lowrank=0.05,
        measured_error=1e-4,
        bound_2MBdA=1e-2,
        seed=0,
    )
    base.update(overrides)
    return ExperimentRecord(**base)


def test_record_validation():
    with pytest.raises(ValueError):
        make_record(kind="bogus")
    with pytest.raises(ValueError):
        make_record(wall_time_dense=-1.0)


def test_record_flags_bound_violation():
    rec = make_record(measured_error=0.5, bound_2MBdA=0.1)
    assert rec.flag == "bound-violation"
    ok = make_record()
    assert ok.flag == ""


def test_fit_slope_exact_line():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [2 * x + 1 for x in xs]
    assert fit_slope(xs, ys) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_slope([1.0], [1.0])


def test_error_sweep_bound_linearity():
    records = error_sweep([1e-2, 5e-3], d=4, M=16, L=16, seed=0)
    assert records[0].bound_2MBdA == pytest.approx(2 * records[1].bound_2MBdA)


def test_error_sweep_measured_below_bound():
    records = error_sweep([1e-2, 1e-3, 1e-4], d=4, M=16, L=16, seed=1)
    for rec in records:
        assert rec.measured_error <= rec.bound_2MBdA
        assert rec.flag == ""


def test_error_sweep_monotone_in_delta():
    records = error_sweep([1e-2, 1e-4], d=4, M=16, L=16, seed=2)
    assert records[1].measured_error <= records[0].measured_error


def test_error_sweep_rejects_bad_delta():
    with pytest.raises(ValueError):
        error_sweep([0.5], d=4)


def test_error_sweep_rejects_d_below_1():
    with pytest.raises(ValueError, match="d must be >= 1"):
        error_sweep([1e-3], d=0)


def test_phase_sweep_records_failures(monkeypatch):
    calls = []
    inner = bench.retrieve_lowrank

    def counted(memory, queries, cfg):
        calls.append(memory.max_norm)
        return inner(memory, queries, cfg)

    monkeypatch.setattr(bench, "retrieve_lowrank", counted)
    records = phase_sweep([0.5, 1.0, 6.0], tau=16, d=4, beta=1.0, delta_a=1e-3,
                          degree_cap=8, seed=0)
    assert records[0].flag == ""
    assert records[0].r_prime <= 16**0.5 * 100  # small-B regime succeeds
    assert records[-1].flag in ("degree-exhausted", "rank-overflow")
    # a refused B makes no low-rank call; each feasible B makes one
    assert len(calls) == sum(not r.flag for r in records) < len(records)


def test_phase_sweep_flags_a_rank_over_the_cap(monkeypatch):
    # B = 0.5 at d = 8, beta = 1/8 fits degree 2, rank C(10, 2) = 45; fits
    # are memoized per key, so the cache starts empty
    monkeypatch.setattr(hopfield, "_FIT_CACHE", {})
    monkeypatch.setattr(fm, "RANK_CAP", 40)
    (record,) = phase_sweep([0.5], tau=8, d=8, beta=1 / 8, delta_a=1e-3, seed=0)
    assert record.flag == "rank-overflow"
    assert record.g == record.r_prime == -1
    assert record.wall_time_lowrank == 0.0


def test_phase_sweep_empty():
    assert phase_sweep([], tau=16, d=4, beta=1.0, delta_a=1e-3) == []


def test_phase_sweep_requires_increasing():
    with pytest.raises(ValueError):
        phase_sweep([1.0, 0.5], tau=16, d=4, beta=1.0, delta_a=1e-3)


def test_runtime_scaling_small():
    records, slopes = runtime_scaling(
        [64, 128], d=3, beta=1.0 / 3, B=1.0, delta_a=1e-3, repeats=3, seed=0
    )
    assert len(records) == 2
    assert "lowrank" in slopes and "dense" in slopes
    for rec in records:
        assert rec.wall_time_dense >= 0 and rec.wall_time_lowrank >= 0
        assert math.isfinite(rec.measured_error)
        assert rec.measured_error <= rec.bound_2MBdA


def test_runtime_scaling_skips_dense_past_its_cost_cap(monkeypatch):
    monkeypatch.setattr(bench, "DENSE_COST_CAP_SECONDS", 0.0)
    records, slopes = runtime_scaling(
        [32, 64, 128], d=3, beta=1.0 / 3, B=1.0, delta_a=1e-3, repeats=3, seed=0
    )
    assert [r.flag for r in records] == ["dense-cost-cap", "dense-skipped", "dense-skipped"]
    # the capped run keeps its one timing and its error check
    assert records[0].wall_time_dense > 0
    assert math.isfinite(records[0].measured_error)
    assert all(math.isnan(r.wall_time_dense) for r in records[1:])
    assert "dense" not in slopes and "lowrank" in slopes


def test_runtime_scaling_single_tau_no_slopes():
    records, slopes = runtime_scaling(
        [64], d=3, beta=1.0 / 3, B=1.0, delta_a=1e-3, repeats=3, seed=0
    )
    assert len(records) == 1
    assert slopes == {}


def test_runtime_scaling_measured_error_deterministic():
    _, _ = runtime_scaling([64], d=3, beta=1.0 / 3, B=1.0, delta_a=1e-3, seed=5)
    r1, _ = runtime_scaling([64], d=3, beta=1.0 / 3, B=1.0, delta_a=1e-3, seed=5)
    r2, _ = runtime_scaling([64], d=3, beta=1.0 / 3, B=1.0, delta_a=1e-3, seed=5)
    assert r1[0].measured_error == r2[0].measured_error


def test_runtime_scaling_requires_increasing():
    with pytest.raises(ValueError):
        runtime_scaling([128, 64], d=3, beta=1.0, B=1.0, delta_a=1e-3)
    with pytest.raises(ValueError):
        runtime_scaling([64, 128], d=3, beta=1.0, B=1.0, delta_a=1e-3, repeats=2)


def test_csv_round_trip_and_slope_reproducible(tmp_path):
    records, slopes = runtime_scaling(
        [32, 64, 128], d=3, beta=1.0 / 3, B=1.0, delta_a=1e-3, repeats=3, seed=0
    )
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(records)
    xs = [math.log(int(r["tau"])) for r in back]
    ys = [math.log(float(r["wall_time_lowrank"])) for r in back]
    assert fit_slope(xs, ys) == pytest.approx(slopes["lowrank"], abs=1e-9)


def test_summary_json():
    records = error_sweep([1e-3], d=4, M=8, L=8, seed=0)
    text = summary_json(records, {"lowrank": 1.0})
    assert '"slopes"' in text and '"machine"' in text


def test_runtime_scaling_rejects_an_empty_tau_list():
    with pytest.raises(ValueError, match="tau list must not be empty"):
        runtime_scaling([], d=3, beta=1.0, B=1.0, delta_a=1e-3)


def test_runtime_scaling_measures_the_error_at_a_middle_tau():
    records, _ = runtime_scaling(
        [32, 64, 128], d=3, beta=1.0 / 3, B=1.0, delta_a=1e-3, repeats=3, seed=0
    )
    middle = records[1]
    assert middle.tau == 64 and not middle.flag
    assert math.isfinite(middle.measured_error)
    assert middle.measured_error <= middle.bound_2MBdA


def _instance(key, d, memory_count, query_count):
    rng = np.random.default_rng(key)
    memory = hopfield.PatternMatrix(rng.uniform(-1.0, 1.0, size=(d, memory_count)))
    queries = hopfield.PatternMatrix(
        rng.uniform(-1.0, 1.0, size=(d, query_count)), role="query"
    )
    return memory, queries


def test_records_carry_the_bound_the_retrieval_certified():
    # on these instances a query entry exceeds every memory entry, so the
    # certified 2 M B delta_a (B over both sides) is above the memory-only one
    cfg = hopfield.RetrievalConfig(beta=0.25, delta_a=1e-3)
    records, _ = runtime_scaling([64, 128, 256], d=4, beta=0.25, B=1.0, delta_a=1e-3, seed=0)
    memory, queries = _instance([0, 128], 4, 128, 128)
    assert queries.max_norm > memory.max_norm
    certified = hopfield.retrieve_lowrank(memory, queries, cfg).error_bound
    assert certified > hopfield.lowrank_error_bound(128, memory.max_norm, 1e-3)
    assert records[1].bound_2MBdA == certified

    (record,) = error_sweep([1e-3], d=4, M=16, L=16, seed=2)
    memory, queries = _instance([2, 4, 16, 16], 4, 16, 16)
    assert queries.max_norm > memory.max_norm
    assert record.bound_2MBdA == hopfield.retrieve_lowrank(memory, queries, cfg).error_bound
