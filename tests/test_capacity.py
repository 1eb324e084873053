"""Tests for Lambert W, the well-separation condition, and the capacity
formula and experiment."""

import csv
import math

import numpy as np
import pytest
from numpy.polynomial import Chebyshev

from linhop import capacity, hopfield, poly_approx
from linhop.capacity import (
    CAPACITY_COLUMNS,
    CapacityParams,
    capacity_experiment_csv,
    capacity_lower_bound,
    check_well_separated,
    lambert_w0,
    run_capacity_experiment,
    well_separation_threshold,
)
from linhop.errors import InfeasibleStorage, OutOfDomain, SingleMemory
from linhop.hopfield import (
    PatternMatrix,
    RetrievalConfig,
    lowrank_error_bound,
    pattern_radius,
    retrieve_dense,
)


def bisect_w(target, lo=0.0, hi=10.0):
    """Bisection oracle for w e^w = target on [lo, hi]."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def params(**overrides):
    base = dict(p=0.5, d=8, m=2.0, beta=1.0, R=1.0, M=4, B=1.0, delta_a=1e-3)
    base.update(overrides)
    return CapacityParams(**base)


def test_lambert_trivial_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-13)


def test_lambert_omega_constant():
    oracle = bisect_w(1.0)
    assert abs(oracle - 0.5671432904097838) < 1e-12
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)


def test_lambert_residual_grid():
    xs = np.concatenate(
        [
            np.array([-1.0 / math.e + 1e-9]),
            -np.logspace(-8, math.log10(1 / math.e - 1e-9), 500)[::-1],
            np.logspace(-8, 6, 10000),
        ]
    )
    for x in xs:
        w = lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_lambert_branch_point_and_domain():
    assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)
    with pytest.raises(OutOfDomain):
        lambert_w0(-1.0)


def test_threshold_formula_delta_zero_limit():
    # with delta_a = 0 the threshold reduces to the dense-model condition
    p = params(delta_a=0.0, M=2, m=1.0, R=0.5, beta=1.0, B=1.0)
    got = well_separation_threshold(p)
    assert got == pytest.approx(math.log(4.0) + 1.0, abs=1e-12)


def test_threshold_scalar_oracle():
    p = params(M=2, m=1.0, R=0.5, beta=1.0, delta_a=0.0, B=1.0)
    assert well_separation_threshold(p) == pytest.approx(2.386294, abs=1e-6)


def test_threshold_infeasible_storage():
    with pytest.raises(InfeasibleStorage):
        well_separation_threshold(params(M=4, B=1.0, delta_a=0.05, R=0.4))


def test_threshold_monotone_in_M_and_delta():
    base = [well_separation_threshold(params(M=m)) for m in (2, 4, 8, 16)]
    assert all(b > a for a, b in zip(base, base[1:]))
    by_delta = [
        well_separation_threshold(params(delta_a=da))
        for da in (0.0, 1e-3, 1e-2, 5e-2)
    ]
    assert all(b > a for a, b in zip(by_delta, by_delta[1:]))


def test_threshold_diverges_at_margin():
    margin = 2 * 4 * 1.0 * 1e-3
    near = well_separation_threshold(params(R=margin + 1e-9))
    far = well_separation_threshold(params(R=margin + 1e-3))
    assert near > far + 10


def test_check_well_separated_orthogonal():
    m = 40.0
    mem = PatternMatrix(m * np.eye(4))
    p = params(M=4, m=m, beta=1.0, R=0.1, delta_a=0.0, d=4)
    threshold = well_separation_threshold(p)
    assert m * m >= threshold
    assert check_well_separated(mem, p) == [True] * 4


def test_check_well_separated_duplicates():
    mem = PatternMatrix(np.column_stack([np.ones(4), np.ones(4), -np.ones(4)]))
    p = params(M=3, m=2.0, d=4)
    report = check_well_separated(mem, p)
    assert report[0] is False and report[1] is False


def test_check_well_separated_single():
    with pytest.raises(SingleMemory):
        check_well_separated(PatternMatrix(np.ones((4, 1))), params())


def test_capacity_bound_out_of_domain_for_probability_p():
    for p_val in (0.01, 0.5, 0.99):
        with pytest.raises(OutOfDomain):
            capacity_lower_bound(params(p=p_val))


def test_capacity_bound_increasing_in_d():
    # sqrt(p) > 1 keeps the logarithm argument positive; m is large enough
    # that the inner constant C exceeds 1, so the power grows with d
    lo = capacity_lower_bound(params(p=4.0, d=12, m=10.0))
    hi = capacity_lower_bound(params(p=4.0, d=16, m=10.0))
    assert hi > lo


def test_capacity_bound_defining_equation():
    p = params(p=4.0, d=12)
    denom = p.R - p.error_margin
    log_arg = 2 * p.m * (math.sqrt(p.p) - 1) / denom
    a = (4 / (p.d - 1)) * (math.log(log_arg) + 1)
    b = 4 * p.m**2 * p.beta / (5 * (p.d - 1))
    w = lambert_w0(math.exp(a + math.log(b)))
    c = b / w
    assert abs(c * w - b) <= 1e-9 * abs(b)
    assert capacity_lower_bound(p) == pytest.approx(
        math.sqrt(p.p) * c ** ((p.d - 1) / 4), rel=1e-12
    )


def test_capacity_params_validation():
    with pytest.raises(ValueError):
        params(p=0.0)
    with pytest.raises(ValueError):
        params(beta=-1.0)
    with pytest.raises(ValueError):
        params(delta_a=0.2)


def test_experiment_single_memory():
    rows = run_capacity_experiment(8, 2.0, 1.0, [1], trials=20, rng_seed=0)
    assert rows[0]["success_rate"] == 1.0
    assert rows[0]["mean_error"] <= 2 * 1 * 2.0 * 1e-3


def test_experiment_reference_success():
    rows = run_capacity_experiment(
        32, math.sqrt(32), 1.0, [4], trials=200, rng_seed=0
    )
    assert rows[0]["success_rate"] >= 0.95


def test_experiment_empty():
    assert run_capacity_experiment(8, 2.0, 1.0, [1, 2], trials=0) == []
    with pytest.raises(ValueError, match="trials"):
        run_capacity_experiment(8, 2.0, 1.0, [1, 2], trials=-1)


def test_experiment_deterministic():
    a = run_capacity_experiment(8, 2.0, 1.0, [2, 4], trials=10, rng_seed=3)
    b = run_capacity_experiment(8, 2.0, 1.0, [2, 4], trials=10, rng_seed=3)
    assert a == b


def test_experiment_rows_schema():
    rows = run_capacity_experiment(8, 2.0, 0.5, [2], trials=5, rng_seed=1)
    row = rows[0]
    for key in ("d", "m", "beta", "M", "trials", "success_rate", "mean_error", "seed"):
        assert key in row
    assert row["d"] == 8 and row["M"] == 2 and row["trials"] == 5


@pytest.mark.parametrize(
    "d, m, beta, fallback",
    [(4, 1.0, 0.25, False), (8, math.sqrt(8), 1.0, True)],
)
def test_experiment_makes_one_retrieval_per_M(monkeypatch, d, m, beta, fallback):
    calls = {"retrieve_lowrank": [], "retrieve_dense": []}
    for name in calls:
        inner = getattr(capacity, name)

        def counted(memory, queries, cfg, inner=inner, name=name):
            calls[name].append(queries.count)
            return inner(memory, queries, cfg)

        monkeypatch.setattr(capacity, name, counted)
    rows = run_capacity_experiment(d, m, beta, [2, 4, 8], trials=25, rng_seed=0)
    assert [r["solver"] for r in rows] == ["dense-fallback" if fallback else "lowrank"] * 3
    # the low-rank attempt and, where it is infeasible, one dense call
    assert calls["retrieve_lowrank"] == [25, 25, 25]
    assert calls["retrieve_dense"] == ([25, 25, 25] if fallback else [])


def test_experiment_refuses_infeasible_fits_without_fitting(monkeypatch):
    # a drivers shape: every trial's score interval is past the rounding
    # floor, so each fit is refused before any interpolation
    interpolations = []
    inner = Chebyshev.interpolate.__func__

    def counted(cls, *args, **kwargs):
        interpolations.append(args[1])
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(Chebyshev, "interpolate", classmethod(counted))
    monkeypatch.setattr(hopfield, "_FIT_CACHE", {})
    args = (8, math.sqrt(8), 1.0, [2, 4])
    rows = run_capacity_experiment(*args, trials=4, rng_seed=0)
    assert interpolations == []
    assert [r["solver"] for r in rows] == ["dense-fallback"] * 2
    # the same rows when every fit runs the degree loop to exhaustion
    monkeypatch.setattr(hopfield, "_FIT_CACHE", {})
    monkeypatch.setattr(poly_approx, "_rounding_floor", lambda delta_a: math.inf)
    assert run_capacity_experiment(*args, trials=4, rng_seed=0) == rows
    assert len(interpolations) > 0


def test_experiment_fallback_matches_per_trial_dense_loop():
    d, m, beta, trials, seed = 8, math.sqrt(8), 1.0, 60, 4
    rows = run_capacity_experiment(
        d, m, beta, [2, 8, 16], trials=trials, rng_seed=seed
    )
    cfg = RetrievalConfig(beta=beta)
    for row in rows:
        m_count = row["M"]
        # the experiment's memory: M draws on the radius-m sphere
        rng = np.random.default_rng([seed, m_count])
        draws = [rng.standard_normal(d) for _ in range(m_count)]
        xi = np.column_stack([m * v / np.linalg.norm(v) for v in draws])
        memory = PatternMatrix(xi)
        radius = pattern_radius(memory)
        eps = radius / 2.0 + lowrank_error_bound(m_count, memory.max_norm, 1e-3)
        successes, errors = 0, []
        for trial in range(trials):
            trng = np.random.default_rng([seed, m_count, trial])
            mu = int(trng.integers(m_count))
            noise = trng.standard_normal(d)
            query = xi[:, mu] + 0.1 * radius * noise / np.linalg.norm(noise)
            batch = PatternMatrix(query[:, None], role="query")
            z = retrieve_dense(memory, batch, cfg).Z
            err = float(np.linalg.norm(z[:, 0] - xi[:, mu]))
            errors.append(err)
            nearest = int(np.argmin(np.linalg.norm(xi - z, axis=0)))
            successes += err <= eps and nearest == mu
        assert row["solver"] == "dense-fallback"
        assert row["success_rate"] == successes / trials
        assert row["eps"] == eps and row["sphere_radius"] == radius
        assert abs(row["mean_error"] - float(np.mean(errors))) <= 1e-12


def test_experiment_csv_writes_every_row_key(tmp_path):
    rows = run_capacity_experiment(8, 2.0, 1.0, [1, 2], trials=5, rng_seed=0)
    path = tmp_path / "cap.csv"
    capacity_experiment_csv(rows, path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == CAPACITY_COLUMNS
        back = list(reader)
    assert CAPACITY_COLUMNS[:8] == (
        "d", "m", "beta", "M", "trials", "success_rate", "mean_error", "seed"
    )
    assert set(CAPACITY_COLUMNS) == set(rows[0])
    assert [{k: str(v) for k, v in row.items()} for row in rows] == back
    assert back[1]["solver"] == "dense-fallback"


@pytest.mark.parametrize(
    "d, m, beta, seed, eps",
    [
        (4, 1.0, 0.25, 0, None),
        # a loose eps leaves the nearest-pattern test to decide
        (4, 1.0, 0.25, 0, 10.0),
        (8, math.sqrt(8), 1.0, 7, None),
        (16, 4.0, 1.0, 11, None),
    ],
)
def test_experiment_scoring_matches_per_trial_loop(monkeypatch, d, m, beta, seed, eps):
    # score the very Z each retrieval returned with the per-trial loop
    returned = []
    for name in ("retrieve_lowrank", "retrieve_dense"):
        inner = getattr(capacity, name)

        def recorded(memory, queries, cfg, inner=inner):
            out = inner(memory, queries, cfg)
            returned.append((memory.data, out.Z))
            return out

        monkeypatch.setattr(capacity, name, recorded)
    trials = 40
    rows = run_capacity_experiment(
        d, m, beta, [2, 8, 32], trials=trials, rng_seed=seed, eps=eps
    )
    assert len(returned) == len(rows)  # a failed low-rank attempt returns nothing
    for row, (xi, z) in zip(rows, returned):
        m_count = row["M"]
        successes, errors = 0, []
        for trial in range(trials):
            mu = int(np.random.default_rng([seed, m_count, trial]).integers(m_count))
            err = float(np.linalg.norm(z[:, trial] - xi[:, mu]))
            errors.append(err)
            nearest = int(np.argmin(np.linalg.norm(xi - z[:, trial, None], axis=0)))
            successes += err <= row["eps"] and nearest == mu
        assert row["success_rate"] == successes / trials
        assert abs(row["mean_error"] - float(np.mean(errors))) <= 1e-15
