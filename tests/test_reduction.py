"""Tests for the gap nearest-neighbor reduction and its brute-force oracles."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from linhop import reduction
from linhop.errors import (
    CostCapExceeded,
    DegreeExhausted,
    InfeasiblePlant,
    InvalidParams,
)
from linhop.hopfield import Normalization, PatternMatrix, RetrievalConfig
from linhop.reduction import (
    AnnsInstance,
    brute_force_anns,
    build_ahop_instance,
    classify_queries,
    compute_params,
    generate_balanced_instance,
    generate_clustered_case2_instance,
    planted_instance,
    scenario1_brute_force,
    score_matrix,
    solve_gap_anns_via_ahop,
    verify_reduction,
    _dense_statistic,
    _lowrank_statistic,
)


def small_instance():
    a = np.array([[0, 0], [1, 1]])
    b = np.array([[0, 1], [1, 0]])
    return AnnsInstance(a, b, t=1.5, delta=0.05)


def test_instance_validation():
    with pytest.raises(ValueError):
        AnnsInstance(np.array([[0, 2]]), np.array([[0, 1]]), t=1.0, delta=0.05)
    with pytest.raises(ValueError):
        AnnsInstance(np.array([[0, 1]]), np.array([[0, 1]]), t=0.0, delta=0.05)
    with pytest.raises(ValueError):
        AnnsInstance(np.array([[0, 1]]), np.array([[0, 1]]), t=1.0, delta=0.5)


@pytest.mark.parametrize("bad", [0.5, 1.7, np.nan], ids=["half", "1.7", "nan"])
def test_instance_refuses_non_binary_entries(bad):
    # checked before the int64 cast, which would truncate 0.5 to 0 and 1.7 to 1
    with pytest.raises(ValueError, match="set_a entries must be 0/1"):
        AnnsInstance(np.array([[bad, 1.0]]), np.array([[0, 1]]), t=1.0, delta=0.05)
    with pytest.raises(ValueError, match="set_b entries must be 0/1"):
        AnnsInstance(np.array([[0, 1]]), np.array([[1.0, bad]]), t=1.0, delta=0.05)


def test_instance_accepts_binary_floats_and_bools():
    inst = AnnsInstance(
        np.array([[0.0, 1.0]]), np.array([[True, False]]), t=1.0, delta=0.05
    )
    for arr, expected in ((inst.set_a, [[0, 1]]), (inst.set_b, [[1, 0]])):
        assert arr.dtype == np.int64 and arr.tolist() == expected


def test_brute_force_identical_sets():
    a = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
    inst = AnnsInstance(a, a.copy(), t=1.0, delta=0.05)
    i, j, dist = brute_force_anns(inst)
    assert dist == 0.0 and i == j == 0


def test_brute_force_hand_checked():
    i, j, dist = brute_force_anns(small_instance())
    assert dist == 1.0
    assert (i, j) == (0, 0)  # lexicographic tie-break among distance-1 pairs


def test_brute_force_single_pair():
    inst = AnnsInstance(np.array([[0, 1]]), np.array([[1, 1]]), t=1.0, delta=0.05)
    assert brute_force_anns(inst) == (0, 0, 1.0)


def test_scenario1_radius_zero():
    # t = 1 means distance < 1, i.e. exact membership
    a = np.array([[0, 1, 0, 1], [1, 0, 1, 0]])
    b = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
    inst = AnnsInstance(a, b, t=1.0, delta=0.05)
    assert scenario1_brute_force(inst) == ["case1", "case2"]


def test_scenario1_planted_flip():
    rng = np.random.default_rng(0)
    inst = generate_balanced_instance(4, 8, t=3.0, delta=0.05, planted=2, rng_seed=1)
    verdicts = scenario1_brute_force(inst)
    d2 = inst.distance_sq()
    for i, verdict in enumerate(verdicts):
        expected = "case1" if d2[i].min() < inst.t else "case2"
        assert verdict == expected


def test_scenario1_matches_distance_oracle():
    inst = generate_balanced_instance(8, 10, t=3.0, delta=0.05, rng_seed=2)
    verdicts = scenario1_brute_force(inst)
    d2 = inst.distance_sq()
    for i, verdict in enumerate(verdicts):
        assert verdict == ("case1" if d2[i].min() < inst.t else "case2")


def test_scenario1_cost_cap(monkeypatch):
    monkeypatch.setattr(reduction, "SCENARIO1_COST_CAP", 10)
    inst = generate_balanced_instance(8, 10, t=9.0, delta=0.05, rng_seed=3)
    with pytest.raises(CostCapExceeded):
        scenario1_brute_force(inst)


def test_compute_params_invariants():
    p = compute_params(16, 10, 4.0, 0.09)
    log_n = math.log(16)
    assert p.C == pytest.approx(10 / log_n)
    assert p.C0 == pytest.approx(4 / log_n)
    assert p.beta == pytest.approx(1.0 / 20)
    assert p.B == pytest.approx(p.C_beta * math.sqrt(log_n))
    assert p.C_beta > 2 * math.sqrt(p.C / (p.C0 * p.delta))
    assert p.C_alpha > (p.C_beta**2 / 4) * (3 + p.C0 / p.C) + 1
    assert p.t_tilde >= p.delta_h
    # the separation value restated from its definition
    expected = (
        math.exp(0.25 * p.B**2 * (1 - p.t / p.d)) / (3 * 2 * p.n)
    ) * math.exp(-p.B**2)
    assert p.t_tilde == pytest.approx(expected, rel=1e-9)


def test_compute_params_rejects_weak_constants():
    with pytest.raises(InvalidParams):
        dataclasses.replace(compute_params(16, 10, 4.0, 0.09), C_beta=1.0)


def test_build_instance_block_structure():
    inst = generate_balanced_instance(4, 8, t=3.0, delta=0.09, rng_seed=4)
    memory, queries, params = build_ahop_instance(inst)
    n, d, b = inst.n, inst.d, params.B
    assert memory.data.shape == (2 * d, 2 * n)
    assert queries.data.shape == (2 * d, 2 * n)
    assert memory.max_norm <= b + 1e-12
    assert queries.max_norm <= b + 1e-12
    # the literal bottom-left block entries are all exp(0) = 1
    literal = np.exp(params.beta * (memory.data.T @ queries.data))
    assert np.allclose(literal[n:, :n], 1.0, atol=1e-12)
    # the score matrix as the analysis prints it patches the right half to a
    # constant and zeroes the bottom-left block
    patched = score_matrix(memory, queries, params)
    assert np.array_equal(patched[:n, :n], literal[:n, :n])
    assert np.allclose(patched[:, n:], math.exp(b**2))
    assert np.all(patched[n:, :n] == 0.0)


def test_build_instance_row_sum_bounds():
    inst = generate_balanced_instance(4, 8, t=3.0, delta=0.09, rng_seed=5)
    memory, queries, params = build_ahop_instance(inst)
    n = inst.n
    a = score_matrix(memory, queries, params)
    top_sums = a[:n].sum(axis=1)
    block = math.exp(params.B**2)
    assert np.all(top_sums >= n * block)
    assert np.all(top_sums <= 2 * n * block)


def test_solve_planted_case1():
    inst = generate_balanced_instance(8, 8, t=3.0, delta=0.09, planted=2, rng_seed=6)
    oracle = classify_queries(inst)
    decision = solve_gap_anns_via_ahop(inst)
    assert "case1" in oracle
    for j, truth in enumerate(oracle):
        if truth != "indeterminate":
            assert decision.verdicts[j] == truth


def test_solve_all_case2():
    inst = generate_clustered_case2_instance(8, 8, t=3.0, delta=0.09, rng_seed=7)
    assert classify_queries(inst) == ["case2"] * 8
    decision = solve_gap_anns_via_ahop(inst)
    assert decision.verdicts == ["case2"] * 8
    assert np.all(decision.statistic < decision.threshold_used)


def test_solve_duplicate_row_case1():
    a = np.array([[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]])
    b = np.array([[1, 0, 1, 0, 1, 0], [1, 1, 1, 0, 0, 0]])
    inst = AnnsInstance(a, b, t=2.0, delta=0.09)
    decision = solve_gap_anns_via_ahop(inst)
    assert decision.verdicts[0] == "case1"


def test_lowrank_solver_degree_exhausted():
    # the valid reduction constants force an exp fit interval of B^2, far
    # beyond what the degree cap can certify at the required relative error
    inst = generate_balanced_instance(8, 8, t=3.0, delta=0.09, rng_seed=8)
    with pytest.raises(DegreeExhausted):
        solve_gap_anns_via_ahop(inst, solver="lowrank")


def test_lowrank_statistic_matches_dense_on_bounded_scores():
    # bounded scores keep the fit feasible, so the factored statistic can be
    # checked against the dense one
    rng = np.random.default_rng(9)
    params = SimpleNamespace(n=40, B=1.0, beta=0.2)
    memory = PatternMatrix(rng.uniform(-1, 1, (5, 80)))
    queries = PatternMatrix(rng.uniform(-1, 1, (5, 80)), role="query")
    cfg = RetrievalConfig(beta=params.beta, normalization=Normalization.MEMORY)
    low = _lowrank_statistic(memory, queries, params, cfg)
    dense = _dense_statistic(memory, queries, params)
    assert np.max(np.abs(low - dense)) <= 2 * cfg.delta_a


def test_planted_instance_kinds():
    case1 = planted_instance("case1", 6, 8, 3.0, 0.09, rng_seed=3)
    assert case1.distance_sq().min() == 2
    assert set(classify_queries(planted_instance("case2", 6, 8, 3.0, 0.09))) == {"case2"}
    with pytest.raises(ValueError):
        planted_instance("case3", 6, 8, 3.0, 0.09)


def assert_balanced(inst):
    # every row of both sets holds d / 2 ones
    half = inst.d // 2
    assert (inst.set_a.sum(axis=1) == half).all() and (inst.set_b.sum(axis=1) == half).all()


def test_generate_balanced_rows():
    inst = generate_balanced_instance(4, 8, t=3.0, delta=0.09, rng_seed=9)
    assert_balanced(inst)


def test_generate_unplanted_matches_per_row_permutations():
    # the reference draws one permutation per row, a-rows before b-rows
    for seed, n, d in [(0, 8, 8), (13, 16, 10), (21, 32, 8), (5, 3, 2)]:
        inst = generate_balanced_instance(n, d, t=3.0, delta=0.09, rng_seed=seed)
        rng = np.random.default_rng([seed, n, d])
        for rows in (inst.set_a, inst.set_b):
            expected = np.zeros((n, d), dtype=np.int64)
            for i in range(n):
                expected[i, rng.permutation(d)[: d // 2]] = 1
            assert np.array_equal(rows, expected)


@pytest.mark.parametrize("d", [2, 8, 10, 32])
def test_swap_k_keeps_weight_at_distance_k(d):
    for seed in range(50):
        rng = np.random.default_rng(seed)
        rows = reduction._random_balanced_rows(rng, 12, d)
        for k in range(0, d + 1, 2):
            out = reduction._swap_k(rng, rows, k)
            assert (out.sum(axis=1) == d // 2).all()
            assert (((out - rows) ** 2).sum(axis=1) == k).all()


@pytest.mark.parametrize("n, d, t", [(8, 8, 3.0), (16, 10, 4.0), (32, 8, 3.0)])
def test_clustered_instances_are_all_case2(n, d, t):
    for seed in range(50):
        inst = generate_clustered_case2_instance(n, d, t, 0.09, rng_seed=seed)
        assert_balanced(inst)
        assert classify_queries(inst) == ["case2"] * n


def test_generate_planted_zero_duplicates_row():
    inst = generate_balanced_instance(4, 8, t=1.0, delta=0.09, planted=0, rng_seed=10)
    assert inst.distance_sq().min() == 0


def test_generate_planted_two():
    inst = generate_balanced_instance(4, 8, t=3.0, delta=0.09, planted=2, rng_seed=11)
    assert inst.distance_sq().min() <= 2
    assert_balanced(inst)


def test_generate_rejects_bad_plants():
    with pytest.raises(InfeasiblePlant):
        generate_balanced_instance(4, 8, t=3.0, delta=0.09, planted=3)
    with pytest.raises(InfeasiblePlant):
        generate_balanced_instance(4, 7, t=3.0, delta=0.09)


def test_generate_deterministic():
    a = generate_balanced_instance(4, 8, t=3.0, delta=0.09, planted=2, rng_seed=12)
    b = generate_balanced_instance(4, 8, t=3.0, delta=0.09, planted=2, rng_seed=12)
    assert np.array_equal(a.set_a, b.set_a)
    assert np.array_equal(a.set_b, b.set_b)


def test_verify_reduction_agreement():
    report = verify_reduction(8, 8, 3.0, 0.09, trials=6, rng_seed=0)
    assert report["agreement_fraction"] == 1.0
    assert report["promised_queries"] > 0
    assert report["disagreements"] == []


def test_verify_reduction_empty():
    report = verify_reduction(8, 8, 3.0, 0.09, trials=0)
    assert report["per_trial"] == []
    assert report["promised_queries"] == 0


def _params_with(**changes):
    return dataclasses.replace(compute_params(16, 10, 4.0, 0.09), **changes)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: AnnsInstance(np.zeros((2, 4)), np.zeros((3, 4)), t=1.0, delta=0.05),
         ValueError, "set_a and set_b must share shape (n, d)"),
        (lambda: _params_with(C_alpha=1.0), InvalidParams, "C_alpha = 1.0 must exceed"),
        (lambda: _params_with(B=30.0), InvalidParams,
         "B^2 = 900.0 exceeds the floating-point cap"),
        (lambda: _params_with(t_tilde=0.0), InvalidParams, "t_tilde = 0.0 < delta_h"),
        (lambda: compute_params(1, 10, 4.0, 0.09), InvalidParams, "n must be >= 2"),
        (lambda: solve_gap_anns_via_ahop(
            generate_balanced_instance(4, 8, t=3.0, delta=0.09, rng_seed=4), solver="bogus"),
         ValueError, "unknown solver 'bogus'"),
        (lambda: generate_clustered_case2_instance(4, 9, 3.0, 0.09), InfeasiblePlant,
         "d must be even for balanced rows"),
        (lambda: generate_clustered_case2_instance(4, 8, 4.0, 0.09), InfeasiblePlant,
         "cluster construction needs d - 4 >= (1+delta)*t"),
        (lambda: verify_reduction(4, 8, 3.0, 0.09, trials=-1), ValueError,
         "trials must be >= 0, got -1"),
    ],
    ids=["instance-shapes", "weak-C-alpha", "B-squared-cap", "t-tilde-below-delta-h",
         "one-point", "unknown-solver", "clustered-odd-d", "clustered-tight-d",
         "negative-trials"],
)
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert message in str(excinfo.value)
