"""Tests for dense and low-rank retrieval, energies, and separation measures."""

import copy
import itertools
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Chebyshev

from linhop import feature_map as fm
from linhop import hopfield, poly_approx
from linhop.errors import (
    DegreeExhausted,
    DimensionMismatch,
    EmptyVector,
    InvalidBound,
    NonFiniteInput,
    NonPositiveNormalizer,
    OutOfDomain,
    SingleMemory,
    SizeOverflow,
)
from linhop.feature_map import build_factor_matrices, factored_row_sums
from linhop.hopfield import (
    Normalization,
    PatternMatrix,
    RetrievalConfig,
    dense_normalizers,
    energy,
    fixed_point_iterate,
    lowrank_error_bound,
    lowrank_normalizers,
    lse,
    max_norm_error,
    pattern_radius,
    retrieval_error_bound,
    retrieve_dense,
    retrieve_lowrank,
    separation,
)


def random_patterns(rng, d, count, b=1.0, role="memory"):
    return PatternMatrix(rng.uniform(-b, b, size=(d, count)), role=role)


def test_lse_two_zeros():
    assert lse(1.0, [0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_lse_single_element():
    assert lse(2.0, [5.0]) == pytest.approx(5.0, abs=1e-12)


def test_lse_no_overflow():
    assert lse(1.0, [1000.0, 1000.0]) == pytest.approx(
        1000.0 + math.log(2.0), abs=1e-9
    )


def test_lse_empty():
    with pytest.raises(EmptyVector):
        lse(1.0, [])


def test_energy_single_memory_at_pattern():
    xi = np.array([[1.0], [2.0], [2.0]])
    mem = PatternMatrix(xi)
    norm_sq = float(xi[:, 0] @ xi[:, 0])
    assert energy(mem, xi[:, 0], 1.0) == pytest.approx(-0.5 * norm_sq, abs=1e-12)


def test_energy_zero_query():
    rng = np.random.default_rng(0)
    mem = random_patterns(rng, 4, 5)
    assert energy(mem, np.zeros(4), 1.0) == pytest.approx(-math.log(5), abs=1e-12)


def test_energy_matches_direct_formula():
    rng = np.random.default_rng(1)
    mem = random_patterns(rng, 4, 3)
    x = rng.uniform(-1, 1, 4)
    beta = 0.7
    scores = mem.data.T @ x
    direct = -math.log(np.sum(np.exp(beta * scores))) / beta + 0.5 * float(x @ x)
    assert energy(mem, x, beta) == pytest.approx(direct, abs=1e-12)


def test_energy_dimension_mismatch():
    mem = PatternMatrix(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        energy(mem, np.ones(4), 1.0)


def test_dense_single_memory():
    rng = np.random.default_rng(2)
    mem = random_patterns(rng, 4, 1)
    queries = random_patterns(rng, 4, 6, role="query")
    out = retrieve_dense(mem, queries, RetrievalConfig(beta=1.0))
    assert np.allclose(out.Z, np.repeat(mem.data, 6, axis=1), atol=1e-12)


def test_dense_columns_are_convex_combinations():
    rng = np.random.default_rng(3)
    mem = random_patterns(rng, 3, 8)
    queries = random_patterns(rng, 3, 5, role="query")
    cfg = RetrievalConfig(beta=0.5)
    out = retrieve_dense(mem, queries, cfg)
    # weights recomputed directly; columns sum to one
    s = cfg.beta * (mem.data.T @ queries.data)
    w = np.exp(s - s.max(axis=0))
    w /= w.sum(axis=0)
    assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)
    lo = mem.data.min(axis=1, keepdims=True)
    hi = mem.data.max(axis=1, keepdims=True)
    assert np.all(out.Z >= lo - 1e-12) and np.all(out.Z <= hi + 1e-12)


def test_dense_two_pattern_closed_form():
    mem = PatternMatrix(np.eye(2))
    q = PatternMatrix(np.array([[1.0], [0.0]]), role="query")
    out = retrieve_dense(mem, q, RetrievalConfig(beta=10.0))
    sigma = math.exp(10.0) / (math.exp(10.0) + 1.0)
    expected = np.array([sigma, 1.0 - sigma])
    assert np.allclose(out.Z[:, 0], expected, atol=1e-12)
    assert np.max(np.abs(out.Z[:, 0] - np.array([1.0, 0.0]))) <= 1e-4


def test_lowrank_single_memory_exact():
    rng = np.random.default_rng(4)
    mem = random_patterns(rng, 4, 1)
    queries = random_patterns(rng, 4, 5, role="query")
    out = retrieve_lowrank(mem, queries, RetrievalConfig(beta=1.0, delta_a=1e-3))
    assert np.allclose(out.Z, np.repeat(mem.data, 5, axis=1), atol=1e-12)


def test_lowrank_error_bound_reference_shape():
    rng = np.random.default_rng(5)
    mem = random_patterns(rng, 4, 64)
    queries = random_patterns(rng, 4, 64, role="query")
    cfg = RetrievalConfig(beta=0.25, delta_a=1e-4)
    zt = retrieve_lowrank(mem, queries, cfg)
    zd = retrieve_dense(mem, queries, cfg)
    err = max_norm_error(zt.Z, zd.Z)
    assert err <= 2 * 64 * 1.0 * 1e-4
    assert err <= zt.error_bound


def test_lowrank_both_conventions_bounded():
    rng = np.random.default_rng(6)
    for norm in Normalization:
        mem = random_patterns(rng, 5, 32)
        queries = random_patterns(rng, 5, 20, role="query")
        cfg = RetrievalConfig(beta=0.2, delta_a=1e-3, normalization=norm)
        zt = retrieve_lowrank(mem, queries, cfg)
        zd = retrieve_dense(mem, queries, cfg)
        assert max_norm_error(zt.Z, zd.Z) <= 2 * mem.count * mem.max_norm * 1e-3


def test_normalizer_relative_contract():
    rng = np.random.default_rng(7)
    for norm in Normalization:
        mem = random_patterns(rng, 4, 24)
        queries = random_patterns(rng, 4, 16, role="query")
        cfg = RetrievalConfig(beta=0.25, delta_a=1e-3, normalization=norm)
        approx = lowrank_normalizers(mem, queries, cfg)
        exact = dense_normalizers(mem, queries, cfg)
        assert np.all(np.abs(approx - exact) <= cfg.delta_a * exact)


def test_dense_normalizers_refuse_scores_past_the_exp_range():
    # one score of 1.2 * 600 = 720 overflowed exp to inf with a warning;
    # ln(max float / 4) = 708.4 is the bound for two scores per normalizer
    mem = PatternMatrix(np.array([[30.0, 1.0]]))
    q = PatternMatrix(np.array([[20.0]]), role="query")
    assert np.isfinite(dense_normalizers(mem, q, RetrievalConfig(beta=1.1))).all()
    for norm in Normalization:
        cfg = RetrievalConfig(beta=1.2, normalization=norm)
        with pytest.raises(OutOfDomain, match=r"score 720 exceeds the bound ln\(max float / 2n\)"):
            dense_normalizers(mem, q, cfg)


def test_convention_equivalence_symmetric():
    rng = np.random.default_rng(8)
    mem = random_patterns(rng, 4, 10)
    queries = PatternMatrix(mem.data.copy(), role="query")
    row = dense_normalizers(
        mem, queries, RetrievalConfig(beta=0.3, normalization=Normalization.MEMORY)
    )
    col = dense_normalizers(
        mem, queries, RetrievalConfig(beta=0.3, normalization=Normalization.QUERY)
    )
    assert np.max(np.abs(row - col)) <= 1e-12 * np.max(row)


def test_shift_invariance_via_appended_coordinate():
    rng = np.random.default_rng(9)
    d, m_count = 3, 6
    mem = random_patterns(rng, d, m_count)
    q = rng.uniform(-1, 1, (d, 1))
    cfg = RetrievalConfig(beta=1.0)
    base = retrieve_dense(mem, PatternMatrix(q, role="query"), cfg)
    # appending a constant coordinate adds the same value to every score
    shift = 1.7
    mem2 = PatternMatrix(np.vstack([mem.data, np.full((1, m_count), shift)]))
    q2 = np.vstack([q, np.ones((1, 1))])
    shifted = retrieve_dense(mem2, PatternMatrix(q2, role="query"), cfg)
    assert np.max(np.abs(shifted.Z[:d] - base.Z)) <= 1e-12


def test_max_norm_error_cases():
    rng = np.random.default_rng(10)
    z = rng.normal(size=(3, 4))
    assert max_norm_error(z, z) == 0.0
    z2 = z.copy()
    z2[1, 2] += 0.5
    assert max_norm_error(z, z2) == pytest.approx(0.5, abs=1e-15)
    w = rng.normal(size=(3, 4))
    brute = max(abs(z[i, j] - w[i, j]) for i in range(3) for j in range(4))
    assert max_norm_error(z, w) == pytest.approx(brute, abs=0)
    with pytest.raises(DimensionMismatch):
        max_norm_error(z, np.zeros((2, 2)))


def test_separation_orthogonal_and_duplicate():
    m = 3.0
    mem = PatternMatrix(m * np.eye(2))
    assert separation(mem, 0) == pytest.approx(m * m, abs=1e-12)
    dup = PatternMatrix(np.column_stack([np.ones(3), np.ones(3)]))
    assert separation(dup, 0) == pytest.approx(0.0, abs=1e-12)


def test_separation_matches_brute_force():
    rng = np.random.default_rng(11)
    mem = random_patterns(rng, 8, 5)
    for mu in range(5):
        xi_mu = mem.data[:, mu]
        brute = min(
            float(xi_mu @ xi_mu - xi_mu @ mem.data[:, nu])
            for nu in range(5)
            if nu != mu
        )
        assert separation(mem, mu) == pytest.approx(brute, abs=1e-12)


def test_separation_single_memory():
    with pytest.raises(SingleMemory):
        separation(PatternMatrix(np.ones((3, 1))), 0)


def test_pattern_radius_cases():
    v = np.array([3.0, 4.0])
    mem = PatternMatrix(np.column_stack([np.zeros(2), v]))
    assert pattern_radius(mem) == pytest.approx(2.5, abs=1e-12)
    dup = PatternMatrix(np.column_stack([v, v]))
    assert pattern_radius(dup) == pytest.approx(0.0, abs=1e-6)
    rng = np.random.default_rng(12)
    mem = random_patterns(rng, 4, 6)
    brute = min(
        float(np.linalg.norm(mem.data[:, i] - mem.data[:, j]))
        for i in range(6)
        for j in range(i + 1, 6)
    )
    assert pattern_radius(mem) == pytest.approx(brute / 2, rel=1e-12)


def test_retrieval_error_bound_single_memory():
    mem = PatternMatrix(np.ones((3, 1)))
    bound = retrieval_error_bound(mem, np.ones(3), 0, 1.0, 1.0, 1e-3)
    assert bound == pytest.approx(2 * 1 * 1.0 * 1e-3, abs=1e-15)


def test_retrieval_error_bound_at_pattern():
    rng = np.random.default_rng(13)
    mem = random_patterns(rng, 4, 5)
    mu = 2
    b = mem.max_norm
    bound = retrieval_error_bound(mem, mem.data[:, mu], mu, 1.0, b, 1e-3)
    # the max over stored patterns includes mu itself, so the exponent is <= 0
    assert bound >= 2 * b * 4 + 2 * 5 * b * 1e-3


def test_retrieval_error_bound_dominates_measured():
    rng = np.random.default_rng(14)
    d = 8
    mem = PatternMatrix(np.sign(rng.standard_normal((d, 4))))
    cfg = RetrievalConfig(beta=0.25, delta_a=1e-3)
    radius = pattern_radius(mem)
    for mu in range(4):
        noise = rng.standard_normal(d)
        x = mem.data[:, mu] + 0.1 * radius * noise / np.linalg.norm(noise)
        out = retrieve_lowrank(mem, PatternMatrix(x[:, None], role="query"), cfg)
        measured = float(np.max(np.abs(out.Z[:, 0] - mem.data[:, mu])))
        bound = retrieval_error_bound(mem, x, mu, cfg.beta, mem.max_norm, cfg.delta_a)
        assert bound >= measured


def test_fixed_point_single_memory():
    mem = PatternMatrix(np.array([[1.0], [2.0]]))
    traj = fixed_point_iterate(
        mem, mem.data[:, 0], RetrievalConfig(beta=1.0), steps=3, eps=1e-9
    )
    assert traj.converged_to == 0
    assert traj.converged_at_step == 1


def test_fixed_point_orthogonal_patterns():
    rng = np.random.default_rng(15)
    mem = PatternMatrix(2.0 * np.eye(4))
    x0 = mem.data[:, 1] + 0.05 * rng.standard_normal(4)
    traj = fixed_point_iterate(
        mem, x0, RetrievalConfig(beta=5.0), steps=2, eps=1e-2
    )
    assert traj.converged_to == 1
    assert traj.converged_at_step <= 2


def test_fixed_point_zero_steps():
    mem = PatternMatrix(np.eye(3))
    x0 = np.array([0.2, 0.3, 0.4])
    traj = fixed_point_iterate(mem, x0, RetrievalConfig(beta=1.0), steps=0, eps=1e-9)
    assert len(traj.points) == 1
    assert traj.converged_to is None


def test_energy_decreases_along_trajectory():
    rng = np.random.default_rng(16)
    mem = PatternMatrix(3.0 * np.eye(5))
    x0 = mem.data[:, 2] + 0.2 * rng.standard_normal(5)
    traj = fixed_point_iterate(
        mem, x0, RetrievalConfig(beta=2.0), steps=5, eps=0.0
    )
    for e0, e1 in zip(traj.energies, traj.energies[1:]):
        assert e1 <= e0 + 1e-9


def test_pattern_csv_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    mem = random_patterns(rng, 5, 7)
    path = tmp_path / "m.csv"
    mem.to_csv(path)
    back = PatternMatrix.from_csv(path)
    assert np.array_equal(back.data, mem.data)


def test_pattern_matrix_validation():
    with pytest.raises(DimensionMismatch):
        PatternMatrix(np.ones(3))
    with pytest.raises(DimensionMismatch):
        PatternMatrix(np.ones((3, 0)))


def test_pattern_matrix_rejects_unknown_role():
    with pytest.raises(ValueError, match="role"):
        PatternMatrix(np.ones((3, 2)), role="memroy")


def test_pattern_query_is_a_view_and_memory_a_read_only_copy():
    arr = np.random.default_rng(19).uniform(-1, 1, (6, 3))
    query = PatternMatrix(arr, role="query")
    assert np.shares_memory(query.data, arr) and query.data.flags.writeable
    memory = PatternMatrix(arr)
    assert np.array_equal(memory.data, arr)
    assert not np.shares_memory(memory.data, arr) and not memory.data.flags.writeable
    arr[0, 0] = 5.0
    assert query.data[0, 0] == 5.0 and memory.data[0, 0] != 5.0


def test_retrieve_dimension_mismatch():
    mem = PatternMatrix(np.ones((3, 2)))
    q = PatternMatrix(np.ones((4, 2)), role="query")
    with pytest.raises(DimensionMismatch):
        retrieve_dense(mem, q, RetrievalConfig(beta=1.0))


@pytest.mark.parametrize("per_chunk", [1, 2, None], ids=["1", "2", "all"])
@pytest.mark.parametrize("normalization", ["QUERY", "MEMORY"])
def test_dense_memory_normalization_across_chunks(monkeypatch, per_chunk, normalization):
    # Scores reach 800, so exp overflows without a shift, and both
    # normalizations take the max pass, whose chunks hold whole normalizer
    # vectors: QUERY's over query columns, MEMORY's over memories.  Shifted
    # along the other axis, memory -2's row and the last query's column
    # underflow to a zero normalizer.
    by_rows = normalization == "MEMORY"
    xi = np.vstack([np.linspace(-2.0, 2.0, 5), np.ones(5)])
    x = np.vstack([[*np.linspace(200.0, 400.0, 6), 300.0], [0.0] * 6 + [-2000.0]])
    mem, q = PatternMatrix(xi), PatternMatrix(x, role="query")
    # one side is chunked; each of its columns holds the other side's count
    m, l = xi.shape[1], x.shape[1]
    chunked, other = (m, l) if by_rows else (l, m)
    if per_chunk is not None:
        monkeypatch.setattr(hopfield, "DENSE_CHUNK_ELEMENTS", per_chunk * other)
    widths = []
    kernel = hopfield._softmax_chunks

    def recording(*args):
        for rows, cols, w in kernel(*args):
            widths.append(w.shape[1])
            yield rows, cols, w

    monkeypatch.setattr(hopfield, "_softmax_chunks", recording)
    cfg = RetrievalConfig(beta=1.0, normalization=Normalization[normalization])
    out = retrieve_dense(mem, q, cfg).Z
    s = xi.T @ x
    axis = 1 if by_rows else 0
    assert np.min(np.exp(s - s.max(axis=1 - axis, keepdims=True)).sum(axis=axis)) == 0.0
    a = np.exp(s - s.max(axis=axis, keepdims=True))
    a /= a.sum(axis=axis, keepdims=True)
    ref = xi @ a
    step = per_chunk or chunked
    assert widths == [min(step, chunked - lo) for lo in range(0, chunked, step)]
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


def _record_chunk_maxima(monkeypatch):
    """Each chunk's column maxima.  A column shifted by its max has largest
    weight exactly 1; under the bound shift alone every weight is below 1."""
    maxima = []
    kernel = hopfield._softmax_chunks

    def recording(*args):
        for rows, cols, w in kernel(*args):
            maxima.append(w.max(axis=0))
            yield rows, cols, w

    monkeypatch.setattr(hopfield, "_softmax_chunks", recording)
    return maxima


def _long_double_reference(xi, x, beta, by_rows):
    xi, x = xi.astype(np.longdouble), x.astype(np.longdouble)
    s = beta * (xi.T @ x)
    axis = 1 if by_rows else 0
    a = np.exp(s - s.max(axis=axis, keepdims=True))
    return (xi @ (a / a.sum(axis=axis, keepdims=True))).astype(float)


@pytest.mark.parametrize("per_chunk", [1, 2, None], ids=["1", "2", "all"])
@pytest.mark.parametrize("normalization", list(Normalization))
def test_dense_bound_shift_matches_long_double(monkeypatch, per_chunk, normalization):
    # bounded entries: every column is shifted by its score bound, not its max
    rng = np.random.default_rng(41)
    xi, x = rng.uniform(-1, 1, (5, 9)), rng.uniform(-1, 1, (5, 7))
    by_rows = normalization is Normalization.MEMORY
    chunked, other = (xi.shape[1], x.shape[1]) if by_rows else (x.shape[1], xi.shape[1])
    if per_chunk is not None:
        monkeypatch.setattr(hopfield, "DENSE_CHUNK_ELEMENTS", per_chunk * other)
        # QUERY tiles of whole columns, per_chunk of them
        monkeypatch.setattr(hopfield, "DENSE_TILE_ELEMENTS", per_chunk * other)
        monkeypatch.setattr(hopfield, "DENSE_TILE_COLUMNS", per_chunk)
    maxima = _record_chunk_maxima(monkeypatch)
    cfg = RetrievalConfig(beta=2.0, normalization=normalization)
    out = retrieve_dense(PatternMatrix(xi), PatternMatrix(x, role="query"), cfg).Z
    assert len(maxima) == -(-chunked // (per_chunk or chunked))
    assert np.all(np.concatenate(maxima) < 1.0)
    ref = _long_double_reference(xi, x, cfg.beta, by_rows)
    assert max_norm_error(out, ref) <= 64 * np.finfo(float).eps * np.max(np.abs(ref))


def _record_tiles(monkeypatch):
    """Each tile's (rows, cols, w.shape)."""
    tiles = []
    kernel = hopfield._softmax_chunks

    def recording(*args):
        for rows, cols, w in kernel(*args):
            tiles.append((rows, cols, w.shape))
            yield rows, cols, w

    monkeypatch.setattr(hopfield, "_softmax_chunks", recording)
    return tiles


@pytest.mark.parametrize(
    "m, l, budget, columns",
    [(50, 23, 64, 4), (5000, 45, None, None)],
    ids=["small-tiles", "default-tiles"],
)
def test_dense_query_tiles_match_long_double(monkeypatch, m, l, budget, columns):
    # ragged in both directions: memory runs of 16 (or 4,096) leave 2 (or
    # 904) over, query runs of 4 (or 32) leave 3 (or 13)
    if budget is not None:
        monkeypatch.setattr(hopfield, "DENSE_TILE_ELEMENTS", budget)
        monkeypatch.setattr(hopfield, "DENSE_TILE_COLUMNS", columns)
    tiles = _record_tiles(monkeypatch)
    rng = np.random.default_rng(43)
    xi, x = rng.uniform(-1, 1, (5, m)), rng.uniform(-1, 1, (5, l))
    out = retrieve_dense(PatternMatrix(xi), PatternMatrix(x, role="query"), RetrievalConfig(beta=2.0)).Z
    mt = max(rows.stop - rows.start for rows, _, _ in tiles)
    qt = max(cols.stop - cols.start for _, cols, _ in tiles)
    assert mt < m and qt < l
    assert {rows.stop - rows.start for rows, _, _ in tiles} == {mt, m % mt}
    assert {cols.stop - cols.start for _, cols, _ in tiles} == {qt, l % qt}
    ref = _long_double_reference(xi, x, 2.0, False)
    assert max_norm_error(out, ref) <= 64 * np.finfo(float).eps * np.max(np.abs(ref))


def test_dense_tiles_keep_their_budgets(monkeypatch):
    tiles = _record_tiles(monkeypatch)
    rng = np.random.default_rng(44)

    def run(m, l, normalization=Normalization.QUERY, beta=1.0):
        tiles.clear()
        xi, x = rng.uniform(-1, 1, (4, m)), rng.uniform(-1, 1, (4, l))
        cfg = RetrievalConfig(beta=beta, normalization=normalization)
        out = retrieve_dense(PatternMatrix(xi), PatternMatrix(x, role="query"), cfg).Z
        ref = _long_double_reference(xi, x, beta, normalization is Normalization.MEMORY)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
        # the tiles cover the score matrix once, a's runs by b's columns
        a_count, b_count = (l, m) if normalization is Normalization.MEMORY else (m, l)
        cover = np.zeros((a_count, b_count), dtype=int)
        for rows, cols, shape in tiles:
            assert shape == (rows.stop - rows.start, cols.stop - cols.start)
            cover[rows, cols] += 1
        assert np.all(cover == 1)
        return tiles

    # QUERY, bound shift: every tile within the budget, memories split
    assert all(r * c <= hopfield.DENSE_TILE_ELEMENTS for _, _, (r, c) in run(9000, 70))
    assert len({rows.start for rows, _, _ in tiles}) == 3
    # one column, as a stream call or a fixed-point step: one tile
    assert len(run(4096, 1)) == 1
    assert len(run(60_000, 1)) == 1
    # a capacity batch: one tile
    assert len(run(64, 200)) == 1
    # MEMORY: every chunk holds whole rows, each memory's scores on every query
    assert all(r == 5000 for _, _, (r, c) in run(300, 5000, Normalization.MEMORY))
    assert len(tiles) > 1
    # QUERY past BOUND_SHIFT_LIMIT: every tile holds whole columns
    wide = run(9000, 70, beta=2.0 * hopfield.BOUND_SHIFT_LIMIT)
    assert all(r == 9000 for _, _, (r, c) in wide)


@pytest.mark.parametrize(
    "exponent, max_pass",
    [(599.0, False), (601.0, True), (760.0, True)],
    ids=["below", "past", "underflow"],
)
@pytest.mark.parametrize("normalization", list(Normalization))
def test_dense_max_shift_past_bound_limit(
    monkeypatch, exponent, max_pass, normalization
):
    # unit memories near angle 0 and unit queries near pi: every score sits
    # near its lower bound, so the bound shift leaves each column's largest
    # weight near exp(-exponent), exponent = 2 beta R_a max ||b_j||.  Past
    # BOUND_SHIFT_LIMIT (600) the column max is subtracted too; at 760 the
    # bound shift alone would leave every normalizer zero.
    def unit(angles):
        return np.vstack([np.cos(angles), np.sin(angles)])

    xi = unit(np.linspace(-0.05, 0.05, 6))
    x = unit(np.pi + np.linspace(-0.05, 0.05, 5))
    by_rows = normalization is Normalization.MEMORY
    a, b = (x, xi) if by_rows else (xi, x)
    r_a, b_norms = np.linalg.norm(a, axis=0).max(), np.linalg.norm(b, axis=0)
    beta = exponent / (2.0 * r_a * b_norms.max())
    maxima = _record_chunk_maxima(monkeypatch)
    cfg = RetrievalConfig(beta=beta, normalization=normalization)
    out = retrieve_dense(PatternMatrix(xi), PatternMatrix(x, role="query"), cfg).Z
    maxima = np.concatenate(maxima)
    if max_pass:
        assert np.all(maxima == 1.0)
    else:
        assert np.all(maxima < 1.0)
    bound_sums = np.exp(beta * (a.T @ b - r_a * b_norms)).sum(axis=0)
    assert (np.min(bound_sums) == 0.0) == (exponent == 760.0)
    assert np.all(np.isfinite(out))
    ref = _long_double_reference(xi, x, beta, by_rows)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("normalization", list(Normalization))
def test_dense_warm_calls_are_bit_equal(normalization):
    rng = np.random.default_rng(42)
    mem = random_patterns(rng, 4, 300)
    q_arr = rng.uniform(-1, 1, (4, 40))
    q = PatternMatrix(q_arr, role="query")
    cfg = RetrievalConfig(beta=0.5, normalization=normalization)
    first = retrieve_dense(mem, q, cfg).Z
    for memory in (mem, copy.copy(mem), pickle.loads(pickle.dumps(mem))):
        assert np.array_equal(retrieve_dense(memory, q, cfg).Z, first)
    xi1, norms, _ = hopfield._dense_side(mem)
    assert hopfield._dense_side(mem)[0] is xi1
    assert not xi1.flags.writeable and not norms.flags.writeable
    assert np.array_equal(xi1, np.vstack([mem.data, np.ones((1, mem.count))]))
    assert mem.pattern_norm_radius == pytest.approx(
        np.linalg.norm(mem.data, axis=0).max(), rel=1e-15
    )
    assert PatternMatrix(np.array([[-3.0, 2.0]])).pattern_norm_radius == 3.0
    # a query-role matrix keeps nothing, as memory or as queries: a change to
    # the caller's array shows in the next call
    m_arr = mem.data.copy()
    as_memory = PatternMatrix(m_arr, role="query")
    assert max_norm_error(retrieve_dense(as_memory, q, cfg).Z, first) <= 1e-15
    m_arr[:, :100] *= 2.0
    q_arr[:, :20] *= -3.0
    fresh = PatternMatrix(q_arr.copy(), role="query")
    expected = retrieve_dense(PatternMatrix(m_arr), fresh, cfg).Z
    assert max_norm_error(retrieve_dense(as_memory, q, cfg).Z, expected) <= 1e-15
    assert max_norm_error(first, expected) > 1e-3
    assert as_memory.pattern_norm_radius == PatternMatrix(m_arr).pattern_norm_radius


def test_retrieve_empty_memory(tmp_path):
    # a pattern file with a header and no rows is refused on reading, so no
    # empty matrix reaches retrieval
    path = tmp_path / "empty.csv"
    path.write_text("dim=2\n")
    for role in ("memory", "query"):
        with pytest.raises(EmptyVector, match=r"empty\.csv: no patterns"):
            PatternMatrix.from_csv(path, role=role)


def test_lowrank_rejects_non_finite_queries():
    rng = np.random.default_rng(19)
    mem = random_patterns(rng, 3, 4)
    for bad in (np.nan, np.inf, -np.inf):
        q = PatternMatrix(np.array([[0.1], [bad], [0.2]]), role="query")
        with pytest.raises(NonFiniteInput):
            retrieve_lowrank(mem, q, RetrievalConfig(beta=0.5))


def test_lowrank_rejects_overflowing_interval():
    # beta d B^2 is inf at B = 1e200; at B = 1e153 it is finite but too wide
    # to snap to the fit grid
    q = PatternMatrix(np.array([[0.1], [0.2]]), role="query")
    for b in (1e200, 1e153):
        mem = PatternMatrix(np.array([[b], [1.0]]))
        with pytest.raises(InvalidBound, match=r"score interval \[-"):
            retrieve_lowrank(mem, q, RetrievalConfig(beta=1.0))


def test_config_rejects_unknown_solver():
    with pytest.raises(ValueError):
        RetrievalConfig(beta=1.0, solver="low-rank")


def test_pattern_files_reject_non_finite(tmp_path):
    mem = PatternMatrix(np.array([[1.0, np.inf], [0.0, 2.0]]))
    mem.to_csv(tmp_path / "m.csv")
    with pytest.raises(NonFiniteInput):
        PatternMatrix.from_csv(tmp_path / "m.csv")


def test_lowrank_memory_assembly_matches_factor_scaling():
    # Z = ((Xi / D) U1) U2^T reassociates Z = (Xi (U1 / D)) U2^T
    rng = np.random.default_rng(23)
    mem = random_patterns(rng, 8, 40)
    q = random_patterns(rng, 8, 30, role="query")
    cfg = RetrievalConfig(beta=0.5, normalization=Normalization.MEMORY)
    fit = hopfield.plan(mem, q, cfg)[0]
    scale = math.sqrt(cfg.beta)
    u1, u2 = build_factor_matrices(fit.fmap, scale * mem.data.T, scale * q.data.T)
    assert np.max(np.abs(u1 @ u2.T - fit.poly(cfg.beta * mem.data.T @ q.data))) <= 1e-9
    norm = factored_row_sums(u1, u2)
    reference = (mem.data @ (u1 / norm[:, None])) @ u2.T
    z = retrieve_lowrank(mem, q, cfg).Z
    assert np.max(np.abs(z - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize(
    "d, entry, cfg, error, reason, interpolates",
    [
        # interval beta d B^2 = 64 is past the rounding floor (about 14.9 at
        # delta_a = 1e-3), so it is refused before any interpolation
        (4, 4.0, RetrievalConfig(beta=1.0, max_degree=8), DegreeExhausted,
         "degree-exhausted", False),
        # interval 256 * (1/16)^2 = 1 fits at degree 4, but its d = 256 rank
        # C(260, 4) = 186,043,585 exceeds the default cap
        (256, 0.0625, RetrievalConfig(beta=1.0), SizeOverflow, "rank-overflow", True),
        # interval 4 is inside the floor, but needs more than degree 3
        (4, 1.0, RetrievalConfig(beta=1.0, max_degree=3), DegreeExhausted,
         "degree-exhausted", True),
    ],
    ids=["4-4.0-cfg0-DegreeExhausted", "256-0.0625-cfg1-SizeOverflow",
         "4-1.0-cfg2-DegreeExhausted"],
)
def test_failed_fit_is_not_repeated(
    monkeypatch, d, entry, cfg, error, reason, interpolates
):
    monkeypatch.setattr(hopfield, "_FIT_CACHE", {})
    calls, interpolations = [], []
    fit = poly_approx.fit_exp_poly
    interpolate = Chebyshev.interpolate.__func__

    def counting_fit(*args):
        calls.append(args)
        return fit(*args)

    def counting_interpolate(cls, *args, **kwargs):
        interpolations.append(args[1])
        return interpolate(cls, *args, **kwargs)

    monkeypatch.setattr(poly_approx, "fit_exp_poly", counting_fit)
    monkeypatch.setattr(Chebyshev, "interpolate", classmethod(counting_interpolate))
    mem = PatternMatrix(np.full((d, 3), entry))
    q = PatternMatrix(np.full((d, 2), entry), role="query")
    messages = []
    for call in (retrieve_lowrank, retrieve_lowrank, lowrank_normalizers):
        with pytest.raises(error) as info:
            call(mem, q, cfg)
        messages.append(str(info.value))
    assert len(calls) == 1
    assert bool(interpolations) == interpolates
    assert messages[0] == messages[1] == messages[2]
    # the plan is the memoized refusal: the reason and message each raised
    # error stands for, with no fit
    refused, b = hopfield.plan(mem, q, cfg)
    assert (refused.reason, refused.message) == (reason, messages[0])
    assert refused.poly is None and refused.fmap is None and b == entry
    assert hopfield.plan(mem, q, cfg)[0] is refused
    assert len(calls) == 1


@pytest.mark.parametrize("normalization", list(Normalization))
def test_plan_holds_the_fit_a_retrieval_uses(monkeypatch, normalization):
    monkeypatch.setattr(hopfield, "_FIT_CACHE", {})
    rng = np.random.default_rng(29)
    mem = random_patterns(rng, 4, 30)
    q = random_patterns(rng, 4, 6, b=1.5, role="query")
    cfg = RetrievalConfig(beta=0.25, normalization=normalization)
    fit, b = hopfield.plan(mem, q, cfg)
    assert (fit.reason, fit.message) == ("", "")
    assert b == max(mem.max_norm, q.max_norm) == q.max_norm
    assert fit.poly.interval_bound >= cfg.beta * mem.d * b * b
    out = retrieve_lowrank(mem, q, cfg)
    assert (out.degree_used, out.rank_used) == (fit.poly.degree, fit.fmap.rank)
    assert out.error_bound == lowrank_error_bound(mem.count, b, cfg.delta_a)
    assert hopfield.plan(mem, q, cfg)[0] is fit
    assert len(hopfield._FIT_CACHE) == 1


def test_plan_errors_are_not_refusals(monkeypatch):
    # bad input raises from plan and leaves nothing in the cache
    monkeypatch.setattr(hopfield, "_FIT_CACHE", {})
    mem = PatternMatrix(np.ones((3, 4)))
    cases = [
        (PatternMatrix(np.ones((2, 4)), role="query"), RetrievalConfig(beta=1.0),
         DimensionMismatch),
        (PatternMatrix(np.array([[np.nan], [1.0], [1.0]]), role="query"),
         RetrievalConfig(beta=1.0), NonFiniteInput),
        (PatternMatrix(np.full((3, 1), 1e200), role="query"), RetrievalConfig(beta=1.0),
         InvalidBound),
        (PatternMatrix(np.ones((3, 1)), role="query"),
         RetrievalConfig(beta=1.0, max_degree=0), ValueError),
    ]
    for q, cfg, error in cases:
        with pytest.raises(error):
            hopfield.plan(mem, q, cfg)
    assert hopfield._FIT_CACHE == {}


@pytest.mark.parametrize(
    "normalization, word, expected",
    [(Normalization.QUERY, "column", -5.0), (Normalization.MEMORY, "row", -4.0)],
)
def test_negative_normalizer_is_refused(monkeypatch, normalization, word, expected):
    # the constant polynomial -1 gives a rank-1 map whose factored
    # normalizers are -M (column sums) and -L (row sums)
    monkeypatch.setattr(hopfield, "_FIT_CACHE", {})
    negative = poly_approx.ExpPolynomial(
        coeffs=(-1.0,),
        degree=0,
        interval_bound=1.0,
        target_rel_error=1e-3,
        certified_rel_error=0.0,
    )
    monkeypatch.setattr(poly_approx, "fit_exp_poly", lambda *args: negative)
    rng = np.random.default_rng(53)
    mem = random_patterns(rng, 3, 5)
    q = random_patterns(rng, 3, 4, role="query")
    cfg = RetrievalConfig(beta=1.0, normalization=normalization)
    with pytest.raises(NonPositiveNormalizer, match=word):
        retrieve_lowrank(mem, q, cfg)
    norm = lowrank_normalizers(mem, q, cfg)
    assert np.array_equal(norm, np.full(len(norm), expected))
    assert len(norm) == (4 if normalization is Normalization.QUERY else 5)


def test_normalizer_check_skips_nan_entries(monkeypatch):
    # P(t) = -1 + inf t: a query column of zeros has the normalizer
    # -M + inf * 0 = NaN, which passes the check, as (norm <= 0).any() lets
    # it; a column of negative entries beside it gives -inf and is refused
    monkeypatch.setattr(hopfield, "_FIT_CACHE", {})
    poly = poly_approx.ExpPolynomial(
        coeffs=(-1.0, math.inf),
        degree=1,
        interval_bound=1.0,
        target_rel_error=1e-3,
        certified_rel_error=0.0,
    )
    monkeypatch.setattr(poly_approx, "fit_exp_poly", lambda *args: poly)
    mem = PatternMatrix(np.eye(2))
    cfg = RetrievalConfig(beta=1.0)
    zeros = PatternMatrix(np.zeros((2, 1)), role="query")
    mixed = PatternMatrix(np.array([[0.0, -0.5], [0.0, -0.5]]), role="query")
    with np.errstate(all="ignore"):
        assert np.isnan(lowrank_normalizers(mem, zeros, cfg)).all()
        assert np.isnan(retrieve_lowrank(mem, zeros, cfg).Z).all()
        norm = lowrank_normalizers(mem, mixed, cfg)
        assert np.isnan(norm[0]) and norm[1] == -np.inf
        with pytest.raises(NonPositiveNormalizer, match="column"):
            retrieve_lowrank(mem, mixed, cfg)


def test_every_query_block_goes_through_build_factor_matrices(monkeypatch):
    # perfbench's tracing counts monomials on build_factor_matrices: one
    # column and a walk of several blocks must each build every query block
    # through it, the column in one call
    rng = np.random.default_rng(43)
    mem = random_patterns(rng, 4, 40)
    cfg = RetrievalConfig(beta=0.25)
    retrieve_lowrank(mem, random_patterns(rng, 4, 3, b=0.5, role="query"), cfg)  # warm
    build, monomials = fm.build_factor_matrices, fm.MonomialFeatureMap.monomials
    calls, depth, outside = [], [], []

    def counting_build(fmap, x_rows, y_rows, out=None):
        calls.append((len(x_rows), len(y_rows), fmap.rank))
        depth.append(True)
        try:
            return build(fmap, x_rows, y_rows, out)
        finally:
            depth.pop()

    def counting_monomials(self, rows, out=None):
        if not depth:
            outside.append(len(rows))
        return monomials(self, rows, out)

    monkeypatch.setattr(fm, "build_factor_matrices", counting_build)
    monkeypatch.setattr(fm.MonomialFeatureMap, "monomials", counting_monomials)
    col = random_patterns(rng, 4, 1, b=0.5, role="query")
    one = retrieve_lowrank(mem, col, cfg)
    assert calls == [(0, 1, one.rank_used)] and not outside
    batch = random_patterns(rng, 4, 11, b=0.5, role="query")
    whole = retrieve_lowrank(mem, batch, cfg).Z
    calls.clear()
    monkeypatch.setattr(hopfield, "FACTOR_BLOCK_ELEMENTS", 3 * one.rank_used)
    walked = retrieve_lowrank(mem, batch, cfg).Z
    assert calls == [(0, 3, one.rank_used)] * 3 + [(0, 2, one.rank_used)] and not outside
    assert np.array_equal(walked, whole)
    # queries that fit one block skip the walk, and more than that walk
    walks, blocks = [], hopfield._monomial_blocks
    monkeypatch.setattr(
        hopfield, "_monomial_blocks", lambda *args: walks.append(1) or blocks(*args)
    )
    b = max(mem.max_norm, batch.max_norm)
    for count, walked_too in ((1, False), (3, False), (4, True)):
        calls.clear()
        walks.clear()
        part = retrieve_lowrank(mem, PatternMatrix(batch.data[:, :count], role="query"), cfg).Z
        assert bool(walks) == walked_too
        # three columns are the walk's first block, the same product
        if count >= 3:
            assert np.array_equal(part[:, :3], walked[:, :3])
        assert max_norm_error(part, whole[:, :count]) <= 8 * np.finfo(float).eps * b
        assert sum(n for _, n, _ in calls) == count and not outside


def test_fit_cache_evicts_only_its_oldest_entry(monkeypatch):
    monkeypatch.setattr(hopfield, "_FIT_CACHE", {})
    cfg = RetrievalConfig(beta=0.5)

    def fill(first, count):
        # distinct d = 1 keys, one per snapped interval, each a cheap fit:
        # the interval beta B^2 sits halfway between two grid points
        for k in range(first, first + count):
            one = PatternMatrix(np.full((1, 1), math.sqrt(1e-6 * 1.25 ** (k + 0.5) / cfg.beta)))
            hopfield.plan(one, one, cfg)

    fill(0, 64)
    rng = np.random.default_rng(33)
    mem = random_patterns(rng, 4, 20)
    q = random_patterns(rng, 4, 5, role="query")
    retrieve_lowrank(mem, q, cfg)  # the 65th key, and the newest
    assert len(hopfield._FIT_CACHE) == 65
    fit = hopfield.plan(mem, q, cfg)[0]
    rows = _count_memory_rows(monkeypatch)
    fill(64, 1)  # one key past the bound
    assert len(hopfield._FIT_CACHE) == 65
    assert hopfield.plan(mem, q, cfg)[0] is fit
    retrieve_lowrank(mem, q, cfg)
    assert sum(rows) == 0  # the kept memory state is still current


def _count_memory_rows(monkeypatch):
    """Record the row count of every factor build made for the memory side,
    that is inside ``_memory_state``: MEMORY builds U1 from x_rows, while
    QUERY's blocks are pure monomials built from y_rows."""
    rows, inside = [], []
    build, memory_state = fm.build_factor_matrices, hopfield._memory_state

    def counting(fmap, x_rows, y_rows, out=None):
        if inside:
            rows.append(len(x_rows) + len(y_rows))
        return build(fmap, x_rows, y_rows, out)

    def tracked(*args):
        inside.append(True)
        try:
            return memory_state(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(fm, "build_factor_matrices", counting)
    monkeypatch.setattr(hopfield, "_memory_state", tracked)
    return rows


@pytest.mark.parametrize("normalization", list(Normalization))
def test_lowrank_memory_side_is_built_once(monkeypatch, normalization):
    # queries inside the memory's entry bound keep the fit interval fixed
    rng = np.random.default_rng(31)
    mem = random_patterns(rng, 4, 50)
    cfg = RetrievalConfig(beta=0.5, normalization=normalization)
    rows = _count_memory_rows(monkeypatch)
    retrieve_lowrank(mem, random_patterns(rng, 4, 7, b=0.5, role="query"), cfg)
    assert sum(rows) == mem.count
    q = random_patterns(rng, 4, 9, b=0.5, role="query")
    warm = retrieve_lowrank(mem, q, cfg).Z
    assert sum(rows) == mem.count
    fresh = retrieve_lowrank(PatternMatrix(mem.data), q, cfg).Z
    assert max_norm_error(warm, fresh) <= 1e-12


def test_one_column_query_builds_its_monomials_by_gathers(monkeypatch):
    rng = np.random.default_rng(41)
    mem = random_patterns(rng, 4, 300)
    batch = random_patterns(rng, 4, 256, b=0.5, role="query")
    col = PatternMatrix(batch.data[:, 7:8], role="query")
    cfg = RetrievalConfig(beta=0.25)
    monkeypatch.setattr(hopfield, "_FIT_CACHE", {})  # a new map, with no plan
    plans, chains = [], fm._chains
    monkeypatch.setattr(
        fm, "_chains", lambda *args: plans.append(args) or chains(*args)
    )
    rows = _count_memory_rows(monkeypatch)
    first = retrieve_lowrank(mem, col, cfg)
    # one column is built by the fold, the batch by the prefix loop
    assert max(first.degree_used, 1) * first.rank_used <= fm.FOLD_BLOCK_ELEMENTS
    assert first.rank_used * batch.count > fm.GATHER_BLOCK_ELEMENTS
    assert sum(rows) == mem.count and len(plans) == 1
    again = retrieve_lowrank(mem, col, cfg)
    assert len(plans) == 1  # the plan is kept on the map
    assert sum(rows) == mem.count
    assert np.array_equal(again.Z, first.Z)
    whole = retrieve_lowrank(mem, batch, cfg)
    b = max(mem.max_norm, batch.max_norm)
    assert max_norm_error(first.Z[:, 0], whole.Z[:, 7]) <= 8 * np.finfo(float).eps * b
    monkeypatch.setattr(fm, "FOLD_BLOCK_ELEMENTS", 0)  # forces gathers
    assert np.array_equal(retrieve_lowrank(mem, col, cfg).Z, first.Z)
    monkeypatch.setattr(fm, "GATHER_BLOCK_ELEMENTS", 0)  # forces the prefix loop
    assert np.array_equal(retrieve_lowrank(mem, col, cfg).Z, first.Z)
    assert sum(rows) == mem.count


def test_query_blocks_start_on_a_64_byte_boundary(monkeypatch):
    # the prefix loop's speed over a large block depends on its offset, and
    # malloc's offset on the process's allocation history.  Rank 126 blocks
    # (degree 5 at d = 4) keep one monomial per buffer row; 5-row blocks at
    # rank 12,870 (degree 8 at d = 8) are laid out row-major, so U is the
    # C-ordered block itself
    for d, bound, rank, step, row_major in (
        (4, 1.5, 126, 200, False),
        (8, 3.0, 12870, 5, True),
    ):
        fmap = fm.build_feature_map(poly_approx.fit_exp_poly(bound, 1e-3), d)
        assert fmap.rank == rank
        monkeypatch.setattr(hopfield, "FACTOR_BLOCK_ELEMENTS", rank * step)
        rows = np.random.default_rng(43).uniform(-1, 1, (2 * step + step // 4, d))
        for _ in range(4):  # different allocation histories
            blocks = list(hopfield._monomial_blocks(fmap, rows))
            assert [b.stop - b.start for b, _ in blocks] == [step, step, step // 4]
            assert all(u.ctypes.data % 64 == 0 for _, u in blocks)
            assert all(u.strides[1] == (8 if row_major else 8 * step) for _, u in blocks)


def test_high_rank_query_retrieval_agrees_in_both_block_orders(monkeypatch):
    # B = 1.75 at d = 8, beta = 1/8 fits degree 8 (rank 12,870), and 5-row
    # blocks are laid out row-major by default
    rng = np.random.default_rng(47)
    mem = random_patterns(rng, 8, 40, b=1.75)
    q = random_patterns(rng, 8, 23, b=1.75, role="query")
    cfg = RetrievalConfig(beta=1 / 8)
    monkeypatch.setattr(hopfield, "FACTOR_BLOCK_ELEMENTS", 12870 * 5)
    dense = retrieve_dense(mem, q, cfg)
    b = max(mem.max_norm, q.max_norm)
    outs = []
    for ratio in (0, 2**62):  # every prefix-loop block row-major, then none
        monkeypatch.setattr(fm, "ROW_MAJOR_RATIO", ratio)
        fresh = PatternMatrix(mem.data)
        first = retrieve_lowrank(fresh, q, cfg)
        assert first.rank_used == 12870
        assert max_norm_error(first.Z, dense.Z) <= first.error_bound
        assert np.array_equal(retrieve_lowrank(fresh, q, cfg).Z, first.Z)
        outs.append(first.Z)
    assert max_norm_error(outs[0], outs[1]) <= 8 * np.finfo(float).eps * b


@pytest.mark.parametrize(
    "change", ["beta", "normalization", "delta_a", "query_norm", "fit_cache_clear"]
)
def test_lowrank_memory_side_is_rebuilt_on_change(monkeypatch, change):
    # the kept memory side depends on the fit and the normalization, not on
    # beta: another beta on the same fit reuses it, while a new fit (another
    # delta_a or degree, or a refit after the fit cache is cleared) or a new
    # normalization rebuilds it; either way Z has a fresh memory's bits
    rng = np.random.default_rng(32)
    data = random_patterns(rng, 4, 50).data
    q = random_patterns(rng, 4, 6, b=0.5, role="query")
    rows = _count_memory_rows(monkeypatch)
    for normalization in Normalization:
        mem = PatternMatrix(data)
        cfg = RetrievalConfig(beta=0.5, normalization=normalization)
        first = retrieve_lowrank(mem, q, cfg)
        fit = hopfield.plan(mem, q, cfg)[0]
        queries = q
        if change == "beta":
            # the same snapped fit interval, so the same fit
            cfg = replace(cfg, beta=0.48)
            assert hopfield.plan(mem, q, cfg)[0] is fit
        elif change == "normalization":
            other = next(n for n in Normalization if n is not normalization)
            cfg = replace(cfg, normalization=other)
        elif change == "delta_a":
            cfg = replace(cfg, delta_a=5e-4)
        elif change == "query_norm":
            queries = PatternMatrix(4.0 * q.data, role="query")
        else:
            monkeypatch.setattr(hopfield, "_FIT_CACHE", {})
        rows.clear()
        out = retrieve_lowrank(mem, queries, cfg)
        assert sum(rows) == (0 if change == "beta" else mem.count), normalization
        if change == "query_norm":
            assert out.degree_used > first.degree_used
        fresh = retrieve_lowrank(PatternMatrix(data), queries, cfg).Z
        assert np.array_equal(out.Z, fresh), normalization


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("exponent", [70, -70])
def test_lowrank_holds_at_extreme_entry_bounds(d, exponent):
    # the memory rows are scaled by a power of two to entries below 1, so
    # B = 2^70 or 2^-70 with beta d B^2 about 9 stays finite and certified;
    # left unscaled, the monomials of a high degree over- or underflow
    bound = 2.0**exponent
    rng = np.random.default_rng(37)
    mem = PatternMatrix(bound * rng.uniform(-1, 1, (d, 40)))
    q = PatternMatrix(bound * rng.uniform(-1, 1, (d, 7)), role="query")
    beta = 9.0 / (d * max(mem.max_norm, q.max_norm) ** 2)
    for normalization in Normalization:
        cfg = RetrievalConfig(beta=beta, normalization=normalization)
        low = retrieve_lowrank(mem, q, cfg)
        assert np.isfinite(low.Z).all()
        assert low.degree_used > 1
        err = max_norm_error(low.Z, retrieve_dense(mem, q, cfg).Z)
        assert err <= low.error_bound, (normalization, err, low.error_bound)


@pytest.mark.parametrize("rows_per_block", [3, 1])
def test_query_blocks_match_unblocked_factors(monkeypatch, rows_per_block):
    # at 3 rows a block, 50 memories and 23 queries each end in a partial
    # block of 2 rows; a budget below the rank still gives 1-row blocks
    rng = np.random.default_rng(35)
    mem = random_patterns(rng, 4, 50)
    q = random_patterns(rng, 4, 23, b=0.5, role="query")
    cfg = RetrievalConfig(beta=0.5)
    fmap = hopfield.plan(mem, q, cfg)[0].fmap
    budget = 3 * fmap.rank + 1 if rows_per_block == 3 else fmap.rank - 1
    monkeypatch.setattr(hopfield, "FACTOR_BLOCK_ELEMENTS", budget)
    rows = _count_memory_rows(monkeypatch)
    out = retrieve_lowrank(mem, q, cfg)
    assert rows == [rows_per_block] * (50 // rows_per_block) + [2] * (rows_per_block == 3)

    # memory rows scaled by 2^-e, e the exponent of their largest entry, and
    # query rows by beta 2^e
    e = math.frexp(mem.max_norm)[1]
    u1, u2 = build_factor_matrices(
        fmap, np.ldexp(mem.data.T, -e), math.ldexp(cfg.beta, e) * q.data.T
    )
    state = np.vstack([mem.data, np.ones(50)]) @ u1
    numer = state @ u2.T
    # only the summation order differs.  Z is a convex combination of
    # memories, so its rounding scales with their entry bound B: these
    # near-uniform weights average Z down to a few tenths of B
    eps = np.finfo(float).eps
    assert max_norm_error(out.Z, numer[:-1] / numer[-1]) <= 8 * eps * mem.max_norm
    kept = mem.__dict__["_lowrank_state"][2]
    assert max_norm_error(kept, state) <= 8 * eps * np.max(np.abs(state))
    norms = lowrank_normalizers(mem, q, cfg)
    assert np.max(np.abs(norms / numer[-1] - 1.0)) <= 8 * eps

    warm = retrieve_lowrank(mem, q, cfg).Z
    assert np.array_equal(warm, out.Z)
    assert sum(rows) == mem.count  # every memory row was built exactly once


def test_query_retrieval_holds_one_block():
    # d = 8 at degree 8: rank C(16, 8) = 12,870, so U2 of 2,048 queries would
    # take 2,048 * 12,870 * 8 B = 210 MB; one block takes 67 MB
    rng = np.random.default_rng(36)
    mem = random_patterns(rng, 8, 2048)
    q = random_patterns(rng, 8, 2048, role="query")
    cfg = RetrievalConfig(beta=0.35)
    fmap = hopfield.plan(mem, q, cfg)[0].fmap
    assert fmap.rank == 12870
    rows = hopfield.FACTOR_BLOCK_ELEMENTS // fmap.rank
    block_bytes = 8 * fmap.rank * rows
    tracemalloc.start()
    try:
        retrieve_lowrank(mem, q, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows < 2048
    assert peak <= 1.25 * block_bytes < 0.5 * 8 * fmap.rank * 2048


def test_memory_owns_a_read_only_copy():
    arr = np.ones((3, 4))
    mem = PatternMatrix(arr)
    arr[0, 0] = 5.0
    assert mem.data[0, 0] == 1.0 and mem.max_norm == 1.0
    with pytest.raises(ValueError):
        mem.data[0, 0] = 2.0
    query = PatternMatrix(arr, role="query")
    assert np.shares_memory(query.data, arr)
    for copied in (copy.copy(mem), copy.deepcopy(mem), pickle.loads(pickle.dumps(mem))):
        assert not copied.data.flags.writeable and not np.shares_memory(copied.data, mem.data)
        assert np.array_equal(copied.data, mem.data) and copied.role == "memory"


def test_query_role_memory_is_not_cached():
    # negating columns keeps every |entry|, so the fit is the same and only
    # a kept memory-side state could hide the change
    rng = np.random.default_rng(33)
    arr = rng.uniform(-1, 1, (4, 30))
    as_memory = PatternMatrix(arr, role="query")
    q = random_patterns(rng, 4, 5, b=0.5, role="query")
    cfg = RetrievalConfig(beta=0.5)
    first = retrieve_lowrank(as_memory, q, cfg).Z
    arr[:, :10] *= -1.0
    second = retrieve_lowrank(as_memory, q, cfg).Z
    expected = retrieve_lowrank(PatternMatrix(arr), q, cfg).Z
    assert max_norm_error(second, expected) <= 1e-12
    assert max_norm_error(first, second) > 1e-3


def test_lowrank_trajectory_matches_fresh_memory_each_step():
    rng = np.random.default_rng(34)
    mem = random_patterns(rng, 4, 16)
    x0 = 0.5 * mem.data[:, 3] + 0.05 * rng.standard_normal(4)
    cfg = RetrievalConfig(beta=1.0, solver="lowrank")
    traj = fixed_point_iterate(mem, x0, cfg, steps=6, eps=0.0)
    x = x0
    for point in traj.points[1:]:
        batch = PatternMatrix(x[:, None], role="query")
        x = retrieve_lowrank(PatternMatrix(mem.data), batch, cfg).Z[:, 0]
        assert np.max(np.abs(point - x)) <= 1e-12
    assert len(traj.points) == 7


def _reference_trajectory(memory, x0, cfg, steps, eps):
    """``fixed_point_iterate`` as it was before it shared Xi^T x and screened
    for convergence: a new query matrix, the exact ``energy`` and every
    distance on each step."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    retrieve = retrieve_lowrank if cfg.solver == "lowrank" else retrieve_dense
    query_cfg = replace(cfg, normalization=Normalization.QUERY)
    traj = hopfield.Trajectory(points=[x.copy()], energies=[energy(memory, x, cfg.beta)])
    for step in range(1, steps + 1):
        batch = PatternMatrix(x[:, None], role="query")
        x = retrieve(memory, batch, query_cfg).Z[:, 0]
        traj.points.append(x.copy())
        traj.energies.append(energy(memory, x, cfg.beta))
        dists = np.linalg.norm(memory.data - x[:, None], axis=0)
        hit = int(np.argmin(dists))
        if dists[hit] <= eps:
            traj.converged_to = hit
            traj.converged_at_step = step
            break
    return traj


def test_trajectories_match_the_reference_loop():
    rng = np.random.default_rng(72)
    mem = random_patterns(rng, 4, 6)
    half = pattern_radius(mem) / 2
    starts = {
        "on": mem.data[:, 3],  # exactly a stored pattern
        "near": mem.data[:, 5] + 0.2 * rng.standard_normal(4),
        "mid": 0.5 * (mem.data[:, 1] + mem.data[:, 2]),
    }
    cases = []
    for beta, solver, (name, x0) in itertools.product(
        (2.0, 3.0), ("dense", "lowrank"), starts.items()
    ):
        cfg = RetrievalConfig(beta=beta, solver=solver)
        # eps at the rounded distance of step 2's nearest pattern, and one
        # ulp below it: the screen must pass exactly the hits every
        # distance gives
        far = _reference_trajectory(mem, x0, cfg, 2, 0.0).points[2]
        edge = float(np.min(np.linalg.norm(mem.data - far[:, None], axis=0)))
        for eps in (0.0, 1e-12, half, edge, np.nextafter(edge, 0.0)):
            cases.append((mem, x0, cfg, eps, (solver, name, eps)))
    # at beta = 50 every other weight of the cube's corners underflows, so a
    # start on a corner returns it exactly and hits at eps = 0
    cube = PatternMatrix(0.9 * np.array(list(itertools.product((-1.0, 1.0), repeat=4))).T)
    cases.append((cube, cube.data[:, 3], RetrievalConfig(beta=50.0), 0.0, ("dense", "cube", 0.0)))
    hits = {}
    for memory, x0, cfg, eps, label in cases:
        got = fixed_point_iterate(memory, x0, cfg, steps=10, eps=eps)
        want = _reference_trajectory(memory, x0, cfg, 10, eps)
        assert len(got.points) == len(want.points), label
        assert all(np.array_equal(g, w) for g, w in zip(got.points, want.points)), label
        assert got.energies == want.energies, label
        assert (got.converged_to, got.converged_at_step) == (
            want.converged_to, want.converged_at_step
        ), label
        hits[label] = want.converged_at_step
    # the cases cover hits at step 1 from a stored pattern on both solvers,
    # later hits, hits at eps = 0, and trajectories that never hit
    for solver in ("dense", "lowrank"):
        assert hits[(solver, "on", half)] == 1
        assert any(h and h > 1 for (s, _, _), h in hits.items() if s == solver)
        assert any(h is None for (s, _, _), h in hits.items() if s == solver)
    assert hits[("dense", "cube", 0.0)] == 1


def test_trajectory_screen_defers_to_every_distance_on_odd_values():
    # non-finite or huge values, or eps that is negative or NaN, take the
    # distances of every pattern, as before
    mem = PatternMatrix(np.array([[0.5, -1.0, 0.25], [0.0, 0.5, 1.0]]))
    x0 = np.array([0.45, 0.05])
    for cfg in (RetrievalConfig(beta=1.0), RetrievalConfig(beta=1.0, solver="lowrank")):
        for eps in (-1.0, np.nan, np.inf, 1e200, 5.0):
            got = fixed_point_iterate(mem, x0, cfg, steps=4, eps=eps)
            want = _reference_trajectory(mem, x0, cfg, 4, eps)
            assert (got.converged_to, got.converged_at_step) == (
                want.converged_to, want.converged_at_step
            )
            assert got.energies == want.energies
    with np.errstate(all="ignore"):
        for data in ([[1e160, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
            big = PatternMatrix(np.array(data))
            x0 = big.data[:, 1]
            got = fixed_point_iterate(big, x0, RetrievalConfig(beta=1.0), steps=2, eps=0.5)
            want = _reference_trajectory(big, x0, RetrievalConfig(beta=1.0), 2, 0.5)
            assert (got.converged_to, got.converged_at_step) == (
                want.converged_to, want.converged_at_step
            )


def _three_by_four():
    return PatternMatrix(np.arange(12.0).reshape(3, 4))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PatternMatrix(np.zeros((0, 3))), DimensionMismatch,
         "pattern dimension must be >= 1"),
        (lambda: RetrievalConfig(beta=0.0), ValueError, "beta must be finite and positive"),
        (lambda: RetrievalConfig(beta=math.inf), ValueError,
         "beta must be finite and positive"),
        (lambda: RetrievalConfig(beta=1.0, delta_a=0.1), ValueError,
         "delta_a must lie in (0, 0.1)"),
        (lambda: lse(0.0, [1.0, 2.0]), ValueError, "beta must be finite and positive"),
        (lambda: lse(math.inf, [1.0, 2.0]), ValueError, "beta must be finite and positive"),
        (lambda: pattern_radius(PatternMatrix(np.ones((3, 1)))), SingleMemory,
         "pattern_radius needs at least two stored patterns"),
        (lambda: retrieval_error_bound(_three_by_four(), np.zeros(2), 0, 1.0, 1.0, 1e-3),
         DimensionMismatch, "query length 2 != d 3"),
        (lambda: fixed_point_iterate(_three_by_four(), np.zeros(2), RetrievalConfig(beta=1.0), 3, 0.0),
         DimensionMismatch, "query length 2 != d 3"),
    ],
    ids=[
        "zero-rows", "config-beta", "config-beta-inf", "config-delta", "lse-beta",
        "lse-beta-inf", "radius-single-memory",
        "error-bound-query-length", "fixed-point-query-length",
    ],
)
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert message in str(excinfo.value)
