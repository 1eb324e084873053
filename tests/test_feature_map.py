"""Tests for the monomial feature map and its exact factorization."""

import itertools
import math

import numpy as np
import pytest

from linhop.errors import DimensionMismatch, SizeOverflow
from linhop.feature_map import (
    DEFAULT_RANK_CAP,
    build_factor_matrices,
    build_feature_map,
    factored_row_sums,
)
from linhop.poly_approx import ExpPolynomial, fit_exp_poly


def poly_from_coeffs(coeffs, bound=1.0):
    degree = len(coeffs) - 1
    return ExpPolynomial(
        coeffs=tuple(float(c) for c in coeffs),
        degree=degree,
        interval_bound=bound,
        target_rel_error=1e-2,
        certified_rel_error=0.0,
    )


def exponents(d, g, cap=DEFAULT_RANK_CAP):
    """The feature map's multi-indices for a degree-g polynomial, as tuples."""
    fmap = build_feature_map(poly_from_coeffs([1.0] * (g + 1)), d, cap)
    return [tuple(int(e) for e in row) for row in fmap.exponents]


def test_enumerate_d2_g2():
    idx = exponents(2, 2)
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_enumerate_d1_g1():
    assert exponents(1, 1) == [(0,), (1,)]


def test_enumerate_count_d3_g4():
    brute = sum(
        1
        for a in range(5)
        for b in range(5)
        for c in range(5)
        if a + b + c <= 4
    )
    assert brute == math.comb(7, 3) == 35
    assert len(exponents(3, 4)) == 35


def test_enumerate_graded_lex_strictly_increasing():
    keys = [(sum(e), e) for e in exponents(3, 3)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_enumerate_size_overflow():
    with pytest.raises(SizeOverflow):
        exponents(50, 10, cap=1000)


def reference_feature_map(coeffs, d):
    """Exponents and weights of the feature map of the polynomial with these
    coefficients, enumerated by brute force."""
    g = len(coeffs) - 1
    exps = sorted(
        (a for a in itertools.product(range(g + 1), repeat=d) if sum(a) <= g),
        key=lambda a: (sum(a), a),
    )
    weights = []
    for a in exps:
        multinomial = math.factorial(sum(a))
        for e in a:
            multinomial //= math.factorial(e)
        weights.append(coeffs[sum(a)] * float(multinomial))
    return exps, weights


def replay_prefix_plan(fmap, exps):
    """Check the map's prefix plan against the reference exponents: each
    prefix holds exactly the indices of its level that are zero before its
    variable, and adding that variable to every prefix, in plan order, yields
    the next level of the reference."""
    d = fmap.d
    assert len(fmap._prefixes) == fmap.g
    level = [exps[0]]
    rebuilt = list(level)
    for sizes in fmap._prefixes:
        assert len(sizes) == d
        child = []
        for v, n in zip(range(d - 1, -1, -1), sizes):
            assert n == sum(1 for a in level if not any(a[:v]))
            assert all(not any(a[:v]) for a in level[:n])
            child += [a[:v] + (a[v] + 1,) + a[v + 1 :] for a in level[:n]]
        rebuilt += child
        level = child
    assert rebuilt == exps


def test_build_matches_reference():
    # power-of-two coefficients keep weights exact, so a multinomial that is
    # off by one ulp (a float recurrence does this at d=4, g>=31) shows
    for d, g in [(1, 0), (1, 6), (2, 5), (3, 4), (5, 3), (7, 2), (4, 31), (4, 32)]:
        coeffs = [2.0**-t for t in range(g + 1)]
        fmap = build_feature_map(poly_from_coeffs(coeffs), d)
        exps, weights = reference_feature_map(coeffs, d)
        assert np.array_equal(fmap.exponents, np.array(exps).reshape(-1, d))
        assert np.array_equal(fmap.weights, weights)
        replay_prefix_plan(fmap, exps)


def test_build_d8_g13_graded_lex_and_monomial_accuracy():
    # the phase sweep's largest map: rank 203,490
    d, g = 8, 13
    fmap = build_feature_map(poly_from_coeffs([1.0] * (g + 1)), d)
    assert fmap.rank == math.comb(d + g, g) == 203_490
    exps = fmap.exponents
    degree = exps.sum(axis=1)
    assert np.all(np.diff(degree) >= 0)
    assert degree[0] == 0 and degree[-1] == g
    # within a degree, each index is lexicographically above the one before
    same = degree[1:] == degree[:-1]
    step = exps[1:] - exps[:-1]
    first = np.argmax(step != 0, axis=1)
    assert np.all(np.any(step != 0, axis=1))
    assert np.all(step[np.arange(len(step)), first][same] > 0)
    rng = np.random.default_rng(13)
    rows = rng.uniform(-1.5, 1.5, (3, d))
    for row, out in zip(rows, fmap.monomials(rows)):
        exact = np.prod(row.astype(np.longdouble) ** exps, axis=1)
        assert np.max(np.abs(out - exact) / np.abs(exact)) <= g * np.finfo(float).eps


@pytest.mark.parametrize("order", ["C", "F"])
def test_monomials_match_brute_force(order):
    # entries are multiples of 1/2 up to 3/2, so every product up to degree
    # 12 is exact and the two evaluation orders must agree bit for bit
    rng = np.random.default_rng(8)
    for d, g in [(1, 5), (2, 4), (3, 3), (4, 6), (8, 2), (5, 12)]:
        fmap = build_feature_map(poly_from_coeffs([1.0] * (g + 1)), d)
        for n in (0, 1, 7):
            rows = np.asarray(rng.integers(-3, 4, (n, d)) / 2.0, order=order)
            out = fmap.monomials(rows)
            brute = np.prod(rows[:, None, :] ** fmap.exponents[None], axis=2)
            assert out.shape == (n, fmap.rank)
            assert np.array_equal(out, brute)


def test_identity_polynomial_map():
    fmap = build_feature_map(poly_from_coeffs([0.0, 1.0]), 2)
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 1, (1, 2))
    v = rng.uniform(-1, 1, (1, 2))
    u1, u2 = build_factor_matrices(fmap, u, v)
    assert (u1 @ u2.T).item() == pytest.approx((u @ v.T).item(), abs=1e-12)


def test_square_polynomial_weights():
    fmap = build_feature_map(poly_from_coeffs([0.0, 0.0, 1.0]), 2)
    by_exp = {tuple(e): w for e, w in zip(fmap.exponents, fmap.weights)}
    assert by_exp[(2, 0)] == 1.0
    assert by_exp[(1, 1)] == 2.0
    assert by_exp[(0, 2)] == 1.0


def test_fitted_exp_inner_product():
    p = fit_exp_poly(3.0, 1e-3)
    fmap = build_feature_map(p, 3)
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.uniform(-1, 1, (1, 3))
        v = rng.uniform(-1, 1, (1, 3))
        u1, u2 = build_factor_matrices(fmap, u, v)
        target = p((u @ v.T).item())
        assert abs((u1 @ u2.T).item() - target) <= 1e-9 * (1 + abs(target))


def test_factor_matrices_identity_inputs():
    fmap = build_feature_map(poly_from_coeffs([0.0, 1.0]), 2)
    u1, u2 = build_factor_matrices(fmap, np.eye(2), np.eye(2))
    assert np.allclose(u1 @ u2.T, np.eye(2), atol=1e-12)


def test_factor_matrices_random_vs_horner():
    p = fit_exp_poly(1.0, 1e-3, max_degree=32)
    fmap = build_feature_map(p, 3)
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, (4, 3))
    y = rng.uniform(-0.5, 0.5, (5, 3))
    u1, u2 = build_factor_matrices(fmap, x, y)
    assert np.max(np.abs(u1 @ u2.T - p(x @ y.T))) <= 1e-9


def test_factor_matrices_empty_rows():
    fmap = build_feature_map(poly_from_coeffs([1.0, 1.0]), 3)
    u1, u2 = build_factor_matrices(fmap, np.empty((0, 3)), np.ones((2, 3)))
    assert u1.shape == (0, fmap.rank)
    assert u2.shape == (2, fmap.rank)


def test_monomials_fill_the_leading_columns_of_out():
    fmap = build_feature_map(poly_from_coeffs([1.0] * 5), 3)
    rng = np.random.default_rng(4)
    rows = rng.uniform(-1, 1, (5, 3))
    buf = np.full((fmap.rank, 8), np.nan)
    out = fmap.monomials(rows, buf)
    assert np.shares_memory(out, buf) and np.array_equal(out, fmap.monomials(rows))
    assert np.isnan(buf[:, 5:]).all()
    _, u2 = build_factor_matrices(fmap, np.empty((0, 3)), rows[:2], buf)
    assert np.shares_memory(u2, buf) and np.array_equal(u2, out[:2])
    with pytest.raises(DimensionMismatch):
        fmap.monomials(rng.uniform(-1, 1, (9, 3)), buf)
    with pytest.raises(ValueError):
        build_factor_matrices(fmap, rows, rows, buf)


def test_factor_matrices_dimension_mismatch():
    fmap = build_feature_map(poly_from_coeffs([1.0, 1.0]), 3)
    with pytest.raises(DimensionMismatch):
        build_factor_matrices(fmap, np.ones((2, 4)), np.ones((2, 3)))


def test_factored_sums_all_ones():
    ones = np.ones((2, 1))
    assert np.allclose(factored_row_sums(ones, ones), [2.0, 2.0])


def test_factored_sums_match_dense():
    rng = np.random.default_rng(4)
    u1 = rng.normal(size=(8, 4))
    u2 = rng.normal(size=(6, 4))
    prod = u1 @ u2.T
    assert np.max(np.abs(factored_row_sums(u1, u2) - prod.sum(axis=1))) <= 1e-12


def test_factored_sums_zero_rank():
    u1 = np.empty((3, 0))
    u2 = np.empty((5, 0))
    assert np.array_equal(factored_row_sums(u1, u2), np.zeros(3))


def test_factored_sums_mismatch():
    with pytest.raises(DimensionMismatch):
        factored_row_sums(np.ones((2, 3)), np.ones((2, 4)))


def test_rank_economy():
    for d in range(1, 5):
        for g in range(0, 5):
            coeffs = [1.0] * (g + 1)
            fmap = build_feature_map(poly_from_coeffs(coeffs), d)
            assert fmap.rank == math.comb(d + g, g)
            assert fmap.rank <= math.comb(2 * (d + g), 2 * g)


def test_row_permutation_equivariance():
    p = fit_exp_poly(1.0, 1e-3)
    fmap = build_feature_map(p, 3)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (6, 3))
    perm = rng.permutation(6)
    u1_full, _ = build_factor_matrices(fmap, x, x[:1])
    u1_perm, _ = build_factor_matrices(fmap, x[perm], x[:1])
    assert np.array_equal(u1_full[perm], u1_perm)


def test_exactness_sweep():
    rng = np.random.default_rng(6)
    for d in range(1, 7):
        for g in range(0, 7):
            coeffs = rng.uniform(0.1, 1.0, g + 1)
            p = poly_from_coeffs(coeffs)
            fmap = build_feature_map(p, d)
            u = rng.uniform(-1, 1, (10, d))
            v = rng.uniform(-1, 1, (10, d))
            u1, u2 = build_factor_matrices(fmap, u, v)
            target = p(u @ v.T)
            scale = 1.0 + np.abs(target)
            assert np.max(np.abs(u1 @ u2.T - target) / scale) <= 1e-9


@pytest.mark.parametrize(
    "delta_a, bound, degree, rank",
    [
        (1e-3, 1e-6 * 1.25**73, 29, 40920),
        # the largest snapped interval that is feasible at delta_a = 1e-6
        (1e-6, 1e-6 * 1.25**71, 23, 17550),
    ],
)
def test_certificate_covers_the_factored_form(delta_a, bound, degree, rank):
    d = 4
    p = fit_exp_poly(bound, delta_a)
    fmap = build_feature_map(p, d)
    assert (p.degree, fmap.rank) == (degree, rank)
    # every sign vector scaled to norm sqrt(b): scores reach -b and b
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    rows = math.sqrt(bound / d) * signs
    u1, u2 = build_factor_matrices(fmap, rows, rows)
    exact = rows.astype(np.longdouble)
    scores = exact @ exact.T
    assert np.max(np.abs(scores)) == pytest.approx(bound)
    rel = np.abs((u1 @ u2.T).astype(np.longdouble) * np.exp(-scores) - 1)
    assert np.max(rel) <= p.certified_rel_error
