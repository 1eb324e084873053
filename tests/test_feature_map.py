"""Tests for the monomial feature map and its exact factorization."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from linhop import feature_map as fm
from linhop.errors import DimensionMismatch, SizeOverflow
from linhop.feature_map import (
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


def exponents(d, g):
    """The feature map's multi-indices for a degree-g polynomial, as tuples."""
    fmap = build_feature_map(poly_from_coeffs([1.0] * (g + 1)), d)
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


def test_enumerate_size_overflow(monkeypatch):
    monkeypatch.setattr(fm, "RANK_CAP", 1000)
    with pytest.raises(SizeOverflow):
        exponents(50, 10)


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


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("d, g", [(1, 5), (4, 0), (4, 5), (8, 5), (4, 13)])
def test_gather_and_prefix_forms_agree_bit_for_bit(monkeypatch, d, g, order):
    fmap = build_feature_map(poly_from_coeffs([1.0] * (g + 1)), d)
    # the most rows a block built by the fold, and by gathers, holds at the
    # default constants
    fold = fm.FOLD_BLOCK_ELEMENTS // (max(g, 1) * fmap.rank)
    cross = fm.GATHER_BLOCK_ELEMENTS // fmap.rank
    # the default builds the first block past each crossover by the next
    # form and the first block at it by the form, which keeps its plan
    fmap.monomials(np.ones((cross + 1, d)))
    assert "_gather" not in fmap.__dict__
    fmap.monomials(np.ones((cross, d)))
    assert "_gather" in fmap.__dict__
    fmap.monomials(np.ones((fold + 1, d)))
    assert "_chains" not in fmap.__dict__
    fmap.monomials(np.ones((fold, d)))
    # a degree-0 map is one constant, which no form multiplies
    assert ("_chains" in fmap.__dict__) == (g > 0 and fold > 0)
    rng = np.random.default_rng(17)
    for n in sorted({0, 1, 2, fold, fold + 1, cross - 1, cross, cross + 1}):
        rows = np.asarray(rng.uniform(-1.5, 1.5, (n, d)), order=order)
        default = fmap.monomials(rows)
        forms = []
        # each form into a rank-major buffer and into a row-major one
        for buf in (
            np.full((fmap.rank, n + 3), np.nan),
            np.full((n + 3, fmap.rank), np.nan).T,
        ):
            # the prefix loop, gathers and the fold, each at any size
            for fold_limit, gather_limit in ((0, 0), (0, 2**62), (2**62, 0)):
                monkeypatch.setattr(fm, "FOLD_BLOCK_ELEMENTS", fold_limit)
                monkeypatch.setattr(fm, "GATHER_BLOCK_ELEMENTS", gather_limit)
                forms.append(fmap.monomials(rows, buf).copy())
                assert np.isnan(buf[:, n:]).all()
                assert np.array_equal(fmap.monomials(rows), forms[-1])
            monkeypatch.undo()
        assert forms[0].shape == (n, fmap.rank)
        for form in forms:
            assert np.array_equal(form, default)


def test_high_rank_blocks_are_built_row_major():
    fmap = build_feature_map(poly_from_coeffs([1.0] * 10), 8)  # rank 24,310
    # the most rows a row-major block holds: rank > ROW_MAJOR_RATIO * rows
    cross = (fmap.rank - 1) // fm.ROW_MAJOR_RATIO
    assert fmap.rank * cross > fm.GATHER_BLOCK_ELEMENTS
    rng = np.random.default_rng(19)
    for n in (1, cross - 1, cross, cross + 1, cross + 2):
        rows = rng.uniform(-1.5, 1.5, (n, 8))
        u = fmap.monomials(rows)
        buf = fm._monomial_buffer(fmap.rank, n)
        assert buf.shape == (fmap.rank, n) and buf.ctypes.data % 64 == 0
        # row-major: U is the C-ordered rows x rank array itself
        assert buf.strides == ((8, 8 * fmap.rank) if n <= cross else (8 * n, 8))
        assert u.strides == buf.T.strides
        rank_major = np.empty((fmap.rank, n))
        assert np.array_equal(u, fmap.monomials(rows, rank_major))


def test_gather_blocks_and_batch_shapes_stay_rank_major():
    # one-column blocks of the stream shape (rank 70 at degree 4, rank 126
    # at degree 5), fold and gather blocks past the ratio, batch-d4's QUERY
    # block and batch-d8's MEMORY factor keep one monomial per buffer row
    for rank, rows in (
        (70, 1), (126, 1), (2145, 1), (2380, 1), (6435, 2),
        (70, 16384), (126, 16384), (495, 4096), (1287, 4096),
    ):
        assert rank * rows <= fm.GATHER_BLOCK_ELEMENTS or rank <= fm.ROW_MAJOR_RATIO * rows
        buf = fm._monomial_buffer(rank, rows)
        assert buf.shape == (rank, rows)
        assert buf.strides == (8 * rows, 8)
    # a one-row block past the gather crossover is one run either way
    assert fm._monomial_buffer(203490, 1).T.flags.c_contiguous


@pytest.mark.parametrize(
    "out, error",
    [
        (np.empty((126, 2)), DimensionMismatch),
        (np.empty((125, 3)), DimensionMismatch),
        (np.empty((126, 3), dtype=np.float32), ValueError),
        (np.empty((126, 6))[:, ::2], ValueError),
        (np.empty((2, 126)).T, DimensionMismatch),
        (np.empty((3, 252)).T[::2], ValueError),
        (np.empty((6, 126)).T[:, ::2], ValueError),
    ],
)
def test_monomials_rejects_an_out_outside_its_contract(out, error):
    fmap = build_feature_map(poly_from_coeffs([1.0] * 6), 4)
    with pytest.raises(error):
        fmap.monomials(np.ones((3, 4)), out)


@pytest.mark.parametrize("g", [18, 19, 20, 21])
def test_int64_multinomials_equal_python_ints(monkeypatch, g):
    p = poly_from_coeffs([1.0 / math.factorial(k) for k in range(g + 1)])
    fast = build_feature_map(p, 3)
    # a factorial past int64 forces the Python-int count at any degree
    monkeypatch.setattr(
        fm, "math", SimpleNamespace(comb=math.comb, factorial=lambda n: 2**63)
    )
    exact = build_feature_map(p, 3)
    assert np.array_equal(fast.exponents, exact.exponents)
    assert np.array_equal(fast.weights, exact.weights)
    counts = [
        math.factorial(sum(a)) // math.prod(math.factorial(k) for k in a)
        for a in exact.exponents.tolist()
    ]
    coeffs = [p.coeffs[sum(a)] for a in exact.exponents.tolist()]
    assert np.array_equal(exact.weights, np.array(coeffs) * np.array(counts, float))


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
        # b = 1.02: the batch, stream and criterion 6 interval
        (1e-3, 1e-6 * 1.25**62, 4, 70),
        (1e-3, 1e-6 * 1.25**73, 19, 8855),
        # the largest snapped interval that is feasible at delta_a = 1e-6
        (1e-6, 1e-6 * 1.25**71, 18, 7315),
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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: build_feature_map(poly_from_coeffs([1.0, 1.0]), 2).monomials(np.zeros((3, 3))),
         DimensionMismatch, "expected shape (*, 2), got (3, 3)"),
        (lambda: build_feature_map(poly_from_coeffs([1.0, 1.0]), 0), ValueError,
         "d must be >= 1"),
    ],
    ids=["monomials-row-width", "zero-dimension"],
)
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert message in str(excinfo.value)


def _old_rows(rows, d):
    """The conversion every input took before 2-D float arrays skipped it."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return rows.reshape(0, d) if rows.size == 0 else rows


@pytest.mark.parametrize(
    "rows",
    [
        [[0.5, -1.0, 2.0], [1.5, 0.25, -0.5]],  # list of rows
        [0.5, -1.0, 2.0],  # one row as a 1-D list
        np.array([0.5, -1.0, 2.0]),  # 1-D array
        np.array([[1, -2, 3], [0, 2, -1]]),  # int array
        np.array([[0.5, -1.0, 2.0]], dtype=np.float32),
        np.asfortranarray([[0.5, -1.0, 2.0], [1.5, 0.25, -0.5]]),
        [],
        np.empty((0, 3)),
        np.empty((0, 5)),
        [[1.0, 2.0]],  # too narrow
        np.ones((2, 4)),  # too wide
        np.ones((2, 3, 1)),  # 3-D
    ],
    ids=[
        "list", "1-D-list", "1-D", "int", "float32", "fortran", "empty-list",
        "empty", "empty-wide", "narrow-list", "wide", "3-D",
    ],
)
def test_inputs_take_the_old_conversion(rows):
    # a 2-D float array skips the conversion, which would return it as it
    # is; every other input gets the old results and the old errors
    fmap = build_feature_map(poly_from_coeffs([1.0, 0.5, 0.25]), 3)
    converted = _old_rows(rows, 3)
    other = np.array([[0.5, 0.5, -0.5]])

    def outcome(call):
        try:
            return call()
        except (DimensionMismatch, ValueError) as exc:
            return type(exc), str(exc)

    for args in ((rows, other), (other, rows)):
        new = outcome(lambda: build_factor_matrices(fmap, *args))
        old = outcome(
            lambda: build_factor_matrices(fmap, *(converted if a is rows else a for a in args))
        )
        if isinstance(old, tuple) and isinstance(old[0], type):
            assert new == old
        else:
            assert all(np.array_equal(n, o) and n.shape == o.shape for n, o in zip(new, old))
    # monomials converts with asarray alone, so a 1-D input is refused
    new = outcome(lambda: fmap.monomials(rows))
    old = outcome(lambda: fmap.monomials(np.asarray(rows, dtype=float)))
    if isinstance(old, tuple):
        assert new == old
    else:
        assert np.array_equal(new, old) and new.shape == old.shape


def _prefix_loop(fmap, rows):
    out = np.empty((fmap.rank, rows.shape[0]))
    out[0] = 1.0
    src, dst = 0, 1
    for sizes in fmap._prefixes:
        for var, n in zip(range(fmap.d - 1, -1, -1), sizes):
            np.multiply(out[src : src + n], rows.T[var], out=out[dst : dst + n])
            dst += n
        src += sizes[-1]
    return out.T


@pytest.mark.parametrize("d", [1, 4, 8])
@pytest.mark.parametrize("form", ["fold", "gathers"])
def test_small_block_forms_match_the_prefix_loop_up_to_their_crossovers(
    monkeypatch, d, form
):
    # every row count from 1 to the last one the fold (or, with the fold
    # off, gathers) builds, on entries that include zeros of both signs,
    # subnormal products and overflow
    rng = np.random.default_rng(61)
    specials = np.array([0.0, -0.0, 1e-160, -3e-170, 1e160, np.inf, -np.inf, np.nan])
    if form == "gathers":
        monkeypatch.setattr(fm, "FOLD_BLOCK_ELEMENTS", 0)
    for g in (0, 1, 2, 4, 5, 7):
        fmap = build_feature_map(poly_from_coeffs([1.0] * (g + 1)), d)
        if form == "fold":
            cross = fm.FOLD_BLOCK_ELEMENTS // (max(g, 1) * fmap.rank)
        else:
            cross = fm.GATHER_BLOCK_ELEMENTS // fmap.rank
        if cross == 0:
            continue
        rows_all = rng.uniform(-1.5, 1.5, (cross, d))
        mask = rng.random((cross, d)) < 0.1
        rows_all[mask] = rng.choice(specials, mask.sum())
        # every count up to 40, then about 40 more up to the crossover
        counts = sorted({*range(1, min(cross, 40) + 1), *np.geomspace(1, cross, 40).astype(int), cross})
        for n in counts:
            rows = rows_all[:n]
            with np.errstate(all="ignore"):
                built, loop = fmap.monomials(rows), _prefix_loop(fmap, rows)
            assert built.shape == (n, fmap.rank)
            # bytes, so NaN payloads and signed zeros count
            assert built.tobytes() == np.ascontiguousarray(loop).tobytes()
        # the first block past the crossover is built by the next form
        rows = rng.uniform(-1.5, 1.5, (cross + 1, d))
        assert np.array_equal(fmap.monomials(rows), _prefix_loop(fmap, rows))
