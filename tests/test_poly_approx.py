"""Tests for the exp polynomial fit and its relative-error contract."""

import math

import numpy as np
import pytest
from numpy.polynomial import Chebyshev, Polynomial

from linhop import poly_approx
from linhop.errors import DegreeExhausted, InvalidBound
from linhop.poly_approx import (
    ExpPolynomial,
    degree_bound,
    eval_poly,
    fit_exp_poly,
    sup_relative_error,
)


def taylor_poly(degree, bound, target):
    """Truncated Taylor series of exp as an ExpPolynomial (exact coefficients)."""
    coeffs = tuple(1.0 / math.factorial(k) for k in range(degree + 1))
    return ExpPolynomial(
        coeffs=coeffs,
        degree=degree,
        interval_bound=bound,
        target_rel_error=target,
        certified_rel_error=0.0,
    )


def test_fit_value_at_zero():
    p = fit_exp_poly(1.0, 1e-3, 32)
    assert 1 - 1e-3 <= p(0.0) <= 1 + 1e-3


def test_fit_certificate_meets_target():
    p = fit_exp_poly(1.0, 1e-3)
    assert p.certified_rel_error <= 1e-3


def test_fit_degree_within_reference_bound():
    g_ref = degree_bound(3.0, 1e-4)
    p = fit_exp_poly(3.0, 1e-4, max_degree=64)
    assert p.degree <= 4 * g_ref


@pytest.mark.filterwarnings("error")
def test_fit_rejects_bad_inputs():
    for bound in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidBound):
            fit_exp_poly(bound, 1e-3)
    with pytest.raises(ValueError):
        fit_exp_poly(1.0, 0.5)
    with pytest.raises(ValueError):
        fit_exp_poly(1.0, 1e-3, max_degree=0)


def test_fit_degree_exhausted():
    with pytest.raises(DegreeExhausted):
        fit_exp_poly(64.0, 1e-3, max_degree=8)


def test_eval_constant_and_identity():
    const = ExpPolynomial((1.0,), 0, 1.0, 1e-2, 1e-2)
    assert eval_poly(const, 7.5) == 1.0
    ident = ExpPolynomial((0.0, 1.0), 1, 1.0, 1e-2, 1e-2)
    assert eval_poly(ident, 3.0) == 3.0


def test_eval_matches_exp_at_one():
    p = fit_exp_poly(1.0, 1e-3)
    assert abs(p(1.0) - math.e) <= 1e-3 * math.e


def test_eval_horner_matches_power_sum():
    rng = np.random.default_rng(0)
    p = fit_exp_poly(2.0, 1e-3)
    xs = rng.uniform(-2, 2, 200)
    naive = sum(c * xs**i for i, c in enumerate(p.coeffs))
    assert np.max(np.abs(eval_poly(p, xs) - naive) / np.abs(naive)) <= 1e-12


def test_sup_error_taylor_tiny():
    p = taylor_poly(20, 0.5, 1e-2)
    assert sup_relative_error(p, 4096) < 1e-12


def test_sup_error_constant_closed_form():
    # sup over [-1, 1] of |1 - e^x| / e^x is attained at x = -1: e - 1
    p = ExpPolynomial((1.0,), 0, 1.0, 1e-2, 0.0)
    assert abs(sup_relative_error(p, 4096) - (math.e - 1.0)) <= 1e-6


def test_sup_error_two_points_is_endpoints():
    p = taylor_poly(6, 1.0, 1e-2)
    expected = max(
        abs(p(x) - math.exp(x)) / math.exp(x) for x in (-1.0, 1.0)
    )
    assert sup_relative_error(p, 2) == pytest.approx(expected, rel=1e-12)


def test_degree_bound_first_branch():
    # log(1/delta) < 10 e makes the first term dominate
    delta = 1e-2
    assert math.log(1.0 / delta) < 10 * math.e
    assert degree_bound(10.0, delta) == 10


def test_degree_bound_second_branch():
    delta = math.exp(-math.e)
    assert 0 < delta < 0.1
    assert degree_bound(1.0, delta) == 3


def test_degree_bound_invalid():
    with pytest.raises(InvalidBound):
        degree_bound(0.0, 1e-3)


def test_relative_contract_random_sample():
    rng = np.random.default_rng(1)
    for bound, delta in [(0.5, 1e-2), (1.0, 1e-3), (2.0, 1e-3)]:
        p = fit_exp_poly(bound, delta)
        xs = rng.uniform(-bound, bound, 100000)
        rel = np.abs(eval_poly(p, xs) - np.exp(xs)) / np.exp(xs)
        assert float(np.max(rel)) <= 1.05 * delta


def test_fit_deterministic():
    a = fit_exp_poly(1.5, 1e-3)
    b = fit_exp_poly(1.5, 1e-3)
    assert a.coeffs == b.coeffs and a.degree == b.degree


def test_json_round_trip():
    p = fit_exp_poly(1.0, 1e-3)
    q = ExpPolynomial.from_json(p.to_json())
    assert q == p


def test_invariant_validation():
    with pytest.raises(ValueError):
        ExpPolynomial((1.0, 0.0), 1, 1.0, 1e-2, 1e-3)  # zero leading coeff
    with pytest.raises(ValueError):
        ExpPolynomial((1.0,), 0, 1.0, 1e-2, 2e-2)  # certificate above target
    with pytest.raises(ValueError):
        ExpPolynomial((1.0, 1.0), 0, 1.0, 1e-2, 1e-3)  # wrong count


def test_cheb_to_power_is_bit_identical_to_convert():
    # past b = 709 exp overflows on the grid; NaN payloads may differ there
    bounds = [*np.geomspace(1e-3, 200.0, 25), 800.0, 1e4]
    with np.errstate(over="ignore", invalid="ignore"):
        for b in bounds:
            for degree in range(1, 33):
                cheb = Chebyshev.interpolate(np.exp, degree, domain=[-b, b])
                ours = poly_approx._cheb_to_power(cheb)
                ref = cheb.convert(kind=Polynomial).coef  # trims trailing zeros
                assert len(ours) == degree + 1
                ref = np.pad(ref, (0, len(ours) - len(ref)))
                nan = np.isnan(ref)
                assert np.array_equal(np.isnan(ours), nan), (b, degree)
                assert ours[~nan].tobytes() == ref[~nan].tobytes(), (b, degree)


def convert_route_fit(bound, delta_a, max_degree=32):
    """The fit loop as it was written with ``Chebyshev.convert``."""
    grid = np.linspace(-bound, bound, poly_approx.GRID_POINTS)
    for degree in range(1, max_degree + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            cheb = Chebyshev.interpolate(np.exp, degree, domain=[-bound, bound])
            coeffs = cheb.convert(kind=Polynomial).coef
        if not np.all(np.isfinite(coeffs)):
            continue
        if len(coeffs) < degree + 1:
            coeffs = np.pad(coeffs, (0, degree + 1 - len(coeffs)))
        err = poly_approx._rel_error_on(coeffs, grid)
        if err <= delta_a and coeffs[-1] != 0.0:
            return degree, tuple(float(c) for c in coeffs), err
    raise DegreeExhausted(
        f"no degree <= {max_degree} reaches relative error {delta_a} "
        f"on [-{bound}, {bound}]"
    )


@pytest.mark.parametrize("delta_a", [1e-2, 1e-3, 1e-6])
def test_fit_matches_convert_route(delta_a):
    for bound in (1e-3, 0.05, 0.7, 3.0, 9.5, 24.0, 110.5, 200.0, 800.0):
        try:
            expected = convert_route_fit(bound, delta_a)
        except DegreeExhausted as exc:
            with pytest.raises(DegreeExhausted) as info:
                fit_exp_poly(bound, delta_a)
            assert str(info.value) == str(exc)
            continue
        p = fit_exp_poly(bound, delta_a)
        assert (p.degree, p.coeffs, p.certified_rel_error) == expected


def _counting_interpolate(monkeypatch):
    """Count ``Chebyshev.interpolate`` calls, the first step of every fit."""
    calls = []
    inner = Chebyshev.interpolate.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args[1])
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(Chebyshev, "interpolate", classmethod(counted))
    return calls


def _fit_outcome(bound, delta_a, max_degree):
    try:
        p = fit_exp_poly(bound, delta_a, max_degree)
    except DegreeExhausted as exc:
        return str(exc)
    return p.degree, p.coeffs, p.certified_rel_error


@pytest.mark.parametrize("delta_a", [1e-2, 1e-3, 1e-6, 0.099])
def test_floor_refusal_equals_the_degree_loop(monkeypatch, delta_a):
    floor = poly_approx._rounding_floor(delta_a)
    below, past = np.nextafter(floor, 0.0), np.nextafter(floor, np.inf)
    band = [floor - 3, floor - 2, floor - 1, below, past, floor + 0.5, floor + 2]
    calls = _counting_interpolate(monkeypatch)
    refused = []
    for bound in band:
        calls.clear()
        refused.append((_fit_outcome(bound, delta_a, 80), len(calls)))
    # just below the floor the loop runs; from just past it nothing is fitted
    assert refused[3][1] > 0
    assert all(isinstance(outcome, str) and n == 0 for outcome, n in refused[4:])
    monkeypatch.setattr(poly_approx, "_rounding_floor", lambda delta_a: math.inf)
    looped = [_fit_outcome(bound, delta_a, 80) for bound in band]
    assert [outcome for outcome, _ in refused] == looped


@pytest.mark.parametrize(
    "bound, delta_a, measured_degree",
    [(1e-6 * 1.25**73, 1e-4, 30), (1e-6 * 1.25**72, 1e-6, 28), (1e-6 * 1.25**73, 1e-6, 32)],
)
def test_rounding_term_refuses_fits_the_measured_error_passes(bound, delta_a, measured_degree):
    # the measured grid error alone passes at this degree; the Horner
    # rounding term at x = -b does not, at any degree up to 32
    cheb = Chebyshev.interpolate(np.exp, measured_degree, domain=[-bound, bound])
    coeffs = poly_approx._cheb_to_power(cheb)
    grid = np.linspace(-bound, bound, poly_approx.GRID_POINTS)
    measured = np.abs(Polynomial(coeffs)(grid) * np.exp(-grid) - 1.0)
    assert np.max(measured) <= delta_a < poly_approx._rel_error_on(coeffs, grid)
    with pytest.raises(DegreeExhausted):
        fit_exp_poly(bound, delta_a)
