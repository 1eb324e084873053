"""Low-degree polynomial approximation of exp with entrywise relative error.

The fit targets ``|P(x) - e^x| <= delta * e^x`` on a symmetric interval
``[-b, b]``.  The certificate of a candidate is the maximum over a validation
grid of the measured ``|P(x) e^{-x} - 1|`` plus Horner's a-priori rounding
term ``gamma_{2n+2} sum_k |c_k| |x|^k e^{-x}``, which grows like eps e^{2b}
at the left end.  That term sets a floor: past ``2b = ln(4 delta / gamma_4)``
(b about 14.9 at delta = 1e-3) no degree can be certified, and
``fit_exp_poly`` refuses such intervals without fitting.

A fit runs in two stages.  The Chebyshev stage interpolates exp at Chebyshev
points, converts to the power basis and accepts the first degree g from 1 up
whose certificate meets the target; it alone decides feasibility, so a fit
it cannot certify up to the degree cap raises ``DegreeExhausted``.  The
exchange stage then lowers the degree: a Remez exchange for the weighted
error ``P(x) e^{-x} - 1`` gives the polynomial of degree g - 1, g - 2, ...
whose largest relative error on the grid is least, and the lowest degree that
the same certificate accepts is kept.  Chebyshev interpolation is
near-minimax for the absolute error, not the relative one, so the exchange
saves one degree at b about 1 (5 -> 4 at delta = 1e-3) and three at b about
4.9 (13 -> 10); the feature-map rank C(d + g, g) falls with it.

The power basis is required downstream: the monomial feature map reads the
coefficients directly.  ``_cheb_to_power`` converts with the Clenshaw
recurrence that ``Chebyshev.convert(kind=Polynomial)`` runs, on plain float
arrays instead of ``Polynomial`` objects: the coefficients are the same bit
for bit, at about a tenth of the cost, which matters because a fit that fails
below the floor tries every degree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev, polynomial, polyutils

from .errors import DegreeExhausted, InvalidBound

GRID_POINTS = 4096
DEFAULT_MAX_DEGREE = 32
REMEZ_STEPS = 20
REMEZ_TOLERANCE = 1e-3


@dataclass(frozen=True)
class ExpPolynomial:
    """Power-basis polynomial with a certified relative-error bound against exp.

    ``coeffs[i]`` multiplies ``x**i``.  The certificate only covers
    ``[-interval_bound, interval_bound]``; evaluation outside is permitted but
    unguaranteed.
    """

    coeffs: tuple
    degree: int
    interval_bound: float
    target_rel_error: float
    certified_rel_error: float

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must equal degree + 1")
        if self.degree > 0 and self.coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        if not self.interval_bound > 0:
            raise ValueError("interval_bound must be positive")
        if not 0 < self.target_rel_error < 0.1:
            raise ValueError("target_rel_error must lie in (0, 0.1)")
        if self.certified_rel_error > self.target_rel_error:
            raise ValueError("certificate exceeds the requested target")

    def __call__(self, x):
        return eval_poly(self, x)

    def to_json(self) -> str:
        return json.dumps(
            {
                "degree": self.degree,
                "interval_bound": self.interval_bound,
                "target_rel_error": self.target_rel_error,
                "certified_rel_error": self.certified_rel_error,
                "coeffs": list(self.coeffs),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ExpPolynomial":
        obj = json.loads(text)
        return cls(
            coeffs=tuple(obj["coeffs"]),
            degree=obj["degree"],
            interval_bound=obj["interval_bound"],
            target_rel_error=obj["target_rel_error"],
            certified_rel_error=obj["certified_rel_error"],
        )


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the float64 unit roundoff."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1.0 - ku)


def _rel_error_on(coeffs: np.ndarray, x: np.ndarray) -> float:
    """The certified relative error of the power-basis ``coeffs`` on the
    points ``x``: the max of the measured ``|P(x) e^{-x} - 1|`` plus Horner's
    a-priori rounding term ``gamma_{2n+2} sum_k |c_k| |x|^k e^{-x}`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 5.1; n the degree, the
    two extra roundings for the product with e^{-x} and the subtraction).

    P(x) and ``sum_k |c_k| |x|^k`` run as one in-place Horner loop over the
    stacked pair, the steps of ``polyval`` (``c_k + h x``) bit for bit, with
    no array allocated per step."""
    # |P(x) - e^x| / e^x computed as |P(x) e^{-x} - 1|: stable when e^x
    # overflows (e^{-x} underflows to 0 and the ratio saturates at 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = np.exp(-x)
        h = _horner_pair(coeffs, x)
        measured, rounding = h
        rounding *= _gamma(2 * len(coeffs))
        h *= scale
        measured -= 1.0
        np.abs(measured, out=measured)
        measured += rounding
        worst = float(measured.max())
    return math.inf if math.isnan(worst) else worst


def _horner_pair(coeffs, x: np.ndarray) -> np.ndarray:
    """The (2, len(x)) stack of ``polyval(x, coeffs)`` and
    ``polyval(|x|, |coeffs|)`` for 1-d ``x``, the same steps as those two
    calls (``c_k + h x`` from ``c_n + x 0``) and so the same bits."""
    xs = np.empty((2, len(x)))
    xs[0] = x
    np.abs(x, out=xs[1])
    h = xs * 0
    p, q = h
    p += coeffs[-1]
    q += abs(coeffs[-1])
    for c in coeffs[-2::-1]:
        h *= xs
        p += c
        q += abs(c)
    return h


def _padded_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a + b on power-basis coefficients, the shorter one zero-padded
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return out


def _cheb_to_power(cheb: chebyshev.Chebyshev) -> np.ndarray:
    """The degree + 1 power-basis coefficients of ``cheb`` (degree >= 1) in
    the variable of its domain, bit-identical to
    ``cheb.convert(kind=Polynomial).coef`` (which trims trailing zeros).
    Clenshaw's recurrence with x the mapped identity ``off + scl t``; a
    product with x is a convolution."""
    c = cheb.coef
    x = np.array(polyutils.mapparms(cheb.domain, cheb.window))
    c0, c1 = c[-2:-1], c[-1:]
    x2 = 2 * x
    for ci in c[-3::-1]:
        c0, c1 = _padded_add(-c1, ci[None]), _padded_add(c0, np.convolve(c1, x2))
    return _padded_add(c0, np.convolve(c1, x))


def _rounding_floor(delta_a: float) -> float:
    """The half width past which no polynomial's certificate can reach
    ``delta_a``: the b with ``2b = ln(4 delta_a / gamma_4)``."""
    return 0.5 * math.log(4.0 * delta_a / _gamma(4))


def fit_exp_poly(
    interval_bound: float,
    delta_a: float,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> ExpPolynomial:
    """Fit a low-degree power-basis approximation of exp on ``[-b, b]``,
    b = ``interval_bound``, whose certified relative error is at most
    delta_a.

    The certificate is the maximum over a uniform grid of 4,096 points of
    the measured ``|P(x) e^{-x} - 1|`` plus the Horner rounding term
    ``gamma_{2n+2} sum_k |c_k| |x|^k e^{-x}`` (n the degree), so it also
    covers rounding in evaluating P, which grows like eps e^{2b} at the left
    end of the interval.

    The Chebyshev stage finds the first degree g whose Chebyshev interpolant
    is certified.  The exchange stage then tries the Remez polynomials of
    degree g - 1, g - 2, ... down to 1 and returns the lowest one certified
    before the first that is not (a degree whose exchange breaks down is
    passed over), or the interpolant of degree g.  The degree is never above
    the Chebyshev stage's, and the fit is deterministic: the same arguments
    give the same coefficients.

    Raises DegreeExhausted when the Chebyshev stage certifies no degree up
    to ``max_degree``; the exchange does not run then, even where a
    lower-degree minimax polynomial would pass, so the set of feasible
    (bound, delta_a, max_degree) is that of Chebyshev interpolation.  Past
    the rounding floor, ``2b > ln(4 delta_a / gamma_4)`` (about b = 14.9 at
    delta_a = 1e-3), it raises that same error without fitting, because no
    degree can pass there:

    *Lemma.*  Both ends of the interval are grid points (``linspace``).  A
    polynomial that passes at x = b has P(b) >= (1 - delta_a) e^b, so
    ``sum_k |c_k| b^k >= (1 - delta_a) e^b``, up to the rounding of the
    measurement itself.  Its rounding term at x = -b is then at least
    ``gamma_4 (1 - delta_a) e^{2b}`` (n >= 1), which past the floor exceeds
    ``4 delta_a (1 - delta_a) > 3.6 delta_a`` for every degree, so the
    certificate fails at x = -b by a margin far wider than that rounding.
    """
    if not (interval_bound > 0 and math.isfinite(interval_bound)):
        raise InvalidBound(
            f"interval_bound must be positive and finite, got {interval_bound}"
        )
    if not 0 < delta_a < 0.1:
        raise ValueError(f"delta_a must lie in (0, 0.1), got {delta_a}")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")

    exhausted = DegreeExhausted(
        f"no degree <= {max_degree} reaches relative error {delta_a} "
        f"on [-{interval_bound}, {interval_bound}]"
    )
    if interval_bound > _rounding_floor(delta_a):
        raise exhausted
    # uniform, and linspace returns both endpoints exactly, so the
    # certificate covers the interval boundary
    grid = np.linspace(-interval_bound, interval_bound, GRID_POINTS)
    fit = _chebyshev_fit(interval_bound, delta_a, max_degree, grid)
    if fit is None:
        raise exhausted
    degree, coeffs, err = _exchange_down(fit, interval_bound, delta_a, grid)
    return ExpPolynomial(
        coeffs=tuple(float(c) for c in coeffs),
        degree=degree,
        interval_bound=float(interval_bound),
        target_rel_error=float(delta_a),
        certified_rel_error=err,
    )


def _chebyshev_fit(interval_bound: float, delta_a: float, max_degree: int, grid: np.ndarray):
    """The Chebyshev stage of ``fit_exp_poly``: (degree, power-basis
    coefficients, certified error) of the first degree from 1 up whose
    Chebyshev interpolant of exp on ``[-b, b]`` certifies at most delta_a on
    ``grid``, or None when no degree up to ``max_degree`` does."""
    with np.errstate(over="ignore", invalid="ignore"):
        for degree in range(1, max_degree + 1):
            coeffs = _cheb_to_power(
                chebyshev.Chebyshev.interpolate(
                    np.exp, degree, domain=[-interval_bound, interval_bound]
                )
            )
            if not np.all(np.isfinite(coeffs)):
                continue
            err = _rel_error_on(coeffs, grid)
            if err <= delta_a and coeffs[-1] != 0.0:
                return degree, coeffs, err
    return None


def _exchange_down(fit, interval_bound: float, delta_a: float, grid: np.ndarray):
    """The exchange stage of ``fit_exp_poly``: from the Chebyshev stage's
    (degree g, coefficients, certified error), the Remez polynomials of
    degree g - 1, g - 2, ... while ``_rel_error_on`` certifies them at
    delta_a on ``grid``; the last one certified, or ``fit`` itself.  A degree
    whose exchange breaks down is passed over, not taken as the end."""
    if fit[0] == 1:
        return fit
    # the weighted Chebyshev-Vandermonde matrix T_k(x / b) e^{-x}; its
    # columns are nested, so every lower degree reads a prefix of them
    weighted = chebyshev.chebvander(grid / interval_bound, fit[0] - 1)
    weighted *= np.exp(-grid)[:, None]
    for degree in range(fit[0] - 1, 0, -1):
        cheb = _remez(weighted[:, : degree + 1])
        if cheb is None:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _cheb_to_power(
                chebyshev.Chebyshev(cheb, domain=[-interval_bound, interval_bound])
            )
        err = _rel_error_on(coeffs, grid)  # inf if a coefficient is not finite
        if err > delta_a or coeffs[-1] == 0.0:
            break
        fit = degree, coeffs, err
    return fit


def _remez(weighted: np.ndarray):
    """Chebyshev coefficients of the degree ``weighted.shape[1] - 1``
    polynomial P that minimizes the largest weighted error
    ``|P(x) e^{-x} - 1|`` over the grid whose rows ``weighted`` holds
    (``T_k(x / b) e^{-x}``), or None when the exchange breaks down.

    A discrete Remez exchange (Trefethen, *Approximation Theory and
    Approximation Practice*, ch. 10): on a reference of n + 2 grid points it
    solves ``P(x_i) e^{-x_i} - 1 = (-1)^i E`` for the coefficients and the
    level E, then moves the reference to the largest error of each
    sign-alternating run of the grid, keeping the n + 2 consecutive runs that
    hold the largest error.  It starts from the Chebyshev extrema and stops
    when the largest error is within ``REMEZ_TOLERANCE`` of |E| (the
    minimax error lies between them), when the reference stops moving, or
    after ``REMEZ_STEPS`` steps.  It breaks down when the error has fewer
    than n + 2 runs, as it does when the level falls to the rounding of the
    error itself."""
    count = weighted.shape[1] + 1
    half = (weighted.shape[0] - 1) / 2
    ref = np.rint((1.0 - np.cos(np.pi * np.arange(count) / (count - 1))) * half).astype(np.intp)
    system = np.empty((count, count))
    system[:, -1] = -((-1.0) ** np.arange(count))
    ones = np.ones(count)
    for _ in range(REMEZ_STEPS):
        system[:, :-1] = weighted[ref]
        try:
            solution = np.linalg.solve(system, ones)
        except np.linalg.LinAlgError:
            return None
        cheb, level = solution[:-1], abs(solution[-1])
        err = weighted @ cheb
        err -= 1.0
        moved = _alternating_extrema(err, count)
        if moved is None:
            return None
        worst = np.abs(err[moved]).max()  # the runs kept hold the largest error
        if worst <= (1.0 + REMEZ_TOLERANCE) * level or np.array_equal(moved, ref):
            break
        ref = moved
    return cheb


def _alternating_extrema(err: np.ndarray, count: int):
    """Indices of the largest ``|err|`` in each run of one sign, cut to the
    ``count`` consecutive runs that keep the largest of all, by dropping
    the smaller end run; None when there are fewer than ``count`` runs."""
    cuts = np.flatnonzero(np.signbit(err[1:]) != np.signbit(err[:-1])) + 1
    if len(cuts) + 1 < count:
        return None
    size = np.abs(err)
    peaks = [lo + int(np.argmax(size[lo:hi])) for lo, hi in zip((0, *cuts), (*cuts, len(err)))]
    lo, hi = 0, len(peaks)
    while hi - lo > count:
        if size[peaks[lo]] < size[peaks[hi - 1]]:
            lo += 1
        else:
            hi -= 1
    return np.array(peaks[lo:hi])


def eval_poly(p: ExpPolynomial, x):
    """Horner evaluation of the power-basis polynomial at ``x`` (scalar or
    array), by the ``polyval`` that certifies the fit."""
    value = polynomial.polyval(np.asarray(x, dtype=float), p.coeffs)
    return float(value) if np.ndim(value) == 0 else value


def sup_relative_error(p: ExpPolynomial, grid_points: int) -> float:
    """The certified relative error of ``p`` over a uniform grid of
    ``grid_points`` on its fit interval: the max of the measured
    |P(x) - e^x| / e^x plus the Horner rounding term of ``fit_exp_poly``."""
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    x = np.linspace(-p.interval_bound, p.interval_bound, grid_points)
    return _rel_error_on(np.asarray(p.coeffs), x)


def degree_bound(scaled_bound: float, delta_a: float) -> int:
    """Reference degree bound for the exp approximation, as a ceiling.

    ``scaled_bound`` is the score-interval half width (B^2 * beta * d in the
    retrieval setting).  When the inner logarithm of the second branch is not
    positive the max degenerates and the first branch alone is used.
    """
    if not scaled_bound > 0:
        raise InvalidBound(f"scaled_bound must be positive, got {scaled_bound}")
    if not 0 < delta_a < 0.1:
        raise ValueError(f"delta_a must lie in (0, 0.1), got {delta_a}")
    log_inv = math.log(1.0 / delta_a)
    inner = log_inv / scaled_bound
    if inner <= 1.0:
        return math.ceil(scaled_bound)
    second = log_inv / math.log(inner)
    return math.ceil(max(scaled_bound, second))
