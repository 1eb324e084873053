"""Low-degree polynomial approximation of exp with entrywise relative error.

The fit targets ``|P(x) - e^x| <= delta * e^x`` on a symmetric interval
``[-b, b]``.  Construction is Chebyshev interpolation converted to the power
basis; the degree is found by incrementing from 1 and accepting the first
degree whose validation-grid relative error meets the target.  The power basis
is required downstream: the monomial feature map reads the coefficients
directly.  ``_cheb_to_power`` converts with the Clenshaw recurrence that
``Chebyshev.convert(kind=Polynomial)`` runs, on plain float arrays instead of
``Polynomial`` objects: the coefficients are the same bit for bit, at about a
tenth of the cost, which matters because most fits the drivers ask for fail
after trying every degree.
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


def _rel_error_on(coeffs: np.ndarray, x: np.ndarray) -> float:
    # |P(x) - e^x| / e^x computed as |P(x) e^{-x} - 1|: stable when e^x
    # overflows (e^{-x} underflows to 0 and the ratio saturates at 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = polynomial.polyval(x, coeffs)
        err = np.abs(p * np.exp(-x) - 1.0)
    err = np.where(np.isnan(err), np.inf, err)
    return float(np.max(err))


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


def fit_exp_poly(
    interval_bound: float,
    delta_a: float,
    max_degree: int = DEFAULT_MAX_DEGREE,
) -> ExpPolynomial:
    """Fit the smallest-degree power-basis approximation of exp on
    ``[-interval_bound, interval_bound]`` with grid relative error <= delta_a.

    Raises DegreeExhausted when no degree up to ``max_degree`` meets the
    target; this signals an infeasible (bound, delta) combination at desk
    scale.
    """
    if not interval_bound > 0:
        raise InvalidBound(f"interval_bound must be positive, got {interval_bound}")
    if not 0 < delta_a < 0.1:
        raise ValueError(f"delta_a must lie in (0, 0.1), got {delta_a}")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")

    # uniform, and linspace returns both endpoints exactly, so the
    # certificate covers the interval boundary
    grid = np.linspace(-interval_bound, interval_bound, GRID_POINTS)
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
                return ExpPolynomial(
                    coeffs=tuple(float(c) for c in coeffs),
                    degree=degree,
                    interval_bound=float(interval_bound),
                    target_rel_error=float(delta_a),
                    certified_rel_error=err,
                )
    raise DegreeExhausted(
        f"no degree <= {max_degree} reaches relative error {delta_a} "
        f"on [-{interval_bound}, {interval_bound}]"
    )


def eval_poly(p: ExpPolynomial, x):
    """Horner evaluation of the power-basis polynomial at ``x`` (scalar or
    array), by the ``polyval`` that certifies the fit."""
    value = polynomial.polyval(np.asarray(x, dtype=float), p.coeffs)
    return float(value) if np.ndim(value) == 0 else value


def sup_relative_error(p: ExpPolynomial, grid_points: int) -> float:
    """Max of |P(x) - e^x| / e^x over a uniform grid on the fit interval."""
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
