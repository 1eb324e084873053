"""Lambert-W evaluation, well-separation condition, capacity lower bound, and
the empirical storage/retrieval experiment."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleStorage, OutOfDomain, SingleMemory
from .hopfield import (
    Normalization,
    PatternMatrix,
    RetrievalConfig,
    lowrank_error_bound,
    pattern_radius,
    plan,
    retrieve_dense,
    retrieve_lowrank,
    separation,
)

_BRANCH_POINT = -math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function by Halley iteration.

    Initial guess is ln(1+x) for x >= 0 and the branch-point series for
    x in (-1/e, 0); residual |w e^w - x| is driven below 1e-13 max(1, |x|).
    """
    x = float(x)
    if x < _BRANCH_POINT - 1e-15:
        raise OutOfDomain(f"lambert_w0 needs x >= -1/e, got {x}")
    if abs(x - _BRANCH_POINT) <= 1e-15:
        return -1.0
    if x == 0.0:
        return 0.0
    if x >= 0.0:
        w = math.log1p(x)
        if x > math.e:  # asymptotic guess converges faster for large x
            lx = math.log(x)
            w = lx - math.log(lx)
    else:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    tol = 1e-13 * max(1.0, abs(x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            break
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    return w


@dataclass(frozen=True)
class CapacityParams:
    """Knobs of the capacity analysis.

    The analysis' capacity formula needs sqrt(p) > 1 for a non-empty domain
    even though the text presents p as a probability; p is therefore only
    required to be positive here, and capacity_lower_bound reports OutOfDomain
    whenever the logarithm argument is not positive.
    """

    p: float
    d: int
    m: float
    beta: float
    R: float
    M: int
    B: float
    delta_a: float

    def __post_init__(self):
        for name in ("p", "m", "beta", "R", "B"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.d < 1 or self.M < 1:
            raise ValueError("d and M must be >= 1")
        if not 0 <= self.delta_a < 0.1:
            raise ValueError("delta_a must lie in [0, 0.1)")

    @property
    def error_margin(self) -> float:
        """delta_H = 2 M B delta_a."""
        return lowrank_error_bound(self.M, self.B, self.delta_a)


def _margin_gap(params: CapacityParams) -> float:
    """R - 2 M B delta_a, refused with InfeasibleStorage unless positive."""
    gap = params.R - params.error_margin
    if gap <= 0:
        raise InfeasibleStorage(
            f"R = {params.R} must exceed 2*M*B*delta_a = {params.error_margin}"
        )
    return gap


def well_separation_threshold(params: CapacityParams) -> float:
    """Lower bound on the separation Delta_mu guaranteeing each sphere maps
    into itself: (1/beta) ln(2(M-1)m / (R - 2MB delta_a)) + 2 m R."""
    if params.M < 2:
        raise ValueError("well-separation needs M >= 2")
    return (1.0 / params.beta) * math.log(
        2.0 * (params.M - 1) * params.m / _margin_gap(params)
    ) + 2.0 * params.m * params.R


def check_well_separated(memory: PatternMatrix, params: CapacityParams) -> list:
    """Per-pattern booleans: separation >= threshold."""
    if memory.count < 2:
        raise SingleMemory("well-separation check needs at least two patterns")
    threshold = well_separation_threshold(params)
    return [separation(memory, mu) >= threshold for mu in range(memory.count)]


def capacity_lower_bound(params: CapacityParams) -> float:
    """Stored-pattern count lower bound sqrt(p) * C^((d-1)/4), with C solving
    C = b / W0(e^(a + ln b)); implemented verbatim, reporting OutOfDomain
    when the logarithm argument or b is not positive."""
    if params.d < 2:
        raise ValueError("d must be >= 2")
    log_arg = 2.0 * params.m * (math.sqrt(params.p) - 1.0) / _margin_gap(params)
    if log_arg <= 0:
        raise OutOfDomain(
            f"logarithm argument {log_arg} <= 0 (sqrt(p) - 1 must be positive)"
        )
    b = 4.0 * params.m**2 * params.beta / (5.0 * (params.d - 1))
    if b <= 0:
        raise OutOfDomain(f"b = {b} <= 0")
    a = (4.0 / (params.d - 1)) * (math.log(log_arg) + 1.0)
    c = b / lambert_w0(math.exp(a + math.log(b)))
    return math.sqrt(params.p) * c ** ((params.d - 1) / 4.0)


def run_capacity_experiment(
    d: int,
    m: float,
    beta: float,
    M_list,
    trials: int,
    perturbation: float = 0.1,
    eps: float | None = None,
    rng_seed: int = 0,
    delta_a: float = 1e-3,
) -> list:
    """Per M: sample M patterns on the radius-m sphere, perturb a stored
    pattern by perturbation * R per trial, run one retrieval step on all
    trials at once, and count successes.

    Each M draws from its own generator, seeded by (seed, M), so a row does
    not depend on the order of ``M_list``.  It draws, in this order, the
    memory (M x d normals, one pattern per row, scaled to radius m), every
    trial's target index, and every trial's noise direction (trials x d
    normals, one per row, scaled to unit length).

    Under QUERY normalization each output column depends only on its own
    query, so the batch gives each trial its own retrieval.  The batch's
    ``plan`` (on the widest of the trials' score intervals) picks the path:
    the low-rank map where the plan holds a fit, otherwise the dense map, and
    the row records solver="dense-fallback".  A refused plan makes no
    low-rank call.  The default success radius is R/2 plus the 2 M B delta_a
    the low-rank path certifies, B the plan's largest entry of memory and
    queries.
    """
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"m must be finite and positive, got {m}")
    if eps is not None and not eps >= 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if not 0 < perturbation < 1:
        raise ValueError("perturbation must lie in (0, 1)")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if trials == 0:
        return []
    cfg = RetrievalConfig(beta=beta, delta_a=delta_a, normalization=Normalization.QUERY)
    rows = []
    for m_count in M_list:
        rng = np.random.default_rng([rng_seed, m_count])
        xi = rng.standard_normal((m_count, d)).T
        memory = PatternMatrix(m * xi / np.linalg.norm(xi, axis=0))
        # lone pattern: any finite sphere works
        radius = pattern_radius(memory) if m_count >= 2 else m
        targets = rng.integers(m_count, size=trials)
        noise = rng.standard_normal((trials, d)).T
        noise /= np.linalg.norm(noise, axis=0)
        batch = PatternMatrix(memory.data[:, targets] + perturbation * radius * noise, role="query")
        fit, b = plan(memory, batch, cfg)
        # the margin the low-rank path certifies, B over memory and queries
        margin = lowrank_error_bound(m_count, b, delta_a)
        eps_used = (radius / 2.0 + margin) if eps is None else eps
        z = (retrieve_dense if fit.reason else retrieve_lowrank)(memory, batch, cfg).Z
        errors = np.linalg.norm(z - memory.data[:, targets], axis=0)
        # every pattern has norm m, so the nearest one has the largest inner product
        nearest = np.argmax(memory.data.T @ z, axis=0)
        successes = int(np.count_nonzero((errors <= eps_used) & (nearest == targets)))
        rows.append(
            {
                "d": d,
                "m": m,
                "beta": beta,
                "M": m_count,
                "trials": trials,
                "success_rate": successes / trials,
                "mean_error": float(np.mean(errors)),
                "seed": rng_seed,
                "solver": "dense-fallback" if fit.reason else "lowrank",
                "eps": eps_used,
                "sphere_radius": radius,
            }
        )
    return rows


CAPACITY_COLUMNS = (
    "d", "m", "beta", "M", "trials", "success_rate", "mean_error", "seed",
    "solver", "eps", "sphere_radius",
)


def capacity_experiment_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CAPACITY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
