"""Gap nearest-neighbor decision via Hopfield retrieval, with brute-force
oracles.

The construction embeds two sets of n balanced binary vectors into a
2d x 2n memory/query pair, runs row-normalized retrieval, and thresholds the
last output row at twice a separation value t_tilde.  The score matrix is
the one the analysis prints, not the entrywise exp(beta Xi^T X): its right
half is the constant e^{B^2} and its bottom-left block is zero.  The literal
exponentials differ in both places: the bottom-left inner products are 0, so
those entries equal one, and the right-half inner products give e^{B^2/2}.
Under the literal values the threshold algebra cannot hold, so every solver
builds the printed matrix (``score_matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    CostCapExceeded,
    InfeasiblePlant,
    InvalidParams,
)
from .hopfield import (
    Normalization,
    PatternMatrix,
    RetrievalConfig,
    _lowrank,
)

# e^(B^2) must stay below ~1e300 so row sums remain finite
MAX_B_SQUARED = math.log(1e300)
SCENARIO1_COST_CAP = 10**7


@dataclass(frozen=True, eq=False)
class AnnsInstance:
    """Two sets of n binary d-vectors with a distance threshold t and gap delta."""

    set_a: np.ndarray
    set_b: np.ndarray
    t: float
    delta: float

    def __post_init__(self):
        a, b = np.asarray(self.set_a), np.asarray(self.set_b)
        if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
            raise ValueError("set_a and set_b must share shape (n, d)")
        # the raw values, before the cast could truncate 0.5 or 1.7 to 0/1
        for name, arr in (("set_a", a), ("set_b", b)):
            if not ((arr == 0) | (arr == 1)).all():
                raise ValueError(f"{name} entries must be 0/1")
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if not self.t > 0:
            raise ValueError("t must be positive")
        if not 0 < self.delta < 0.1:
            raise ValueError("delta must lie in (0, 0.1)")
        object.__setattr__(self, "set_a", a)
        object.__setattr__(self, "set_b", b)

    @property
    def n(self) -> int:
        return self.set_a.shape[0]

    @property
    def d(self) -> int:
        return self.set_a.shape[1]

    def distance_sq(self) -> np.ndarray:
        """n x n matrix of squared distances ||a_i - b_j||^2."""
        diff = self.set_a[:, None, :] - self.set_b[None, :, :]
        return np.sum(diff * diff, axis=2)


@dataclass(frozen=True)
class ReductionParams:
    n: int
    d: int
    t: float
    delta: float
    C: float
    C0: float
    C_beta: float
    C_alpha: float
    B: float
    beta: float
    t_tilde: float
    delta_h: float

    def __post_init__(self):
        lo = 2.0 * math.sqrt(self.C / (self.C0 * self.delta))
        if not self.C_beta > lo:
            raise InvalidParams(
                f"C_beta = {self.C_beta} must exceed 2*sqrt(C/(C0*delta)) = {lo}"
            )
        alpha_lo = (self.C_beta**2 / 4.0) * (3.0 + self.C0 / self.C) + 1.0
        if not self.C_alpha > alpha_lo:
            raise InvalidParams(
                f"C_alpha = {self.C_alpha} must exceed {alpha_lo}"
            )
        if self.B * self.B > MAX_B_SQUARED:
            raise InvalidParams(
                f"B^2 = {self.B * self.B:.1f} exceeds the floating-point cap "
                f"{MAX_B_SQUARED:.1f}; reduce n or increase t*delta"
            )
        if not self.t_tilde >= self.delta_h:
            raise InvalidParams(
                f"t_tilde = {self.t_tilde} < delta_h = {self.delta_h}"
            )


def compute_params(n: int, d: int, t: float, delta: float) -> ReductionParams:
    """Reduction constants for the given instance shape.

    Picks C_beta with enough slack that the case-2 threshold bound
    separates at finite n (the minimal constants only separate
    asymptotically): e^{(delta/4) B^2 t / d} must exceed 3n, so B^2 must be at
    least (4 d / (t delta)) ln(9 n) for a 3x safety factor.
    """
    if n < 2:
        raise InvalidParams("n must be >= 2")
    log_n = math.log(n)
    c_big = d / log_n
    c0 = t / log_n
    minimal = 2.1 * math.sqrt(c_big / (c0 * delta))
    separating = 2.0 * math.sqrt(
        (c_big / (c0 * delta)) * math.log(9.0 * n) / log_n
    )
    C_beta = max(minimal, separating)
    # the extra ln(6)/ln(n) keeps t_tilde >= delta_h at finite n
    C_alpha = (C_beta**2 / 4.0) * (3.0 + c0 / c_big) + 1.1 + math.log(6.0) / log_n
    b = C_beta * math.sqrt(log_n)
    b2 = b * b
    log_t_tilde = -math.log(6.0) - log_n + 0.25 * b2 * (1.0 - t / d) - b2
    return ReductionParams(
        n=n,
        d=d,
        t=t,
        delta=delta,
        C=c_big,
        C0=c0,
        C_beta=C_beta,
        C_alpha=C_alpha,
        B=b,
        beta=1.0 / (2.0 * d),
        t_tilde=math.exp(log_t_tilde),
        delta_h=n ** (-C_alpha),
    )


def brute_force_anns(inst: AnnsInstance):
    """Exact minimizer of ||a_i - b_j||^2 with lexicographic tie-break."""
    d2 = inst.distance_sq()
    flat = int(np.argmin(d2))  # C-order gives smallest i, then smallest j
    i, j = divmod(flat, inst.n)
    return i, j, float(d2[i, j])


def classify_queries(inst: AnnsInstance) -> list:
    """Per-j oracle verdicts: 'case1' if some a_i is closer than t, 'case2' if
    all a_i are at least (1+delta)t away, else 'indeterminate'."""
    mins = inst.distance_sq().min(axis=0)
    out = []
    for v in mins:
        if v < inst.t:
            out.append("case1")
        elif v >= (1.0 + inst.delta) * inst.t:
            out.append("case2")
        else:
            out.append("indeterminate")
    return out


def scenario1_brute_force(inst: AnnsInstance) -> list:
    """Per-i decisions by enumerating the Hamming ball of radius < t around
    each a_i and membership-testing against the rows of B; refused when
    n times the ball size exceeds ``SCENARIO1_COST_CAP``."""
    radius = math.ceil(inst.t) - 1  # strict: distance < t on integer distances
    radius = min(max(radius, 0), inst.d)
    ball = sum(math.comb(inst.d, s) for s in range(radius + 1))
    if inst.n * ball > SCENARIO1_COST_CAP:
        raise CostCapExceeded(
            f"n * ball = {inst.n * ball} exceeds cap {SCENARIO1_COST_CAP}"
        )
    b_rows = {row.tobytes() for row in inst.set_b.astype(np.int64)}
    verdicts = []
    for a in inst.set_a.astype(np.int64):
        hit = False
        for s in range(radius + 1):
            for flips in combinations(range(inst.d), s):
                candidate = a.copy()
                candidate[list(flips)] ^= 1
                if candidate.tobytes() in b_rows:
                    hit = True
                    break
            if hit:
                break
        verdicts.append("case1" if hit else "case2")
    return verdicts


def build_ahop_instance(inst: AnnsInstance):
    """Memory and query pattern matrices (2d x 2n) plus the reduction
    constants, laid out exactly as the case analysis prescribes."""
    params = compute_params(inst.n, inst.d, inst.t, inst.delta)
    n, d, b = inst.n, inst.d, params.B
    xi = np.zeros((2 * d, 2 * n))
    xi[:d, :n] = inst.set_a.T
    xi[d:, :] = 1.0
    x = np.zeros((2 * d, 2 * n))
    x[:d, :n] = inst.set_b.T
    x[d:, n:] = 1.0
    memory = PatternMatrix(b * xi, role="memory")
    queries = PatternMatrix(b * x, role="query")
    assert memory.max_norm <= b + 1e-12 and queries.max_norm <= b + 1e-12
    return memory, queries, params


@dataclass(eq=False)
class CaseDecision:
    verdicts: list
    statistic: np.ndarray
    threshold_used: float


def score_matrix(
    memory: PatternMatrix, queries: PatternMatrix, params: ReductionParams
) -> np.ndarray:
    """The 2n x 2n nonnegative score matrix the decision statistic
    normalizes, as the analysis prints it: exp(beta Xi^T X) in the top-left
    block, the constant e^{B^2} in the right half, zero bottom-left."""
    n = params.n
    s = params.beta * (memory.data.T @ queries.data)
    a = np.exp(s)  # exponents bounded by B^2 < 700, no overflow
    a[:, n:] = math.exp(params.B**2)
    a[n:, :n] = 0.0
    return a


def _dense_statistic(
    memory: PatternMatrix, queries: PatternMatrix, params: ReductionParams
) -> np.ndarray:
    a = score_matrix(memory, queries, params)
    row_sums = a.sum(axis=1)
    z = memory.data @ (a / row_sums[:, None])
    # the analysis takes the last memory row as plain ones; divide out B
    return z[-1, :] / params.B


def _lowrank_statistic(
    memory: PatternMatrix,
    queries: PatternMatrix,
    params: ReductionParams,
    cfg: RetrievalConfig,
) -> np.ndarray:
    n = params.n
    # only the top-left block comes from the factorization; the right half is
    # the constant e^{B^2} and the bottom-left block is zero
    block = math.exp(params.B**2)
    top_mem = PatternMatrix(memory.data[:, :n], role="memory")
    left_qry = PatternMatrix(queries.data[:, :n], role="query")
    # MEMORY normalization: the pass's parts are the factors U1 and U2
    _, _, _, row_sums, (u1, u2) = _lowrank(top_mem, left_qry, cfg)
    d = np.empty(2 * n)
    d[:n] = row_sums + n * block
    d[n:] = n * block
    z = np.empty((memory.d, 2 * n))
    z[:, :n] = ((memory.data[:, :n] / d[:n]) @ u1) @ u2.T
    z[:, n:] = (memory.data @ (block / d))[:, None]
    return z[-1, :] / params.B


def solve_gap_anns_via_ahop(inst: AnnsInstance, solver: str = "dense") -> CaseDecision:
    """Threshold the last retrieval row at 2 t_tilde to decide, for each
    j in [n], whether some a_i lies within distance t of b_j."""
    memory, queries, params = build_ahop_instance(inst)
    if solver == "dense":
        stat = _dense_statistic(memory, queries, params)
    elif solver == "lowrank":
        cfg = RetrievalConfig(beta=params.beta, normalization=Normalization.MEMORY)
        stat = _lowrank_statistic(memory, queries, params, cfg)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    threshold = 2.0 * params.t_tilde
    stat = stat[: inst.n]
    verdicts = ["case1" if v >= threshold else "case2" for v in stat]
    return CaseDecision(verdicts=verdicts, statistic=stat, threshold_used=threshold)


def _random_balanced_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n rows of d/2 ones each; row i's ones are the first d/2 entries of a
    random permutation, the same draws as one ``rng.permutation(d)`` per row."""
    ones = rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)[:, : d // 2]
    rows = np.zeros((n, d), dtype=np.int64)
    np.put_along_axis(rows, ones, 1, axis=1)
    return rows


def _swap_k(rng: np.random.Generator, rows: np.ndarray, k: int) -> np.ndarray:
    """Copies of balanced rows, each with k/2 of its one-positions and k/2 of
    its zero-positions exchanged, i.e. squared distance exactly k from its
    source, weight preserved.  One uniform key per entry picks both: a row's
    ones sort first by key, then its zeros, and the lowest k/2 of each swap."""
    order = np.argsort(rng.random(rows.shape) + (rows == 0), axis=1)
    half, weight = k // 2, rows.shape[1] // 2
    out = rows.copy()
    np.put_along_axis(out, order[:, :half], 0, axis=1)
    np.put_along_axis(out, order[:, weight : weight + half], 1, axis=1)
    return out


def generate_balanced_instance(
    n: int,
    d: int,
    t: float,
    delta: float,
    planted: int | None = None,
    rng_seed: int = 0,
) -> AnnsInstance:
    """Random balanced instance from one generator seeded by (seed, n, d):
    the a-rows, then the b-rows (each row the draws of one
    ``rng.permutation(d)``).  If ``planted`` is given, it then draws a pair
    (i, j) and replaces b_j by a_i with ``planted``/2 ones and zeros swapped
    (``_swap_k``), so the pair sits at squared distance exactly ``planted``
    (must be even)."""
    if d % 2 != 0:
        raise InfeasiblePlant("d must be even for balanced rows")
    rng = np.random.default_rng([rng_seed, n, d])
    a = _random_balanced_rows(rng, n, d)
    b = _random_balanced_rows(rng, n, d)
    if planted is not None:
        if planted % 2 != 0 or not 0 <= planted <= d:
            raise InfeasiblePlant(
                f"planted distance {planted} must be even and within [0, {d}]"
            )
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        b[j] = _swap_k(rng, a[i : i + 1], planted)[0]
    return AnnsInstance(a, b, t=t, delta=delta)


def generate_clustered_case2_instance(
    n: int, d: int, t: float, delta: float, rng_seed: int = 0
) -> AnnsInstance:
    """Instance whose every query is case-2 promised: the a-rows cluster
    around a balanced center (one swap away) and the b-rows cluster around its
    complement, so every pair is at squared distance >= d - 4.  One generator
    seeded by (seed, n, d, 2) draws the center, then one ``_swap_k`` batch
    per side: the n a-rows, then the n b-rows."""
    if d % 2 != 0:
        raise InfeasiblePlant("d must be even for balanced rows")
    if d - 4 < (1.0 + delta) * t:
        raise InfeasiblePlant(
            f"cluster construction needs d - 4 >= (1+delta)*t, got d={d}, t={t}"
        )
    rng = np.random.default_rng([rng_seed, n, d, 2])
    center = np.tile(_random_balanced_rows(rng, 1, d), (n, 1))
    a = _swap_k(rng, center, 2)
    b = _swap_k(rng, 1 - center, 2)
    return AnnsInstance(a, b, t=t, delta=delta)


def planted_instance(
    kind: str, n: int, d: int, t: float, delta: float, rng_seed: int = 0
) -> AnnsInstance:
    """A promised instance of ``kind``: ``"case1"`` plants one pair at squared
    distance 2 (a duplicate row when t <= 2), ``"case2"`` draws the clustered
    instance whose every query is far."""
    if kind == "case1":
        return generate_balanced_instance(
            n, d, t, delta, planted=2 if t > 2 else 0, rng_seed=rng_seed
        )
    if kind == "case2":
        return generate_clustered_case2_instance(n, d, t, delta, rng_seed=rng_seed)
    raise ValueError(f"unknown planted kind {kind!r}")


def verify_reduction(
    n: int,
    d: int,
    t: float,
    delta: float,
    trials: int,
    rng_seed: int = 0,
    solver: str = "dense",
) -> dict:
    """Run planted case-1 and case-2 instances through the pipeline, with
    the score matrix as the analysis prints it, and report agreement with the
    brute-force oracle on promised queries."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    report = {
        "n": n,
        "d": d,
        "t": t,
        "delta": delta,
        "trials": trials,
        "solver": solver,
        "convention": "as_written",
        "promised_queries": 0,
        "agreements": 0,
        "disagreements": [],
        "per_trial": [],
    }
    for trial in range(trials):
        plant = "case1" if trial % 2 == 0 else "case2"
        inst = planted_instance(plant, n, d, t, delta, rng_seed=rng_seed + trial)
        kind = f"{plant}-planted"
        oracle = classify_queries(inst)
        decision = solve_gap_anns_via_ahop(inst, solver=solver)
        promised = agreed = 0
        for j, truth in enumerate(oracle):
            if truth == "indeterminate":
                continue
            promised += 1
            if decision.verdicts[j] == truth:
                agreed += 1
            else:
                report["disagreements"].append(
                    {
                        "trial": trial,
                        "kind": kind,
                        "j": j,
                        "oracle": truth,
                        "verdict": decision.verdicts[j],
                        "statistic": float(decision.statistic[j]),
                        "threshold": decision.threshold_used,
                        "set_a": inst.set_a.tolist(),
                        "set_b": inst.set_b.tolist(),
                    }
                )
        report["promised_queries"] += promised
        report["agreements"] += agreed
        report["per_trial"].append(
            {"trial": trial, "kind": kind, "promised": promised, "agreed": agreed}
        )
    total = report["promised_queries"]
    report["agreement_fraction"] = (
        report["agreements"] / total if total else 1.0
    )
    return report
