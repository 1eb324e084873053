"""Dense and almost-linear Hopfield memory retrieval.

Patterns are stored column-wise.  Two normalization conventions are supported:

* ``QUERY``: Z = Xi @ softmax_over_memories(beta Xi^T X), the retrieval
  semantics (each output column is a convex combination of memories).
* ``MEMORY``: Z = Xi @ D^{-1} @ A with D = diag(row sums of A), the convention
  the reduction analysis uses.

The dense path runs one kernel in one pass over tiles of the score matrix.
Each normalized column is shifted by its Cauchy-Schwarz bound
beta R ||b_j|| (R the other side's largest column norm), folded into the
score matmul as a ones row, so no max pass runs; only where that bound is
too loose for the exponent range is the column max subtracted as well.  A
memory matrix keeps [Xi; 1^T] and its column norms, and QUERY takes each
normalizer from the ones row of [Xi; 1^T] @ W.  Since the shift is known
before any score is, a QUERY tile needs no whole column: it is a run of
memories by a run of queries, within ``DENSE_TILE_ELEMENTS`` so that it
stays in L2, and adds its product into its queries' numerators and
normalizers.  MEMORY divides by row sums before the value product, so it,
and the max pass, walk chunks of whole columns.

Whether the low-rank construction applies is decided once per snapped score
interval, by ``plan``: its memoized ``Plan`` holds either the certified fit
or a refusal, the reason ("degree-exhausted" or "rank-overflow") and the
refused fit's message.  Drivers read the plan to choose a path; only the
low-rank pass turns a refusal into ``DegreeExhausted`` or ``SizeOverflow``.

The low-rank path fits an exp polynomial on the score interval, factors it
through the monomial feature map, and assembles the output with the
associativity order that never materializes the M x L score matrix.  The
memory rows are scaled by the power of two 2^-e that puts every entry below
1, which is exact, and the query rows carry beta 2^e, so the memory side of
that factorization does not depend on beta.  It is built once per memory
matrix and fit, in O(M r) monomial work for rank r, and kept on it: for QUERY
the (d+1) x r state [Xi; 1^T] @ U1, after which a call costs O(L r d)
whatever M is; for MEMORY the M x r factor U1 itself.  One pass
(``_lowrank``) fits, factors and normalizes under either convention, and
every low-rank caller reads it.  QUERY never holds U1 or U2 whole: both sides
walk their rows in blocks of ``FACTOR_BLOCK_ELEMENTS`` entries and contract
each block at once, so its working memory is one block instead of
O((M + L) r).  The first block allocates the buffer, in the order ``feature_map`` picks
from its shape, and every later block reuses it.  Queries that fit one block,
such as one column, skip the walk: one ``build_factor_matrices`` call and one
matmul, so a warm one-column call costs its r (d + 1) multiply-adds plus a
few numpy calls.  Skipping the walk saved a median 2.7 us of a 29 us
one-column call (10 alternating rounds in one process, 2-vCPU Xeon).

``fixed_point_iterate`` shares each step's Xi^T x between the exact energy
and a convergence screen built from the column norms the dense path keeps;
the distances to every pattern are computed only where the screen cannot
rule a hit out, so hits and steps are unchanged.
"""

from __future__ import annotations

import enum
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import feature_map as fm
from . import poly_approx as pa
from .errors import (
    DegreeExhausted,
    DimensionMismatch,
    EmptyVector,
    InvalidBound,
    MalformedPatternFile,
    NonFiniteInput,
    NonPositiveNormalizer,
    OutOfDomain,
    SingleMemory,
    SizeOverflow,
)

# element budget for one chunk of whole columns of the score matrix (MEMORY,
# and QUERY past ``BOUND_SHIFT_LIMIT``); a fixed working-set size keeps the
# dense path's cache behavior uniform across problem sizes.  A warm batch-d8
# call (MEMORY, M = L = 4,096, d = 8) took a median 59.9 ms with 2^17-element
# chunks against 48.3 ms with 2^20 (15 alternating rounds in one process).
DENSE_CHUNK_ELEMENTS = 2**20

# element budget and widest query run of one QUERY tile, memories x queries:
# 2^17 doubles, 1 MiB, half of a 2 MiB L2, so a tile's score matmul, exp and
# value matmul all find it in cache.  A call with fewer queries takes longer
# memory runs, so one column against up to 2^17 memories is one tile.  Warm
# batch-d4 calls (M = L = 16,384, d = 4), median ms of 7 alternating rounds
# in one process (2-vCPU Xeon, OpenBLAS with 2 threads), by budget and
# query run:
#
#   budget   16     32     64     128
#   2^16     468    447    472    477
#   2^17     471    445    475    480
#   2^18     717    751    649    595
#   2^19     653    659    614    573
#
# Whole columns, 64 queries by 16,384 memories (2^20, the chunks before
# tiling), read 613 ms in the same process; budgets past half of L2 lose
# most of the gain.  OpenBLAS sums a tile's value product along its memory
# run in order, so a run of 4,096 left batch-d4 within 3.0e-15 of max|Z| of
# a long-double reference, against 7.9e-16 for whole columns.
DENSE_TILE_ELEMENTS = 2**17
DENSE_TILE_COLUMNS = 32

# element budget (rank x rows) for one block of QUERY monomials: 2^22
# doubles, 32 MiB.  Common batch shapes stay in one block, such as 16,384
# rows at rank 126, where 4-8 blocks made a warm call 15-20% slower.  At rank
# 203,490 (d = 8, degree 13) it gives 20-row blocks, whose buffer
# ``feature_map`` lays out row-major.  A cold 256 x 256
# retrieval there took a median 247 ms with this budget, 268 ms with 2^23
# (41-row blocks) and 287 ms with 2^21; in blocks of one monomial per row it
# took 291 ms with 2^22 and 395 ms with 2^23 (2-vCPU Xeon, 7 alternating runs
# in one process).  In that order one-row blocks took 3.0 s.
FACTOR_BLOCK_ELEMENTS = 2**22


class Normalization(enum.Enum):
    QUERY = "query"
    MEMORY = "memory"


@dataclass(frozen=True, eq=False)
class PatternMatrix:
    """d x N matrix whose columns are patterns, with d >= 1 and N >= 1.

    A memory-role matrix owns a read-only copy of its data, so its
    ``max_norm`` and ``pattern_norm_radius`` are computed once, and dense and
    low-rank retrieval keep their memory-side state on it.  A query-role
    matrix is a view of the caller's array (no copy); both values are
    computed on each access, and retrieval keeps nothing on it."""

    data: np.ndarray
    role: str = "memory"

    def __post_init__(self):
        if self.role not in ("memory", "query"):
            raise ValueError(f"role must be 'memory' or 'query', got {self.role!r}")
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise DimensionMismatch("pattern data must be a 2-D array")
        if data.shape[0] < 1:
            raise DimensionMismatch("pattern dimension must be >= 1")
        if data.shape[1] < 1:
            raise DimensionMismatch("at least one pattern required")
        if self.role == "memory":
            data = _frozen_copy(data)
        object.__setattr__(self, "data", data)

    def __reduce__(self):
        # copies and unpickling rebuild through __post_init__, so a memory
        # copy owns read-only data and carries no derived values
        return type(self), (self.data, self.role)

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def count(self) -> int:
        return self.data.shape[1]

    @property
    def max_norm(self) -> float:
        value = self.__dict__.get("_max_norm")
        if value is None:
            value = float(np.maximum.reduce(abs(self.data), axis=None))
            if self.role == "memory":
                self.__dict__["_max_norm"] = value
        return value

    @property
    def pattern_norm_radius(self) -> float:
        """Max column 2-norm R, the max of the column norms the dense path
        keeps; beta R_mem ||x_j|| bounds every score of query x_j."""
        return _dense_side(self)[2]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"dim={self.d}\n")
            for col in self.data.T:
                fh.write(",".join(repr(float(v)) for v in col) + "\n")

    @classmethod
    def from_csv(cls, path, role: str = "memory") -> "PatternMatrix":
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("dim="):
                raise MalformedPatternFile(f"{path}:1: missing dim= header")
            rows, lineno = [], 1
            try:
                d = int(header[4:])
                if d < 1:
                    raise MalformedPatternFile(f"{path}:1: dim={d} is not positive")
                for lineno, line in enumerate(fh, start=2):
                    if not line.strip():
                        continue
                    rows.append([float(v) for v in line.strip().split(",")])
                    if len(rows[-1]) != d:
                        raise DimensionMismatch(
                            f"{path}:{lineno}: row has {len(rows[-1])} values, header says dim={d}"
                        )
            except ValueError as exc:
                raise MalformedPatternFile(f"{path}:{lineno}: {exc}") from None
        if not rows:
            raise EmptyVector(f"{path}: no patterns")
        data = np.array(rows, dtype=float).T
        return cls(_require_finite(data, path), role=role)


def _frozen_copy(data: np.ndarray) -> np.ndarray:
    """A read-only copy, on a 64-byte boundary, that no caller can write
    through, so values derived from it can be kept in the owner's
    ``__dict__``."""
    copy = fm._aligned_empty(data.shape)
    copy[...] = data
    copy.flags.writeable = False
    return copy


def _require_finite(data: np.ndarray, path) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NonFiniteInput(f"non-finite pattern entry in {path}")
    return data


@dataclass(frozen=True)
class RetrievalConfig:
    beta: float
    delta_a: float = 1e-3
    normalization: Normalization = Normalization.QUERY
    max_degree: int = pa.DEFAULT_MAX_DEGREE
    solver: str = "dense"

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be finite and positive")
        if not 0 < self.delta_a < 0.1:
            raise ValueError("delta_a must lie in (0, 0.1)")
        if self.solver not in ("dense", "lowrank"):
            raise ValueError(
                f"solver must be 'dense' or 'lowrank', got {self.solver!r}"
            )


@dataclass(eq=False)
class RetrievalResult:
    Z: np.ndarray
    rank_used: int
    degree_used: int
    wall_time: float
    error_bound: float

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            for row in self.Z:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def sidecar_json(self) -> str:
        return json.dumps(
            {
                "rank_used": self.rank_used,
                "degree_used": self.degree_used,
                "error_bound": self.error_bound,
                "shape": list(self.Z.shape),
            }
        )


def lse(beta: float, z) -> float:
    """log(sum exp(beta z)) / beta with max-shift for overflow safety."""
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise EmptyVector("lse of an empty vector")
    if not 0 < beta < math.inf:
        raise ValueError("beta must be finite and positive")
    # the ufunc reductions np.max and np.sum call, without their wrappers
    m = float(np.maximum.reduce(z, axis=None))
    return m + float(np.log(np.add.reduce(np.exp(beta * (z - m)), axis=None))) / beta


def energy(memory: PatternMatrix, x, beta: float) -> float:
    """-lse(beta, Xi^T x) + 0.5 <x, x>."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != memory.d:
        raise DimensionMismatch(f"query length {x.shape[0]} != d {memory.d}")
    return -lse(beta, memory.data.T @ x) + 0.5 * float(x @ x)


def _check_dims(memory: PatternMatrix, queries: PatternMatrix) -> None:
    if memory.d != queries.d:
        raise DimensionMismatch(
            f"memory d={memory.d} but queries d={queries.d}"
        )


# The bound shift leaves a column's largest weight at least
# exp(-2 beta R_a ||b_j||), R_a the largest column norm on the other side.  Up
# to this exponent that weight stays far above the subnormal range
# (exp(-708)), where weights lose precision and past exp(-745) the normalizer
# is zero; beyond it the kernel subtracts the column max as well.
BOUND_SHIFT_LIMIT = 600.0


def _dense_side(patterns: PatternMatrix):
    """([P; 1^T], P's column norms, their max), the arrays read-only: the
    (d+1) x N array is C-contiguous and used through ``.T``, so its ones row
    adds a shift row to every score.  Kept on a memory-role matrix, whose
    data cannot change."""
    kept = patterns.__dict__.get("_dense_side")
    if kept is not None:
        return kept
    data = patterns.data
    p1 = _frozen_copy(np.vstack([data, np.ones((1, data.shape[1]))]))
    norms = np.hypot.reduce(data, axis=0)
    norms.flags.writeable = False
    kept = (p1, norms, float(norms.max()))
    if patterns.role == "memory":
        patterns.__dict__["_dense_side"] = kept
    return kept


def _softmax_chunks(
    a1: np.ndarray, r_a: float, b: np.ndarray, b_norms, beta: float, whole: bool
):
    """Yield (rows, cols, w) over tiles of the score matrix, where a1 = [a; 1^T],
    r_a is a's largest column norm and w = exp(beta a[:, rows]^T b[:, cols] -
    shift).  Column j's shift is its score bound beta r_a ||b_j||: a1.T times
    the block [beta b; -shift] subtracts it inside the matmul, so every weight
    is at most 1 and no max pass runs.  Past ``BOUND_SHIFT_LIMIT`` each
    column's max is subtracted too, and its largest weight is 1.

    The tiles walk b's columns in runs and, within each run, a's columns in
    runs.  Where ``whole`` is set or the max pass runs, a tile holds whole
    columns, at most ``DENSE_CHUNK_ELEMENTS`` entries or one column;
    otherwise at most ``DENSE_TILE_ELEMENTS`` entries, in runs of at most
    ``DENSE_TILE_COLUMNS`` of b's columns where a's do not all fit.  Each w
    is one buffer or a view of it, overwritten by the next tile, so tiles do
    not fault in a fresh array each."""
    block = np.empty((b.shape[0] + 1, b.shape[1]))
    np.multiply(b, beta, out=block[:-1])
    shift = np.multiply(b_norms, -beta * r_a, out=block[-1])
    wide = -2.0 * float(shift.min()) > BOUND_SHIFT_LIMIT
    m, n = a1.shape[1], b.shape[1]
    if whole or wide:
        mt, budget = m, DENSE_CHUNK_ELEMENTS
    else:
        budget = DENSE_TILE_ELEMENTS
        mt = min(m, max(1, budget // min(n, DENSE_TILE_COLUMNS)))
    qt = min(n, max(1, budget // mt))
    at, buf = a1.T, np.empty((mt, qt))
    if mt == m and qt == n:  # one tile: no runs to cut, no views to take
        yield slice(0, m), slice(0, n), _weights(at, block, buf, wide)
        return
    for lo in range(0, n, qt):
        cols = slice(lo, min(lo + qt, n))
        for top in range(0, m, mt):
            rows = slice(top, min(top + mt, m))
            w = buf[: rows.stop - top, : cols.stop - lo]
            yield rows, cols, _weights(at[rows], block[:, cols], w, wide)


def _weights(a_t: np.ndarray, b: np.ndarray, w: np.ndarray, wide: bool) -> np.ndarray:
    """w = exp(a_t @ b), each column less its max first where ``wide``."""
    np.matmul(a_t, b, out=w)
    if wide:
        w -= w.max(axis=0)
    return np.exp(w, out=w)


def retrieve_dense(
    memory: PatternMatrix, queries: PatternMatrix, cfg: RetrievalConfig
) -> RetrievalResult:
    """Exact softmax retrieval, Theta(dML), in one pass of one kernel.  Scores
    are shifted by their Cauchy-Schwarz bound, not by their maximum (see
    ``_softmax_chunks``), so QUERY needs no whole column at once: it adds
    each tile's [Xi; 1^T] product, read from the kept [Xi; 1^T], into its
    query columns' numerators and normalizers, and divides once.  MEMORY
    divides each memory's weights by its row sum before the value product,
    so its chunks hold whole rows (a memory's score row arrives as a column)
    and it builds [X; 1^T] per call."""
    _check_dims(memory, queries)
    xi, x = memory.data, queries.data
    start = time.perf_counter()

    if cfg.normalization is Normalization.QUERY:
        xi1, _, r_mem = _dense_side(memory)
        nd = np.empty((memory.d + 1, queries.count))
        x_norms = np.hypot.reduce(x, axis=0)
        for rows, cols, w in _softmax_chunks(xi1, r_mem, x, x_norms, cfg.beta, False):
            if rows.start:
                nd[:, cols] += xi1[:, rows] @ w
            else:
                np.matmul(xi1[:, rows], w, out=nd[:, cols])
        z = nd[:-1] / nd[-1]
    else:
        x1, _, r_qry = _dense_side(queries)
        xi_norms = _dense_side(memory)[1]
        z = np.zeros((memory.d, queries.count))
        for _, rows, w in _softmax_chunks(x1, r_qry, xi, xi_norms, cfg.beta, True):
            z += (xi[:, rows] / w.sum(axis=0)) @ w.T
    return RetrievalResult(
        Z=z,
        rank_used=0,
        degree_used=0,
        wall_time=time.perf_counter() - start,
        error_bound=0.0,
    )


@dataclass(frozen=True)
class Plan:
    """Whether the low-rank construction applies on one snapped score
    interval: the certified fit (``poly`` and its feature map ``fmap``), or a
    refusal, with its ``reason`` and the refused fit's ``message``."""

    poly: pa.ExpPolynomial | None = None
    fmap: fm.MonomialFeatureMap | None = None
    reason: str = ""  # "", "degree-exhausted" or "rank-overflow"
    message: str = ""


# the error each refusal reason stands for when a low-rank pass is asked for
_REFUSALS = {"degree-exhausted": DegreeExhausted, "rank-overflow": SizeOverflow}

_FIT_CACHE: dict = {}


def plan(memory: PatternMatrix, queries: PatternMatrix, cfg: RetrievalConfig):
    """(Plan, B) for exp on the score interval [-beta d B^2, beta d B^2], B
    the largest entry of either side.

    The interval is snapped up to a coarse geometric grid (within 25%) so
    repeated retrievals with slightly different measured norms reuse one
    plan; widening the interval only strengthens the certificate.  Plans are
    memoized per (snapped interval, delta_a, max_degree, d), a refusal too,
    so the same key never fits again.  Bad input is an error, not a refusal:
    ``DimensionMismatch``, ``NonFiniteInput``, ``InvalidBound`` for an
    interval that overflows, and the fit's ``ValueError``."""
    _check_dims(memory, queries)
    b_memory, b_queries = memory.max_norm, queries.max_norm
    if not (math.isfinite(b_memory) and math.isfinite(b_queries)):
        raise NonFiniteInput("low-rank retrieval needs finite pattern entries")
    b = max(b_memory, b_queries)
    interval = b * b * cfg.beta * memory.d
    try:
        snapped = 1e-6 * 1.25 ** math.ceil(math.log(max(interval, 1e-6) / 1e-6) / math.log(1.25))
    except OverflowError:
        raise InvalidBound(
            f"score interval [-{interval:g}, {interval:g}] overflows floating point"
        ) from None
    key = (snapped, cfg.delta_a, cfg.max_degree, memory.d)
    entry = _FIT_CACHE.get(key)
    if entry is None:
        try:
            poly = pa.fit_exp_poly(snapped, cfg.delta_a, cfg.max_degree)
            entry = Plan(poly, fm.build_feature_map(poly, memory.d))
        except DegreeExhausted as exc:
            entry = Plan(reason="degree-exhausted", message=str(exc))
        except SizeOverflow as exc:
            entry = Plan(reason="rank-overflow", message=str(exc))
        if len(_FIT_CACHE) > 64:  # evict the oldest; kept memory states key on fmap
            del _FIT_CACHE[next(iter(_FIT_CACHE))]
        _FIT_CACHE[key] = entry
    return entry, b


def _block_rows(fmap) -> int:
    """The most rows of one block of ``_monomial_blocks``: its monomials
    fill at most ``FACTOR_BLOCK_ELEMENTS`` entries, but a block has a row."""
    return max(1, FACTOR_BLOCK_ELEMENTS // fmap.rank)


def _monomial_blocks(fmap, rows: np.ndarray):
    """Yield (block, U) over consecutive blocks of ``rows`` (n x d), U the
    block's monomials (no coefficient weights), at most
    ``FACTOR_BLOCK_ELEMENTS`` entries, and overwritten by the next block.
    The first block is the largest, so ``monomials`` allocates its buffer,
    in the order ``feature_map`` picks from its shape, and each later block
    is written into that buffer (the first U's transpose).  Each block goes
    through ``build_factor_matrices`` as its pure-monomial side."""
    step = _block_rows(fmap)
    buf = None
    for lo in range(0, rows.shape[0], step):
        block = slice(lo, min(lo + step, rows.shape[0]))
        u = fm.build_factor_matrices(fmap, rows[:0], rows[block], buf)[1]
        buf = u.T
        yield block, u


def _memory_state(memory: PatternMatrix, fmap, normalization: Normalization):
    """The memory side of the factored retrieval: [Xi; 1^T] @ U1 ((d+1) x r)
    for QUERY, U1 (M x r) for MEMORY.  U1's rows are the weighted monomials
    of the memory rows scaled by 2^-e, e the exponent of the largest entry B
    (B = m 2^e, 1/2 <= m < 1), so every scaled entry lies below 1 and the
    scaling is exact; the query side carries beta 2^e, so the state does not
    depend on beta.  It is kept on a memory-role matrix, whose data cannot
    change, and rebuilt when the feature map (a new fit, or a refit after its
    fit-cache entry was evicted) or the normalization differs.

    QUERY never forms U1: it sums U_blk^T [Xi; 1^T]_blk^T over the blocks of
    ``_monomial_blocks``, reading the [Xi; 1^T] the dense path keeps, and
    applies the coefficient weights once to the r x (d+1) sum, r (d+1)
    multiplies instead of M r.  The U^T-first order is kept because OpenBLAS
    ran the (d+1) x M @ M x r order 2-4x slower at M = 16384, with 50-150 ms
    stalls while another process held a core."""
    kept = memory.__dict__.get("_lowrank_state")
    if kept is not None and kept[0] is fmap and kept[1] is normalization:
        return kept[2]
    rows = np.ldexp(memory.data.T, -math.frexp(memory.max_norm)[1])
    if normalization is Normalization.QUERY:
        xi1 = _dense_side(memory)[0]
        acc = np.zeros((fmap.rank, memory.d + 1))
        part = np.empty_like(acc)
        for block, u in _monomial_blocks(fmap, rows):
            acc += np.matmul(u.T, xi1[:, block].T, out=part)
        acc *= fmap.weights[:, None]
        state = acc.T
    else:
        state, _ = fm.build_factor_matrices(fmap, rows, rows[:0])
    state.flags.writeable = False
    if memory.role == "memory":
        memory.__dict__["_lowrank_state"] = (fmap, normalization, state)
    return state


def _lowrank(memory: PatternMatrix, queries: PatternMatrix, cfg: RetrievalConfig):
    """The one factored pass: (poly, fmap, B, norm, parts), with the fit,
    the kept memory state of ``_memory_state`` and the monomials of
    beta 2^e X, e the exponent of the memory's largest entry, whose product
    carries exp(beta Xi^T X) to delta_a.  A refused plan raises its error,
    ``DegreeExhausted`` or ``SizeOverflow``, with the refused fit's message.

    * QUERY: parts is N, the (d+1) x L product state @ U2.T of the kept
      [Xi; 1^T] @ U1 with the query monomials, and norm is its last row, the
      column normalizers.  Each block of ``_monomial_blocks`` writes its
      columns of N at once; U2 is never whole.
    * MEMORY: parts is (U1, U2), U1 the kept state, and norm their factored
      row sums.  U2 is whole, since the row sums and the output both read
      it."""
    entry, b = plan(memory, queries, cfg)
    if entry.reason:
        raise _REFUSALS[entry.reason](entry.message)
    poly, fmap = entry.poly, entry.fmap
    state = _memory_state(memory, fmap, cfg.normalization)
    rows = math.ldexp(cfg.beta, math.frexp(memory.max_norm)[1]) * queries.data.T
    if cfg.normalization is Normalization.MEMORY:
        _, u2 = fm.build_factor_matrices(fmap, rows[:0], rows)
        return poly, fmap, b, fm.factored_row_sums(state, u2), (state, u2)
    if queries.count <= _block_rows(fmap):
        # one block, as ``_monomial_blocks`` builds it, without its walk
        numer = state @ fm.build_factor_matrices(fmap, rows[:0], rows)[1].T
    else:
        numer = np.empty((memory.d + 1, queries.count))
        for block, u2 in _monomial_blocks(fmap, rows):
            np.matmul(state, u2.T, out=numer[:, block])
    return poly, fmap, b, numer[-1], numer


def lowrank_normalizers(
    memory: PatternMatrix, queries: PatternMatrix, cfg: RetrievalConfig
) -> np.ndarray:
    """Approximated normalizer vector (row sums for MEMORY, column sums for
    QUERY) from the same factored pass retrieval uses."""
    return _lowrank(memory, queries, cfg)[3]


def dense_normalizers(
    memory: PatternMatrix, queries: PatternMatrix, cfg: RetrievalConfig
) -> np.ndarray:
    """Exact normalizer vector, with no shift: meant for bounded score
    suites.  A score above ln(max float / 2n), n the scores each normalizer
    sums, raises ``OutOfDomain``, since its exponential or their sum could
    overflow to inf."""
    _check_dims(memory, queries)
    scores = cfg.beta * (memory.data.T @ queries.data)
    axis = 1 if cfg.normalization is Normalization.MEMORY else 0
    bound = math.log(sys.float_info.max / (2 * scores.shape[axis]))
    top = np.maximum.reduce(scores, axis=None)
    if top > bound:
        raise OutOfDomain(
            f"score {top:.6g} exceeds the bound ln(max float / 2n) = {bound:.6g} "
            f"(n = {scores.shape[axis]}) of the unshifted normalizers"
        )
    return np.exp(scores, out=scores).sum(axis=axis)


def retrieve_lowrank(
    memory: PatternMatrix, queries: PatternMatrix, cfg: RetrievalConfig
) -> RetrievalResult:
    """Almost-linear retrieval via the polynomial low-rank factorization.

    The memory side costs O(M r) monomials once per memory matrix (see
    ``_memory_state``).  Each call then costs O(L r d) for QUERY, whatever M
    is, and holds one block of ``FACTOR_BLOCK_ELEMENTS`` query monomials at a
    time instead of the L x r factor U2; MEMORY also pays O(M r d) per call,
    because its row sums need every query, and holds U2 whole.

    Guarantees max-norm error <= 2 M B delta_a against retrieve_dense with the
    matching normalization convention.
    """
    start = time.perf_counter()
    poly, fmap, b, norm, parts = _lowrank(memory, queries, cfg)
    by_rows = cfg.normalization is Normalization.MEMORY
    # fmin skips NaN entries, so this raises where (norm <= 0).any() would
    if np.fmin.reduce(norm) <= 0:
        raise NonPositiveNormalizer(
            f"approximated {'row' if by_rows else 'column'} normalizer "
            "has a non-positive entry"
        )
    if by_rows:
        u1, u2 = parts
        z = ((memory.data / norm) @ u1) @ u2.T
    else:
        z = parts[:-1] / norm
    return RetrievalResult(
        Z=z,
        rank_used=fmap.rank,
        degree_used=poly.degree,
        wall_time=time.perf_counter() - start,
        error_bound=lowrank_error_bound(memory.count, b, cfg.delta_a),
    )


def lowrank_error_bound(m_count: int, b: float, delta_a: float) -> float:
    """The low-rank guarantee 2 M B delta_a on the max-norm retrieval error,
    for M stored patterns with entries bounded by B."""
    return 2.0 * m_count * b * delta_a


def max_norm_error(zt: np.ndarray, z: np.ndarray) -> float:
    zt = np.asarray(zt, dtype=float)
    z = np.asarray(z, dtype=float)
    if zt.shape != z.shape:
        raise DimensionMismatch(f"shapes {zt.shape} and {z.shape} differ")
    if zt.size == 0:
        return 0.0
    return float(np.max(np.abs(zt - z)))


def separation(memory: PatternMatrix, mu: int) -> float:
    """Delta_mu = min over nu != mu of <xi_mu, xi_mu> - <xi_mu, xi_nu>."""
    if memory.count < 2:
        raise SingleMemory("separation needs at least two stored patterns")
    xi_mu = memory.data[:, mu]
    inner = memory.data.T @ xi_mu
    self_ip = inner[mu]
    others = np.delete(inner, mu)
    return float(self_ip - np.max(others))


def pattern_radius(memory: PatternMatrix) -> float:
    """Half the minimal pairwise distance between stored patterns."""
    if memory.count < 2:
        raise SingleMemory("pattern_radius needs at least two stored patterns")
    x = memory.data.T
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, np.inf)
    return 0.5 * float(np.sqrt(max(np.min(d2), 0.0)))


def retrieval_error_bound(
    memory: PatternMatrix, x, mu: int, beta: float, b: float, delta_a: float
) -> float:
    """One-step retrieval error bound: crosstalk term plus the low-rank
    approximation margin 2 M B delta_a.  The max over nu includes nu = mu."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != memory.d:
        raise DimensionMismatch(f"query length {x.shape[0]} != d {memory.d}")
    m_count = memory.count
    xi_mu = memory.data[:, mu]
    gap = float(xi_mu @ x) - float(np.max(memory.data.T @ xi_mu))
    crosstalk = 2.0 * b * (m_count - 1) * float(np.exp(-beta * gap))
    return crosstalk + lowrank_error_bound(m_count, b, delta_a)


@dataclass
class Trajectory:
    points: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    converged_to: int | None = None
    converged_at_step: int | None = None


def fixed_point_iterate(
    memory: PatternMatrix,
    x0,
    cfg: RetrievalConfig,
    steps: int,
    eps: float,
) -> Trajectory:
    """Iterate the retrieval map from x0, recording energies; reports the first
    stored index reached within eps (2-norm), if any.

    The dynamics always uses the query-softmax convention; cfg.solver picks
    the dense or low-rank evaluation path.  Each step's energy is the exact
    dense ``energy``, whose scores s = Xi^T x cost O(Md) on either solver, so
    a low-rank step is not O(rd).  The low-rank normalizer would give the
    lse in O(rd), but off by up to log(1 + delta_a) / beta; the exact energy
    keeps the recorded energies independent of the solver's approximation.

    The convergence check reuses s.  Column j's squared distance is
    n_j^2 - 2 s_j + x.x, n_j the column norm the memory keeps, and that
    screen, as computed, is within 8 d u (max n^2 + x.x) of the exact square
    (u = 2^-53: n_j within 2(d - 1) u relative, hypot being within an ulp,
    s_j and x.x within gamma_d of their dot products, two more roundings).
    The distance the check compares with eps, the 2-norm of xi_j - x as
    ``np.linalg.norm`` rounds it, is at least the exact one times
    1 - (d + 5) u / 2.  So a column whose rounded distance is at most eps
    screens below eps^2 (1 + c) + c (max n^2 + x.x) plus 1e-300 for
    underflow, c = 16 (d + 1) u, which holds twice both margins.  Only when
    the minimum screen is at most that bound, or a value is not finite or
    above 1e300, are the distances computed as before and the first nearest
    column taken, so hits and steps are the ones every distance would give.
    """
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != memory.d:
        raise DimensionMismatch(f"query length {x.shape[0]} != d {memory.d}")
    retrieve = retrieve_lowrank if cfg.solver == "lowrank" else retrieve_dense
    query_cfg = replace(cfg, normalization=Normalization.QUERY)
    sq_norms = _dense_side(memory)[1] ** 2
    top = float(sq_norms.max())
    slack = 16 * (memory.d + 1) * 2.0**-53
    column = np.empty((memory.d, 1))
    batch = PatternMatrix(column, role="query")  # a view: it follows column
    traj = Trajectory(points=[x.copy()], energies=[energy(memory, x, cfg.beta)])
    for step in range(1, steps + 1):
        column[:, 0] = x
        x = retrieve(memory, batch, query_cfg).Z[:, 0]
        traj.points.append(x.copy())
        scores = memory.data.T @ x  # energy's own product, so the same bits
        xx = float(x @ x)
        traj.energies.append(-lse(cfg.beta, scores) + 0.5 * xx)
        scores *= -2.0
        scores += sq_norms
        bound = eps * eps * (1.0 + slack) + slack * (top + xx) + 1e-300
        if np.minimum.reduce(scores) + xx > bound and top + xx < 1e300:
            continue
        dists = np.linalg.norm(memory.data - x[:, None], axis=0)
        hit = int(np.argmin(dists))
        if dists[hit] <= eps:
            traj.converged_to = hit
            traj.converged_at_step = step
            break
    return traj
