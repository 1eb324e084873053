"""Explicit low-rank factorization of P(X Y^T) through monomial feature maps.

For a degree-g power-basis polynomial P and pattern dimension d, the paired
multi-indices ``alpha`` with ``|alpha| <= g`` carry all the weight of the
multinomial expansion of ``P(<u, v>)``, giving the exact factorization

    P(<u, v>) = < phi_u(u), phi_v(v) >,
    phi_u(u)[alpha] = c_{|alpha|} * multinomial(|alpha|; alpha) * u^alpha,
    phi_v(v)[alpha] = v^alpha,

with rank C(d+g, g).  Indices are kept in graded-lexicographic order and each
monomial is built from its parent by a single multiplication, so factor
matrices cost O(rows * rank) multiplications.  The work is written into a
rank x n buffer in one of two orders (``_monomial_buffer``, the one place
that picks it), and the n x rank arrays handed back are transposed views of
it: Fortran-ordered when the buffer holds one monomial per row, C-ordered
when it is row-major; callers must assume neither.  A caller that walks its
rows in blocks lets the first, largest block allocate its buffer and passes
that buffer (``out``) for every later block, so no later block allocates.

The parent of an alpha of degree t+1 drops one unit from its first nonzero
slot v.  Within a level in lexicographic order, the indices that are zero
before slot v form a prefix of length C(t+d-1-v, t), and adding e_v keeps
their order.  So level t+1 is the concatenation, for v = d-1 down to 0, of
that prefix of level t times variable v: one in-place multiplication of
contiguous rows per run, with no gather and no sort.  The multinomials follow
m(alpha + e_v) = m(alpha) (t+1) / (alpha_v + 1) in exact integers before one
conversion to float: int64 up to degree 19, Python ints above.  At rank
203,490 the int64 count took the build from 20 to 6-8 ms (best of 3 calls).

In a buffer with one monomial per row, each multiplication of that loop runs
numpy inner loops as long as the block has rows.  The query blocks of a
high-rank map have few rows (20 at rank 203,490), so there the loop pays per
inner loop, not per entry.  A block whose rank exceeds ``ROW_MAJOR_RATIO``
times its rows is therefore laid out row-major, the transpose of a rows x
rank C array, and each multiplication runs along a run of a level instead.
The products and operands are the same, and so are the bits.  Median
milliseconds per block of the prefix loop on a 2-vCPU Xeon, out buffer
reused, two runs:

    d   g     rank   rows   rank / rows   one per row   row-major   order picked
    8   5    1,287    256             5     0.30-0.35   0.74-0.87   one per row
    8   8   12,870    325            40     6.57-8.29   7.80-9.33   one per row
    8   8   12,870      8         1,609     0.20-0.31   0.24-0.37   one per row
    8   8   12,870      4         3,218     0.26-0.30   0.26-0.29   row-major
    4  20   10,626      8         1,328     0.20-0.21   0.25-0.26   one per row
    8   9   24,310     16         1,519     0.45-0.47   0.49-0.52   one per row
    8   9   24,310      8         3,039     0.31-0.34   0.31-0.33   row-major
    8  10   43,758     95           461     7.08-7.25   5.95-6.21   one per row
    8  10   43,758     32         1,367     1.50-1.75   1.61-1.88   one per row
    8  10   43,758      8         5,470     0.52-0.56   0.44-0.47   row-major
    8  11   75,582     55         1,374     7.95-13.0   5.87-6.75   one per row
    8  11   75,582     32         2,362     2.62-3.62   2.40-3.29   row-major
    8  13  203,490     41         4,963     17.9-24.1   11.2-13.0   row-major
    8  13  203,490     20        10,174     7.57-7.68   5.04-5.42   row-major

No single ratio separates the two orders: row-major also won on the largest
blocks at 461 and 1,374, but lost up to 1.26x on small blocks near 1,500.
2,048 is the power of two above which it lost by more than 3% on no block
measured.  Blocks built by the fold or by gathers (below) keep one monomial
per row: at rank 6,435 and 2 rows row-major ran 5x slower for the fold
(353-379 against 67-72 us) and 7x for gathers (217-233 against 31-33 us).

That prefix loop makes g d numpy calls whatever n is, and at a few rows each
call costs its overhead, not its arithmetic.  So a small block takes one of
two forms that make fewer calls and compute the same products of the same
operands, so they return the same bits:

- The fold.  The block's first d + 1 rows, the constant 1 and the variables,
  are the prefix loop's first two levels (1.0 x_v is x_v).  Each monomial of
  degree 2 and up has a chain: the variables the prefix loop multiplies
  along its line of parents, as rows of those d + 1, padded with the row of
  ones up to length g (multiplying by 1.0 is exact).  One ``take`` gathers
  every chain, and one ``np.multiply.reduce`` over the chain axis folds
  them from the left, in the prefix loop's order: three numpy calls, but g
  multiplications per monomial, so its budget is on the chains' g x rank x
  n entries, ``FOLD_BLOCK_ELEMENTS``.
- Gathers.  One multiplication per level: the parents of level t+1,
  gathered from level t, times the gathered variable rows, each monomial
  keeping the parent and variable the prefix loop gives it.  That is 3 g
  calls and one multiplication per monomial, with level-sized temporaries,
  for blocks of rank x n at most ``GATHER_BLOCK_ELEMENTS``.

Both plans are derived from the prefix plan on a map's first such block and
kept on the map.  A map of degree 0 is one constant, and no form makes a
call for it.  Median microseconds per block on a 2-vCPU Xeon, out buffer
reused, medians of 200 calls, three runs; the form picked is starred:

    d   g   rank   rows   chain entries   prefix loop   gathers       fold
    4   4     70      1             280         44       12          6*
    4   5    126      1             630         55-56    15          7*
    8   5  1,287      1           6,435        103-107   15-20      13-17*
   64   2  2,145      1           4,290        321-332   15-16      14-15*
    4   4     70     29           8,120         47-49    17         12*
    8   4    495      4           7,920         88-90    17         12*
   16   3    969      2           5,814        139-144   16-17      12-13*
    1  13     14     45           8,190         35-42    26-33       9-11*
    4   1      5  1,638           8,190         22-23    17-18       9-10*
    4   4     70     58          16,240         47-51    19-21*     15-18
    8   4    495      8          15,840         90-98    20-21*     23-24
   16   3    969      5          14,535        139-140   24-25*     25-26
    8   5  1,287      2          12,870        102-132   19-25*     20
    4  13  2,380      1          30,940        142-147   46-47*     60-61
    8   7  6,435      1          45,045        145-151   45-47*     82-91
    8   7  6,435      2          90,090        212-226   53-57*     92-109
    8   2     45    364          32,760         48-59    26-31*     23-25
    4   4     70    234          65,520         58-64    36-40*     45-47
    4   4     70    235          65,800         61-65*   38-40      45-46

2^13 chain entries is the largest power of two where the fold lost to
gathers on no map measured; at 2^14 it lost by up to 15% (d = 8, g = 4).
Past it the fold still wins where d is small and g high (d = 1 or 2 at
degree 13 or 30: 30-32 against 75-80 us at d = 2, g = 30, one row), since
gathers make 3 g calls; the budget does not follow those maps.  The gather
budget on rank x n, 2^14, is the largest power of two where gathers beat
the prefix loop at every rank measured (at 2^15 they lost 2.7x at rank 45,
though they still win just past 2^14, as in the last row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SizeOverflow
from .poly_approx import ExpPolynomial

# the largest rank build_feature_map builds; a larger map raises SizeOverflow
RANK_CAP = 10**6

# the most chain entries (g x rank x rows) of a block built by one fold of
# gathered variables, the largest block (rank x rows) built by one
# multiplication per level of gathered operands, and the rank / rows above
# which a larger block is laid out row-major; all measured in the module
# docstring
FOLD_BLOCK_ELEMENTS = 2**13
GATHER_BLOCK_ELEMENTS = 2**14
ROW_MAJOR_RATIO = 2048


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialized float array that starts on a 64-byte boundary.  At
    the 16-, 32- and 48-byte offsets malloc may return, the dense path's
    matmuls over a 4 x 4096 memory ran 4-8% slower, and the prefix loop over
    a 126 x 16,384 QUERY block 1.6 -> 2.2-2.5 ms (Xeon); which offset a
    buffer gets depends on the process's allocation history.  Below 4 KiB
    the 2 us it takes to read an array's address costs more than it saves."""
    size = math.prod(shape)
    if size < 512:
        return np.empty(shape)
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start : start + size].reshape(shape)


def _monomial_buffer(rank: int, rows: int) -> np.ndarray:
    """An uninitialized rank x rows ``out`` for ``MonomialFeatureMap.monomials``
    on a 64-byte boundary.  A block the prefix loop builds whose rank exceeds
    ``ROW_MAJOR_RATIO`` times its rows is the transpose of a rows x rank C
    array, so each multiply runs along a run of a level rather than along
    the few rows; any other block is a C array, one monomial per row.  The
    fold's blocks lie inside the gather budget, as ``FOLD_BLOCK_ELEMENTS``
    is at most ``GATHER_BLOCK_ELEMENTS`` and g >= 1."""
    if rank > ROW_MAJOR_RATIO * rows and rank * rows > GATHER_BLOCK_ELEMENTS:
        return _aligned_empty((rows, rank)).T
    return _aligned_empty((rank, rows))


@dataclass(frozen=True, eq=False)
class MonomialFeatureMap:
    """Index set, weights, and single-multiplication build plan for the
    factorization of one ExpPolynomial at one pattern dimension."""

    d: int
    g: int
    exponents: np.ndarray  # rank x d
    weights: np.ndarray  # rank
    rank: int
    # build plan: _prefixes[t][k] is how many leading indices of degree t
    # are multiplied by variable d-1-k to give the next run of degree t+1.
    # The fold's chains and the gather form's plan are derived from it on
    # first use and kept in __dict__["_chains"] and __dict__["_gather"]
    _prefixes: tuple = field(repr=False)

    def monomials(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate all monomials at each row of ``rows`` (shape n x d).

        Returns the transpose of the first n columns of ``out``, or of a new
        ``_monomial_buffer``.  ``out`` is a rank x m float array with m >= n,
        in one of two orders: rank-major, with contiguous rows (one monomial
        per row, so the result is Fortran-ordered), or row-major, the
        transpose of an m x rank C array (the result is C-ordered).  A
        caller walking rows in blocks reuses one buffer.  A block of a map
        of degree g >= 1 whose chains (g x rank x n) hold at most
        ``FOLD_BLOCK_ELEMENTS`` entries is one fold over the gathered
        variables of every monomial's chain; any other block of at most
        ``GATHER_BLOCK_ELEMENTS`` entries takes one multiplication per
        level, of gathered parents by gathered variables; a larger one takes
        one per run, of a contiguous slice of the level before it by one
        variable of ``rows.T``, copied only if it is not already
        C-contiguous.  All three write in place and give the same bits."""
        if type(rows) is not np.ndarray or rows.dtype != float:
            rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.d:
            raise DimensionMismatch(
                f"expected shape (*, {self.d}), got {rows.shape}"
            )
        if out is None:
            out = _monomial_buffer(self.rank, rows.shape[0])
        elif out.shape[0] != self.rank or out.shape[1] < rows.shape[0]:
            raise DimensionMismatch(
                f"out must be ({self.rank}, >= {rows.shape[0]}), got {out.shape}"
            )
        elif out.dtype != float or not (
            out.strides[1] == out.itemsize or out.T.flags.c_contiguous
        ):
            raise ValueError(
                "out must be a float array with contiguous rows or the "
                "transpose of a C array"
            )
        else:
            out = out[:, : rows.shape[0]]
        if not rows.shape[0]:
            return out.T
        out[0] = 1.0
        if self.g and self.g * self.rank * rows.shape[0] <= FOLD_BLOCK_ELEMENTS:
            chains = self.__dict__.get("_chains")
            if chains is None:
                chains = self.__dict__["_chains"] = _chains(self.d, self._prefixes)
            # the prefix loop's degree-1 level, 1.0 * x_v, is x_v itself
            out[1 : self.d + 1] = rows.T[::-1]
            np.multiply.reduce(
                out[: self.d + 1].take(chains, 0), axis=0, out=out[self.d + 1 :]
            )
            return out.T
        if self.rank * rows.shape[0] <= GATHER_BLOCK_ELEMENTS:
            plan = self.__dict__.get("_gather")
            if plan is None:
                plan = self.__dict__["_gather"] = _gather_plan(self.d, self._prefixes)
            cols, dst = rows.T, 1
            for parents, variables in plan:
                stop = dst + len(parents)
                np.multiply(
                    out.take(parents, 0), cols.take(variables, 0), out=out[dst:stop]
                )
                dst = stop
            return out.T
        cols = np.ascontiguousarray(rows.T)
        src, dst = 0, 1  # first row of the parent level and of the next run
        for sizes in self._prefixes:
            for var, n in zip(range(self.d - 1, -1, -1), sizes):
                np.multiply(out[src : src + n], cols[var], out=out[dst : dst + n])
                dst += n
            src += sizes[-1]  # the prefix for variable 0 is the whole level
        return out.T


def _gather_plan(d: int, prefixes: tuple) -> tuple:
    """Per degree level t, (parents, variables): for each monomial of level
    t+1 in order, its parent's index in the full basis and the variable that
    multiplies it, the same pairs the prefix loop of ``prefixes`` uses."""
    plan, src = [], 0
    for sizes in prefixes:
        parents = np.concatenate([np.arange(src, src + n) for n in sizes])
        plan.append((parents, np.repeat(np.arange(d - 1, -1, -1), sizes)))
        src += sizes[-1]
    return tuple(plan)


def _chains(d: int, prefixes: tuple) -> np.ndarray:
    """The g x (rank - d - 1) chain plan of the monomials of degree 2 and
    up: column k lists, in order, the variables the prefix loop of
    ``prefixes`` multiplies along the monomial's line of parents, as rows of
    the block's first d + 1 (the constant 1 at row 0, variable v at row
    d - v), then row 0 up to length g.  A left fold of each column makes the
    prefix loop's products of the same operands, since multiplying by 1.0
    is exact."""
    rank = 1 + sum(map(sum, prefixes))
    chains = np.zeros((len(prefixes), rank), dtype=np.intp)
    src, dst = 0, 1
    for t, sizes in enumerate(prefixes):
        for var, n in zip(range(d - 1, -1, -1), sizes):
            chains[:, dst : dst + n] = chains[:, src : src + n]
            chains[t, dst : dst + n] = d - var
            dst += n
        src += sizes[-1]
    return np.ascontiguousarray(chains[:, d + 1 :])


def build_feature_map(p: ExpPolynomial, d: int) -> MonomialFeatureMap:
    """Feature map realizing P(<u, v>) = <phi_u(u), phi_v(v)> exactly.

    All coefficient weight (polynomial coefficient times multinomial) sits on
    the phi_u side; phi_v is pure monomials.  A rank above ``RANK_CAP``
    raises ``SizeOverflow`` before anything is built.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    g = p.degree
    rank = math.comb(d + g, g)
    if rank > RANK_CAP:
        raise SizeOverflow(f"rank C({d}+{g}, {g}) = {rank} exceeds cap {RANK_CAP}")
    level = np.zeros((1, d), dtype=np.int64)
    # every product m(alpha) (t+1) below is at most (g+1)!, so int64 counts
    # exactly up to degree 19; Python ints are exact at any degree
    count_type = np.int64 if math.factorial(g + 1) < 2**63 else object
    multinomials = np.ones(1, dtype=count_type)
    exps, weights = [level], [p.coeffs[0] * multinomials.astype(float)]
    prefixes = []
    for t in range(g):
        # the degree-t indices that are zero before slot v: C(t+d-1-v, t)
        sizes = tuple(math.comb(t + k, t) for k in range(d))
        runs, counts = [], []
        for v, n in zip(range(d - 1, -1, -1), sizes):
            child = level[:n].copy()
            child[:, v] += 1
            runs.append(child)
            # m(alpha + e_v) = m(alpha) (t+1) / (alpha_v + 1), exact in integers
            counts.append(multinomials[:n] * (t + 1) // child[:, v].astype(count_type))
        level, multinomials = np.concatenate(runs), np.concatenate(counts)
        exps.append(level)
        weights.append(p.coeffs[t + 1] * multinomials.astype(float))
        prefixes.append(sizes)
    return MonomialFeatureMap(
        d=d,
        g=g,
        exponents=np.concatenate(exps),
        weights=np.concatenate(weights),
        rank=rank,
        _prefixes=tuple(prefixes),
    )


def build_factor_matrices(
    fmap: MonomialFeatureMap, x_rows: np.ndarray, y_rows: np.ndarray, out=None
):
    """U1 (rows phi_u of x_rows) and U2 (rows phi_v of y_rows) with
    U1 @ U2.T == P(x_rows @ y_rows.T) entrywise.

    Both are n x rank transposed views of the buffers ``monomials`` writes,
    Fortran- or C-ordered as ``_monomial_buffer`` picks from the side's
    shape; the weights are applied to U1 in place.  ``out`` is the buffer
    for a call with one empty side: the other side's factor is written into
    it, as in ``MonomialFeatureMap.monomials``.  An empty side builds and
    weights nothing; its factor is a new 0 x rank array."""
    x_rows, y_rows = _as_rows(x_rows, fmap.d), _as_rows(y_rows, fmap.d)
    if x_rows.shape[1] != fmap.d or y_rows.shape[1] != fmap.d:
        raise DimensionMismatch(
            f"row width must be {fmap.d}, got {x_rows.shape[1]} and {y_rows.shape[1]}"
        )
    if out is not None and len(x_rows) and len(y_rows):
        raise ValueError("out holds one side's factor; one side must be empty")
    u1 = u2 = np.empty((0, fmap.rank))
    if len(x_rows):
        u1 = fmap.monomials(x_rows, out)
        u1 *= fmap.weights
    if len(y_rows):
        u2 = fmap.monomials(y_rows, out)
    return u1, u2


def _as_rows(rows, d: int) -> np.ndarray:
    """``rows`` as a 2-D float array, an empty one as 0 x d.  A 2-D float
    array is taken as it is, which is what the conversion would return."""
    if type(rows) is not np.ndarray or rows.dtype != float or rows.ndim != 2:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return rows if rows.size or rows.shape[1] == d else rows.reshape(0, d)


def factored_row_sums(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Row sums of U1 @ U2.T in O((M+L) r) without forming the product.

    U2's column sums are a product with a ones vector, one BLAS
    matrix-vector product over the Fortran-ordered U2: at 4,096 x 1,287 it
    took 0.9-1.7 ms against 1.8-2.2 ms for ``u2.sum(axis=0)`` (2-vCPU Xeon),
    with sums that differ by at most 8.9e-16 relative."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.ndim != 2 or u2.ndim != 2 or u1.shape[1] != u2.shape[1]:
        raise DimensionMismatch(
            f"factor shapes {u1.shape} and {u2.shape} do not share an inner dimension"
        )
    return u1 @ (np.ones(len(u2)) @ u2)
