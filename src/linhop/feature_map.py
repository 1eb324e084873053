"""Explicit low-rank factorization of P(X Y^T) through monomial feature maps.

For a degree-g power-basis polynomial P and pattern dimension d, the paired
multi-indices ``alpha`` with ``|alpha| <= g`` carry all the weight of the
multinomial expansion of ``P(<u, v>)``, giving the exact factorization

    P(<u, v>) = < phi_u(u), phi_v(v) >,
    phi_u(u)[alpha] = c_{|alpha|} * multinomial(|alpha|; alpha) * u^alpha,
    phi_v(v)[alpha] = v^alpha,

with rank C(d+g, g).  Indices are kept in graded-lexicographic order and each
monomial is built from its parent by a single multiplication, so factor
matrices cost O(rows * rank) multiplications.  The work is rank-major: a
C-ordered rank x n buffer holds one monomial per row.  The n x rank arrays
handed back are transposed views of that buffer (Fortran order); callers must
not assume C-contiguity.  A caller that walks its rows in blocks can pass one
buffer (``out``) for every block, so no block allocates.

The parent of an alpha of degree t+1 drops one unit from its first nonzero
slot v.  Within a level in lexicographic order, the indices that are zero
before slot v form a prefix of length C(t+d-1-v, t), and adding e_v keeps
their order.  So level t+1 is the concatenation, for v = d-1 down to 0, of
that prefix of level t times variable v: one in-place multiplication of
contiguous rows per run, with no gather and no sort.  The multinomials follow
m(alpha + e_v) = m(alpha) (t+1) / (alpha_v + 1) in exact integers before one
conversion to float.

That prefix loop makes g d numpy calls whatever n is, and at a few rows each
call costs its overhead, not its arithmetic.  So a small block, rank x n at
most ``GATHER_BLOCK_ELEMENTS``, is built with one multiplication per level
instead: the parents of level t+1, gathered from level t, times the gathered
variable rows.  Each monomial keeps the parent and the variable the prefix
loop gives it, so both forms compute the same products of the same operands
and return the same bits.  The gather plan is derived from the prefix plan on
a map's first small block and kept on the map.  Above the constant the
gathered level-sized temporaries cost more than the calls they save.  Median
microseconds per block on a 2-vCPU Xeon, out buffer reused:

    d   g   rank    rows   rank x rows   prefix loop   gather
    8   2      45      1            45            35        8
    8   2      45    364        16,380            62       34
    8   2      45    728        32,760            79      215
    4   5     126      1           126            46        9
    4   5     126    130        16,380            72       41
    4   5     126    520        65,520            95       81
    8   5   1,287      1         1,287            75       13
    8   5   1,287     12        15,444           102       39
    4  13   2,380      1         2,380           114       45
    4  13   2,380      6        14,280           175       80

At 2^15 elements the gather form lost 2.7x at rank 45, so 2^14 is the largest
power of two where it won at every rank measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SizeOverflow
from .poly_approx import ExpPolynomial

DEFAULT_RANK_CAP = 10**6

# the largest block (rank x rows) built by gathers rather than by the prefix
# loop; measured in the module docstring
GATHER_BLOCK_ELEMENTS = 2**14


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
    # The gather form's plan is derived from it on first use and kept in
    # __dict__["_gather"]
    _prefixes: tuple = field(repr=False)

    def monomials(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate all monomials at each row of ``rows`` (shape n x d).

        Returns an n x rank transposed view of a rank x n buffer (Fortran
        order): a new one, or the first n columns of ``out``, a rank x m
        float array with m >= n and contiguous rows, so that a caller walking
        rows in blocks reuses one buffer.  A block of at most
        ``GATHER_BLOCK_ELEMENTS`` entries takes one multiplication per level,
        of gathered parents by gathered variables; a larger one takes one per
        run, of a contiguous slice of the level before it by one variable of
        ``rows.T``, copied only if it is not already C-contiguous.  Both write
        in place and give the same bits."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.d:
            raise DimensionMismatch(
                f"expected shape (*, {self.d}), got {rows.shape}"
            )
        if out is None:
            out = np.empty((self.rank, rows.shape[0]))
        elif out.shape[0] != self.rank or out.shape[1] < rows.shape[0]:
            raise DimensionMismatch(
                f"out must be ({self.rank}, >= {rows.shape[0]}), got {out.shape}"
            )
        else:
            out = out[:, : rows.shape[0]]
        if not rows.shape[0]:
            return out.T
        out[0] = 1.0
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


def build_feature_map(
    p: ExpPolynomial, d: int, cap: int = DEFAULT_RANK_CAP
) -> MonomialFeatureMap:
    """Feature map realizing P(<u, v>) = <phi_u(u), phi_v(v)> exactly.

    All coefficient weight (polynomial coefficient times multinomial) sits on
    the phi_u side; phi_v is pure monomials.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    g = p.degree
    rank = math.comb(d + g, g)
    if rank > cap:
        raise SizeOverflow(f"rank C({d}+{g}, {g}) = {rank} exceeds cap {cap}")
    level = np.zeros((1, d), dtype=np.int64)
    multinomials = np.ones(1, dtype=object)  # Python ints: exact at any degree
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
            counts.append(multinomials[:n] * (t + 1) // child[:, v].astype(object))
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

    Both are n x rank transposed views of rank-major buffers (Fortran order);
    the weights are applied to U1 in place.  ``out`` is the buffer for a call
    with one empty side: the other side's factor is written into it, as in
    ``MonomialFeatureMap.monomials``.  An empty side builds and weights
    nothing; its factor is a new 0 x rank array."""
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
    y_rows = np.atleast_2d(np.asarray(y_rows, dtype=float))
    if x_rows.size == 0:
        x_rows = x_rows.reshape(0, fmap.d)
    if y_rows.size == 0:
        y_rows = y_rows.reshape(0, fmap.d)
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
