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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SizeOverflow
from .poly_approx import ExpPolynomial

DEFAULT_RANK_CAP = 10**6


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
    # are multiplied by variable d-1-k to give the next run of degree t+1
    _prefixes: tuple = field(repr=False)

    def monomials(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate all monomials at each row of ``rows`` (shape n x d).

        Returns an n x rank transposed view of a rank x n buffer (Fortran
        order): a new one, or the first n columns of ``out``, a rank x m
        float array with m >= n and contiguous rows, so that a caller walking
        rows in blocks reuses one buffer.  Each run of a level is one
        multiplication of a contiguous slice of the level before it by one
        variable, written in place.  The buffer is filled from ``rows.T``,
        which is copied only if it is not already C-contiguous."""
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
        cols = np.ascontiguousarray(rows.T)
        out[0] = 1.0
        src, dst = 0, 1  # first row of the parent level and of the next run
        for sizes in self._prefixes:
            for var, n in zip(range(self.d - 1, -1, -1), sizes):
                np.multiply(out[src : src + n], cols[var], out=out[dst : dst + n])
                dst += n
            src += sizes[-1]  # the prefix for variable 0 is the whole level
        return out.T


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
    ``MonomialFeatureMap.monomials``."""
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
    u1 = fmap.monomials(x_rows, out)
    u1 *= fmap.weights
    u2 = fmap.monomials(y_rows, out)
    return u1, u2


def factored_row_sums(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Row sums of U1 @ U2.T in O((M+L) r) without forming the product."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.ndim != 2 or u2.ndim != 2 or u1.shape[1] != u2.shape[1]:
        raise DimensionMismatch(
            f"factor shapes {u1.shape} and {u2.shape} do not share an inner dimension"
        )
    return u1 @ u2.sum(axis=0)
