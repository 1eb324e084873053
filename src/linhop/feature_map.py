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
C-ordered rank x n buffer holds one monomial per row, so each level gathers
whole contiguous parent rows.  The n x rank arrays handed back are transposed
views of that buffer (Fortran order); callers must not assume C-contiguity.

The map is built level by level: each alpha of degree t spawns the children
alpha + e_v for every slot v at or after its last nonzero slot, so every alpha
of degree t+1 has exactly one parent (drop one unit from its last nonzero
slot).  A lexsort puts each level in ascending lexicographic order, and the
multinomials follow m(alpha + e_v) = m(alpha) (t+1) / (alpha_v + 1) in exact
integers before one conversion to float.
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
    # build plan: column k (k >= 1) is column _parents[k-1] times variable
    # _vars[k-1] of the input row
    _parents: np.ndarray = field(repr=False)
    _vars: np.ndarray = field(repr=False)
    # first column of each degree, then rank: degree t is _bounds[t]:_bounds[t+1]
    _bounds: tuple = field(repr=False)

    def monomials(self, rows: np.ndarray) -> np.ndarray:
        """Evaluate all monomials at each row of ``rows`` (shape n x d).

        Returns an n x rank transposed view of a rank x n buffer (Fortran
        order).  The buffer is filled from ``rows.T``, which is copied only if
        it is not already C-contiguous."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.d:
            raise DimensionMismatch(
                f"expected shape (*, {self.d}), got {rows.shape}"
            )
        cols = np.ascontiguousarray(rows.T)
        out = np.empty((self.rank, rows.shape[0]))
        out[0] = 1.0
        # a level's parents all lie in the level before it, so one gather of
        # whole parent rows keeps the single-multiplication recurrence vectorized
        for start, stop in zip(self._bounds[1:], self._bounds[2:]):
            parents = self._parents[start - 1 : stop - 1]
            variables = self._vars[start - 1 : stop - 1]
            level = out[start:stop]
            np.take(out[:start], parents, axis=0, out=level, mode="clip")
            level *= cols[variables]
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
    no_parent = np.empty(0, dtype=np.int64)  # degree 0 is the root
    parents, variables = [no_parent], [no_parent]
    bounds = [0, 1]
    for t in range(g):
        last = np.max((level > 0) * np.arange(d), axis=1)
        counts = d - last
        src = np.repeat(np.arange(len(level)), counts)
        # v runs from last to d-1 within each parent's run of children
        var = np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts - last, counts)
        child = level[src]
        child[np.arange(len(src)), var] += 1
        order = np.lexsort(child.T[::-1])
        level, src, var = child[order], src[order], var[order]
        # m(alpha + e_v) = m(alpha) (t+1) / (alpha_v + 1), exact in integers
        raised = level[np.arange(len(level)), var].astype(object)
        multinomials = multinomials[src] * (t + 1) // raised
        exps.append(level)
        weights.append(p.coeffs[t + 1] * multinomials.astype(float))
        parents.append(bounds[t] + src)
        variables.append(var)
        bounds.append(bounds[-1] + len(level))
    return MonomialFeatureMap(
        d=d,
        g=g,
        exponents=np.concatenate(exps),
        weights=np.concatenate(weights),
        rank=rank,
        _parents=np.concatenate(parents),
        _vars=np.concatenate(variables),
        _bounds=tuple(bounds),
    )


def build_factor_matrices(
    fmap: MonomialFeatureMap, x_rows: np.ndarray, y_rows: np.ndarray
):
    """U1 (rows phi_u of x_rows) and U2 (rows phi_v of y_rows) with
    U1 @ U2.T == P(x_rows @ y_rows.T) entrywise.

    Both are n x rank transposed views of rank-major buffers (Fortran order);
    the weights are applied to U1 in place."""
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
    u1 = fmap.monomials(x_rows)
    u1 *= fmap.weights
    u2 = fmap.monomials(y_rows)
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
