"""Explicit low-rank factorization of P(X Y^T) through monomial feature maps.

For a degree-g power-basis polynomial P and pattern dimension d, the paired
multi-indices ``alpha`` with ``|alpha| <= g`` carry all the weight of the
multinomial expansion of ``P(<u, v>)``, giving the exact factorization

    P(<u, v>) = < phi_u(u), phi_v(v) >,
    phi_u(u)[alpha] = c_{|alpha|} * multinomial(|alpha|; alpha) * u^alpha,
    phi_v(v)[alpha] = v^alpha,

with rank C(d+g, g).  Indices are kept in graded-lexicographic order and each
monomial column is built from its parent by a single multiplication, so factor
matrices cost O(rows * rank) multiplications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SizeOverflow
from .poly_approx import ExpPolynomial

DEFAULT_RANK_CAP = 10**6


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as ordered sums of ``parts`` non-negative
    integers, ascending lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _enumerate_exponents(d: int, g: int, cap: int) -> np.ndarray:
    count = math.comb(d + g, g)
    if count > cap:
        raise SizeOverflow(
            f"rank C({d}+{g}, {g}) = {count} exceeds cap {cap}"
        )
    rows = []
    for total in range(g + 1):
        rows.extend(_compositions(total, d))
    return np.array(rows, dtype=np.int64)


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

    def monomials(self, rows: np.ndarray) -> np.ndarray:
        """Evaluate all monomials at each row of ``rows`` (shape n x d)."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.d:
            raise DimensionMismatch(
                f"expected shape (*, {self.d}), got {rows.shape}"
            )
        out = np.empty((rows.shape[0], self.rank))
        out[:, 0] = 1.0
        if self.rank > 1:
            # extend level by level; fancy indexing keeps the per-column
            # single-multiplication recurrence fully vectorized
            out[:, 1:] = 1.0
            start = 1
            for total in range(1, self.g + 1):
                stop = start + math.comb(total + self.d - 1, self.d - 1)
                sel = slice(start, stop)
                parents = self._parents[start - 1 : stop - 1]
                variables = self._vars[start - 1 : stop - 1]
                out[:, sel] = out[:, parents] * rows[:, variables]
                start = stop
        return out


def _multinomial(exp_row) -> float:
    total = int(sum(exp_row))
    val = math.factorial(total)
    for e in exp_row:
        val //= math.factorial(int(e))
    return float(val)


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
    exps = _enumerate_exponents(d, g, cap)
    rank = exps.shape[0]
    coeffs = np.asarray(p.coeffs)
    totals = exps.sum(axis=1)
    weights = coeffs[totals] * np.array([_multinomial(row) for row in exps])

    # build plan: parent of alpha drops one unit from its last nonzero slot
    index_of = {tuple(row): k for k, row in enumerate(map(tuple, exps))}
    parents = np.empty(rank - 1 if rank > 1 else 0, dtype=np.int64)
    variables = np.empty_like(parents)
    for k in range(1, rank):
        row = exps[k]
        var = int(np.max(np.nonzero(row)[0]))
        parent = list(row)
        parent[var] -= 1
        parents[k - 1] = index_of[tuple(parent)]
        variables[k - 1] = var
    return MonomialFeatureMap(
        d=d,
        g=g,
        exponents=exps,
        weights=weights,
        rank=rank,
        _parents=parents,
        _vars=variables,
    )


def build_factor_matrices(
    fmap: MonomialFeatureMap, x_rows: np.ndarray, y_rows: np.ndarray
):
    """U1 (rows phi_u of x_rows) and U2 (rows phi_v of y_rows) with
    U1 @ U2.T == P(x_rows @ y_rows.T) entrywise."""
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
    u1 = fmap.monomials(x_rows) * fmap.weights[None, :]
    u2 = fmap.monomials(y_rows)
    return u1, u2


def factored_row_sums(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Row sums of U1 @ U2.T in O((M+L) r) without forming the product."""
    u1, u2 = _check_factors(u1, u2)
    return u1 @ u2.sum(axis=0)


def factored_col_sums(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Column sums of U1 @ U2.T in O((M+L) r)."""
    u1, u2 = _check_factors(u1, u2)
    return u2 @ u1.sum(axis=0)


def _check_factors(u1, u2):
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.ndim != 2 or u2.ndim != 2 or u1.shape[1] != u2.shape[1]:
        raise DimensionMismatch(
            f"factor shapes {u1.shape} and {u2.shape} do not share an inner dimension"
        )
    return u1, u2
