"""Low-rank plus sparse view of robust completion.

The Huber criterion and the penalized decomposition

    0.5*||P(X) - P(L + S)||_F^2 + gamma*||L||_* + c*||S||_1

share the same low-rank minimizer: eliminating S entrywise (a scalar
soft-threshold of the residual) turns the decomposition objective into the
Huber one.  This module provides that elimination (`extract_sparse`), the
decomposition objective and singular-vector coherence diagnostics.  The
decomposition needs no solver of its own: on the observed entries
x - extract_sparse(L) is pseudo_data(x, L, c), so block-coordinate descent
on it is `general_robust`'s outer round.  With L its y_hat, the pair is
LowRankSparsePair(L, extract_sparse(problem, L, c)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .matcore import Problem, _frozen, as_matrix, nuclear_norm, svd
from .huber import soft_threshold_scalar
from .solvers import _rank_from_values


@dataclass(frozen=True)
class LowRankSparsePair:
    """Candidate decomposition; the sparse part lives on the observed set."""

    low_rank: np.ndarray
    sparse: np.ndarray

    def __post_init__(self):
        low_rank = as_matrix(self.low_rank, "low_rank")
        sparse = as_matrix(self.sparse, "sparse", low_rank.shape)
        object.__setattr__(self, "low_rank", _frozen(low_rank))
        object.__setattr__(self, "sparse", _frozen(sparse))


@dataclass(frozen=True)
class Coherence:
    """Smallest constants making the spread-out-singular-vector bounds tight."""

    mu_rows: float
    mu_cols: float
    mu_cross: float


def extract_sparse(problem: Problem, l, c: float) -> np.ndarray:
    """Optimal sparse part given the low-rank part.

    Entrywise soft-threshold of the observed residual X - L by c; zero off
    the mask.  What remains of the residual after subtracting it is exactly
    half the Huber derivative, which is the identity tying the two
    objectives together.
    """
    l = as_matrix(l, "l", problem.shape)
    shrunken = soft_threshold_scalar(problem.values - l, c)
    return np.where(problem.mask.flags, shrunken, 0.0)


def objective_pcp(problem: Problem, pair: LowRankSparsePair, gamma: float, c: float) -> float:
    """0.5*||P(X) - P(L + S)||_F^2 + gamma*||L||_* + c*||S||_1."""
    as_matrix(pair.low_rank, "pair", problem.shape)
    flags = problem.mask.flags
    if np.any(pair.sparse[~flags] != 0.0):
        raise DataValidationError("sparse part must vanish off the observation mask")
    resid = np.where(flags, problem.values - pair.low_rank - pair.sparse, 0.0)
    return (
        0.5 * float(np.sum(resid * resid))
        + float(gamma) * nuclear_norm(pair.low_rank)
        + float(c) * float(np.abs(pair.sparse).sum())
    )


def coherence(l) -> Coherence:
    """Tight coherence constants of the rank-r singular subspaces of ``l``.

    Rows: (n1/r) * max_i ||row i of U||^2, columns likewise for V, cross:
    (n1*n2/r) * max |U V^T|^2.  Values near 1 mean well-spread singular
    vectors; n1 (or n2) is maximal concentration on one axis.
    """
    l = as_matrix(l, "l")
    if not l.any():
        raise DataValidationError("coherence of the zero matrix is undefined")
    factors = svd(l)
    r = _rank_from_values(factors.singular_values)
    u = factors.u[:, :r]
    v = factors.v[:, :r]
    n1, n2 = l.shape
    mu_rows = n1 / r * float(np.max(np.sum(u * u, axis=1)))
    mu_cols = n2 / r * float(np.max(np.sum(v * v, axis=1)))
    mu_cross = n1 * n2 / r * float(np.max(np.abs(u @ v.T)) ** 2)
    return Coherence(mu_rows, mu_cols, mu_cross)
