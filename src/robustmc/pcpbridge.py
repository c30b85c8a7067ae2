"""Low-rank plus sparse view of robust completion.

The Huber criterion and the penalized decomposition

    0.5*||P(X) - P(L + S)||_F^2 + gamma*||L||_* + c*||S||_1

share the same low-rank minimizer: eliminating S entrywise (a scalar
soft-threshold of the residual) turns the decomposition objective into the
Huber one.  This module provides that elimination (`extract_sparse`) and
the decomposition objective, which needs no solver of its own: on the
observed entries x - extract_sparse(L) is pseudo_data(x, L, c), so
block-coordinate descent on it is `general_robust`'s outer round.  With L
its y_hat, the pair is LowRankSparsePair(L, extract_sparse(problem, L, c)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError
from .matcore import Problem, _frozen, as_matrix, nuclear_norm
from .huber import soft_threshold_scalar


@dataclass(frozen=True, eq=False)
class LowRankSparsePair:
    """Candidate decomposition; the sparse part lives on the observed set."""

    low_rank: np.ndarray
    sparse: np.ndarray

    def __post_init__(self):
        low_rank = as_matrix(self.low_rank, "low_rank")
        sparse = as_matrix(self.sparse, "sparse", low_rank.shape)
        object.__setattr__(self, "low_rank", _frozen(low_rank))
        object.__setattr__(self, "sparse", _frozen(sparse))


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
