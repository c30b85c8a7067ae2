"""Low-rank plus sparse view of robust completion.

The Huber criterion and the penalized decomposition

    0.5*||P(X) - P(L + S)||_F^2 + gamma*||L||_* + c*||S||_1

share the same low-rank minimizer: eliminating S entrywise (a scalar
soft-threshold of the residual) turns the decomposition objective into the
Huber one.  This module provides that elimination (`extract_sparse`), the
decomposition objective, an alternating block solver for it that serves as
an independent cross-check of the Huber solvers, and singular-vector
coherence diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataValidationError
from .matcore import Problem, _frozen, as_matrix, nuclear_norm, svd
from .huber import soft_threshold_scalar
from .solvers import RANK_TOL, SolverConfig, _rank_from_values, soft_impute


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
class PcpSolution:
    """Output of the alternating solver."""

    pair: LowRankSparsePair
    iterations: int
    converged: bool
    objective_trace: tuple

    @property
    def low_rank(self):
        return self.pair.low_rank

    @property
    def sparse(self):
        return self.pair.sparse


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


def solve_pcp_alternating(problem: Problem, gamma: float, c: float,
                          epsilon: float = 1e-8, max_iters: int = 200,
                          inner_epsilon: Optional[float] = None,
                          inner_max_iters: int = 1000) -> PcpSolution:
    """Block-coordinate descent on the low-rank + sparse objective.

    The sparse block has the closed-form `extract_sparse` solution; the
    low-rank block is a full `soft_impute` solve on the outlier-corrected
    observations, warm-started at the current low-rank iterate.  Both block
    updates descend the joint objective, so the trace is non-increasing,
    and since the objective is convex the alternation reaches the same
    optimum as the Huber solvers.  Exists as an independent cross-check,
    not as the recommended solver.
    """
    gamma = float(gamma)
    c = float(c)
    # SolverConfig owns the rules for gamma, the cutoff, the tolerance and the caps
    SolverConfig(gamma_path=(gamma,), cutoff=c, epsilon=epsilon,
                 max_inner_iters=inner_max_iters, max_outer_iters=max_iters)
    if inner_epsilon is None:
        inner_epsilon = epsilon * 1e-2
    x = problem.values
    flags = problem.mask.flags
    l = np.zeros(problem.shape)
    s = np.zeros(problem.shape)
    trace = [objective_pcp(problem, LowRankSparsePair(l, s), gamma, c)]
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        s_new = extract_sparse(problem, l, c)
        corrected = Problem(np.where(flags, x - s_new, 0.0), problem.mask)
        sol = soft_impute(corrected, gamma, l, inner_epsilon, inner_max_iters)
        l_new = np.asarray(sol.y_hat, dtype=float)
        trace.append(objective_pcp(problem, LowRankSparsePair(l_new, s_new), gamma, c))
        num = float(np.sum((l_new - l) ** 2) + np.sum((s_new - s) ** 2))
        den = float(np.sum(l * l) + np.sum(s * s))
        done = (num == 0.0) if den == 0.0 else (num / den < epsilon)
        l, s = l_new, s_new
        iterations = it
        if done:
            converged = True
            break
    return PcpSolution(LowRankSparsePair(l, s), iterations, converged, tuple(trace))


def lambda_from(c: float, gamma: float) -> float:
    """Sparsity-to-rank penalty ratio of the constrained decomposition form."""
    if not (c > 0 and gamma > 0):
        raise DataValidationError(f"c and gamma must be positive, got c={c}, gamma={gamma}")
    return float(c) / float(gamma)


def coherence(l, rank_tol: float = RANK_TOL) -> Coherence:
    """Tight coherence constants of the rank-r singular subspaces of ``l``.

    Rows: (n1/r) * max_i ||row i of U||^2, columns likewise for V, cross:
    (n1*n2/r) * max |U V^T|^2.  Values near 1 mean well-spread singular
    vectors; n1 (or n2) is maximal concentration on one axis.
    """
    l = as_matrix(l, "l")
    if not l.any():
        raise DataValidationError("coherence of the zero matrix is undefined")
    factors = svd(l)
    r = _rank_from_values(factors.singular_values, rank_tol)
    u = factors.u[:, :r]
    v = factors.v[:, :r]
    n1, n2 = l.shape
    mu_rows = n1 / r * float(np.max(np.sum(u * u, axis=1)))
    mu_cols = n2 / r * float(np.max(np.sum(v * v, axis=1)))
    mu_cross = n1 * n2 / r * float(np.max(np.abs(u @ v.T)) ** 2)
    return Coherence(mu_rows, mu_cols, mu_cross)
