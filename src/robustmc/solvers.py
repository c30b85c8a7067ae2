"""Completion solvers.

Three entry points:

* `soft_impute` -- the non-robust baseline.  Repeatedly fills the missing
  entries with the current estimate and soft-thresholds the spectrum, which
  minimizes  0.5*||P(X) - P(Y)||_F^2 + gamma*||Y||_*  (squared loss).
* `general_robust` -- wraps *any* non-robust completer.  Each outer round
  replaces the observations by surrogate values whose squared-loss gradient
  matches the Huber gradient at the current estimate, then re-completes.
* `robust_impute` -- the fused fast variant: the surrogate construction is
  interleaved directly with the spectral shrinkage steps and swept along a
  decreasing gamma path with warm starts.

Beside them sit their objectives, `objective_f` and `objective_g`, and the
low-rank + sparse bridge to the latter: `objective_pcp` and `extract_sparse`.

Every solver run owns its state; returned Solution objects are immutable
and hold a per-iteration objective trace (squared-loss objective for
`soft_impute`, Huber objective for the robust solvers) that is
non-increasing, plus the number of spectral-shrinkage SVDs performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DataValidationError
from .huber import (HuberParams, choose_cutoff, huber_norm_sq, pseudo_data, psi,
                    soft_threshold_scalar)
from .matcore import (
    Problem,
    _frozen,
    _raw_svd,
    as_matrix,
    nuclear_norm,
    shrink_singular_values,
    svd,
)

RANK_TOL = 1e-8

# completer(problem, gamma, y_init) -> Solution; must not increase the
# squared-loss objective relative to the warm start y_init.
Completer = Callable[[Problem, float, np.ndarray], "Solution"]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the path solvers.

    gamma_path       strictly decreasing positive weights; None derives a
                     `gamma_count`-point log-spaced path from the problem.
    cutoff           Huber cutoff; None picks it per gamma via
                     `choose_cutoff` (an explicit value is held fixed
                     across the whole path).
    epsilon          stop once ||Y_new - Y_old||_F^2 / ||Y_old||_F^2 < epsilon.
    max_inner_iters  cap on shrinkage iterations per gamma, and on
                     re-completion rounds in `general_robust`.
    gamma_count      points on the automatic gamma path.
    """

    gamma_path: Optional[tuple] = None
    cutoff: Optional[float] = None
    epsilon: float = 1e-5
    max_inner_iters: int = 500
    gamma_count: int = 20

    def __post_init__(self):
        if self.gamma_path is not None:
            path = tuple(float(g) for g in self.gamma_path)
            if len(path) == 0:
                raise DataValidationError("gamma_path must be nonempty")
            if any(not (g > 0 and np.isfinite(g)) for g in path):
                raise DataValidationError("gamma_path entries must be positive and finite")
            if any(a <= b for a, b in zip(path, path[1:])):
                raise DataValidationError("gamma_path must be strictly decreasing")
            object.__setattr__(self, "gamma_path", path)
        if self.cutoff is not None:
            HuberParams(float(self.cutoff))
        if not (self.epsilon > 0):
            raise DataValidationError(f"epsilon must be positive, got {self.epsilon}")
        for name in ("max_inner_iters", "gamma_count"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
                raise DataValidationError(f"{name} must be an integer >= 1, got {count!r}")

    def resolved(self, problem: Problem) -> "SolverConfig":
        """This config, given the `gamma_count`-point default path if it has none."""
        if self.gamma_path is not None:
            return self
        return replace(self, gamma_path=default_gamma_path(problem, self.gamma_count))


@dataclass(frozen=True, eq=False)
class Solution:
    """One solve at a fixed gamma.

    `objective_trace[0]` is the objective at the starting point of the
    iteration (the warm start), later entries follow each update, so the
    trace being non-increasing is exactly the per-step descent guarantee.
    `final_rank` counts singular values of y_hat above RANK_TOL times the
    largest one.  `cutoff` is the Huber cutoff the stage used, or None for
    squared loss.
    """

    y_hat: np.ndarray
    gamma: float
    iterations: int
    svd_count: int
    objective_trace: tuple
    final_rank: int
    converged: bool
    cutoff: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "y_hat", _frozen(self.y_hat))
        object.__setattr__(self, "objective_trace", tuple(float(v) for v in self.objective_trace))


@dataclass(frozen=True)
class PathSolution:
    """Solutions along a decreasing gamma path, in path order."""

    solutions: tuple

    def __post_init__(self):
        object.__setattr__(self, "solutions", tuple(self.solutions))

    @property
    def gammas(self):
        return tuple(s.gamma for s in self.solutions)

    @property
    def all_converged(self) -> bool:
        return all(s.converged for s in self.solutions)

    def __len__(self):
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def __getitem__(self, i):
        return self.solutions[i]


@dataclass(frozen=True)
class CertificateReport:
    """First-order optimality measurements at a candidate solution.

    tangent_gap      Frobenius distance between the scaled Huber gradient
                     projected on the tangent space of y_hat's singular
                     vectors and the expected u @ v.T.
    orthogonal_norm  spectral norm of the component off that space
                     (must not exceed 1 at an exact minimizer).
    """

    tangent_gap: float
    orthogonal_norm: float
    rank: int

    def passes(self, tol: float = 1e-3) -> bool:
        return (
            self.tangent_gap <= tol * np.sqrt(self.rank)
            and self.orthogonal_norm <= 1.0 + tol
        )


def _rel_change_sq(new: np.ndarray, old: np.ndarray, out=None) -> float:
    """||new - old||_F^2 / ||old||_F^2, the difference taken in ``out`` if given."""
    diff = np.subtract(new, old, out=out)
    num = float(np.multiply(diff, diff, out=diff).sum())
    den = float(np.sum(old * old))
    if den == 0.0:
        # the update rule is undefined at 0; only a literal fixed point stops
        return 0.0 if num == 0.0 else np.inf
    return num / den


def _rank_from_values(s: np.ndarray) -> int:
    """The numerical rank: how many singular values ``s`` exceed RANK_TOL
    times the largest (none of an empty or all-zero ``s``).  On a descending
    ``s`` they are its first entries."""
    return int(np.sum(s > RANK_TOL * float(s.max(initial=0.0))))


def _objective(r, gamma, c, nuc):
    """Squared-loss objective for c=None, Huber objective otherwise, of the
    observed residual vector r and the nuclear norm nuc.

    Every trace value comes from here, so this is where a finite input too
    large for float64 is caught, before it yields an inf trace; numpy's own
    overflow warning is silenced, since the error below reports it.
    """
    with np.errstate(over="ignore"):
        loss = float(np.sum(r * r)) if c is None else huber_norm_sq(r, c)
    value = 0.5 * loss + gamma * nuc
    if not math.isfinite(value):
        raise DataValidationError(
            f"objective overflowed float64 at gamma {gamma:g}; rescale the input")
    return value


def _observed_residual(problem: Problem, y):
    flags = problem.mask.flags
    return problem.values[flags] - as_matrix(y, "y", problem.shape)[flags]


def _cutoff(config, problem, gamma):
    if config.cutoff is not None:
        return config.cutoff
    return choose_cutoff(problem, gamma)


def default_gamma_path(problem: Problem, count: int = SolverConfig.gamma_count) -> tuple:
    """Log-spaced gamma path from 0.95 down to 0.01 times sigma1, the largest
    singular value of the observed matrix: the smallest weight for which the
    squared-loss solution collapses to zero.  Not so for Huber loss, which is
    zero once ``||0.5 * psi_c(P(X))||_2 <= gamma``; outliers barely move that.
    """
    count = SolverConfig(gamma_count=count).gamma_count  # owns the count rule
    _, s, _ = _raw_svd(problem.values)
    sigma1 = float(s[0])
    if sigma1 <= 0.0:
        raise DataValidationError("observed matrix is identically zero; no sensible path")
    return tuple(np.geomspace(0.95 * sigma1, 0.01 * sigma1, count).tolist())


def objective_f(problem: Problem, y, gamma: float) -> float:
    """Squared-loss objective: 0.5*||P(X) - P(Y)||_F^2 + gamma*||Y||_*."""
    return _objective(_observed_residual(problem, y), float(gamma), None, nuclear_norm(y))


def objective_g(problem: Problem, y, gamma: float, c: float) -> float:
    """Huber objective: 0.5*||P(X) - P(Y)||^2_{huber,c} + gamma*||Y||_*."""
    return _objective(_observed_residual(problem, y), float(gamma), c, nuclear_norm(y))


def extract_sparse(problem: Problem, l, c: float) -> np.ndarray:
    """Optimal sparse part given the low-rank part.

    Entrywise soft-threshold of the observed residual X - L by c; zero off
    the mask.  What remains of the residual after subtracting it is exactly
    half the Huber derivative, which is the identity tying the two
    objectives together: eliminating S this way turns `objective_pcp` into
    `objective_g`, and on the observed entries x - S is pseudo_data(x, L, c),
    so block-coordinate descent over (L, S) is `general_robust`'s outer round.
    """
    l = as_matrix(l, "l", problem.shape)
    shrunken = soft_threshold_scalar(problem.values - l, c)
    return np.where(problem.mask.flags, shrunken, 0.0)


def objective_pcp(problem: Problem, low_rank, sparse, gamma: float, c: float) -> float:
    """0.5*||P(X) - P(L + S)||_F^2 + gamma*||L||_* + c*||S||_1, S on the mask."""
    low_rank = as_matrix(low_rank, "low_rank", problem.shape)
    sparse = as_matrix(sparse, "sparse", problem.shape)
    flags = problem.mask.flags
    if np.any(sparse[~flags] != 0.0):
        raise DataValidationError("sparse part must vanish off the observation mask")
    resid = np.where(flags, problem.values - low_rank - sparse, 0.0)
    return (
        0.5 * float(np.sum(resid * resid))
        + float(gamma) * nuclear_norm(low_rank)
        + float(c) * float(np.abs(sparse).sum())
    )


def _stage(problem: Problem, gamma: float, c: Optional[float], y: np.ndarray,
           nuc: float, rank: int, config: SolverConfig, svds: int = 0):
    """One shrinkage stage at a fixed gamma from the warm start y, whose
    nuclear norm is nuc and whose spectrum keeps rank nonzero values.

    Each step copies y into the stage's one fill buffer, writes P(X) (squared
    loss, c=None) or Huber surrogates for cutoff c over its observed entries
    and soft-thresholds its spectrum, until the squared relative change (taken
    in that buffer: the shrinkage's result shares no memory with it) drops
    below config.epsilon.  `svds` counts SVDs already charged to the stage.
    Also returns the nuclear norm and the kept count of y_hat, so the next
    stage needs no SVD and can size a partial one.
    """
    obs = np.flatnonzero(problem.mask.flags)
    x_obs = np.take(problem.values, obs)
    y_obs = np.take(y, obs)
    trace = [_objective(x_obs - y_obs, gamma, c, nuc)]
    converged = False
    iterations = 0
    shrunk = np.zeros(0)
    fill = np.empty(problem.shape)  # C order, so the flat reshape is a view
    for it in range(1, config.max_inner_iters + 1):
        np.copyto(fill, y)
        fill.reshape(-1)[obs] = x_obs if c is None else pseudo_data(x_obs, y_obs, c)
        y_new, shrunk = shrink_singular_values(fill, gamma, rank)
        svds += 1
        nuc, rank = float(shrunk.sum()), np.count_nonzero(shrunk)
        y_obs = np.take(y_new, obs)
        trace.append(_objective(x_obs - y_obs, gamma, c, nuc))
        done = _rel_change_sq(y_new, y, out=fill) < config.epsilon
        y = y_new
        iterations = it
        if done:
            converged = True
            break
    return Solution(y, gamma, iterations, svds, tuple(trace),
                    _rank_from_values(shrunk), converged, c), nuc, rank


def _path(problem: Problem, config: SolverConfig, robust: bool) -> PathSolution:
    """Warm-started `_stage`s along the gamma path; squared loss starts at zero."""
    config = config.resolved(problem)
    if robust:
        y, shrunk = shrink_singular_values(problem.values, config.gamma_path[0])
        nuc, rank, svds = float(shrunk.sum()), np.count_nonzero(shrunk), 1
    else:
        y, nuc, rank, svds = np.zeros(problem.shape), 0.0, 0, 0
    sols = []
    for gamma in config.gamma_path:
        c = _cutoff(config, problem, gamma) if robust else None
        sol, nuc, rank = _stage(problem, gamma, c, y, nuc, rank, config, svds)
        y, svds = sol.y_hat, 0
        sols.append(sol)
    return PathSolution(tuple(sols))


def soft_impute(problem: Problem, gamma: float, y_init=None,
                config: Optional[SolverConfig] = None) -> Solution:
    """Iterate Y <- shrink(P(X) + Pc(Y), gamma) until the relative change
    of successive iterates drops below config.epsilon.

    Hitting config.max_inner_iters is not an error; the Solution comes back
    with converged=False.  Unlike a path, a single solve takes gamma = 0.
    """
    gamma = float(gamma)
    if not 0 <= gamma < math.inf:
        raise DataValidationError(f"gamma must be finite and >= 0, got {gamma}")
    config = config if config is not None else SolverConfig()
    if y_init is None:
        y, nuc = np.zeros(problem.shape), 0.0
    else:
        y = as_matrix(y_init, "y_init", problem.shape)
        nuc = nuclear_norm(y)
    return _stage(problem, gamma, None, y, nuc, 0, config)[0]


def soft_impute_path(problem: Problem, config: Optional[SolverConfig] = None) -> PathSolution:
    """Squared-loss completion along a gamma path, warm-starting each stage
    from the previous solution."""
    return _path(problem, config if config is not None else SolverConfig(), robust=False)


def general_robust(problem: Problem, gamma: float,
                   config: Optional[SolverConfig] = None,
                   completer: Optional[Completer] = None) -> Solution:
    """Robustify an arbitrary completer at a single gamma.

    Starts from zero.  Every round builds surrogate observations from the
    current estimate (observed values kept where the residual is within the
    cutoff, clipped toward the estimate beyond it) and re-completes,
    warm-started at the current estimate.  Descent of the completer implies
    descent of the Huber objective, so the recorded trace is non-increasing.
    Both loops stop on config.epsilon and are capped by
    config.max_inner_iters; a capped solve returns converged=False.
    """
    (gamma,) = SolverConfig(gamma_path=(gamma,)).gamma_path  # owns the gamma rule
    config = config if config is not None else SolverConfig()
    c = _cutoff(config, problem, gamma)
    x = problem.values
    flags = problem.mask.flags
    y, nuc, rank, svds = np.zeros(problem.shape), 0.0, 0, 0
    trace = [_objective(_observed_residual(problem, y), gamma, c, nuc)]
    converged = False
    iterations = 0
    for it in range(1, config.max_inner_iters + 1):
        surrogate = Problem(np.where(flags, pseudo_data(x, y, c), 0.0), problem.mask)
        if completer is None:
            # squared-loss stage; it hands out the nuclear norm it already has
            inner, nuc, rank = _stage(surrogate, gamma, None, y, nuc, rank, config)
        else:
            inner = completer(surrogate, gamma, y)
            nuc = nuclear_norm(inner.y_hat)
        y_new = np.asarray(inner.y_hat, dtype=float)
        svds += inner.svd_count
        trace.append(_objective(_observed_residual(problem, y_new), gamma, c, nuc))
        done = _rel_change_sq(y_new, y) < config.epsilon
        y = y_new
        iterations = it
        if done:
            converged = True
            break
    return Solution(y, gamma, iterations, svds, tuple(trace), inner.final_rank, converged, c)


def robust_impute(problem: Problem, config: Optional[SolverConfig] = None) -> PathSolution:
    """Huber-robust completion along a decreasing gamma path.

    Starts from a single plain shrinkage of the observed matrix, then for
    each gamma repeats: build surrogate observations from the current
    estimate, fill the unobserved entries with the estimate, shrink the
    spectrum.  Each stage is warm-started from the previous one and stops
    on the relative-change rule; a stage hitting the iteration cap is
    flagged converged=False and the path continues.

    svd_count on each Solution counts the shrinkage SVDs of that stage; the
    initial shrinkage is attributed to the first stage.
    """
    return _path(problem, config if config is not None else SolverConfig(), robust=True)


def stationarity_certificate(problem: Problem, y_hat, gamma: float, c: float) -> CertificateReport:
    """Check the first-order optimality of y_hat for the Huber objective.

    At an exact minimizer, half the elementwise Huber derivative of the
    observed residual, divided by gamma, is a subgradient of the nuclear
    norm at y_hat: its tangent-space component equals u @ v.T and the rest
    has spectral norm at most 1.  The report quantifies both; solver error
    is amplified by 1/gamma, so thresholds should be looser than the solve
    tolerance.
    """
    (gamma,) = SolverConfig(gamma_path=(gamma,)).gamma_path  # owns the gamma rule
    y_hat = as_matrix(y_hat, "y_hat", problem.shape)
    resid = np.where(problem.mask.flags, problem.values - y_hat, 0.0)
    m = 0.5 * psi(resid, c) / gamma
    u, s, vt = svd(y_hat)
    r = _rank_from_values(s)
    if r == 0:
        return CertificateReport(0.0, float(np.linalg.norm(m, 2)), 0)
    u, v = u[:, :r], vt[:r].T
    utm = u.T @ m
    tangent = u @ utm + (m @ v) @ v.T - u @ (utm @ v) @ v.T
    gap = float(np.linalg.norm(tangent - u @ v.T, "fro"))
    orth = float(np.linalg.norm(m - tangent, 2))
    return CertificateReport(gap, orth, r)
