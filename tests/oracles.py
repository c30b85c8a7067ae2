"""Independent re-implementations used as oracles by the test suite.

Spectral shrinkage here is built from the eigendecomposition of the Gram
matrix (never numpy's svd), and the minimizers are plain proximal-gradient
loops with step sizes away from 1, so their fixed points are reached along
a different computational path than the production one-shot operators.
`dense_reference_path` is the exception: it keeps the package's shrinkage
and replays the solvers' stage on whole matrices, to pin their steps.
`partial_svd_oracle` and `certificate_oracle` are copies of earlier
production code that pin its bits, and `csv_text` is the matrix CSV dialect
written out by hand.
"""

import math

import numpy as np


def gram_singular_values(a):
    lam = np.linalg.eigvalsh(np.asarray(a).T @ np.asarray(a))
    return np.sqrt(np.clip(lam, 0.0, None))[::-1]


def nuclear_norm_oracle(a):
    return float(gram_singular_values(a).sum())


def gram_shrink(a, t):
    """Spectral soft-threshold by t, via eigh of a.T @ a."""
    a = np.asarray(a, dtype=float)
    lam, v = np.linalg.eigh(a.T @ a)
    s = np.sqrt(np.clip(lam, 0.0, None))
    scale = np.zeros_like(s)
    pos = s > 0
    scale[pos] = np.maximum(s[pos] - t, 0.0) / s[pos]
    return a @ ((v * scale) @ v.T)


def prox_objective(m, y, gamma):
    return 0.5 * float(np.sum((m - y) ** 2)) + gamma * nuclear_norm_oracle(y)


def prox_nuclear_oracle(m, gamma, step=0.5, obj_tol=1e-9, max_iters=200000):
    """Proximal gradient on 0.5*||m - Y||_F^2 + gamma*||Y||_*."""
    m = np.asarray(m, dtype=float)
    y = np.zeros_like(m)
    prev = prox_objective(m, y, gamma)
    for _ in range(max_iters):
        y = gram_shrink(y - step * (y - m), step * gamma)
        cur = prox_objective(m, y, gamma)
        if abs(prev - cur) < obj_tol:
            return y
        prev = cur
    raise AssertionError("prox oracle failed to converge")


def completion_objective(x, flags, y, gamma):
    r = np.where(flags, x - y, 0.0)
    return 0.5 * float(np.sum(r * r)) + gamma * nuclear_norm_oracle(y)


def completion_oracle(x, flags, gamma, step=0.6, obj_tol=1e-11, max_iters=500000):
    """Proximal gradient on 0.5*||P(x) - P(Y)||_F^2 + gamma*||Y||_*.

    The step of 0.6 keeps this a genuinely different iteration from the
    fill-and-shrink fixed point (which is the step-1 special case).
    """
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x)
    prev = completion_objective(x, flags, y, gamma)
    for _ in range(max_iters):
        y = gram_shrink(y + step * np.where(flags, x - y, 0.0), step * gamma)
        cur = completion_objective(x, flags, y, gamma)
        if abs(prev - cur) < obj_tol:
            return y
        prev = cur
    raise AssertionError("completion oracle failed to converge")


def dense_pseudo_data(x, y, flags, c):
    """The Huber surrogates as the solvers once built them: over whole
    matrices, zero off the mask."""
    e = x - y
    return np.where(flags, np.where(e > c, y + c, np.where(e < -c, y - c, x)), 0.0)


def dense_reference_path(problem, gammas, cutoffs, epsilon, max_iters):
    """The shrinkage-stage kernel as it once ran, on whole matrices.

    Each step builds the surrogates over the whole grid, fills with an
    ``np.where`` over the mask and takes the Huber (``c`` not None) or
    squared-loss trace value of the masked dense residual.  It shrinks with
    the package's own ``shrink_singular_values`` and the same rank hints,
    so a production stage that applies the same elementwise rules must
    match it bit for bit in every iterate; only the trace sums may differ
    in their last bits.  A robust path (``cutoffs[0]`` not None) starts
    from one shrinkage of the observations, a squared-loss path from zero.
    Returns one ``(y_hat, iterations, svd_count, converged, trace)`` per
    stage.
    """
    from robustmc.matcore import shrink_singular_values

    x = problem.values
    flags = problem.mask.flags

    def objective(y, gamma, c, nuc):
        r = np.where(flags, x - y, 0.0)
        if c is None:
            loss = float(np.sum(r * r))
        else:
            a = np.abs(r)
            loss = float(np.sum(np.where(a <= c, r * r, c * (2.0 * a - c))))
        return 0.5 * loss + gamma * nuc

    if cutoffs[0] is None:
        y, nuc, rank, svds = np.zeros(x.shape), 0.0, 0, 0
    else:
        y, shrunk = shrink_singular_values(x, gammas[0])
        nuc, rank, svds = float(shrunk.sum()), np.count_nonzero(shrunk), 1
    stages = []
    for gamma, c in zip(gammas, cutoffs):
        trace = [objective(y, gamma, c, nuc)]
        converged, iterations = False, 0
        for it in range(1, max_iters + 1):
            fill = x if c is None else dense_pseudo_data(x, y, flags, c)
            y_new, shrunk = shrink_singular_values(np.where(flags, fill, y), gamma, rank)
            svds += 1
            nuc, rank = float(shrunk.sum()), np.count_nonzero(shrunk)
            trace.append(objective(y_new, gamma, c, nuc))
            num, den = float(np.sum((y_new - y) ** 2)), float(np.sum(y * y))
            change = num / den if den else (0.0 if num == 0.0 else np.inf)
            y, iterations = y_new, it
            if change < epsilon:
                converged = True
                break
        stages.append((y, iterations, svds, converged, trace))
        svds = 0
    return stages


def huber_norm_sq_oracle(r, c):
    """The Huber sum as `rho`'s branches give it, entry by entry."""
    from robustmc.huber import rho

    return float(np.sum(rho(r, c)))


def partial_svd_oracle(m, gamma, rank):
    """`matcore._partial_svd` as it was before its step was made to work in
    place: the same arithmetic in the same order, one temporary per
    operation, and the same stop rule and probe.  The production step must
    match it bit for bit."""
    from robustmc.matcore import (LANCZOS_BREAKDOWN, LANCZOS_TOL, PARTIAL_MARGIN,
                                  PARTIAL_SHARE, PROBE_STEPS)

    (n1, n2), nmin = m.shape, min(m.shape)
    k = rank + PARTIAL_MARGIN
    if PARTIAL_SHARE * k > nmin:
        return None
    # the bases are rows, so each Gram-Schmidt pass is two matrix-vector products
    u_rows, v_rows = np.empty((nmin, n1)), np.empty((nmin + 1, n2))
    alpha, beta = np.empty(nmin), np.empty(nmin)
    start = np.random.default_rng(0).standard_normal(n2)
    v_rows[0] = start / np.sqrt(start @ start)
    scale, check, last = 0.0, 2 * k + 6, None
    for j in range(nmin):
        w = m @ v_rows[j] - (beta[j - 1] * u_rows[j - 1] if j else 0.0)
        w -= u_rows[:j].T @ (u_rows[:j] @ w)
        alpha[j] = np.sqrt(w @ w)
        if alpha[j] <= LANCZOS_BREAKDOWN * scale:
            return None
        u_rows[j] = w / alpha[j]
        w = m.T @ u_rows[j] - alpha[j] * v_rows[j]
        w -= v_rows[:j + 1].T @ (v_rows[:j + 1] @ w)
        beta[j] = np.sqrt(w @ w)
        scale = max(scale, alpha[j], beta[j])
        if beta[j] <= LANCZOS_BREAKDOWN * scale:
            return None
        v_rows[j + 1] = w / beta[j]
        n = j + 1
        if n < check:
            continue
        try:
            p, s, qt = np.linalg.svd(np.diag(alpha[:n]) + np.diag(beta[:n - 1], 1))
        except np.linalg.LinAlgError:
            return None
        k = np.count_nonzero(s > gamma) + 1
        if PARTIAL_SHARE * k > nmin:
            return None
        if k > n:
            check, last = 2 * k + 6, None
            continue
        tol, residual = LANCZOS_TOL * s[0], beta[j] * np.abs(p[j, :k])
        kept, gap = residual[:-1].max(initial=0.0), gamma - s[k - 1]
        if kept <= tol and residual[-1] <= gap:
            u_basis, v_basis = u_rows[:n], v_rows[:n + 1]
            x = np.random.default_rng(1).standard_normal(n2)
            x = x - v_basis.T @ (v_basis @ x)
            for _ in range(PROBE_STEPS):
                y = m @ (x / np.sqrt(x @ x))
                y = y - u_basis.T @ (u_basis @ y)
                x = m.T @ (y / np.sqrt(y @ y))
                x = x - v_basis.T @ (v_basis @ x)
            if np.sqrt(x @ x) > gamma:
                return None
            return u_rows[:n].T @ p[:, :k], s[:k], qt[:k] @ v_rows[:n]
        excess = max(kept / tol, residual[-1] / gap if gap > 0 else math.inf)
        step = max(4, n // 3)
        if last is not None and last[2] == k and excess < last[1] < math.inf:
            step = math.ceil(math.log(excess) * (n - last[0]) / math.log(last[1] / excess))
        check, last = n + min(max(step, 3, n // 8), max(4, n // 3)), (n, excess, k)
    return None


def csv_text(m, flags=None):
    """The matrix CSV text of ``m``: shortest repr per cell, cells off
    ``flags`` empty."""
    if flags is None:
        flags = np.ones(m.shape, dtype=bool)
    return "".join(
        ",".join(repr(float(v)) if seen else "" for v, seen in zip(row, row_flags)) + "\n"
        for row, row_flags in zip(m, flags))


def certificate_oracle(problem, y_hat, gamma, c):
    """`stationarity_certificate`'s numbers as they were computed from a
    frozen factor container: numpy's thin SVD, with order-K copies of ``u``,
    the singular values and ``vt.T``, and the tangent space of the leading
    ``r`` of them.  Returns ``(tangent_gap, orthogonal_norm, rank)``."""
    from robustmc.huber import psi
    from robustmc.solvers import RANK_TOL

    resid = np.where(problem.mask.flags, problem.values - y_hat, 0.0)
    m = 0.5 * psi(resid, c) / gamma
    if y_hat.any():
        u, s, vt = np.linalg.svd(y_hat, full_matrices=False)
        u, s, v = (np.array(a, dtype=float, copy=True) for a in (u, s, vt.T))
    else:
        u, s, v = np.zeros((y_hat.shape[0], 0)), np.zeros(0), np.zeros((y_hat.shape[1], 0))
    r = int(np.sum(s > RANK_TOL * float(s.max(initial=0.0))))
    if r == 0:
        return 0.0, float(np.linalg.norm(m, 2)), 0
    u, v = u[:, :r], v[:, :r]
    utm = u.T @ m
    tangent = u @ utm + (m @ v) @ v.T - u @ (utm @ v) @ v.T
    return (float(np.linalg.norm(tangent - u @ v.T, "fro")),
            float(np.linalg.norm(m - tangent, 2)), r)
