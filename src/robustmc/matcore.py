"""Dense matrices, observation masks, norms, and SVD machinery.

Everything here is a pure function over numpy arrays, plus two small
immutable containers (ObservationMask, Problem).  Matrices are
plain 2-D float64 ndarrays; returned arrays are freshly allocated and the
arrays stored inside containers are frozen (read-only), so all types are
safe to share across threads.  Importing the module also raises glibc's
malloc thresholds once, through the freed block below the imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, DimensionMismatchError, SvdError

# Free one untouched 1 MiB mapped block: glibc then raises its mmap threshold to
# 1 MiB and its trim threshold to 2 MiB (mallopt(3)), as scipy.linalg's import did,
# so a small SVD's buffers stay on the heap instead of being trimmed and refaulted.
np.empty(1 << 17)


def as_matrix(a, name: str = "matrix", shape=None) -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array and reject non-finite entries.

    Given ``shape`` (a mask's or a problem's), any other shape raises
    DimensionMismatchError.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DataValidationError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DataValidationError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DataValidationError(f"{name} contains NaN or Inf entries")
    if shape is not None and m.shape != shape:
        raise DimensionMismatchError(f"{name} shape {m.shape} != expected shape {shape}")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True, order="C")
    out.flags.writeable = False
    return out


class ObservationMask:
    """The set of observed (row, col) positions of an n1 x n2 grid.

    Stored as a read-only boolean matrix, so a position is observed at most
    once.
    """

    __slots__ = ("_flags",)

    def __init__(self, flags):
        f = np.asarray(flags)
        if f.dtype != np.bool_:
            raise DataValidationError("mask flags must be boolean")
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise DataValidationError(f"mask must be 2-D with positive dimensions, got {f.shape}")
        f = f.copy()
        f.flags.writeable = False
        self._flags = f

    @property
    def flags(self) -> np.ndarray:
        return self._flags

    @property
    def shape(self):
        return self._flags.shape

    @property
    def n_observed(self) -> int:
        return int(self._flags.sum())

    @property
    def fraction_observed(self) -> float:
        return self.n_observed / self._flags.size

    def __eq__(self, other):
        if not isinstance(other, ObservationMask):
            return NotImplemented
        return np.array_equal(self._flags, other._flags)

    def __hash__(self):
        return hash((self.shape, self._flags.tobytes()))

    def __repr__(self):
        return f"ObservationMask({self.shape[0]}x{self.shape[1]}, observed={self.n_observed})"


@dataclass(frozen=True, eq=False)
class Problem:
    """Partially observed matrix: observed values (zeros elsewhere) plus mask."""

    values: np.ndarray
    mask: ObservationMask

    def __post_init__(self):
        values = as_matrix(self.values, "values", self.mask.shape)
        if self.mask.n_observed == 0:
            raise DataValidationError("a Problem needs at least one observed entry")
        if np.any(values[~self.mask.flags] != 0.0):
            raise DataValidationError("values must be exactly zero off the observation mask")
        object.__setattr__(self, "values", _frozen(values))

    @classmethod
    def from_full(cls, x, mask: ObservationMask) -> "Problem":
        """Project a fully known matrix onto the mask and wrap it."""
        return cls(np.where(mask.flags, as_matrix(x, "x", mask.shape), 0.0), mask)

    @property
    def shape(self):
        return self.values.shape


# The shrinkage step tries a partial SVD only on matrices whose shorter side
# is at least PARTIAL_MIN_SIDE, and gives up once PARTIAL_SHARE times the
# number of triplets it needs exceeds the shorter side: past that, the
# Lanczos basis is no cheaper than a full SVD.  It needs every value above
# gamma plus one at or below it, and first guesses that number as
# PARTIAL_MARGIN more than the previous iterate kept: its first check comes
# after twice the guess plus 6 steps.
PARTIAL_MIN_SIDE = 200
PARTIAL_MARGIN = 1
PARTIAL_SHARE = 8
# A kept Ritz triplet converges at a residual of LANCZOS_TOL times the top Ritz value; a
# basis vector under LANCZOS_BREAKDOWN times the top bidiagonal entry ends the basis.
LANCZOS_TOL = 1e-11
LANCZOS_BREAKDOWN = 1e-13
# Power steps, from a seeded start, that look for a value above gamma off the Krylov bases.
PROBE_STEPS = 3


def _partial_svd(m: np.ndarray, gamma: float, rank: int):
    """Leading singular triplets of ``m``, descending, down to one at or
    below ``gamma``; None when too many are needed, the basis closes, an SVD
    fails or the probe finds a value above ``gamma`` off the bases.

    Golub-Kahan-Lanczos bidiagonalisation, fully reorthogonalised: the Ritz
    triplet (s, U_j p, V_j q) of the bidiagonal B_j has residual
    beta_j |p_j|, so some singular value lies within it of s.  The result is
    accepted once every Ritz value above ``gamma`` has a residual of at most
    LANCZOS_TOL times the top one and the next Ritz value plus its residual
    is at most ``gamma``, as PROPACK's thresholded SVD (Larsen 1998) asks;
    a few power steps on ``m`` off the bases then check that no value above
    ``gamma`` was missed (a repeated one, of which one start vector sees a
    single copy), so soft-thresholding the returned spectrum by ``gamma`` is
    exact.  Only the kept triplets are converged: the last one returned is
    a value at or below ``gamma``, which the threshold zeroes.
    """
    (n1, n2), nmin = m.shape, min(m.shape)
    k = rank + PARTIAL_MARGIN
    if PARTIAL_SHARE * k > nmin:
        return None
    # the bases are rows, so each Gram-Schmidt pass is two matrix-vector products
    u_rows, v_rows = np.empty((nmin, n1)), np.empty((nmin + 1, n2))
    alpha, beta = np.empty(nmin), np.empty(nmin)
    start = np.random.default_rng(0).standard_normal(n2)
    v_rows[0] = start / np.sqrt(start @ start)
    scale, check, last, mt = 0.0, 2 * k + 6, None, m.T
    for j in range(nmin):
        w = m @ v_rows[j]
        if j:  # at j = 0 both subtractions would take away exact zeros
            w -= b * u_rows[j - 1]
            w -= u_rows[:j].T @ (u_rows[:j] @ w)
        alpha[j] = a = math.sqrt(w @ w)
        if a <= LANCZOS_BREAKDOWN * scale:
            return None
        np.divide(w, a, out=u_rows[j])
        w = mt @ u_rows[j]
        w -= a * v_rows[j]
        w -= v_rows[:j + 1].T @ (v_rows[:j + 1] @ w)
        beta[j] = b = math.sqrt(w @ w)
        scale = max(scale, a, b)
        if b <= LANCZOS_BREAKDOWN * scale:
            return None
        np.divide(w, b, out=v_rows[j + 1])
        n = j + 1
        if n < check:
            continue
        try:
            p, s, qt = np.linalg.svd(np.diag(alpha[:n]) + np.diag(beta[:n - 1], 1))
        except np.linalg.LinAlgError:
            return None
        # Ritz values are never above the singular values they approximate,
        # so each one above gamma is a value the threshold keeps
        k = np.count_nonzero(s > gamma) + 1
        if PARTIAL_SHARE * k > nmin:
            return None
        if k > n:
            check, last = 2 * k + 6, None
            continue
        tol, residual = LANCZOS_TOL * s[0], b * np.abs(p[j, :k])
        kept, gap = residual[:-1].max(initial=0.0), gamma - s[k - 1]
        if kept <= tol and residual[-1] <= gap:
            if _probe(m, gamma, u_rows[:n], v_rows[:n + 1]):
                return None
            return u_rows[:n].T @ p[:, :k], s[:k], qt[:k] @ v_rows[:n]
        # check next where the excess's decay puts the certificate, n/8 to n/3 steps on
        excess = max(kept / tol, residual[-1] / gap if gap > 0 else math.inf)
        step = max(4, n // 3)
        if last is not None and last[2] == k and excess < last[1] < math.inf:
            step = math.ceil(math.log(excess) * (n - last[0]) / math.log(last[1] / excess))
        check, last = n + min(max(step, 3, n // 8), max(4, n // 3)), (n, excess, k)
    return None


def _probe(m, gamma: float, u_basis: np.ndarray, v_basis: np.ndarray) -> bool:
    """Whether PROBE_STEPS power steps on ``m``, kept orthogonal to the
    left basis ``u_basis`` and the right one ``v_basis``, find a value above
    ``gamma``.  In exact arithmetic ``m`` maps the complement of the right
    basis into that of the left one, so these steps see only values that the
    bases left out."""
    x = np.random.default_rng(1).standard_normal(v_basis.shape[1])
    x -= v_basis.T @ (v_basis @ x)
    for _ in range(PROBE_STEPS):
        y = m @ (x / math.sqrt(x @ x))
        y -= u_basis.T @ (u_basis @ y)
        x = m.T @ (y / math.sqrt(y @ y))
        x -= v_basis.T @ (v_basis @ x)
    return math.sqrt(x @ x) > gamma


# A dense shrinkage takes the eigendecomposition of the Gram matrix on the
# shorter side when the largest singular value is at most GRAM_RATIO times
# gamma: eigh's absolute error of about eps * s1**2 then leaves a value near
# gamma with a relative error of about eps * GRAM_RATIO**2, near 1e-11.  A
# matrix whose largest magnitude lies outside [GRAM_MIN, GRAM_MAX] takes
# neither fast path: its Gram, or the Lanczos's squared norms, would overflow
# or lose their small entries to underflow.
GRAM_RATIO = 200
GRAM_MIN, GRAM_MAX = 2.0 ** -450, 2.0 ** 450


def _gram_svd(m: np.ndarray, gamma: float):
    """Leading singular triplets of ``m``, descending, down to one at or
    below ``gamma``, from ``eigh`` of the Gram matrix on the shorter side;
    None when ``eigh`` fails or the largest singular value passes
    GRAM_RATIO times ``gamma``.
    """
    wide = m.shape[0] < m.shape[1]
    a = m.T if wide else m
    g = a.T @ a
    limit = (GRAM_RATIO * gamma) ** 2
    if np.trace(g) > limit:
        # a Rayleigh quotient of g is at most s1**2, so this refuses before
        # the eigh only what the eigh would refuse; x is scaled to entries
        # of at most 1 so that its squared norms cannot overflow
        x = g.sum(axis=1)
        top = np.abs(x).max()
        if top > 0:
            x /= top
            if x @ (g @ x) / (x @ x) > limit * (1 + 1e-8):
                return None
    try:
        lam, w = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    if s[0] > GRAM_RATIO * gamma:
        return None
    k = min(np.count_nonzero(s > gamma) + 1, s.size)
    s = s[:k]
    w = w[:, :-k - 1:-1].copy()  # contiguous: a reversed view makes the product as slow as LAPACK
    x = a @ w
    np.divide(x, s, out=x, where=s > 0.0)
    return (w, s, x.T) if wide else (x, s, w.T)


def _raw_svd(m: np.ndarray, gamma=None, rank: int = 0):
    """Thin SVD of ``m``, with a slower-but-sturdier LAPACK driver as fallback.

    Given a positive ``gamma``, returns only the triplets a soft threshold at
    ``gamma`` can keep, plus one at or below it, when it can: first from a
    partial SVD if the shorter side is at least PARTIAL_MIN_SIDE (``rank``,
    the previous iterate's kept count, sizes its first try), then from the
    Gram matrix's eigendecomposition (`_gram_svd`).  Neither is tried when
    the largest magnitude in ``m`` lies outside [GRAM_MIN, GRAM_MAX]; that,
    a refused Gram (the largest singular value past GRAM_RATIO times
    ``gamma``, or a failed ``eigh``) and a failed partial SVD fall through to
    the full LAPACK SVD.
    """
    if gamma is not None and gamma > 0 and GRAM_MIN <= max(m.max(), -m.min()) <= GRAM_MAX:
        leading = _partial_svd(m, gamma, rank) if min(m.shape) >= PARTIAL_MIN_SIDE else None
        if leading is None:
            leading = _gram_svd(m, gamma)
        if leading is not None:
            return leading
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
    import scipy.linalg  # here, not at the top: it costs a process about 0.36 s and 28 MiB
    try:
        return scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    except Exception as exc:
        raise SvdError(f"SVD failed to converge for shape {m.shape}") from exc


def nuclear_norm(m) -> float:
    """Sum of singular values."""
    return float(svd(m)[1].sum())


def svd(m):
    """Thin SVD ``(u, s, vt)`` with ``u @ diag(s) @ vt`` equal to ``m``, as
    `_raw_svd` returns it; the all-zero matrix yields rank-0 factors."""
    m = as_matrix(m)
    if not m.any():
        return np.zeros((m.shape[0], 0)), np.zeros(0), np.zeros((0, m.shape[1]))
    return _raw_svd(m)


def shrink_singular_values(m: np.ndarray, gamma: float, rank: int = 0):
    """Soft-threshold the spectrum of ``m`` by ``gamma``.

    Returns ``(out, shrunk)`` where ``shrunk`` holds the thresholded singular
    values of ``m`` (these are exactly the singular values of ``out``).  For
    any positive ``gamma`` only the leading part of the spectrum may be
    computed, by a partial SVD on a large matrix or from the Gram matrix's
    eigendecomposition (see `_raw_svd`, which ``rank`` hints), so ``shrunk``
    can be shorter than the shorter side; the values it leaves out are all
    zero.  Both are refused, for the full LAPACK SVD, when ``m`` is out of
    their range, and the Gram also when the largest singular value passes
    GRAM_RATIO times ``gamma`` or when ``eigh`` fails.  With ``gamma`` = 0
    the input is returned unchanged, bit for bit, so that a zero-shrinkage
    step is an exact identity.
    """
    if not gamma >= 0:
        raise DataValidationError(f"gamma must be >= 0, got {gamma}")
    u, s, vt = _raw_svd(m, gamma, rank)
    shrunk = np.maximum(s - gamma, 0.0)
    if gamma == 0.0:
        return np.array(m, dtype=float, copy=True), shrunk
    keep = shrunk > 0.0  # none kept: the empty product is +0.0 zeros, C-ordered
    out = (u[:, keep] * shrunk[keep]) @ vt[keep]
    return out, shrunk


def svd_soft_threshold(m, gamma: float) -> np.ndarray:
    """Proximal operator of gamma * nuclear norm at ``m``.

    Computes the SVD of ``m``, subtracts ``gamma`` from each singular value,
    clips at zero, and recomposes; the unique minimizer of
    0.5 * ||m - Y||_F^2 + gamma * ||Y||_*.
    """
    m = as_matrix(m)
    out, _ = shrink_singular_values(m, float(gamma))
    return out
