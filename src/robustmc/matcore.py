"""Dense matrices, observation masks, projections, norms, and SVD machinery.

Everything here is a pure function over numpy arrays, plus three small
immutable containers (ObservationMask, SvdFactors, Problem).  Matrices are
plain 2-D float64 ndarrays; returned arrays are freshly allocated and the
arrays stored inside containers are frozen (read-only), so all types are
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, DimensionMismatchError, SvdError


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

    Stored as a read-only boolean matrix; duplicate pairs are impossible by
    construction and `from_pairs` rejects them explicitly.
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

    @classmethod
    def full(cls, n_rows: int, n_cols: int) -> "ObservationMask":
        return cls(np.ones((n_rows, n_cols), dtype=bool))

    @classmethod
    def from_pairs(cls, n_rows: int, n_cols: int, pairs) -> "ObservationMask":
        """Build a mask from an iterable of zero-based (row, col) pairs."""
        flags = np.zeros((n_rows, n_cols), dtype=bool)
        for i, j in pairs:
            if not (0 <= i < n_rows and 0 <= j < n_cols):
                raise DataValidationError(f"index ({i}, {j}) outside {n_rows}x{n_cols} grid")
            if flags[i, j]:
                raise DataValidationError(f"duplicate index ({i}, {j})")
            flags[i, j] = True
        return cls(flags)

    @property
    def flags(self) -> np.ndarray:
        return self._flags

    @property
    def shape(self):
        return self._flags.shape

    @property
    def n_rows(self) -> int:
        return self._flags.shape[0]

    @property
    def n_cols(self) -> int:
        return self._flags.shape[1]

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
        return f"ObservationMask({self.n_rows}x{self.n_cols}, observed={self.n_observed})"


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD: u @ diag(singular_values) @ v.T reconstructs the input."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        r = self.singular_values.shape[0]
        if self.u.shape[1] != r or self.v.shape[1] != r:
            raise DimensionMismatchError("factor widths must match the number of singular values")
        for field in ("u", "singular_values", "v"):
            frozen = np.array(getattr(self, field), dtype=float, copy=True)
            frozen.flags.writeable = False
            object.__setattr__(self, field, frozen)

    @property
    def rank(self) -> int:
        return self.singular_values.shape[0]

    def compose(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros((self.u.shape[0], self.v.shape[0]))
        return (self.u * self.singular_values) @ self.v.T


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

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def observed_fraction(self) -> float:
        return self.mask.fraction_observed


def project(m, mask: ObservationMask) -> np.ndarray:
    """Keep entries on the mask, zero elsewhere."""
    return np.where(mask.flags, as_matrix(m, "matrix", mask.shape), 0.0)


# The shrinkage step tries a partial SVD only on matrices whose shorter side
# is at least PARTIAL_MIN_SIDE, asks for PARTIAL_MARGIN more triplets than
# the previous iterate kept (the one at or below gamma), and gives up once
# PARTIAL_SHARE times the number asked for exceeds the shorter side: past
# that, the Lanczos basis is no cheaper than a full SVD.
PARTIAL_MIN_SIDE = 200
PARTIAL_MARGIN = 1
PARTIAL_SHARE = 8
# A Ritz triplet converges at a residual of LANCZOS_TOL times the top Ritz value; a
# basis vector under LANCZOS_BREAKDOWN times the top bidiagonal entry ends the basis.
LANCZOS_TOL = 1e-11
LANCZOS_BREAKDOWN = 1e-13


def _partial_svd(m: np.ndarray, gamma: float, rank: int):
    """Leading singular triplets of ``m``, descending, down to one at or
    below ``gamma``; None when too many are needed, the basis closes or an SVD fails.

    Golub-Kahan-Lanczos bidiagonalisation, fully reorthogonalised: the Ritz
    triplet (s, U_j p, V_j q) of the bidiagonal B_j has residual beta_j |p_j|.
    Every singular value left out is at most the smallest one returned, so
    soft-thresholding the returned spectrum by ``gamma`` is exact.
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
        # Ritz values are never above the singular values they approximate,
        # so one above gamma shows that k is too small before it converges
        while k <= n and s[k - 1] > gamma:
            k, last = 2 * k, None
        if PARTIAL_SHARE * k > nmin:
            return None
        if k > n:
            check = 2 * k + 6
            continue
        tol, residual = LANCZOS_TOL * s[0], beta[j] * np.abs(p[j, :k]).max()
        if residual <= tol:
            return u_rows[:n].T @ p[:, :k], s[:k], qt[:k] @ v_rows[:n]
        # check next where the residual's decay puts convergence, n/8 to n/3 steps on
        step = max(4, n // 3)
        if last is not None and residual < last[1]:
            step = int(np.ceil(np.log(tol / residual) * (n - last[0]) / np.log(residual / last[1])))
        check, last = n + min(max(step, 3, n // 8), max(4, n // 3)), (n, residual)
    return None


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
    m = as_matrix(m)
    if not m.any():
        return 0.0
    _, s, _ = _raw_svd(m)
    return float(s.sum())


def svd(m) -> SvdFactors:
    """Thin SVD as factors; the all-zero matrix yields a rank-0 factorization."""
    m = as_matrix(m)
    n1, n2 = m.shape
    if not m.any():
        return SvdFactors(np.zeros((n1, 0)), np.zeros(0), np.zeros((n2, 0)))
    u, s, vt = _raw_svd(m)
    return SvdFactors(u, s, vt.T)


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
    if not m.any():
        return np.zeros_like(m, dtype=float), np.zeros(min(m.shape))
    u, s, vt = _raw_svd(m, gamma, rank)
    shrunk = np.maximum(s - gamma, 0.0)
    if gamma == 0.0:
        return np.array(m, dtype=float, copy=True), shrunk
    keep = shrunk > 0.0
    if not keep.any():
        return np.zeros_like(m, dtype=float), shrunk
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
