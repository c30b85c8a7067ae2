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
import scipy.linalg

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

    def complement(self) -> "ObservationMask":
        return ObservationMask(~self._flags)

    def pairs(self):
        """Observed positions as a sorted list of (row, col) tuples."""
        rows, cols = np.nonzero(self._flags)
        return list(zip(rows.tolist(), cols.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ObservationMask):
            return NotImplemented
        return self._flags.shape == other._flags.shape and bool(
            np.array_equal(self._flags, other._flags)
        )

    def __repr__(self):
        return f"ObservationMask({self.n_rows}x{self.n_cols}, observed={self.n_observed})"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    @classmethod
    def from_array_with_missing(cls, a) -> "Problem":
        """Interpret NaN entries of ``a`` as unobserved."""
        a = np.asarray(a, dtype=float)
        observed = ~np.isnan(a)
        return cls(np.where(observed, a, 0.0), ObservationMask(observed))

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


def project_complement(m, mask: ObservationMask) -> np.ndarray:
    """Keep entries off the mask, zero on it; adds with `project` to ``m``."""
    return np.where(mask.flags, 0.0, as_matrix(m, "matrix", mask.shape))


def frobenius_norm_sq(m) -> float:
    """Sum of squared entries."""
    m = np.asarray(m, dtype=float)
    return float(np.sum(m * m))


# The shrinkage step tries a partial SVD only on matrices whose shorter side
# is at least PARTIAL_MIN_SIDE, asks for PARTIAL_MARGIN more triplets than
# the previous iterate kept, and gives up once PARTIAL_SHARE times the number
# asked for exceeds the shorter side: past that, PROPACK is no faster than a
# full SVD.
PARTIAL_MIN_SIDE = 200
PARTIAL_MARGIN = 5
PARTIAL_SHARE = 8


def _partial_svd(m: np.ndarray, gamma: float, rank: int):
    """Leading singular triplets of ``m``, descending, down to one at or
    below ``gamma``; None when PROPACK fails or too many would be needed.

    Every singular value left out is at most the smallest one returned, so
    soft-thresholding the returned spectrum by ``gamma`` is exact.
    """
    # imported here, not at module level: it costs about 25 ms and 2.3 MiB
    # per process, which runs that never take a partial SVD should not pay
    from scipy.sparse.linalg import svds

    k = rank + PARTIAL_MARGIN
    while PARTIAL_SHARE * k <= min(m.shape):
        try:
            u, s, vt = svds(m, k, solver="propack", rng=np.random.default_rng(0))
        except np.linalg.LinAlgError:
            return None
        if s.min() <= gamma:
            order = np.argsort(s, kind="stable")[::-1]
            return u[:, order], s[order], vt[order]
        k *= 2
    return None


def _raw_svd(m: np.ndarray, gamma=None, rank: int = 0):
    """Thin SVD of ``m``, with a slower-but-sturdier LAPACK driver as fallback.

    Given a positive ``gamma`` and a matrix whose shorter side is at least
    PARTIAL_MIN_SIDE, first tries a partial SVD that returns only the
    triplets a soft threshold at ``gamma`` can keep, plus one at or below
    it; ``rank`` (the previous iterate's kept count) sizes the first try.
    """
    if gamma is not None and gamma > 0 and min(m.shape) >= PARTIAL_MIN_SIDE:
        partial = _partial_svd(m, gamma, rank)
        if partial is not None:
            return partial
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        pass
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
    values of ``m`` (these are exactly the singular values of ``out``).  On a
    large matrix only the leading part of the spectrum may be computed (see
    `_raw_svd`, which ``rank`` hints), so ``shrunk`` can be shorter than the
    shorter side; the values it leaves out are all zero.  With ``gamma`` = 0
    the input is returned unchanged, bit for bit, so that a zero-shrinkage
    step is an exact identity.
    """
    if gamma < 0:
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
