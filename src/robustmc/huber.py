"""Huber loss machinery.

The loss is quadratic inside [-c, c] and grows linearly outside, which is
what bounds the influence of gross outliers while keeping the criterion
convex.  All functions accept scalars or arrays (applied elementwise) and
are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, DimensionMismatchError


@dataclass(frozen=True)
class HuberParams:
    """Validated Huber cutoff (same units as the matrix entries)."""

    c: float

    def __post_init__(self):
        if not (self.c > 0 and np.isfinite(self.c)):
            raise DataValidationError(f"cutoff c must be positive and finite, got {self.c}")


def rho(x, c: float):
    """Huber loss: x**2 for |x| <= c, c*(2|x| - c) beyond."""
    c = HuberParams(float(c)).c
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.where(ax <= c, x * x, c * (2.0 * ax - c))
    return float(out) if out.ndim == 0 else out


def psi(x, c: float):
    """Derivative of `rho`: 2x inside [-c, c], clipped to +-2c outside."""
    c = HuberParams(float(c)).c
    x = np.asarray(x, dtype=float)
    out = np.where(np.abs(x) <= c, 2.0 * x, 2.0 * c * np.sign(x))
    return float(out) if out.ndim == 0 else out


def huber_norm_sq(m, c: float) -> float:
    """Sum of the Huber loss over all entries.

    Coincides with the squared Frobenius norm once c dominates every |entry|.
    One buffer holds (2a - k) * k, a = |m|, k = min(a, c): `rho`'s roundings
    entry by entry and its memory order, so the sum keeps its bits.
    """
    c = HuberParams(float(c)).c
    m = np.asarray(m, dtype=float)
    a = np.abs(m, out=np.empty_like(m))
    k = np.minimum(a, c)
    a += a
    a -= k
    a *= k
    return float(a.sum())


def soft_threshold_scalar(x, c: float):
    """Shrink toward zero by c: the minimizer of 0.5*(x - s)**2 + c*|s|."""
    c = HuberParams(float(c)).c
    x = np.asarray(x, dtype=float)
    out = np.where(x > c, x - c, np.where(x < -c, x + c, 0.0))
    return float(out) if out.ndim == 0 else out


def pseudo_data(x_obs, y_cur, c: float) -> np.ndarray:
    """Surrogate observations for one robust step, entry by entry.

    ``x_obs`` and ``y_cur`` are equal-shaped arrays of observed values and
    current estimates (the solvers pass the observed entries as vectors).
    Residuals within +-c pass the observed value through untouched (exactly,
    no arithmetic applied); residuals beyond the cutoff are replaced by the
    current estimate moved c toward the observation.
    """
    c = HuberParams(float(c)).c
    x_obs = np.asarray(x_obs, dtype=float)
    y_cur = np.asarray(y_cur, dtype=float)
    if x_obs.shape != y_cur.shape:
        raise DimensionMismatchError(f"y_cur shape {y_cur.shape} != x_obs shape {x_obs.shape}")
    if not (np.isfinite(x_obs).all() and np.isfinite(y_cur).all()):
        raise DataValidationError("pseudo_data inputs contain NaN or Inf entries")
    e = x_obs - y_cur
    return np.where(e > c, y_cur + c, np.where(e < -c, y_cur - c, x_obs))


def choose_cutoff(gamma: float, n_rows: int, n_cols: int, observed_fraction: float) -> float:
    """Cutoff rule tied to the regularization weight.

    c = gamma / sqrt(max(n_rows, n_cols) * observed_fraction).  Scales
    linearly in gamma, so a gamma path with auto cutoffs keeps the ratio
    c/gamma fixed for a given problem size and sampling rate.
    """
    if n_rows < 1 or n_cols < 1:
        raise DataValidationError(f"dimensions must be positive, got {n_rows}x{n_cols}")
    if not (0.0 < observed_fraction <= 1.0):
        raise DataValidationError(
            f"observed_fraction must be in (0, 1], got {observed_fraction}"
        )
    return HuberParams(float(gamma) / np.sqrt(max(n_rows, n_cols) * observed_fraction)).c
