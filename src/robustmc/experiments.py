"""Synthetic benchmarks and image degradation.

Everything is driven by integer seeds through numpy Generators; a master
seed and replicate index determine every instance, so a benchmark re-run
with the same seed reproduces results exactly.  Replicates are generated
in index order; `run_study` may solve them on several processes.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataValidationError, DimensionMismatchError, RobustMcError
from .matcore import ObservationMask, Problem, _frozen, as_matrix
from .solvers import (
    PathSolution,
    SolverConfig,
    _check_count,
    default_gamma_path,  # unused here; the layer tracer in bench/ binds this name
    robust_impute,
    soft_impute_path,
)

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
OUTLIER_NOISE_SCALE = 4.0  # outlier noise sd, in units of the base noise sd

METHODS = ("robust", "soft")
# the variables that set the BLAS thread count, which moves the last digits of every SVD
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one random low-rank instance."""

    n_rows: int
    n_cols: int
    rank: int
    snr: float
    outlier_prob: float
    missing_prob: float

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise DataValidationError(f"dimensions must be positive, got {self.n_rows}x{self.n_cols}")
        if not 1 <= self.rank <= min(self.n_rows, self.n_cols):
            raise DataValidationError(f"rank must lie in [1, min(n1, n2)], got {self.rank}")
        if not self.snr > 0:
            raise DataValidationError(f"snr must be positive, got {self.snr}")
        if not 0.0 <= self.outlier_prob < 1.0:
            raise DataValidationError(f"outlier_prob must be in [0, 1), got {self.outlier_prob}")
        if not 0.0 <= self.missing_prob < 1.0:
            raise DataValidationError(f"missing_prob must be in [0, 1), got {self.missing_prob}")

    @property
    def setting_id(self) -> str:
        return (f"n{self.n_rows}x{self.n_cols}_r{self.rank}_s{self.snr:g}"
                f"_p{self.outlier_prob:g}_q{self.missing_prob:g}")


@dataclass(frozen=True, eq=False)
class GroundTruthInstance:
    """A contaminated instance together with everything needed to score it.

    Among the observed entries, `outlier_set` marks the grossly corrupted
    positions and `clean_observed_set`, derived from the mask and the
    outlier set, the merely noisy rest; training error is scored on the
    latter, test error on the unobserved entries (on all entries when none
    is unobserved) against the clean target.
    """

    x0: np.ndarray
    x: np.ndarray
    mask: ObservationMask
    outlier_set: ObservationMask
    sigma: float

    def __post_init__(self):
        x0 = as_matrix(self.x0, "x0", self.mask.shape)
        x = as_matrix(self.x, "x", self.mask.shape)
        if self.outlier_set.shape != self.mask.shape:
            raise DimensionMismatchError(
                f"outlier_set shape {self.outlier_set.shape} != mask shape {self.mask.shape}")
        if (self.outlier_set.flags & ~self.mask.flags).any():
            raise DataValidationError("outlier_set must lie within the observed set")
        object.__setattr__(self, "x0", _frozen(x0))
        object.__setattr__(self, "x", _frozen(x))

    def problem(self) -> Problem:
        return Problem.from_full(self.x, self.mask)

    @cached_property
    def clean_observed_set(self) -> ObservationMask:
        return ObservationMask(self.mask.flags & ~self.outlier_set.flags)

    @cached_property
    def _energies(self) -> dict:
        """`_relative_error`'s denominators, by the entries they sum over."""
        return {}


@dataclass(frozen=True)
class MissingSpec:
    """How pixels go missing in an image experiment."""

    mode: str
    rate: float = 0.0
    patch_size: int = 16

    def __post_init__(self):
        if self.mode not in ("none", "independent", "clustered"):
            raise DataValidationError(f"unknown missing mode {self.mode!r}")
        if self.mode != "none" and not 0.0 < self.rate < 1.0:
            raise DataValidationError(f"missing rate must be in (0, 1), got {self.rate}")
        if self.patch_size < 1:
            raise DataValidationError(f"patch_size must be >= 1, got {self.patch_size}")

    @classmethod
    def none(cls) -> "MissingSpec":
        return cls("none")

    @classmethod
    def independent(cls, rate: float) -> "MissingSpec":
        return cls("independent", rate)

    @classmethod
    def clustered(cls, rate: float, patch_size: int = 16) -> "MissingSpec":
        return cls("clustered", rate, patch_size)


@dataclass(frozen=True)
class DegradationSpec:
    """Noise levels of an image experiment (see `degrade_image`)."""

    snr: float
    outlier_frac: float
    outlier_snr: float

    def __post_init__(self):
        if not self.snr > 0:
            raise DataValidationError(f"snr must be positive, got {self.snr}")
        if not 0.0 <= self.outlier_frac <= 1.0:
            raise DataValidationError(f"outlier_frac must be in [0, 1], got {self.outlier_frac}")
        if not self.outlier_snr > 0:
            raise DataValidationError(f"outlier_snr must be positive, got {self.outlier_snr}")


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(int(seed) & _SEED_MASK)


def replicate_seed(master_seed: int, replicate_index: int) -> int:
    """Stable per-replicate seed: first 64-bit word of the child sequence
    spawned from the master seed at key (0, replicate_index)."""
    # the leading 0 stays in the key so that every seed, and so every output, keeps its value
    ss = np.random.SeedSequence(int(master_seed) & _SEED_MASK, spawn_key=(0, int(replicate_index)))
    return int(ss.generate_state(1, np.uint64)[0])


def _sample_independent_mask(rng, shape, missing_prob) -> np.ndarray:
    for _ in range(8):
        observed = rng.random(shape) >= missing_prob
        if observed.any():
            return observed
    raise DataValidationError("failed to sample a nonempty observation set")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> GroundTruthInstance:
    """Low-rank target + dense noise + sparse gross noise + random mask.

    The target is a product of two iid standard normal factor matrices.
    The base noise sd makes the signal-to-noise ratio (sqrt of entry
    variance over noise variance) equal spec.snr; with probability
    spec.outlier_prob an entry additionally receives independent noise at
    OUTLIER_NOISE_SCALE times that sd.  Entries go missing independently
    with probability spec.missing_prob.  `seed` drives every draw.
    """
    rng = _rng(seed)
    u = rng.standard_normal((spec.n_rows, spec.rank))
    v = rng.standard_normal((spec.n_cols, spec.rank))
    x0 = u @ v.T
    sigma = float(np.sqrt(x0.var()) / spec.snr)
    x = x0 + rng.normal(0.0, sigma, x0.shape)
    outliers = rng.random(x0.shape) < spec.outlier_prob
    x = x + np.where(outliers, rng.normal(0.0, OUTLIER_NOISE_SCALE * sigma, x0.shape), 0.0)
    observed = _sample_independent_mask(rng, x0.shape, spec.missing_prob)
    return _instance(x0, x, observed, outliers, sigma)


def _instance(x0, x, observed, outliers, sigma) -> GroundTruthInstance:
    """The instance whose outlier set is the observed part of ``outliers``."""
    return GroundTruthInstance(x0=x0, x=x, mask=ObservationMask(observed),
                               outlier_set=ObservationMask(outliers & observed), sigma=sigma)


def _relative_error(instance, y_hat, target, flags, entries: str) -> float:
    """sum((target - y_hat)**2) over ``flags`` relative to sum(target**2)
    there, which is summed once per instance and ``entries``."""
    y_hat = as_matrix(y_hat, "y_hat", target.shape)
    den = instance._energies.get(entries)
    if den is None:
        den = instance._energies[entries] = float(np.sum(np.where(flags, target, 0.0) ** 2))
    if den == 0.0:
        raise DataValidationError(f"{entries} are all zero; error undefined")
    num = float(np.sum(np.where(flags, target - y_hat, 0.0) ** 2))
    return num / den


def training_error(instance: GroundTruthInstance, y_hat) -> float:
    """Relative squared error on the clean observed entries.

    Outlier positions are excluded, so a fit dragged toward them scores
    worse here, not better.
    """
    flags = instance.clean_observed_set.flags
    if not flags.any():
        raise DataValidationError("no clean observed entries to score")
    return _relative_error(instance, y_hat, instance.x, flags, "clean observed entries")


def test_error(instance: GroundTruthInstance, y_hat) -> float:
    """Relative squared error against the clean target on the unobserved
    entries, or on every entry when none is unobserved (outliers only)."""
    flags = ~instance.mask.flags
    if not flags.any():
        flags = instance.mask.flags
    return _relative_error(instance, y_hat, instance.x0, flags,
                           "scored entries of the clean target")


def _grow_patches(rng, n_rows: int, n_cols: int, missing_frac: float, patch_size: int) -> np.ndarray:
    """Observed flags whose complement is a union of full square patches.

    Patches of side patch_size are dropped at uniformly random positions
    (fully inside the grid, overlaps allowed) until the missing fraction
    reaches missing_frac.  Overshoot is at most one patch's area.
    """
    if patch_size > n_rows or patch_size > n_cols:
        raise DataValidationError(
            f"patch_size {patch_size} does not fit a {n_rows}x{n_cols} grid"
        )
    target = missing_frac * n_rows * n_cols
    if patch_size * patch_size > target:
        raise DataValidationError(
            "missing_frac too small to hold a single patch; "
            f"need missing_frac*cells >= {patch_size * patch_size}"
        )
    missing = np.zeros((n_rows, n_cols), dtype=bool)
    while missing.sum() < target:
        i = int(rng.integers(0, n_rows - patch_size + 1))
        j = int(rng.integers(0, n_cols - patch_size + 1))
        missing[i:i + patch_size, j:j + patch_size] = True
    if missing.all():
        raise DataValidationError("patches covered the whole grid; nothing observed")
    return ~missing


def degrade_image(img, noise: DegradationSpec, missing: MissingSpec,
                  seed: int) -> GroundTruthInstance:
    """Contaminate a grayscale image the way the synthetic generator
    contaminates a low-rank target.

    Dense Gaussian noise is calibrated so sqrt(Var(img)/noise var) =
    noise.snr; an exact round(noise.outlier_frac * pixels) subset of pixels,
    sampled without replacement, receives additional noise calibrated to
    noise.outlier_snr.  Missing pixels follow `missing`.
    """
    img = as_matrix(img, "img")
    var = float(img.var())
    if var == 0.0:
        raise DataValidationError("image has zero variance; SNR calibration undefined")
    rng = _rng(seed)
    scale = float(np.sqrt(var))
    sigma = scale / noise.snr
    x = img + rng.normal(0.0, sigma, img.shape)
    n_out = int(round(noise.outlier_frac * img.size))
    outliers = np.zeros(img.shape, dtype=bool)
    if n_out > 0:
        chosen = rng.choice(img.size, size=n_out, replace=False)
        outliers.flat[chosen] = True
        x = x + np.where(outliers, rng.normal(0.0, scale / noise.outlier_snr, img.shape), 0.0)
    if missing.mode == "none":
        observed = np.ones(img.shape, dtype=bool)
    elif missing.mode == "independent":
        observed = _sample_independent_mask(rng, img.shape, missing.rate)
    else:
        observed = _grow_patches(rng, img.shape[0], img.shape[1], missing.rate, missing.patch_size)
    return _instance(img, x, observed, outliers, sigma)


@dataclass(frozen=True)
class PathRecord:
    """One (replicate, path stage) measurement."""

    replicate: int
    gamma_index: int
    gamma: float
    fitted_rank: int
    training_error: float
    test_error: float
    svd_count: int
    converged: bool


@dataclass(frozen=True)
class RankSummary:
    """Mean +- standard error of the measurements at one fitted rank."""

    rank: int
    n: int
    mean_training_error: float
    se_training_error: float
    mean_test_error: float
    se_test_error: float
    mean_svd_count: float
    se_svd_count: float


@dataclass(frozen=True)
class BenchResult:
    """All measurements of one method in one study."""

    method: str
    replicates: int
    records: tuple
    failures: tuple  # (replicate index, message)

    def best_test_errors(self) -> list:
        """Per replicate, the smallest test error along the path."""
        best = {}
        for rec in self.records:
            cur = best.get(rec.replicate)
            if cur is None or rec.test_error < cur:
                best[rec.replicate] = rec.test_error
        return [best[r] for r in sorted(best)]

    @property
    def mean_best_test_error(self) -> Optional[float]:
        """Mean of `best_test_errors()`; None when no replicate succeeded."""
        vals = self.best_test_errors()
        return float(np.mean(vals)) if vals else None

    def rank_summaries(self) -> list:
        """Aggregate the records by fitted rank.

        A replicate contributes to rank r through the first path stage whose
        solution has that rank; replicates whose path never hits r are left out
        of r's average, mirroring how per-rank error tables discard fits that
        lack the rank.
        """
        per_rank = {}
        for rec in self.records:
            per_rank.setdefault(rec.fitted_rank, {}).setdefault(rec.replicate, rec)
        out = []
        for rank in sorted(per_rank):
            chosen = [per_rank[rank][r] for r in sorted(per_rank[rank])]
            tr_m, tr_s = _mean_se([c.training_error for c in chosen])
            te_m, te_s = _mean_se([c.test_error for c in chosen])
            sv_m, sv_s = _mean_se([c.svd_count for c in chosen])
            out.append(RankSummary(rank, len(chosen), tr_m, tr_s, te_m, te_s, sv_m, sv_s))
        return out


def _mean_se(values) -> tuple:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def solve_path(method: str, problem: Problem, config: SolverConfig) -> PathSolution:
    """Solve one method ("robust" or "soft") along the config's gamma path."""
    if method == "robust":
        return robust_impute(problem, config)
    if method == "soft":
        return soft_impute_path(problem, config)
    raise DataValidationError(f"unknown method {method!r}")


def score_path(instance: GroundTruthInstance, replicate: int, path: PathSolution) -> list:
    """One PathRecord per stage of `path`, in order, with the stage's
    `training_error` and `test_error`."""
    return [PathRecord(replicate, gi, sol.gamma, sol.final_rank,
                       training_error(instance, sol.y_hat), test_error(instance, sol.y_hat),
                       sol.svd_count, sol.converged)
            for gi, sol in enumerate(path)]


def _process_count(n_tasks: int) -> int:
    """The usable cores over the largest BLAS thread count `THREAD_VARIABLES`
    pin, at most `n_tasks`; 1 when none is pinned (OpenBLAS then takes every core),
    when another thread is alive (a fork copies only this one), or without fork or affinity."""
    pinned = [int(v) for v in map(os.environ.get, THREAD_VARIABLES)
              if v and v.strip().isdecimal() and int(v) > 0]
    if not (pinned and hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
            and threading.active_count() == 1):
        return 1
    return max(1, min(n_tasks, len(os.sched_getaffinity(0)) // max(pinned)))


def _solve_task(task) -> tuple:
    """(True, stage records, on replicate 0 the lowest-test-error stage estimate (first
    on ties), else None) or (False, message, None) for one (method, replicate) task."""
    m, rep, inst, problem, config = task
    try:
        path = solve_path(m, problem, config)
        scored = score_path(inst, rep, path)
    except (RobustMcError, np.linalg.LinAlgError) as exc:
        return False, str(exc), None
    best = path[int(np.argmin([r.test_error for r in scored]))].y_hat if rep == 0 else None
    return True, scored, best


_inherited = []  # a forked worker's task table, filled by its pool's initializer


def _solve_inherited(i) -> tuple:
    return _solve_task(_inherited[i])


def _solve_tasks(tasks) -> list:
    """Each task's `_solve_task`, in order: task i here when i % n == 0, else on one
    of n - 1 forked workers, which inherit the table; only indices and outcomes are pickled."""
    n = _process_count(len(tasks))
    if n == 1:
        return [_solve_task(t) for t in tasks]
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    pool = ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("fork"),
                               initializer=_inherited.extend, initargs=(tasks,))
    try:
        futures = [pool.submit(_solve_inherited, i) if i % n else None for i in range(len(tasks))]
        outcomes = [None if f else _solve_task(t) for f, t in zip(futures, tasks)]
        return [f.result() if f else out for f, out in zip(futures, outcomes)]
    except BrokenExecutor as exc:
        raise RobustMcError(f"a worker process solving the study died ({exc})") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def check_study(methods: Sequence[str], replicates: int) -> None:
    """Refuse a replicate count that is not an integer >= 1 and a method outside `METHODS`."""
    _check_count("replicates", replicates)
    for m in methods:
        if m not in METHODS:
            raise DataValidationError(f"unknown method {m!r}; expected subset of {METHODS}")


def run_study(instance_at: Callable[[int], GroundTruthInstance], methods: Sequence[str],
              replicates: int, config: SolverConfig) -> tuple:
    """Solve and score each method along one gamma path per replicate of one setting.

    `check_study` runs first, so a bad method or count builds no instance.
    `instance_at(r)` builds replicate r; the methods of a replicate share its
    instance and the gamma path `config.resolved` gives it.  All instances are
    built before their paths are solved on `_process_count` processes, which
    leaves every result unchanged.  A failed solve is recorded and the run goes
    on.  Returns one BenchResult per method, replicate 0's instance and each
    method's lowest-test-error stage estimate on it.
    """
    check_study(methods, replicates)
    built = []
    for rep in range(replicates):
        problem = (inst := instance_at(rep)).problem()
        built.append((rep, inst, problem, config.resolved(problem)))
    tasks = [(m, *b) for m in methods for b in built]
    records, failures, estimates = {m: [] for m in methods}, {m: [] for m in methods}, {}
    for (m, rep, *_), (ok, out, best) in zip(tasks, _solve_tasks(tasks)):
        if ok:
            records[m] += out
        else:
            failures[m].append((rep, out))
        if best is not None:
            estimates[m] = best
    results = [BenchResult(m, replicates, tuple(records[m]), tuple(failures[m]))
               for m in methods]
    return results, built[0][1], estimates


def run_benchmark(spec: SyntheticSpec, methods: Sequence[str], replicates: int, seed: int,
                  config: Optional[SolverConfig] = None) -> list:
    """Run each method over seeded synthetic replicates of `spec` (`run_study`): replicate
    r's instance seed is `replicate_seed(seed, r)`."""
    return run_study(lambda rep: generate_synthetic(spec, replicate_seed(seed, rep)),
                     methods, replicates, config if config is not None else SolverConfig())[0]
