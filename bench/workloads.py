"""The benchmark's workloads: their inputs, their CLI calls and their checks.

A workload object is made for one benchmark run.  `prepare(work, seed)`
writes the inputs under `work` and returns the CLI argument lists to run,
in order; `check()` reads the outputs those calls left and either raises
`CheckFailed` or returns the robust method's relative test error.

Every check is computed here, apart from the program: the planted target
and masks are rebuilt from the seed, the Huber objective and the ranks are
recomputed with their own code and LAPACK driver, and the orderings are the
ones the method must show.  Nothing is compared with a stored copy of an
earlier run's output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.linalg

SEED_MASK = 0xFFFFFFFFFFFFFFFF
RANK_TOL = 1e-8          # relative cut for counting singular values, as the solvers do
OUTLIER_NOISE_SCALE = 4.0  # outlier noise sd over base noise sd, as in `simulate`
OBJECTIVE_RTOL = 1e-6    # complete-600: recomputed vs reported Huber objective
MEAN_RTOL = 1e-12        # simulate-100: recomputed vs reported mean best test error
GAMMA_COUNT = 20         # simulate-100: points on the CLI's auto gamma path
GAMMA_POINTS = 6         # complete-600: points on the explicit gamma path


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(v) -> str:
    return repr(float(v))


class Simulate:
    """`robustmc simulate`, the paper's synthetic study, both methods."""

    name = "simulate-100"

    def __init__(self, n=100, rank=10, replicates=15):
        self.n = n
        self.rank = rank
        self.replicates = replicates

    def prepare(self, work, seed):
        self.out = os.path.join(work, "out-simulate")
        return [["simulate", "--n", str(self.n), "--rank", str(self.rank), "--snr", "1",
                 "--outlier-prob", "0.1", "--missing-prob", "0.5", "--method", "both",
                 "--gamma-count", str(GAMMA_COUNT),
                 "--replicates", str(self.replicates), "--seed", str(seed),
                 "--out-dir", self.out]]

    def check(self):
        with open(os.path.join(self.out, "results.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        expected = self.replicates * 2 * GAMMA_COUNT
        _require(len(rows) == expected, f"results.csv has {len(rows)} rows, expected {expected}")
        best = {}
        for row in rows:
            tr, te = float(row["training_error"]), float(row["test_error"])
            _require(math.isfinite(tr) and tr > 0 and math.isfinite(te) and te > 0,
                     f"non-finite or non-positive error in row {row}")
            key = (row["method"], int(row["replicate"]))
            best[key] = min(best.get(key, math.inf), te)
        summary = {s["method"]: s for s in _read_json(os.path.join(self.out, "results.json"))["settings"]}
        means = {}
        for method in ("robust", "soft"):
            per_rep = [best[(method, r)] for r in range(self.replicates) if (method, r) in best]
            _require(len(per_rep) == self.replicates,
                     f"{method}: {len(per_rep)} replicates in results.csv, expected {self.replicates}")
            means[method] = sum(per_rep) / len(per_rep)
            reported = summary[method]["mean_best_test_error"]
            _require(math.isclose(means[method], reported, rel_tol=MEAN_RTOL),
                     f"{method}: mean best test error {reported} in results.json, "
                     f"{means[method]} recomputed from results.csv")
        _require(means["robust"] < means["soft"],
                 f"robust mean best test error {means['robust']} is not below soft's {means['soft']}")
        return means["robust"]


PHOTO_TEXTURE_SEED = 246  # the acceptance suite's image; --seed varies its degradation


def synthetic_photo(n, seed=PHOTO_TEXTURE_SEED):
    """Grayscale stand-in for a photograph: smooth shapes, edges and a
    band-limited texture, in [0.02, 0.98]."""
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1)
    img = 0.46 + 0.14 * np.sin(2.2 * np.pi * xx + 0.7) * np.cos(1.7 * np.pi * yy)
    img += 0.15 * np.exp(-((xx - 0.30) ** 2 + (yy - 0.35) ** 2) / 0.040)
    img -= 0.11 * np.exp(-((xx - 0.72) ** 2 + (yy - 0.68) ** 2) / 0.015)
    img[int(0.55 * n):int(0.80 * n), int(0.15 * n):int(0.35 * n)] += 0.11
    img[int(0.10 * n):int(0.25 * n), int(0.60 * n):int(0.90 * n)] -= 0.09
    rng = np.random.default_rng(seed)
    fy = np.fft.fftfreq(n)[:, None]
    fx = np.fft.fftfreq(n)[None, :]
    rad2 = (fy ** 2 + fx ** 2) * n * n
    tex = np.fft.ifft2(np.fft.fft2(rng.standard_normal((n, n))) / (1.0 + rad2 ** 0.45)).real
    tex = tex / np.abs(tex).max() * 0.26
    return np.clip(img + tex, 0.02, 0.98)


def read_p5(path):
    with open(path, "rb") as fh:
        data = fh.read()
    magic, width, height, maxval = data.split(maxsplit=4)[:4]
    _require(magic == b"P5" and int(maxval) == 255, f"{path}: not an 8-bit P5 PGM")
    w, h = int(width), int(height)
    return np.frombuffer(data[-w * h:], dtype=np.uint8).reshape(h, w)


def replicate_seed(master, spec_index, replicate):
    """The per-replicate seed the CLI documents: the first 64-bit word of
    SeedSequence(master, spawn_key=(spec_index, replicate))."""
    ss = np.random.SeedSequence(master & SEED_MASK, spawn_key=(spec_index, replicate))
    return int(ss.generate_state(1, np.uint64)[0])


def degrade(img, seed, missing, rate, patch, snr=3.0, outlier_frac=0.1, outlier_snr=0.75):
    """The documented degradation of `inpaint`: noise at `snr`, an exact
    share of outlier pixels at `outlier_snr`, then the missing pixels.
    Returns (noisy image, observed flags)."""
    rng = np.random.default_rng(seed & SEED_MASK)
    scale = float(np.sqrt(img.var()))
    x = img + rng.normal(0.0, scale / snr, img.shape)
    outliers = np.zeros(img.shape, dtype=bool)
    outliers.flat[rng.choice(img.size, size=int(round(outlier_frac * img.size)), replace=False)] = True
    x = x + np.where(outliers, rng.normal(0.0, scale / outlier_snr, img.shape), 0.0)
    if missing == "independent":
        observed = rng.random(img.shape) >= rate
    else:
        n1, n2 = img.shape
        gone = np.zeros(img.shape, dtype=bool)
        while gone.sum() < rate * img.size:
            i = int(rng.integers(0, n1 - patch + 1))
            j = int(rng.integers(0, n2 - patch + 1))
            gone[i:i + patch, j:j + patch] = True
        observed = ~gone
    return x, observed


class Inpaint:
    """`robustmc inpaint` on a seeded synthetic photograph, once per
    missingness mechanism, both methods, one replicate."""

    name = "inpaint-256"
    MECHANISMS = (("independent", 0.4), ("clustered", 0.1))

    def __init__(self, n=256, patch=16):
        self.n = n
        self.patch = patch

    def prepare(self, work, seed):
        self.seed = seed
        self.work = work
        self.pixels = np.rint(synthetic_photo(self.n) * 255.0).astype(np.uint8)
        image = os.path.join(work, "photo.pgm")
        with open(image, "wb") as fh:
            fh.write(f"P5\n{self.n} {self.n}\n255\n".encode("ascii") + self.pixels.tobytes())
        return [["inpaint", image, "--missing", mech, "--patch-size", str(self.patch),
                 "--seed", str(seed), "--method", "both", "--out-dir", self.out_dir(mech)]
                for mech, _ in self.MECHANISMS]

    def out_dir(self, mech):
        return os.path.join(self.work, f"out-inpaint-{mech}")

    def check(self):
        x0 = self.pixels / 255.0
        robust = []
        for mech, rate in self.MECHANISMS:
            out = self.out_dir(mech)
            x, observed = degrade(x0, replicate_seed(self.seed, 0, 0), mech, rate, self.patch)
            missing = ~observed
            _require(missing.any(), f"{mech}: no missing pixels")
            expected = np.where(observed, np.rint(np.clip(x, 0.0, 1.0) * 255.0), 0.0)
            degraded = read_p5(os.path.join(out, "degraded.pgm")).astype(float)
            _require(np.abs(degraded - expected).max() <= 1.0,
                     f"{mech}: degraded.pgm differs from the benchmark's own degradation")
            den = float(np.sum(x0[missing] ** 2))
            fill = float(np.median(degraded[observed])) / 255.0
            trivial = float(np.sum((x0[missing] - fill) ** 2)) / den
            quant = 0.5 / 255.0 * math.sqrt(int(missing.sum()))
            reported = _read_json(os.path.join(out, "errors.json"))["mean_best_test_error"]
            for method in ("robust", "soft"):
                rec = read_p5(os.path.join(out, f"recovered_{method}.pgm")) / 255.0
                err = float(np.sum((x0[missing] - rec[missing]) ** 2)) / den
                gap = abs(math.sqrt(err * den) - math.sqrt(reported[method] * den))
                _require(gap <= quant,
                         f"{mech}/{method}: test error {err} of recovered PGM vs {reported[method]} "
                         f"in errors.json, norm gap {gap} over quantisation {quant}")
                _require(err < trivial,
                         f"{mech}/{method}: test error {err} not below the median fill's {trivial}")
            robust.append(reported["robust"])
        return sum(robust) / len(robust)


class Complete:
    """`robustmc complete` on a seeded low-rank CSV with noise, outliers
    and missing cells, over a short explicit gamma path."""

    name = "complete-600"

    def __init__(self, n=600, rank=10):
        self.n = n
        self.rank = rank

    def prepare(self, work, seed):
        rng = np.random.default_rng([seed & SEED_MASK, self.n])
        n = self.n
        x0 = rng.standard_normal((n, self.rank)) @ rng.standard_normal((n, self.rank)).T
        sigma = float(np.sqrt(x0.var()))  # SNR 1
        x = x0 + rng.normal(0.0, sigma, x0.shape)
        outliers = rng.random(x0.shape) < 0.1
        x = x + np.where(outliers, rng.normal(0.0, OUTLIER_NOISE_SCALE * sigma, x0.shape), 0.0)
        observed = rng.random(x0.shape) >= 0.5
        self.x0, self.observed = x0, observed
        self.x = np.where(observed, x, 0.0)
        top = float(scipy.linalg.svdvals(self.x)[0])
        self.gammas = np.geomspace(0.95 * top, 0.3 * top, GAMMA_POINTS)
        csv = os.path.join(work, "observed.csv")
        with open(csv, "w", encoding="utf-8") as fh:
            for row, seen in zip(self.x, observed):
                fh.write(",".join(_fmt(v) if s else "" for v, s in zip(row, seen)) + "\n")
        self.out = os.path.join(work, "out-complete")
        return [["complete", csv, "--gamma-path", ",".join(_fmt(g) for g in self.gammas),
                 "--out-dir", self.out]]

    def check(self):
        y = np.loadtxt(os.path.join(self.out, "completed.csv"), delimiter=",", ndmin=2)
        _require(y.shape == self.x.shape, f"completed.csv has shape {y.shape}")
        entries = _read_json(os.path.join(self.out, "diagnostics.json"))["entries"]
        _require(len(entries) == len(self.gammas), f"{len(entries)} diagnostics entries")
        last = entries[-1]
        gamma = float(self.gammas[-1])
        _require(last["gamma"] == gamma, f"last gamma {last['gamma']} != {gamma}")
        c = gamma / math.sqrt(max(self.x.shape) * self.observed.mean())
        r = np.abs(np.where(self.observed, self.x - y, 0.0))
        huber = np.where(r <= c, r * r, c * (2.0 * r - c))
        s = scipy.linalg.svd(y, compute_uv=False, lapack_driver="gesvd")
        objective = 0.5 * float(huber.sum()) + gamma * float(s.sum())
        _require(math.isclose(objective, last["objective_final"], rel_tol=OBJECTIVE_RTOL),
                 f"Huber objective {objective} recomputed, {last['objective_final']} reported")
        rank = int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0
        _require(rank == last["final_rank"], f"rank {rank} recomputed, {last['final_rank']} reported")
        unobserved = ~self.observed
        rse = float(np.sum((self.x0 - y)[unobserved] ** 2) / np.sum(self.x0[unobserved] ** 2))
        _require(rse < 1.0, f"test error {rse} is no better than the zero predictor")
        return rse


WORKLOADS = {w.name: w for w in (Simulate, Inpaint, Complete)}
