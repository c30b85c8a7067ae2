"""End-to-end acceptance suite.

Each test prints one `ACCEPTANCE <n> ... PASS/FAIL` line (run pytest with
-s to stream them).  Criteria 5 and 7 drive the real CLI and compare its
benchmark artifacts; criterion 6 runs the image study on a deterministic
synthetic photograph unless a Lena PGM is dropped at
tests/data/lena_256.pgm, in which case the reference error-table branch is
exercised as well.
"""

import json
import os
import time

import numpy as np
import pytest

from robustmc import (
    DegradationSpec,
    MissingSpec,
    ObservationMask,
    Problem,
    SolverConfig,
    choose_cutoff,
    default_gamma_path,
    degrade_image,
    extract_sparse,
    general_robust,
    objective_g,
    objective_pcp,
    robust_impute,
    run_study,
    stationarity_certificate,
    svd,
    svd_soft_threshold,
)
from robustmc.cli import main as cli_main
from robustmc.matio import read_pgm

from oracles import prox_nuclear_oracle

pytestmark = pytest.mark.slow

MASTER_SEED = 20260809
LENA_PATH = os.path.join(os.path.dirname(__file__), "data", "lena_256.pgm")


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} :: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def seeded_outlier_problem(seed, max_side=24, outlier_frac=0.08, outlier_scale=6.0):
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(10, max_side + 1))
    n2 = int(rng.integers(8, max_side - 3))
    r = int(rng.integers(1, 4))
    x0 = rng.standard_normal((n1, r)) @ rng.standard_normal((n2, r)).T
    x = x0 + 0.1 * rng.standard_normal((n1, n2))
    n_out = max(1, int(outlier_frac * n1 * n2))
    idx = rng.choice(n1 * n2, n_out, replace=False)
    x.flat[idx] += outlier_scale * rng.choice([-1.0, 1.0], n_out)
    flags = rng.random((n1, n2)) < 0.65
    if not flags.any():
        flags[0, 0] = True
    return Problem.from_full(x, ObservationMask(flags))


def test_criterion_1_prox_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        n1 = int(rng.integers(3, 13))
        n2 = int(rng.integers(3, 9))
        m = 3.0 * rng.standard_normal((n1, n2))
        gamma = float(rng.uniform(0.1, 0.5)) * float(svd(m)[1][0])
        ours = svd_soft_threshold(m, gamma)
        ref = prox_nuclear_oracle(m, gamma, step=0.5, obj_tol=1e-9)
        worst = max(worst, np.linalg.norm(ours - ref) / np.linalg.norm(ref))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report(1, "prox oracle equivalence", ok,
           f"worst relative Frobenius gap {worst:.2e} (tol 1e-5), {elapsed:.1f}s")


@pytest.fixture(scope="module")
def monotonicity_runs():
    """20 seeded instances solved by both robust solvers at tight tolerance."""
    eps = 1e-11
    runs = []
    t0 = time.time()
    for seed in range(20):
        prob = seeded_outlier_problem(1000 + seed)
        cfg = SolverConfig(gamma_path=default_gamma_path(prob, 12),
                           epsilon=eps, max_inner_iters=6000)
        path = robust_impute(prob, cfg)
        mid_gamma = path.gammas[5]
        outer = general_robust(prob, mid_gamma,
                               SolverConfig(epsilon=eps, max_inner_iters=6000))
        runs.append((prob, path, outer))
    return runs, time.time() - t0


def test_criterion_2_monotonicity(monotonicity_runs):
    runs, elapsed = monotonicity_runs
    violations = 0
    checked = 0
    for _, path, outer in runs:
        for sol in list(path) + [outer]:
            t = sol.objective_trace
            checked += len(t) - 1
            violations += sum(
                1 for a, b in zip(t, t[1:]) if b > a + 1e-10 * max(1.0, a)
            )
    ok = violations == 0 and elapsed < 30.0
    report(2, "objective monotonicity", ok,
           f"{violations} violations over {checked} iteration pairs, {elapsed:.1f}s")


def test_criterion_4_stationarity_certificate(monotonicity_runs):
    runs, _ = monotonicity_runs
    checked = 0
    worst_gap_margin = 0.0
    worst_spectral = 0.0
    failures = 0
    for prob, path, _ in runs:
        for sol in path:
            if not sol.converged:
                continue
            checked += 1
            c = choose_cutoff(prob, sol.gamma)
            cert = stationarity_certificate(prob, sol.y_hat, sol.gamma, c)
            bound = 1e-3 * np.sqrt(cert.rank)
            gap_ok = cert.tangent_gap <= bound
            spec_ok = cert.orthogonal_norm <= 1.001
            if not (gap_ok and spec_ok):
                failures += 1
            if cert.rank > 0:
                worst_gap_margin = max(worst_gap_margin, cert.tangent_gap / bound)
            worst_spectral = max(worst_spectral, cert.orthogonal_norm)
    ok = failures == 0 and checked > 0
    report(4, "stationarity certificate", ok,
           f"{checked} converged solutions, worst gap at {worst_gap_margin:.2f} of "
           f"bound, worst spectral {worst_spectral:.4f} (limit 1.001)")


def test_criterion_3_pcp_equivalence():
    t0 = time.time()
    worst_y = 0.0
    worst_obj = 0.0
    for seed in range(10):
        prob = seeded_outlier_problem(2000 + seed, max_side=20, outlier_frac=0.1,
                                      outlier_scale=7.0)
        gamma = 0.15 * float(svd(prob.values)[1][0]) * (0.5 + 0.05 * seed)
        c = choose_cutoff(prob, gamma)
        y = robust_impute(prob, SolverConfig(gamma_path=(gamma,), cutoff=c,
                                             epsilon=1e-13, max_inner_iters=20000))[0]
        low = general_robust(prob, gamma, SolverConfig(
            cutoff=c, epsilon=1e-13, max_inner_iters=1000)).y_hat
        sparse = extract_sparse(prob, low, c)
        worst_y = max(worst_y, np.linalg.norm(low - y.y_hat)
                      / (1 + np.linalg.norm(y.y_hat)))
        g_val = objective_g(prob, y.y_hat, gamma, c)
        worst_obj = max(worst_obj, abs(g_val - objective_pcp(prob, low, sparse, gamma, c))
                        / (1 + g_val))
    # elimination identity at arbitrary, non-optimal low-rank candidates
    rng = np.random.default_rng(77)
    prob = seeded_outlier_problem(2042, max_side=20)
    gamma, c = 1.0, 0.35
    worst_id = 0.0
    for _ in range(50):
        l = rng.standard_normal(prob.shape) * rng.choice([0.2, 1.0, 4.0])
        a = objective_pcp(prob, l, extract_sparse(prob, l, c), gamma, c)
        b = objective_g(prob, l, gamma, c)
        worst_id = max(worst_id, abs(a - b) / (1 + abs(b)))
    elapsed = time.time() - t0
    ok = worst_y <= 1e-3 and worst_obj <= 1e-6 and worst_id <= 1e-10 and elapsed < 60.0
    report(3, "low-rank + sparse equivalence", ok,
           f"worst minimizer gap {worst_y:.2e} (tol 1e-3), objective gap "
           f"{worst_obj:.2e} (tol 1e-6), identity {worst_id:.2e} (tol 1e-10), "
           f"{elapsed:.1f}s")


SIMULATE_SETTINGS = {
    "p01": ["--outlier-prob", "0.1"],
    "p0": ["--outlier-prob", "0"],
}


def simulate_args(setting, out_dir):
    return (["simulate", "--n", "100", "--rank", "10", "--snr", "1",
             "--missing-prob", "0.5", "--replicates", "50",
             "--seed", str(MASTER_SEED), "--gamma-count", "20"]
            + SIMULATE_SETTINGS[setting] + ["--out-dir", out_dir])


@pytest.fixture(scope="module")
def experiment1(tmp_path_factory):
    """Criterion-5 CLI runs, one per contamination setting."""
    runs = {}
    t0 = time.time()
    for setting in SIMULATE_SETTINGS:
        out = str(tmp_path_factory.mktemp(f"exp1_{setting}"))
        code = cli_main(simulate_args(setting, out))
        assert code == 0, f"simulate exited {code} for {setting}"
        with open(os.path.join(out, "results.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(out, "results.csv"), "rb") as fh:
            csv_bytes = fh.read()
        by_method = {s["method"]: s for s in summary["settings"]}
        runs[setting] = {"json": by_method, "csv": csv_bytes}
    return runs, time.time() - t0


def test_criterion_5_experiment1_ordering(experiment1):
    runs, elapsed = experiment1
    # (a) outliers present: the robust path must win on mean best test error
    rob01 = runs["p01"]["json"]["robust"]["mean_best_test_error"]
    sof01 = runs["p01"]["json"]["soft"]["mean_best_test_error"]
    ok_a = rob01 < sof01
    # (b) no outliers: squared loss wins, but by at most 15 percent
    rob0 = runs["p0"]["json"]["robust"]["mean_best_test_error"]
    sof0 = runs["p0"]["json"]["soft"]["mean_best_test_error"]
    ok_b = sof0 <= rob0 and rob0 <= 1.15 * sof0
    # (c) SVD cost: mean per-rank gap between the methods, ranks above 5
    gap_means = {}
    for setting, run in runs.items():
        per_rank = {m: {row["rank"]: row for row in run["json"][m]["per_rank"]}
                    for m in ("robust", "soft")}
        common = sorted(set(per_rank["robust"]) & set(per_rank["soft"]))
        gaps = [abs(per_rank["robust"][k]["mean_svd_count"]
                    - per_rank["soft"][k]["mean_svd_count"])
                for k in common if k > 5]
        gap_means[setting] = float(np.mean(gaps))
    ok_c = all(g <= 3.0 for g in gap_means.values())
    ok = ok_a and ok_b and ok_c
    report(5, "synthetic benchmark ordering", ok,
           f"(a) robust {rob01:.4f} < soft {sof01:.4f}; "
           f"(b) soft {sof0:.4f} <= robust {rob0:.4f} <= {1.15 * sof0:.4f}; "
           f"(c) mean per-rank SVD gaps {gap_means} (limit 3); {elapsed:.0f}s")


def acceptance_image(n=256):
    """Deterministic stand-in for a textured grayscale photograph."""
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1)
    img = 0.46 + 0.14 * np.sin(2.2 * np.pi * xx + 0.7) * np.cos(1.7 * np.pi * yy)
    img += 0.15 * np.exp(-((xx - 0.30) ** 2 + (yy - 0.35) ** 2) / 0.040)
    img -= 0.11 * np.exp(-((xx - 0.72) ** 2 + (yy - 0.68) ** 2) / 0.015)
    img[int(0.55 * n):int(0.80 * n), int(0.15 * n):int(0.35 * n)] += 0.11
    img[int(0.10 * n):int(0.25 * n), int(0.60 * n):int(0.90 * n)] -= 0.09
    rng = np.random.default_rng(246)
    fy = np.fft.fftfreq(n)[:, None]
    fx = np.fft.fftfreq(n)[None, :]
    rad2 = (fy ** 2 + fx ** 2) * n * n
    tex = np.fft.ifft2(np.fft.fft2(rng.standard_normal((n, n))) / (1.0 + rad2 ** 0.45)).real
    tex = tex / np.abs(tex).max() * 0.26
    return np.clip(img + tex, 0.02, 0.98)


TARGET_RANKS = (50, 75, 100, 125)
NO_HIT = (float("nan"), 0)  # (mean test error, n) at a rank no path reaches


def _gamma_at_rank(gammas, ranks, target):
    lg = np.log(gammas)
    for i in range(len(ranks) - 1):
        lo, hi = ranks[i], ranks[i + 1]
        if lo <= target <= hi:
            w = 0.0 if hi == lo else (target - lo) / (hi - lo)
            return float(np.exp(lg[i] + w * (lg[i + 1] - lg[i])))
    return None


def _solve(instance_at, replicates, gammas):
    """Both methods' `BenchResult`s along one gamma path, from `run_study`."""
    results = run_study(instance_at, ("robust", "soft"), replicates,
                        SolverConfig(gamma_path=gammas))[0]
    assert not any(res.failures for res in results)
    return results


def _rank_targeted_path(instance_at):
    """Fixed gamma set: coarse backbone plus windows around each target rank,
    anchored on a warm-started pilot profile per method on replicate 0."""
    sigma1 = float(svd(instance_at(0).problem().values)[1][0])
    backbone = np.geomspace(0.045 * sigma1, 0.0002 * sigma1, 20)
    pieces = [backbone]
    for pilot in _solve(instance_at, 1, tuple(backbone)):
        ranks = [rec.fitted_rank for rec in pilot.records]
        for target in TARGET_RANKS:
            a = _gamma_at_rank(backbone, ranks, target)
            if a is not None:
                pieces.append(np.geomspace(a * 1.12, a * 0.89, 13))
    return tuple(np.unique(np.concatenate(pieces))[::-1].tolist())


def _mechanism_seed(mech_idx, rep):
    """Replicate rep's seed under missing-data mechanism mech_idx: the first 64-bit
    word of the child sequence spawned from MASTER_SEED at key (mech_idx, rep)."""
    ss = np.random.SeedSequence(MASTER_SEED, spawn_key=(mech_idx, rep))
    return int(ss.generate_state(1, np.uint64)[0])


def _image_study(img, replicates):
    """Per mechanism, each method's (mean test error, n) by fitted rank: a
    replicate counts at rank r through the first stage of its path with that rank."""
    mechanisms = (("independent", MissingSpec.independent(0.4)),
                  ("clustered", MissingSpec.clustered(0.1, 16)))
    study = {}
    for mech_idx, (mech, miss) in enumerate(mechanisms):
        def instance_at(rep):
            return degrade_image(img, DegradationSpec(3.0, 0.1, 0.75), miss,
                                 _mechanism_seed(mech_idx, rep))

        results = _solve(instance_at, replicates, _rank_targeted_path(instance_at))
        study[mech] = {res.method: {s.rank: (s.mean_test_error, s.n)
                                    for s in res.rank_summaries()} for res in results}
    return study


def test_criterion_6_experiment2_image_inpainting():
    t0 = time.time()
    lena = os.path.exists(LENA_PATH)
    study = _image_study(read_pgm(LENA_PATH) if lena else acceptance_image(), 20)
    if lena:
        table = {  # reference rank-100 errors for the standard Lena setup
            "independent": {"soft": 0.0581, "robust": 0.0557},
            "clustered": {"soft": 0.0760, "robust": 0.0723},
        }
        details = []
        ok = True
        for mech, ref in table.items():
            for method, target_value in ref.items():
                mean, n = study[mech][method].get(100, NO_HIT)
                ok &= n > 0 and abs(mean - target_value) <= 0.2 * target_value
                details.append(f"{mech}/{method} rank-100 {mean:.4f} vs {target_value}")
        report(6, "image inpainting (reference image)", ok,
               "; ".join(details) + f"; {time.time() - t0:.0f}s")
        return

    details = []
    ok = True
    for mech in ("independent", "clustered"):
        wins = 0
        parts = []
        for target in TARGET_RANKS:
            r_mean, r_n = study[mech]["robust"].get(target, NO_HIT)
            s_mean, s_n = study[mech]["soft"].get(target, NO_HIT)
            wins += r_n > 0 and s_n > 0 and r_mean < s_mean
            parts.append(f"r{target}: {r_mean:.4f}/{s_mean:.4f} (n={r_n}/{s_n})")
        ok &= wins >= 3
        details.append(f"{mech} robust wins {wins}/4 [{'; '.join(parts)}]")
    report(6, "image inpainting (synthetic image)", ok,
           " | ".join(details) + f"; {time.time() - t0:.0f}s")


def test_criterion_7_determinism(experiment1, tmp_path_factory):
    runs, _ = experiment1
    t0 = time.time()
    identical = True
    for setting in SIMULATE_SETTINGS:
        out = str(tmp_path_factory.mktemp(f"exp1_{setting}_again"))
        code = cli_main(simulate_args(setting, out))
        assert code == 0
        with open(os.path.join(out, "results.csv"), "rb") as fh:
            identical &= fh.read() == runs[setting]["csv"]
    report(7, "benchmark determinism", identical,
           f"re-ran both settings with the same master seed, byte-compared CSVs, "
           f"{time.time() - t0:.0f}s")
