import dataclasses
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from robustmc import experiments
from robustmc import (
    BenchResult,
    DataValidationError,
    DegradationSpec,
    DimensionMismatchError,
    GroundTruthInstance,
    MissingSpec,
    ObservationMask,
    PathRecord,
    SolverConfig,
    SvdError,
    SyntheticSpec,
    default_gamma_path,
    degrade_image,
    generate_synthetic,
    replicate_seed,
    robust_impute,
    run_benchmark,
    run_study,
    score_path,
    soft_impute_path,
    training_error,
)
from robustmc import test_error as metric_test_error


def hand_instance():
    """3x3 instance with hand-checkable error ratios."""
    x0 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
    x = np.array([[1.5, 10.0, 7.0], [7.0, 7.0, 0.5], [2.5, 7.0, 7.0]])
    observed = np.array([[1, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=bool)
    outliers = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=bool)
    return GroundTruthInstance(
        x0=x0,
        x=x,
        mask=ObservationMask(observed),
        outlier_set=ObservationMask(outliers),
        clean_observed_set=ObservationMask(observed & ~outliers),
        sigma=0.5,
    )


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(DataValidationError):
            SyntheticSpec(10, 10, 11, 1.0, 0.0, 0.5, 0)
        with pytest.raises(DataValidationError):
            SyntheticSpec(10, 10, 2, 0.0, 0.0, 0.5, 0)
        with pytest.raises(DataValidationError):
            SyntheticSpec(10, 10, 2, 1.0, 1.0, 0.5, 0)

    @pytest.mark.parametrize("args, message", [
        ((0, 10, 1, 1.0, 0.0, 0.5, 0), "dimensions must be positive"),
        ((10, 0, 1, 1.0, 0.0, 0.5, 0), "dimensions must be positive"),
        ((10, 10, 0, 1.0, 0.0, 0.5, 0), "rank must lie"),
        ((10, 10, 2, 1.0, -0.1, 0.5, 0), "outlier_prob must be in"),
        ((10, 10, 2, 1.0, 0.0, 1.0, 0), "missing_prob must be in"),
    ])
    def test_each_setting_is_checked(self, args, message):
        with pytest.raises(DataValidationError, match=message):
            SyntheticSpec(*args)

    def test_setting_id(self):
        spec = SyntheticSpec(100, 100, 10, 1.0, 0.1, 0.5, 7)
        assert spec.setting_id == "n100x100_r10_s1_p0.1_q0.5"


class TestGenerateSynthetic:
    def test_degenerate_parameters(self):
        inst = generate_synthetic(SyntheticSpec(30, 20, 3, 2.0, 0.0, 0.0, 11))
        assert inst.mask.n_observed == 600
        assert inst.outlier_set.n_observed == 0
        noise = inst.x - inst.x0
        assert noise.std() == pytest.approx(inst.sigma, rel=0.15)

    def test_high_snr_limit(self):
        inst = generate_synthetic(SyntheticSpec(20, 20, 2, 1e9, 0.0, 0.0, 12))
        assert np.allclose(inst.x, inst.x0, atol=1e-6)

    def test_partition_invariant(self):
        inst = generate_synthetic(SyntheticSpec(40, 30, 4, 1.0, 0.2, 0.3, 13))
        union = inst.outlier_set.flags | inst.clean_observed_set.flags
        assert np.array_equal(union, inst.mask.flags)
        assert not (inst.outlier_set.flags & inst.clean_observed_set.flags).any()

    def test_deterministic(self):
        spec = SyntheticSpec(25, 25, 3, 1.0, 0.1, 0.5, 14)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.x, b.x)
        assert a.mask == b.mask

    def test_marginals_match_spec(self):
        observed_fracs, outlier_fracs, snrs = [], [], []
        for seed in range(50):
            inst = generate_synthetic(SyntheticSpec(100, 100, 10, 1.0, 0.1, 0.5, seed))
            observed_fracs.append(inst.mask.fraction_observed)
            outlier_fracs.append(inst.outlier_set.n_observed / inst.mask.n_observed)
            clean_noise = (inst.x - inst.x0)[inst.clean_observed_set.flags]
            snrs.append(np.sqrt(inst.x0.var()) / clean_noise.std())
        assert abs(np.mean(observed_fracs) - 0.5) < 0.02
        assert abs(np.mean(outlier_fracs) - 0.1) < 0.015
        assert 0.9 < np.mean(snrs) < 1.1

    def test_problem_round_trip(self):
        inst = generate_synthetic(SyntheticSpec(15, 10, 2, 1.0, 0.1, 0.4, 15))
        prob = inst.problem()
        assert np.array_equal(prob.values[prob.mask.flags], inst.x[inst.mask.flags])
        assert not prob.values[~prob.mask.flags].any()

    def test_hopeless_missing_rate_errors_after_retries(self):
        spec = SyntheticSpec(2, 2, 1, 1.0, 0.0, 1 - 1e-12, 15)
        with pytest.raises(DataValidationError):
            generate_synthetic(spec)


class TestErrorMetrics:
    def test_training_error_zero_at_perfect_fit(self):
        inst = hand_instance()
        assert training_error(inst, inst.x) == 0.0

    def test_training_error_one_at_zero(self):
        inst = hand_instance()
        assert training_error(inst, np.zeros((3, 3))) == 1.0

    def test_test_error_zero_at_truth(self):
        inst = hand_instance()
        assert metric_test_error(inst, inst.x0) == 0.0

    def test_test_error_one_at_zero(self):
        inst = hand_instance()
        assert metric_test_error(inst, np.zeros((3, 3))) == 1.0

    def test_hand_computed_values(self):
        inst = hand_instance()
        y = np.ones((3, 3))
        assert training_error(inst, y) == pytest.approx(11 / 35, abs=1e-12)
        assert metric_test_error(inst, y) == pytest.approx(1.5, abs=1e-12)

    def test_training_error_ignores_everything_off_clean_set(self):
        inst = hand_instance()
        y = np.ones((3, 3))
        base = training_error(inst, y)
        bumped = y + np.where(inst.clean_observed_set.flags, 0.0, 100.0)
        assert training_error(inst, bumped) == base

    def test_test_error_ignores_observed_entries(self):
        inst = hand_instance()
        y = np.ones((3, 3))
        base = metric_test_error(inst, y)
        bumped = y + np.where(inst.mask.flags, 100.0, 0.0)
        assert metric_test_error(inst, bumped) == base

    def test_empty_clean_set_rejected(self):
        inst = hand_instance()
        broken = dataclasses.replace(
            inst,
            outlier_set=inst.mask,
            clean_observed_set=ObservationMask(np.zeros((3, 3), dtype=bool)),
        )
        with pytest.raises(DataValidationError):
            training_error(broken, np.ones((3, 3)))

    def test_full_mask_scores_every_entry_against_the_target(self):
        # nothing is unobserved, so test error falls back to every entry
        inst = generate_synthetic(SyntheticSpec(10, 10, 2, 1.0, 0.1, 0.0, 16))
        y = inst.x0 + np.random.default_rng(16).standard_normal(inst.x0.shape)
        expected = float(np.sum((inst.x0 - y) ** 2) / np.sum(inst.x0 ** 2))
        assert metric_test_error(inst, y) == expected  # bit for bit
        assert metric_test_error(inst, inst.x0) == 0.0

    @pytest.mark.parametrize("score", [training_error, metric_test_error])
    def test_wrong_shape_is_a_dimension_mismatch(self, score):
        with pytest.raises(DimensionMismatchError, match=r"y_hat shape \(3, 4\)"):
            score(hand_instance(), np.ones((3, 4)))


class TestDegradeImage:
    def image(self, n=48):
        yy, xx = np.mgrid[0:n, 0:n] / (n - 1)
        return 0.4 + 0.3 * np.sin(2 * np.pi * xx) * np.cos(np.pi * yy)

    def test_noiseless_limit(self):
        img = self.image()
        inst = degrade_image(img, DegradationSpec(math.inf, 0.0, 1.0), MissingSpec.none(), 17)
        assert np.array_equal(inst.x, img)
        assert inst.mask.n_observed == img.size

    def test_outlier_count_is_exact(self):
        img = self.image()
        inst = degrade_image(img, DegradationSpec(3.0, 0.1, 0.75), MissingSpec.none(), 18)
        assert inst.outlier_set.n_observed == round(0.1 * img.size)

    def test_variance_additivity(self):
        img = self.image(40)
        sd = np.sqrt(img.var())
        snr = 3.0
        total = []
        for seed in range(20):
            inst = degrade_image(img, DegradationSpec(snr, 1.0, snr), MissingSpec.none(), seed)
            total.append((inst.x - img).var())
        expected = 2 * (sd / snr) ** 2  # two independent layers at equal sd
        assert np.mean(total) == pytest.approx(expected, rel=0.1)

    def test_independent_missing_fraction(self):
        img = self.image(64)
        fracs = [
            degrade_image(img, DegradationSpec(3.0, 0.0, 1.0), MissingSpec.independent(0.4), s)
            .mask.fraction_observed
            for s in range(20)
        ]
        assert abs(np.mean(fracs) - 0.6) < 0.02

    def test_zero_variance_image_rejected(self):
        with pytest.raises(DataValidationError):
            degrade_image(np.full((8, 8), 0.5), DegradationSpec(3.0, 0.1, 0.75),
                          MissingSpec.none(), 19)

    @pytest.mark.parametrize("levels,message", [
        ((0.0, 0.1, 0.75), "snr must be positive"),
        ((3.0, 1.5, 0.75), "outlier_frac must be in"),
        ((3.0, np.nan, 0.75), "outlier_frac must be in"),
        ((3.0, 0.1, -1.0), "outlier_snr must be positive"),
    ])
    def test_noise_levels_owned_by_the_spec(self, levels, message):
        with pytest.raises(DataValidationError, match=message):
            DegradationSpec(*levels)

    def test_noiseless_levels_accepted(self):
        assert DegradationSpec(np.inf, 0.0, np.inf).snr == np.inf
        assert DegradationSpec(3.0, 1.0, 0.75).outlier_frac == 1.0


def degraded_mask(n_rows, n_cols, missing_frac, patch_size, seed):
    """The observation mask `degrade_image` draws for clustered missingness."""
    img = np.random.default_rng(25).random((n_rows, n_cols))
    missing = MissingSpec.clustered(missing_frac, patch_size)
    return degrade_image(img, DegradationSpec(3.0, 0.0, 1.0), missing, seed).mask


class TestClusteredMask:
    def test_fraction_window_and_patch_membership(self):
        patch = 16
        mask = degraded_mask(256, 256, 0.1, patch, seed=20)
        missing = ~mask.flags
        frac = missing.mean()
        assert 0.1 <= frac < 0.1 + patch * patch / missing.size  # overshoot under one patch
        # every missing pixel sits inside at least one fully missing patch
        window = np.lib.stride_tricks.sliding_window_view(missing, (patch, patch))
        full = window.all(axis=(2, 3))
        covered = np.zeros_like(missing)
        for i, j in zip(*np.nonzero(full)):
            covered[i:i + patch, j:j + patch] = True
        assert np.array_equal(covered, missing)

    def test_patch_size_one_matches_target_closely(self):
        mask = degraded_mask(64, 64, 0.2, 1, seed=21)
        assert (~mask.flags).mean() == pytest.approx(0.2, abs=0.01)

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(DataValidationError):
            degraded_mask(32, 32, 0.01, 16, seed=22)  # target below one patch
        with pytest.raises(DataValidationError):
            degraded_mask(8, 8, 0.5, 16, seed=23)  # patch exceeds grid
        with pytest.raises(DataValidationError, match="missing rate"):
            degraded_mask(8, 8, 1.5, 2, seed=23)
        with pytest.raises(DataValidationError, match="patch_size"):
            degraded_mask(8, 8, 0.5, 0, seed=23)  # would never grow a patch

    def test_deterministic(self):
        a = degraded_mask(128, 128, 0.15, 8, seed=24)
        b = degraded_mask(128, 128, 0.15, 8, seed=24)
        assert a == b


class TestReplicateSeed:
    def test_stable_and_distinct(self):
        s = replicate_seed(42, 0, 0)
        assert s == replicate_seed(42, 0, 0)
        others = {replicate_seed(42, i, j) for i in range(3) for j in range(10)}
        assert len(others) == 30


class TestScorePath:
    @pytest.fixture
    def scored(self):
        inst = generate_synthetic(SyntheticSpec(12, 10, 2, 2.0, 0.1, 0.4, seed=9))
        path = soft_impute_path(inst.problem(), SolverConfig(gamma_path=(4.0, 2.0, 1.0)))
        return inst, path

    def test_one_record_per_stage_in_order(self, scored):
        inst, path = scored
        records = score_path(inst, 3, path)
        assert [r.gamma_index for r in records] == [0, 1, 2]
        for rec, sol in zip(records, path):
            assert rec.replicate == 3
            assert rec.gamma == sol.gamma
            assert rec.fitted_rank == sol.final_rank
            assert rec.svd_count == sol.svd_count
            assert rec.converged == sol.converged
            assert rec.training_error == training_error(inst, sol.y_hat)
            assert rec.test_error == metric_test_error(inst, sol.y_hat)


class TestRunBenchmark:
    def test_smoke_single_replicate(self):
        spec = SyntheticSpec(5, 5, 1, 2.0, 0.0, 0.3, 0)
        results = run_benchmark([spec], ["soft"], 1, seed=1, config=SolverConfig(gamma_count=5))
        (res,) = results
        assert res.method == "soft"
        assert len(res.records) == 5
        assert all(np.isfinite(r.training_error) for r in res.records)
        assert all(np.isfinite(r.test_error) for r in res.records)

    def test_deterministic_across_calls(self):
        spec = SyntheticSpec(15, 15, 2, 1.0, 0.1, 0.4, 0)
        config = SolverConfig(gamma_count=6)
        a = run_benchmark([spec], ["robust", "soft"], 2, seed=5, config=config)
        b = run_benchmark([spec], ["robust", "soft"], 2, seed=5, config=config)
        assert a == b

    def test_no_outliers_huge_cutoff_makes_methods_identical(self):
        spec = SyntheticSpec(15, 15, 2, 1.0, 0.0, 0.4, 0)
        results = run_benchmark([spec], ["robust", "soft"], 2, seed=6,
                                config=SolverConfig(cutoff=1e12, gamma_count=6))
        robust = [r for r in results if r.method == "robust"][0]
        soft = [r for r in results if r.method == "soft"][0]
        for a, b in zip(robust.records, soft.records):
            assert a.fitted_rank == b.fitted_rank
            assert a.svd_count == b.svd_count
            assert a.training_error == pytest.approx(b.training_error, abs=1e-9)
            assert a.test_error == pytest.approx(b.test_error, abs=1e-9)

    def test_config_caps_every_stage(self):
        spec = SyntheticSpec(15, 15, 2, 1.0, 0.1, 0.4, 0)
        results = run_benchmark([spec], ["robust", "soft"], 2, seed=5,
                                config=SolverConfig(max_inner_iters=1, gamma_count=4))
        records = [rec for res in results for rec in res.records]
        assert len(records) == 2 * 2 * 4
        assert not any(rec.converged for rec in records)

    def test_config_gamma_path_is_every_replicates_path(self):
        spec = SyntheticSpec(15, 15, 2, 1.0, 0.1, 0.4, 0)
        gammas = (3.0, 1.5, 0.7)
        for res in run_benchmark([spec], ["robust", "soft"], 2, seed=5,
                                 config=SolverConfig(gamma_path=gammas, gamma_count=8)):
            assert [rec.gamma for rec in res.records] == list(gammas) * 2

    def test_method_failure_recorded_and_run_continues(self, monkeypatch):
        def fail(*args, **kwargs):
            raise SvdError("SVD failed to converge")

        monkeypatch.setattr("robustmc.experiments.solve_path", fail)
        spec = SyntheticSpec(10, 10, 2, 1.0, 0.0, 0.0, 0)
        results = run_benchmark([spec], ["soft"], 2, seed=7, config=SolverConfig(gamma_count=4))
        (res,) = results
        assert len(res.failures) == 2
        assert not res.records
        assert res.mean_best_test_error is None

    def test_summaries_group_by_first_hit_rank(self):
        def rec(rep, stage, rank, err):
            return PathRecord(rep, stage, 1.0 / (stage + 1), rank, 2 * err, err, 10 * rep + stage, True)

        # replicate 2 reaches rank 5 at two stages, replicate 3 never does;
        # the records are not in replicate order
        res = BenchResult("s", "soft", 4, (rec(2, 0, 5, 0.3), rec(2, 1, 5, 9.0),
                                           rec(1, 0, 5, 0.2), rec(3, 0, 7, 0.7),
                                           rec(0, 0, 5, 0.1)), ())
        five, seven = res.rank_summaries()
        values = [0.1, 0.2, 0.3]  # first stage per replicate, replicates sorted
        assert float(np.mean(values)) != float(np.mean(values[::-1]))
        assert (five.rank, five.n, seven.rank, seven.n) == (5, 3, 7, 1)
        assert five.mean_test_error == float(np.mean(values))
        assert five.mean_training_error == float(np.mean([2 * v for v in values]))
        assert five.mean_svd_count == float(np.mean([0, 10, 20]))
        assert five.se_test_error == float(np.std(values, ddof=1) / np.sqrt(3))
        assert (seven.mean_test_error, seven.se_test_error) == (0.7, 0.0)
        assert res.best_test_errors() == [0.1, 0.2, 0.3, 0.7]
        assert res.mean_best_test_error == float(np.mean([0.1, 0.2, 0.3, 0.7]))

    def test_unknown_method_rejected(self):
        spec = SyntheticSpec(5, 5, 1, 1.0, 0.0, 0.2, 0)
        with pytest.raises(DataValidationError):
            run_benchmark([spec], ["magic"], 1, seed=0)


class TestRunStudy:
    SPEC = SyntheticSpec(15, 15, 2, 1.0, 0.1, 0.4, 0)

    def instance_at(self, rep):
        return generate_synthetic(dataclasses.replace(self.SPEC, seed=100 + rep))

    def test_returns_replicate_zero_and_its_best_stage_estimates(self):
        results, first, estimates = run_study([("a", self.instance_at)], ["robust", "soft"],
                                              2, SolverConfig(gamma_count=5))
        assert [(r.setting_id, r.method) for r in results] == [("a", "robust"), ("a", "soft")]
        inst = self.instance_at(0)
        assert np.array_equal(first.x, inst.x) and first.mask == inst.mask
        config = SolverConfig(gamma_path=default_gamma_path(inst.problem(), 5))
        for res, solve in zip(results, (robust_impute, soft_impute_path)):
            path = solve(inst.problem(), config)
            assert len(res.records) == 2 * 5
            scored = list(res.records[:5])
            assert scored == score_path(inst, 0, path)
            best = path[int(np.argmin([r.test_error for r in scored]))].y_hat
            assert np.array_equal(estimates[res.method], best)

    def test_checks_come_before_any_instance(self):
        def never(rep):
            raise AssertionError("an instance was built")

        assert run_study([], ["robust"], 1, SolverConfig()) == ([], None, {})
        with pytest.raises(DataValidationError, match="replicates"):
            run_study([("a", never)], ["robust"], 0, SolverConfig())
        with pytest.raises(DataValidationError, match="unknown method"):
            run_study([("a", never)], ["robust", "magic"], 1, SolverConfig())

    def test_a_failed_method_leaves_no_estimate(self, monkeypatch):
        def fail(*args, **kwargs):
            raise SvdError("SVD failed to converge")

        monkeypatch.setattr("robustmc.experiments.robust_impute", fail)
        (robust, soft), _, estimates = run_study([("a", self.instance_at)], ["robust", "soft"],
                                                 2, SolverConfig(gamma_count=4))
        assert robust.failures == ((0, "SVD failed to converge"), (1, "SVD failed to converge"))
        assert not soft.failures and len(soft.records) == 2 * 4
        assert set(estimates) == {"soft"}


class TestStudyProcesses:
    SPEC = SyntheticSpec(15, 15, 2, 1.0, 0.1, 0.4, 0)

    def instance_at(self, rep):
        return generate_synthetic(dataclasses.replace(self.SPEC, seed=200 + rep))

    def study(self, monkeypatch, tmp_path):
        # the robust solve of replicate 1 fails; with 2 or 3 processes its task
        # (index 1 of robust 0-2, soft 0-2) is a worker's
        bad = self.instance_at(1).problem().values
        real = experiments.robust_impute

        def robust(problem, config):
            if np.array_equal(problem.values, bad):
                (tmp_path / "failed_in").write_text(str(os.getpid()))
                raise SvdError("SVD failed to converge")
            return real(problem, config)

        monkeypatch.setattr(experiments, "robust_impute", robust)
        return run_study([("a", self.instance_at)], ["robust", "soft"], 3,
                         SolverConfig(gamma_count=4))

    @pytest.mark.parametrize("n", [2, 3])
    def test_results_do_not_depend_on_the_process_count(self, monkeypatch, tmp_path,
                                                         processes, n):
        processes(1)
        serial, serial_first, serial_estimates = self.study(monkeypatch, tmp_path)
        assert int((tmp_path / "failed_in").read_text()) == os.getpid()
        processes(n)
        results, first, estimates = self.study(monkeypatch, tmp_path)
        assert int((tmp_path / "failed_in").read_text()) != os.getpid()
        assert results == serial
        assert results[0].failures == ((1, "SVD failed to converge"),)
        assert len(results[1].records) == 3 * 4
        assert np.array_equal(first.x, serial_first.x)
        assert set(estimates) == set(serial_estimates) == {"robust", "soft"}
        for m in estimates:
            assert np.array_equal(estimates[m], serial_estimates[m])

    def test_unexpected_error_in_a_worker_reaches_the_caller(self, monkeypatch, processes):
        caller, real = os.getpid(), experiments.soft_impute_path

        def soft(problem, config):
            assert os.getpid() == caller, "solved in a worker"
            return real(problem, config)

        monkeypatch.setattr(experiments, "soft_impute_path", soft)
        processes(2)
        with pytest.raises(AssertionError, match="solved in a worker"):
            run_study([("a", self.instance_at)], ["soft"], 2, SolverConfig(gamma_count=3))
        assert multiprocessing.active_children() == []


class TestProcessCount:
    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        for var in experiments.THREAD_VARIABLES:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def test_unset_variables_give_one(self):
        assert experiments._process_count(30) == 1

    def test_one_blas_thread_gives_the_core_count(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert experiments._process_count(30) == 2
        assert experiments._process_count(1) == 1

    @pytest.mark.parametrize("value", ["4", "0", "-1", "two", ""])
    def test_other_values_give_one(self, monkeypatch, value):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert experiments._process_count(30) == 1

    def test_the_largest_thread_count_rules(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        assert experiments._process_count(30) == 1

    def test_a_second_live_thread_gives_one(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert experiments._process_count(30) == 1
        finally:
            release.set()
            thread.join()
        assert experiments._process_count(30) == 2
