import numpy as np
import pytest

from robustmc import (
    DataValidationError,
    ObservationMask,
    Problem,
    SolverConfig,
    SyntheticSpec,
    choose_cutoff,
    default_gamma_path,
    general_robust,
    generate_synthetic,
    objective_f,
    objective_g,
    robust_impute,
    soft_impute,
    soft_impute_path,
    stationarity_certificate,
    svd,
    svd_soft_threshold,
)

from robustmc import matcore
from robustmc import test_error as metric_test_error
from robustmc.matcore import nuclear_norm

from robustmc import solvers

from oracles import (certificate_oracle, completion_oracle, completion_objective,
                     dense_reference_path)


def make_instance(seed, n1=12, n2=10, rank=2, noise=0.05, outlier_frac=0.0,
                  outlier_scale=8.0, observed=0.7):
    """Ad-hoc contaminated low-rank instance for solver tests."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n1, rank)) @ rng.standard_normal((n2, rank)).T
    x = x0 + noise * rng.standard_normal((n1, n2))
    n_out = int(round(outlier_frac * n1 * n2))
    if n_out:
        idx = rng.choice(n1 * n2, n_out, replace=False)
        bumps = outlier_scale * rng.choice([-1.0, 1.0], n_out)
        x.flat[idx] += bumps
    mask = ObservationMask(rng.random((n1, n2)) < observed)
    return x0, Problem.from_full(x, mask)


def trace_is_monotone(trace, slack=1e-10):
    return all(b <= a + slack * max(1.0, a) for a, b in zip(trace, trace[1:]))


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.epsilon == 1e-5
        assert cfg.max_inner_iters == 500

    def test_rejects_increasing_path(self):
        with pytest.raises(DataValidationError):
            SolverConfig(gamma_path=(1.0, 2.0))

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(DataValidationError):
            SolverConfig(gamma_path=(1.0, 0.0))

    def test_rejects_empty_path(self):
        with pytest.raises(DataValidationError):
            SolverConfig(gamma_path=())

    def test_rejects_bad_epsilon(self):
        with pytest.raises(DataValidationError):
            SolverConfig(epsilon=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"gamma_path": (np.inf, 1.0)}, "positive and finite"),
        ({"gamma_path": (np.nan,)}, "positive and finite"),
        ({"gamma_path": (2.0, 2.0)}, "strictly decreasing"),
        ({"epsilon": np.nan}, "epsilon must be positive"),
        ({"epsilon": -1e-5}, "epsilon must be positive"),
        ({"cutoff": 0.0}, "cutoff c must be positive and finite"),
        ({"cutoff": np.inf}, "cutoff c must be positive and finite"),
    ])
    def test_rejects_invalid_settings(self, kwargs, message):
        with pytest.raises(DataValidationError, match=message):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("field", ["gamma_count", "max_inner_iters"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3", None, 0, -1])
    def test_rejects_non_integral_counts(self, field, value):
        with pytest.raises(DataValidationError, match=f"{field} must be an integer"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["gamma_count", "max_inner_iters"])
    def test_accepts_numpy_integer_counts(self, field):
        assert getattr(SolverConfig(**{field: np.int64(3)}), field) == 3

    def test_rejects_empty_automatic_path(self):
        _, prob = make_instance(24)
        with pytest.raises(DataValidationError):
            SolverConfig(gamma_count=0)
        with pytest.raises(DataValidationError):
            default_gamma_path(prob, 0)

    @pytest.mark.parametrize("solve", [robust_impute, soft_impute_path])
    def test_gamma_count_sets_the_automatic_path(self, solve):
        _, prob = make_instance(25, outlier_frac=0.05)
        auto = solve(prob, SolverConfig(gamma_count=7))
        given = solve(prob, SolverConfig(gamma_path=default_gamma_path(prob, 7)))
        assert len(auto) == 7
        assert auto.gammas == given.gammas
        for a, b in zip(auto, given):
            assert np.array_equal(a.y_hat, b.y_hat)
            assert a.objective_trace == b.objective_trace
            assert ((a.iterations, a.svd_count, a.final_rank, a.converged, a.cutoff)
                    == (b.iterations, b.svd_count, b.final_rank, b.converged, b.cutoff))


class TestDefaultGammaPath:
    def test_shape_and_anchors(self):
        _, prob = make_instance(21)
        path = default_gamma_path(prob)
        sigma1 = svd(prob.values)[1][0]
        assert len(path) == 20
        assert path[0] == pytest.approx(0.95 * sigma1, rel=1e-12)
        assert path[-1] == pytest.approx(0.01 * sigma1, rel=1e-12)
        assert all(a > b for a, b in zip(path, path[1:]))

    def test_top_gamma_collapses_to_zero(self):
        _, prob = make_instance(22)
        sigma1 = svd(prob.values)[1][0]
        assert not svd_soft_threshold(prob.values, sigma1 * 1.0001).any()


class TestObjectives:
    def test_f_zero_at_perfect_fit(self):
        mask = ObservationMask(np.ones((2, 2), dtype=bool))
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        prob = Problem.from_full(x, mask)
        assert objective_f(prob, x, 0.0) == 0.0

    def test_f_at_zero_estimate(self):
        _, prob = make_instance(23)
        expected = 0.5 * float(np.sum(prob.values**2))
        assert objective_f(prob, np.zeros(prob.shape), 1.5) == pytest.approx(expected)

    def test_g_at_zero_estimate_quadratic_regime(self):
        _, prob = make_instance(24)
        c = float(np.abs(prob.values).max()) + 1
        assert objective_g(prob, np.zeros(prob.shape), 2.0, c) == pytest.approx(
            objective_f(prob, np.zeros(prob.shape), 2.0)
        )

    def test_g_zero_when_everything_zero(self):
        prob = Problem.from_full(np.zeros((3, 3)), ObservationMask(np.ones((3, 3), dtype=bool)))
        assert objective_g(prob, np.zeros((3, 3)), 1.0, 1.0) == 0.0

    def test_g_never_exceeds_f(self):
        rng = np.random.default_rng(25)
        _, prob = make_instance(26)
        for _ in range(10):
            y = rng.standard_normal(prob.shape)
            assert objective_g(prob, y, 0.7, 0.5) <= objective_f(prob, y, 0.7) + 1e-12


class TestSoftImpute:
    def test_fully_observed_closed_form(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((6, 6))
        prob = Problem.from_full(x, ObservationMask(np.ones((6, 6), dtype=bool)))
        sol = soft_impute(prob, 0.8)
        assert np.allclose(sol.y_hat, svd_soft_threshold(x, 0.8), atol=1e-12)
        assert sol.converged

    def test_total_shrinkage_returns_zero(self):
        _, prob = make_instance(28)
        gamma = svd(prob.values)[1][0] * 1.1
        sol = soft_impute(prob, gamma)
        assert not sol.y_hat.any()
        assert sol.converged

    def test_matches_independent_first_order_solver(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((6, 6))
        mask = ObservationMask(rng.random((6, 6)) < 0.5)
        prob = Problem.from_full(x, mask)
        gamma = 0.5
        sol = soft_impute(prob, gamma, config=SolverConfig(epsilon=1e-14, max_inner_iters=20000))
        ours = objective_f(prob, sol.y_hat, gamma)
        ref_y = completion_oracle(prob.values, mask.flags, gamma, obj_tol=1e-12)
        ref = completion_objective(prob.values, mask.flags, ref_y, gamma)
        assert ours == pytest.approx(ref, rel=1e-5)

    def test_objective_trace_non_increasing(self):
        _, prob = make_instance(30, outlier_frac=0.1)
        sol = soft_impute(prob, 1.0)
        assert trace_is_monotone(sol.objective_trace)

    def test_max_iters_flags_not_converged(self):
        _, prob = make_instance(31)
        sol = soft_impute(prob, 0.1, config=SolverConfig(epsilon=1e-16, max_inner_iters=3))
        assert not sol.converged
        assert sol.iterations == 3

    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    def test_non_finite_gamma_rejected(self, gamma):
        _, prob = make_instance(31)
        with pytest.raises(DataValidationError, match="gamma must be finite"):
            soft_impute(prob, gamma)

    def test_final_rank_matches_recomputation(self):
        _, prob = make_instance(32)
        sol = soft_impute(prob, 1.2)
        s = svd(sol.y_hat)[1]
        expected = int(np.sum(s > 1e-8 * s[0])) if s.size else 0
        assert sol.final_rank == expected

    def test_single_observed_entry(self):
        prob = Problem(np.array([[0.0, 0.0], [0.0, 3.0]]),
                       ObservationMask(np.array([[False, False], [False, True]])))
        sol = soft_impute(prob, 0.5)
        assert sol.converged
        assert np.linalg.matrix_rank(sol.y_hat) <= 1

    def test_fortran_ordered_warm_start_fills_the_observed_entries(self):
        # the fill is scattered through a flat view, which must not be a copy
        _, prob = make_instance(34)
        y0 = soft_impute(prob, 2.0).y_hat
        a = soft_impute(prob, 0.9, y0)
        b = soft_impute(prob, 0.9, np.asfortranarray(y0))
        assert np.array_equal(a.y_hat, b.y_hat)
        assert a.objective_trace == b.objective_trace

    def test_deterministic(self):
        _, prob = make_instance(33)
        a = soft_impute(prob, 0.9)
        b = soft_impute(prob, 0.9)
        assert np.array_equal(a.y_hat, b.y_hat)
        assert a.objective_trace == b.objective_trace


class TestGeneralRobust:
    def test_huge_cutoff_reduces_to_plain_completion(self):
        eps = 1e-12
        _, prob = make_instance(34)
        cfg = SolverConfig(cutoff=1e9, epsilon=eps, max_inner_iters=10000)
        sol = general_robust(prob, 0.8, cfg)
        plain = soft_impute(prob, 0.8, config=SolverConfig(epsilon=eps, max_inner_iters=10000))
        assert sol.iterations == 2  # completes the unclipped observations, then confirms
        rel = np.linalg.norm(sol.y_hat - plain.y_hat) / np.linalg.norm(plain.y_hat)
        assert rel <= 10 * np.sqrt(eps)

    def test_infinite_gamma_rejected_by_the_path_rule(self):
        _, prob = make_instance(35)
        with pytest.raises(DataValidationError, match="positive and finite"):
            general_robust(prob, np.inf)

    def test_monotone_trace_from_initial_estimate(self):
        _, prob = make_instance(35, outlier_frac=0.08)
        sol = general_robust(prob, 1.0)
        assert trace_is_monotone(sol.objective_trace)
        assert sol.objective_trace[-1] <= sol.objective_trace[0] + 1e-12

    def test_agrees_with_robust_impute(self):
        _, prob = make_instance(36, n1=10, n2=10, outlier_frac=0.02)
        gamma = 0.6 * svd(prob.values)[1][0] * 0.5
        assert prob.shape == (10, 10)
        c = choose_cutoff(prob, gamma)
        cfg = SolverConfig(gamma_path=(gamma,), cutoff=c, epsilon=1e-12,
                           max_inner_iters=5000)
        a = general_robust(prob, gamma, cfg)
        b = robust_impute(prob, cfg)[0]
        rel = np.linalg.norm(a.y_hat - b.y_hat) / np.linalg.norm(b.y_hat)
        assert rel < 1e-4

    def test_custom_completer_is_used(self):
        _, prob = make_instance(37)
        calls = []

        def completer(p, gamma, y0):
            calls.append(gamma)
            return soft_impute(p, gamma, y0, SolverConfig(epsilon=1e-8, max_inner_iters=2000))

        sol = general_robust(prob, 1.0, completer=completer)
        assert len(calls) >= 2  # the first completion plus at least one confirming refit
        assert sol.converged


class TestRobustImpute:
    def test_huge_gamma_gives_zero_path(self):
        _, prob = make_instance(38)
        gamma = svd(prob.values)[1][0] * 2
        path = robust_impute(prob, SolverConfig(gamma_path=(gamma,)))
        assert len(path) == 1
        assert not path[0].y_hat.any()
        assert path[0].converged
        assert path[0].final_rank == 0

    def test_huge_cutoff_matches_soft_impute_path_exactly(self):
        _, prob = make_instance(39, outlier_frac=0.1)
        cfg = SolverConfig(cutoff=1e12)
        robust = robust_impute(prob, cfg)
        soft = soft_impute_path(prob, cfg)
        assert robust.gammas == soft.gammas
        for a, b in zip(robust, soft):
            assert np.allclose(a.y_hat, b.y_hat, atol=1e-10)
            assert a.svd_count == b.svd_count

    def test_beats_soft_impute_under_outliers(self):
        x0, prob = make_instance(40, n1=20, n2=20, rank=2, noise=0.05,
                                 outlier_frac=0.3, observed=0.75)
        cfg = SolverConfig(gamma_path=default_gamma_path(prob, 10))
        unobs = ~prob.mask.flags

        def best_err(path):
            return min(
                float(np.sum(np.where(unobs, x0 - s.y_hat, 0.0) ** 2))
                for s in path
            )

        assert best_err(robust_impute(prob, cfg)) < best_err(soft_impute_path(prob, cfg))

    def test_traces_monotone_and_warm_start_never_worsens(self):
        _, prob = make_instance(41, outlier_frac=0.1)
        path = robust_impute(prob)
        for sol in path:
            assert trace_is_monotone(sol.objective_trace)
            assert sol.objective_trace[-1] <= sol.objective_trace[0] + 1e-12

    def test_svd_count_includes_initialization(self):
        _, prob = make_instance(42)
        path = robust_impute(prob, SolverConfig(gamma_path=(1.5, 1.0)))
        assert path[0].svd_count == path[0].iterations + 1
        assert path[1].svd_count == path[1].iterations

    def test_single_observed_entry(self):
        prob = Problem(np.array([[0.0, 0.0], [0.0, 3.0]]),
                       ObservationMask(np.array([[False, False], [False, True]])))
        path = robust_impute(prob, SolverConfig(gamma_path=(1.0, 0.2)))
        assert all(s.converged for s in path)
        assert all(np.linalg.matrix_rank(s.y_hat) <= 1 for s in path)

    def test_solver_agreement_bound(self):
        # the two robust solvers land within 10*sqrt(eps) of each other
        eps = 1e-8
        _, prob = make_instance(43, outlier_frac=0.05)
        gamma = svd(prob.values)[1][0] * 0.2
        c = choose_cutoff(prob, gamma)
        cfg = SolverConfig(gamma_path=(gamma,), cutoff=c, epsilon=eps,
                           max_inner_iters=5000)
        a = general_robust(prob, gamma, cfg)
        b = robust_impute(prob, cfg)[0]
        rel = np.linalg.norm(a.y_hat - b.y_hat) / np.linalg.norm(b.y_hat)
        assert rel <= 10 * np.sqrt(eps)


class TestRelativeChange:
    """The stop test may take its difference in a scratch buffer, with the
    bits of the form it replaced, so that no stage stops at another step."""

    @staticmethod
    def _reference(new, old):
        num, den = float(np.sum((new - old) ** 2)), float(np.sum(old * old))
        return num / den if den else (0.0 if num == 0.0 else np.inf)

    @pytest.mark.parametrize("shape", [(240, 220), (7, 3)])
    @pytest.mark.parametrize("old_order", ["C", "F"])  # F: a soft_impute warm start
    def test_scratch_gives_the_same_bits(self, shape, old_order):
        rng = np.random.default_rng(43)
        old = np.asarray(rng.standard_normal(shape), order=old_order)
        new = np.ascontiguousarray(old + 1e-3 * rng.standard_normal(shape))
        want = np.float64(self._reference(new, old)).tobytes()
        scratch = np.full(shape, np.nan)
        assert np.float64(solvers._rel_change_sq(new, old)).tobytes() == want
        assert np.float64(solvers._rel_change_sq(new, old, out=scratch)).tobytes() == want

    @pytest.mark.parametrize("new_value, want", [(0.0, 0.0), (1.0, np.inf)])
    def test_zero_old_iterate(self, new_value, want):
        old, new = np.zeros((3, 4)), np.full((3, 4), new_value)
        assert solvers._rel_change_sq(new, old) == want
        assert solvers._rel_change_sq(new, old, out=np.empty((3, 4))) == want


class TestStageKernel:
    def test_soft_path_equals_chain_of_warm_started_soft_impute(self):
        _, prob = make_instance(47, outlier_frac=0.05)
        cfg = SolverConfig(gamma_path=default_gamma_path(prob, 8))
        y = None
        for stage in soft_impute_path(prob, cfg):
            single = soft_impute(prob, stage.gamma, y, cfg)
            assert np.array_equal(stage.y_hat, single.y_hat)
            assert stage.iterations == single.iterations
            assert stage.svd_count == single.svd_count
            # trace[0] of a warm start differs in rounding: the path carries
            # the previous stage's sum of shrunk values, soft_impute takes an SVD
            assert stage.objective_trace[1:] == single.objective_trace[1:]
            y = single.y_hat

    @pytest.mark.parametrize("solve", [soft_impute_path, robust_impute])
    def test_every_svd_is_counted(self, solve, monkeypatch):
        _, prob = make_instance(48, outlier_frac=0.1)
        cfg = SolverConfig(gamma_path=default_gamma_path(prob, 10))
        calls = []
        raw_svd = matcore._raw_svd

        def counted(m, *args, **kwargs):
            calls.append(m.shape)
            return raw_svd(m, *args, **kwargs)

        monkeypatch.setattr(matcore, "_raw_svd", counted)
        path = solve(prob, cfg)
        assert len(calls) == sum(s.svd_count for s in path)

    @pytest.mark.parametrize("solve", [soft_impute_path, robust_impute])
    def test_every_partial_svd_is_counted(self, solve, monkeypatch):
        _, prob = make_instance(51, n1=240, n2=210, rank=3, outlier_frac=0.05)
        cfg = SolverConfig(gamma_path=default_gamma_path(prob, 3))
        calls = []
        raw_svd = matcore._raw_svd
        partial = []
        real_partial = matcore._partial_svd

        def counted(m, *args, **kwargs):
            calls.append(m.shape)
            return raw_svd(m, *args, **kwargs)

        def spied(*args):
            result = real_partial(*args)
            partial.append(result is not None)
            return result

        monkeypatch.setattr(matcore, "_raw_svd", counted)
        monkeypatch.setattr(matcore, "_partial_svd", spied)
        path = solve(prob, cfg)
        assert any(partial)
        assert len(calls) == sum(s.svd_count for s in path)

    def test_large_robust_path_matches_the_dense_path(self, monkeypatch):
        _, prob = make_instance(52, n1=240, n2=240, rank=5, outlier_frac=0.05)
        s1 = float(svd(prob.values)[1][0])
        cfg = SolverConfig(gamma_path=tuple(np.geomspace(0.95 * s1, 0.05 * s1, 5).tolist()))
        path = robust_impute(prob, cfg)
        monkeypatch.setattr(matcore, "PARTIAL_MIN_SIDE", 10 ** 9)
        dense = robust_impute(prob, cfg)
        for got, want in zip(path, dense):
            assert got.iterations == want.iterations
            assert got.final_rank == want.final_rank
            assert np.allclose(got.objective_trace, want.objective_trace, rtol=1e-10, atol=0)

    def test_default_general_robust_counts_every_svd(self, monkeypatch):
        _, prob = make_instance(53, n1=40, n2=30, rank=3, outlier_frac=0.1)
        calls = []
        raw_svd = matcore._raw_svd

        def counted(m, *args, **kwargs):
            calls.append(m.shape)
            return raw_svd(m, *args, **kwargs)

        monkeypatch.setattr(matcore, "_raw_svd", counted)
        sol = general_robust(prob, 2.0)
        assert sol.iterations > 1
        assert len(calls) == sol.svd_count

    def test_cutoff_follows_the_rule_per_stage(self):
        _, prob = make_instance(49, outlier_frac=0.1)
        gammas = default_gamma_path(prob, 6)
        auto = robust_impute(prob, SolverConfig(gamma_path=gammas))
        assert [s.cutoff for s in auto] == [choose_cutoff(prob, g) for g in gammas]
        fixed = robust_impute(prob, SolverConfig(gamma_path=gammas, cutoff=0.3))
        assert all(s.cutoff == 0.3 for s in fixed)
        assert general_robust(prob, gammas[2], SolverConfig(cutoff=0.3)).cutoff == 0.3
        assert all(s.cutoff is None for s in soft_impute_path(prob, SolverConfig(gamma_path=gammas)))
        assert soft_impute(prob, gammas[0]).cutoff is None


class TestObservedEntryKernel:
    """The stage works on vectors of observed entries; it must take the same
    steps as the whole-matrix kernel it replaced."""

    @pytest.mark.parametrize("n", [100, 240])  # 240: partial SVDs
    @pytest.mark.parametrize("robust", [True, False])
    def test_stages_match_the_dense_reference(self, n, robust):
        _, prob = make_instance(54, n1=n, n2=n, rank=5, outlier_frac=0.1, observed=0.5)
        cfg = SolverConfig(gamma_path=default_gamma_path(prob, 6))
        gammas = cfg.gamma_path
        if robust:
            path = robust_impute(prob, cfg)
            assert prob.shape == (n, n)
            cutoffs = [choose_cutoff(prob, g) for g in gammas]
        else:
            path = soft_impute_path(prob, cfg)
            cutoffs = [None] * len(gammas)
        ref = dense_reference_path(prob, gammas, cutoffs, cfg.epsilon, cfg.max_inner_iters)
        for got, (y, iterations, svd_count, converged, trace) in zip(path, ref):
            assert np.array_equal(got.y_hat, y)
            assert (got.iterations, got.svd_count, got.converged) == (
                iterations, svd_count, converged)
            assert np.allclose(got.objective_trace, trace, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("robust", [True, False])
    def test_huber_calls_go_through_the_solvers_namespace(self, robust, monkeypatch):
        # the per-layer benchmark times these two names; a stage that stopped
        # calling them would read zero there
        calls = {"pseudo_data": 0, "huber_norm_sq": 0}
        for name in calls:
            real = getattr(solvers, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(solvers, name, counted)
        _, prob = make_instance(55, outlier_frac=0.1)
        cfg = SolverConfig(gamma_path=default_gamma_path(prob, 5))
        path = (robust_impute if robust else soft_impute_path)(prob, cfg)
        steps = sum(s.iterations for s in path)
        values = sum(len(s.objective_trace) for s in path)
        assert steps > 0
        if robust:
            assert calls == {"pseudo_data": steps, "huber_norm_sq": values}
        else:
            assert calls == {"pseudo_data": 0, "huber_norm_sq": 0}


class TestGramShrinkagePaths:
    """A whole 100x100 path takes the same steps whether its dense
    shrinkages come from the Gram matrix or from LAPACK."""

    @pytest.mark.parametrize("solve", [robust_impute, soft_impute_path])
    def test_path_matches_the_lapack_path(self, solve, monkeypatch):
        instance = generate_synthetic(SyntheticSpec(100, 100, 10, 1.0, 0.1, 0.5), 1)
        served = []
        real_gram = matcore._gram_svd

        def spied(*args):
            result = real_gram(*args)
            served.append(result is not None)
            return result

        monkeypatch.setattr(matcore, "_gram_svd", spied)
        gram = solve(instance.problem())
        assert served and all(served)
        monkeypatch.setattr(matcore, "GRAM_RATIO", 0.0)
        lapack = solve(instance.problem())
        assert len(gram) == len(lapack) == 20
        for got, want in zip(gram, lapack):
            assert (got.iterations, got.svd_count, got.final_rank, got.converged) == (
                want.iterations, want.svd_count, want.final_rank, want.converged)
            want_error = metric_test_error(instance, want.y_hat)
            assert abs(metric_test_error(instance, got.y_hat) - want_error) <= 1e-12 * want_error


class TestObjectiveOverflow:
    """Finite entries near 1e307 overflow the squared residual: the solvers
    raise instead of returning an inf objective trace."""

    @pytest.fixture
    def huge(self):
        _, prob = make_instance(91)
        return Problem(prob.values * (1e307 / np.abs(prob.values).max()), prob.mask)

    def test_soft_impute_path_raises(self, huge):
        with pytest.raises(DataValidationError, match="overflowed float64.*rescale"):
            soft_impute_path(huge, SolverConfig(gamma_path=(1e306, 1e305)))

    def test_robust_impute_raises(self, huge):
        with pytest.raises(DataValidationError, match="overflowed float64.*rescale"):
            robust_impute(huge, SolverConfig(gamma_path=(1e306, 1e305)))

    def test_general_robust_raises(self, huge):
        with pytest.raises(DataValidationError, match="overflowed float64.*rescale"):
            general_robust(huge, 1e306)

    @pytest.mark.parametrize("solve", [robust_impute, soft_impute_path])
    def test_huge_matrix_skips_the_partial_svd(self, solve):
        # both sides reach PARTIAL_MIN_SIDE, so without the magnitude guard
        # the Lanczos's squared norms overflow (a RuntimeWarning, an error here)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((201, 3)) @ rng.standard_normal((3, 240))
        prob = Problem.from_full(x * (1e300 / np.abs(x).max()),
                                 ObservationMask(rng.random(x.shape) < 0.6))
        with pytest.raises(DataValidationError, match="overflowed float64.*rescale"):
            solve(prob, SolverConfig(gamma_count=3))


class TestStationarityCertificate:
    def test_passes_at_converged_solution(self):
        _, prob = make_instance(44, outlier_frac=0.1)
        gamma = svd(prob.values)[1][0] * 0.15
        c = choose_cutoff(prob, gamma)
        cfg = SolverConfig(gamma_path=(gamma,), cutoff=c, epsilon=1e-12, max_inner_iters=8000)
        sol = robust_impute(prob, cfg)[0]
        assert sol.converged
        cert = stationarity_certificate(prob, sol.y_hat, gamma, c)
        assert cert.rank == sol.final_rank
        assert cert.passes(1e-3)

    def test_fails_away_from_the_solution(self):
        _, prob = make_instance(45)
        gamma = 0.05  # tiny weight: the zero matrix is badly suboptimal
        c = 10.0
        cert = stationarity_certificate(prob, np.zeros(prob.shape), gamma, c)
        assert not cert.passes(1e-3)

    def test_infinite_gamma_rejected_by_the_path_rule(self):
        _, prob = make_instance(46)
        with pytest.raises(DataValidationError, match="positive and finite"):
            stationarity_certificate(prob, np.zeros(prob.shape), np.inf, 1.0)

    def test_zero_solution_certificate(self):
        _, prob = make_instance(46)
        gamma = svd(prob.values)[1][0] * 2
        c = float(np.abs(prob.values).max()) + 1
        cert = stationarity_certificate(prob, np.zeros(prob.shape), gamma, c)
        assert cert.rank == 0
        assert cert.passes(1e-3)


    @pytest.mark.parametrize("seed", [47, 48])
    def test_numbers_match_the_factor_container_oracle_bit_for_bit(self, seed):
        # the certificate reads numpy's triplet in place of copies of it, on
        # operands of the same memory layout, so no number moves
        _, prob = make_instance(seed, n1=40, n2=30, rank=3, outlier_frac=0.1)
        path = robust_impute(prob, SolverConfig(gamma_count=6))
        stages = [sol for sol in path if sol.converged and sol.final_rank > 0]
        assert len(stages) >= 3
        zero = np.zeros(prob.shape)
        for y, gamma, c in [(sol.y_hat, sol.gamma, sol.cutoff) for sol in stages] + [
                (zero, stages[0].gamma, stages[0].cutoff)]:
            cert = stationarity_certificate(prob, y, gamma, c)
            got = (cert.tangent_gap, cert.orthogonal_norm, cert.rank)
            assert got == certificate_oracle(prob, y, gamma, c)


def influence_moves(seed):
    """Relative moves of each method's last stage when the observed entries
    that the robust last stage clips are pushed 10x and 1000x further out.

    The robust path runs on the simulate instance.  Each method then solves
    the last stage of the unpushed and of each pushed problem from the same
    warm start, the robust estimate, for the same 100 iterations; a move is
    the distance between a pushed and the unpushed solve, so solver error
    cancels out of it."""
    spec = SyntheticSpec(100, 100, 10, snr=1, outlier_prob=0.1, missing_prob=0.5)
    prob = generate_synthetic(spec, seed).problem()
    cfg = SolverConfig(gamma_count=12, epsilon=1e-12)
    last = robust_impute(prob, cfg)[-1]
    resid = np.where(prob.mask.flags, prob.values - last.y_hat, 0.0)
    far = np.abs(resid) > 1.01 * last.cutoff
    again_cfg = SolverConfig(epsilon=1e-12, max_inner_iters=100)

    def solve_again(values, c):
        problem = Problem(values, prob.mask)
        return solvers._stage(problem, last.gamma, c, last.y_hat, nuclear_norm(last.y_hat),
                              last.final_rank, again_cfg)[0].y_hat

    moves = {}
    for method, c in (("robust", last.cutoff), ("soft", None)):
        ref = solve_again(prob.values, c)
        for k in (10, 1000):
            pushed = solve_again(np.where(far, last.y_hat + k * resid, prob.values), c)
            moves[method, k] = float(np.linalg.norm(pushed - ref) / np.linalg.norm(ref))
    return moves


class TestBoundedInfluence:
    """The paper's bounded-influence claim: psi is constant beyond the
    cutoff, so observations the robust estimate already clips can be pushed
    any distance further out without moving it, while the squared-loss
    estimate follows them."""

    @pytest.mark.parametrize("seed", [
        1, pytest.param(2, marks=pytest.mark.slow), pytest.param(3, marks=pytest.mark.slow)])
    def test_clipped_observations_do_not_pull_the_robust_estimate(self, seed):
        moves = influence_moves(seed)
        assert moves["robust", 10] < 1e-4 and moves["robust", 1000] < 1e-4
        assert moves["soft", 1000] >= 10 * moves["soft", 10]
