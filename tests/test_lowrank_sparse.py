import numpy as np
import pytest

from robustmc import (
    DataValidationError,
    DimensionMismatchError,
    ObservationMask,
    Problem,
    SolverConfig,
    choose_cutoff,
    extract_sparse,
    general_robust,
    objective_g,
    objective_pcp,
    psi,
    robust_impute,
    soft_impute,
    soft_threshold_scalar,
    svd,
)


def make_problem(seed, n1=12, n2=10, rank=2, noise=0.05, outliers=(), observed=0.7):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n1, rank)) @ rng.standard_normal((n2, rank)).T
    x = x0 + noise * rng.standard_normal((n1, n2))
    flags = rng.random((n1, n2)) < observed
    for i, j, v in outliers:
        x[i, j] += v
        flags[i, j] = True
    return x0, Problem.from_full(x, ObservationMask(flags))


class TestExtractSparse:
    def test_zero_residual_gives_zero(self):
        _, prob = make_problem(50)
        s = extract_sparse(prob, prob.values, 0.5)
        assert not s.any()

    def test_single_cell_soft_threshold(self):
        prob = Problem(np.array([[2.0, 0.0], [0.0, 0.0]]),
                       ObservationMask(np.array([[True, False], [False, False]])))
        c = 1.0
        s = extract_sparse(prob, np.zeros((2, 2)), c)
        assert s[0, 0] == pytest.approx(c)  # residual 2c shrinks to c
        assert not s[s != s[0, 0]].any()

    def test_residual_identity(self):
        rng = np.random.default_rng(51)
        _, prob = make_problem(52)
        l = rng.standard_normal(prob.shape) * 2
        c = 0.4
        s = extract_sparse(prob, l, c)
        flags = prob.mask.flags
        lhs = np.where(flags, prob.values - l - s, 0.0)
        rhs = np.where(flags, 0.5 * psi(prob.values - l, c), 0.0)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_support_inside_mask(self):
        _, prob = make_problem(53)
        s = extract_sparse(prob, np.zeros(prob.shape), 0.1)
        assert not s[~prob.mask.flags].any()


class TestObjectivePcp:
    def test_zero_pair_value(self):
        _, prob = make_problem(54)
        zero = np.zeros(prob.shape)
        assert objective_pcp(prob, zero, zero, 1.0, 1.0) == pytest.approx(
            0.5 * float(np.sum(prob.values**2))
        )

    def test_off_mask_sparse_rejected(self):
        _, prob = make_problem(55)
        s = np.where(prob.mask.flags, 0.0, 1.0)
        with pytest.raises(DataValidationError):
            objective_pcp(prob, np.zeros(prob.shape), s, 1.0, 1.0)

    @pytest.mark.parametrize("part", ["low_rank", "sparse"])
    def test_part_of_other_shape_rejected(self, part):
        _, prob = make_problem(55)
        parts = {"low_rank": np.zeros(prob.shape), "sparse": np.zeros(prob.shape)}
        parts[part] = np.zeros((prob.n_rows, prob.n_cols + 1))
        with pytest.raises(DimensionMismatchError):
            objective_pcp(prob, parts["low_rank"], parts["sparse"], 1.0, 1.0)

    def test_nan_sparse_rejected(self):
        _, prob = make_problem(55)
        s = np.zeros(prob.shape)
        s[tuple(np.argwhere(prob.mask.flags)[0])] = np.nan
        with pytest.raises(DataValidationError):
            objective_pcp(prob, np.zeros(prob.shape), s, 1.0, 1.0)

    def test_matches_huber_objective_for_any_l(self):
        rng = np.random.default_rng(56)
        _, prob = make_problem(57)
        gamma, c = 0.8, 0.3
        for _ in range(25):
            l = rng.standard_normal(prob.shape) * rng.choice([0.1, 1.0, 5.0])
            lhs = objective_pcp(prob, l, extract_sparse(prob, l, c), gamma, c)
            rhs = objective_g(prob, l, gamma, c)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_extracted_sparse_minimizes_over_s(self):
        rng = np.random.default_rng(58)
        _, prob = make_problem(59)
        gamma, c = 0.5, 0.4
        l = rng.standard_normal(prob.shape)
        s_star = extract_sparse(prob, l, c)
        base = objective_pcp(prob, l, s_star, gamma, c)
        flags = prob.mask.flags
        for _ in range(100):
            bump = np.where(flags, rng.standard_normal(prob.shape), 0.0)
            bump *= rng.choice([1e-4, 1e-2, 1.0])
            val = objective_pcp(prob, l, s_star + bump, gamma, c)
            assert val >= base - 1e-12


def solve_pair(prob, gamma, c, epsilon):
    """The low-rank + sparse solve: `general_robust`'s minimizer, S eliminated."""
    sol = general_robust(prob, gamma, SolverConfig(cutoff=c, epsilon=epsilon, max_inner_iters=1000))
    return sol, sol.y_hat, extract_sparse(prob, sol.y_hat, c)


class TestSolvePcpAlternating:
    def test_no_outliers_huge_cutoff_reduces_to_soft_impute(self):
        _, prob = make_problem(60)
        gamma = 0.6
        _, low, sparse = solve_pair(prob, gamma, c=1e9, epsilon=1e-12)
        assert not sparse.any()
        plain = soft_impute(prob, gamma, config=SolverConfig(epsilon=1e-14, max_inner_iters=20000))
        rel = np.linalg.norm(low - plain.y_hat) / np.linalg.norm(plain.y_hat)
        assert rel < 1e-5

    def test_huge_gamma_gives_pure_soft_threshold(self):
        _, prob = make_problem(61)
        c = 0.2
        gamma = svd(prob.values)[1][0] * 50
        _, low, sparse = solve_pair(prob, gamma, c, epsilon=1e-12)
        assert not low.any()
        expected = np.where(prob.mask.flags, soft_threshold_scalar(prob.values, c), 0.0)
        assert np.allclose(sparse, expected, atol=1e-12)

    def test_trace_non_increasing(self):
        _, prob = make_problem(62, outliers=[(1, 1, 7.0), (5, 3, -6.0)])
        sol, low, sparse = solve_pair(prob, 0.8, 0.3, epsilon=1e-10)
        t = sol.objective_trace
        assert all(b <= a + 1e-10 * max(1.0, a) for a, b in zip(t, t[1:]))
        assert t[-1] == pytest.approx(objective_pcp(prob, low, sparse, 0.8, 0.3), rel=1e-12)

    def test_one_cap_bounds_both_loops(self):
        # max_inner_iters caps the re-completion rounds as well as each stage
        _, prob = make_problem(62, outliers=[(1, 1, 7.0), (5, 3, -6.0)])
        sol = general_robust(prob, 0.8, SolverConfig(cutoff=0.3, max_inner_iters=1))
        assert sol.iterations == 1
        assert not sol.converged

    def test_agrees_with_robust_impute(self):
        _, prob = make_problem(63, n1=15, n2=15, outliers=[(2, 2, 8.0), (9, 4, -9.0)])
        gamma = svd(prob.values)[1][0] * 0.2
        c = choose_cutoff(gamma, 15, 15, prob.observed_fraction)
        cfg = SolverConfig(gamma_path=(gamma,), cutoff=c, epsilon=1e-12, max_inner_iters=8000)
        y = robust_impute(prob, cfg)[0].y_hat
        sol, low, sparse = solve_pair(prob, gamma, c, epsilon=1e-12)
        assert sol.converged
        rel = np.linalg.norm(low - y) / (1 + np.linalg.norm(y))
        assert rel < 1e-3
        g_val = objective_g(prob, y, gamma, c)
        pcp_val = objective_pcp(prob, low, sparse, gamma, c)
        assert abs(g_val - pcp_val) <= 1e-6 * (1 + abs(g_val))

    def test_planted_outliers_land_in_support(self):
        planted = [(1, 1, 9.0), (6, 2, -8.0), (10, 7, 7.5)]
        _, prob = make_problem(64, n1=14, n2=12, noise=0.02, outliers=planted)
        gamma = svd(prob.values)[1][0] * 0.15
        c = 0.5  # outliers are >= 10c, noise <= c/10
        _, _, sparse = solve_pair(prob, gamma, c, epsilon=1e-10)
        for i, j, _ in planted:
            assert sparse[i, j] != 0.0

