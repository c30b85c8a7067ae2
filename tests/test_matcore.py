import json
import os
import platform
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from robustmc import (
    DataValidationError,
    DimensionMismatchError,
    GroundTruthInstance,
    ObservationMask,
    PathSolution,
    Problem,
    Solution,
    SolverConfig,
    SvdError,
    SyntheticSpec,
    generate_synthetic,
    nuclear_norm,
    soft_impute,
    soft_impute_path,
    svd,
    svd_soft_threshold,
)

import robustmc
from robustmc import matcore
from robustmc.matcore import _raw_svd, shrink_singular_values

from oracles import gram_singular_values, partial_svd_oracle, prox_objective, prox_nuclear_oracle


def checkerboard_mask():
    return ObservationMask(np.array([[False, True], [True, False]]))


class TestObservationMask:
    def test_counts(self):
        mask = checkerboard_mask()
        assert mask.n_observed == 2
        assert mask.flags.tolist() == [[False, True], [True, False]]
        assert mask.fraction_observed == 0.5

    def test_flags_are_read_only(self):
        mask = ObservationMask(np.ones((2, 3), dtype=bool))
        with pytest.raises(ValueError):
            mask.flags[0, 0] = False

    def test_non_boolean_flags_rejected(self):
        with pytest.raises(DataValidationError, match="boolean"):
            ObservationMask(np.array([[0, 1], [1, 0]]))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), (0, 3), (3, 0)])
    def test_shape_must_be_2d_and_nonempty(self, shape):
        with pytest.raises(DataValidationError, match="2-D with positive dimensions"):
            ObservationMask(np.ones(shape, dtype=bool))


def test_value_types_compare_and_hash():
    # two distinct instances with equal values of each type holding arrays:
    # masks compare by value, the other types by identity; none of them raises
    flags = np.array([[True, False, True], [True, True, False]])
    v = np.where(flags, np.arange(6.0).reshape(2, 3) + 1.0, 0.0)
    prob = Problem(v, ObservationMask(flags))
    config = SolverConfig(gamma_path=(2.0, 1.0))
    spec = SyntheticSpec(6, 5, 2, snr=1.0, outlier_prob=0.1, missing_prob=0.3, seed=7)
    make = {
        ObservationMask: lambda: ObservationMask(flags),
        Problem: lambda: Problem(v.copy(), prob.mask),
        Solution: lambda: soft_impute(prob, 1.0),
        PathSolution: lambda: soft_impute_path(prob, config),
        GroundTruthInstance: lambda: generate_synthetic(spec),
    }
    for kind, build in make.items():
        a, b = build(), build()
        assert type(a) is kind and a is not b
        assert (a == b) is (kind is ObservationMask), kind
        assert a == a
        assert isinstance(hash(a), int)
    mask = ObservationMask(np.eye(2, dtype=bool))
    assert hash(mask) == hash(ObservationMask(np.eye(2, dtype=bool)))
    assert mask != ObservationMask(np.eye(2, dtype=bool).reshape(1, 4))


def test_public_surface():
    # an addition to or a removal from the package's names is a deliberate edit here
    assert sorted(robustmc.__all__) == [
        "BenchResult", "CertificateReport", "DataValidationError", "DegradationSpec",
        "DimensionMismatchError", "GroundTruthInstance", "HuberParams", "MissingSpec",
        "ObservationMask", "PathRecord", "PathSolution", "Problem", "RankSummary",
        "RobustMcError", "Solution", "SolverConfig", "SvdError", "SyntheticSpec",
        "choose_cutoff", "default_gamma_path", "degrade_image", "errors", "experiments",
        "extract_sparse", "general_robust", "generate_synthetic", "huber", "huber_norm_sq",
        "matcore", "nuclear_norm", "objective_f", "objective_g", "objective_pcp",
        "pseudo_data", "psi", "replicate_seed", "rho", "robust_impute", "run_benchmark",
        "run_study", "score_path", "soft_impute", "soft_impute_path", "soft_threshold_scalar",
        "solve_path", "solvers", "stationarity_certificate", "svd", "svd_soft_threshold",
        "test_error", "training_error",
    ]


class TestProblem:
    def test_from_full_projects(self):
        mask = checkerboard_mask()
        prob = Problem.from_full([[1.0, 2.0], [3.0, 4.0]], mask)
        assert prob.values.tolist() == [[0.0, 2.0], [3.0, 0.0]]

    def test_nonzero_off_mask_rejected(self):
        with pytest.raises(DataValidationError):
            Problem(np.ones((2, 2)), checkerboard_mask())

    def test_empty_mask_rejected(self):
        with pytest.raises(DataValidationError):
            Problem(np.zeros((2, 2)), ObservationMask(np.zeros((2, 2), dtype=bool)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Problem(np.zeros((2, 3)), checkerboard_mask())

    def test_non_finite_rejected(self):
        vals = np.array([[np.nan, 1.0], [1.0, 0.0]])
        with pytest.raises(DataValidationError):
            Problem.from_full(vals, ObservationMask(np.ones((2, 2), dtype=bool)))


def complement(mask):
    """The unobserved positions, as a mask of their own."""
    return ObservationMask(~mask.flags)


def projected(m, mask):
    """``m`` kept on ``mask`` and zeroed elsewhere, by `Problem.from_full`."""
    return Problem.from_full(m, mask).values


class TestProjection:
    def test_full_mask_is_identity(self):
        m = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(projected(m, ObservationMask(np.ones((2, 3), dtype=bool))), m)

    def test_single_cell(self):
        mask = ObservationMask(np.array([[True, False], [False, False]]))
        m = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert projected(m, mask).tolist() == [[5.0, 0.0], [0.0, 0.0]]

    def test_two_by_two_example(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = checkerboard_mask()
        assert projected(m, mask).tolist() == [[0.0, 2.0], [3.0, 0.0]]
        assert projected(m, complement(mask)).tolist() == [[1.0, 0.0], [0.0, 4.0]]

    def test_complement_of_zero_is_zero(self):
        assert not projected(np.zeros((2, 2)), complement(checkerboard_mask())).any()

    def test_projections_sum_to_identity_exactly(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 5))
        mask = ObservationMask(rng.random((7, 5)) < 0.4)
        assert np.array_equal(projected(m, mask) + projected(m, complement(mask)), m)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 6))
        mask = ObservationMask(rng.random((6, 6)) < 0.5)
        once = projected(m, mask)
        assert np.array_equal(projected(once, mask), once)

    def test_pythagoras(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.standard_normal((8, 6))
            flags = rng.random((8, 6)) < rng.random()
            flags[0, 0], flags[0, 1] = True, False  # neither side is empty
            mask = ObservationMask(flags)
            inside, outside = projected(m, mask), projected(m, complement(mask))
            split = np.sum(inside * inside) + np.sum(outside * outside)
            assert split == pytest.approx(np.sum(m * m), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=r"x shape \(2, 3\)"):
            projected(np.zeros((2, 3)), checkerboard_mask())


class TestNorms:
    def test_frobenius_equals_singular_value_energy(self):
        m = np.random.default_rng(3).standard_normal((4, 4))
        s = svd(m)[1]
        assert np.sum(m * m) == pytest.approx(float(np.sum(s * s)), rel=1e-10)

    def test_nuclear_diag(self):
        assert nuclear_norm(np.diag([3.0, 1.0])) == pytest.approx(4.0, abs=1e-12)

    def test_nuclear_rank_one(self):
        u = np.array([[0.6], [0.8]])
        v = np.array([[0.0], [1.0]])
        assert nuclear_norm(u @ v.T) == pytest.approx(1.0, abs=1e-12)

    def test_nuclear_zero_iff_zero(self):
        assert nuclear_norm(np.zeros((4, 2))) == 0.0
        assert nuclear_norm([[0.0, 1e-12], [0.0, 0.0]]) > 0.0

    def test_nuclear_matches_gram_eigenvalues(self):
        m = np.random.default_rng(4).standard_normal((6, 4))
        expected = float(gram_singular_values(m).sum())
        assert nuclear_norm(m) == pytest.approx(expected, rel=1e-8)


class TestSvd:
    def test_diag(self):
        assert np.allclose(svd(np.diag([5.0, 2.0]))[1], [5.0, 2.0])

    def test_zero_matrix_rank_zero(self):
        u, s, vt = svd(np.zeros((3, 4)))
        assert (u.shape, s.shape, vt.shape) == ((3, 0), (0,), (0, 4))
        assert not ((u * s) @ vt).any() and ((u * s) @ vt).shape == (3, 4)

    def test_reconstruction(self):
        m = np.random.default_rng(5).standard_normal((8, 5))
        u, s, vt = svd(m)
        resid = np.linalg.norm((u * s) @ vt - m) / np.linalg.norm(m)
        assert resid < 1e-8

    def test_orthonormal_factors(self):
        m = np.random.default_rng(6).standard_normal((7, 4))
        u, s, vt = svd(m)
        assert np.allclose(u.T @ u, np.eye(s.size), atol=1e-8)
        assert np.allclose(vt @ vt.T, np.eye(s.size), atol=1e-8)
        assert np.all(np.diff(s) <= 0)

    def test_factors_are_the_raw_triplet(self):
        m = np.random.default_rng(7).standard_normal((6, 9))
        for got, want in zip(svd(m), np.linalg.svd(m, full_matrices=False)):
            assert np.array_equal(got, want)


def _fail_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


class TestSvdFallback:
    def test_gesvd_result_used_when_default_driver_fails(self, monkeypatch):
        m = np.random.default_rng(13).standard_normal((7, 5))
        reference = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
        drivers = []
        real = scipy.linalg.svd

        def spy(a, *args, **kwargs):
            drivers.append(kwargs.get("lapack_driver"))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", _fail_svd)
        monkeypatch.setattr(scipy.linalg, "svd", spy)
        u, s, vt = _raw_svd(m)
        assert drivers == ["gesvd"]
        for got, want in zip((u, s, vt), reference):
            assert np.array_equal(got, want)

    def test_both_drivers_failing_raise_svd_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", _fail_svd)
        monkeypatch.setattr(scipy.linalg, "svd", _fail_svd)
        with pytest.raises(SvdError):
            _raw_svd(np.eye(3))


class TestSvdSoftThreshold:
    def test_diag_example(self):
        out = svd_soft_threshold(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_gamma_zero_is_identity(self):
        m = np.random.default_rng(7).standard_normal((4, 6))
        assert np.array_equal(svd_soft_threshold(m, 0.0), m)

    def test_total_shrinkage(self):
        m = np.diag([3.0, 1.0])
        assert not svd_soft_threshold(m, 5.0).any()

    def test_negative_gamma_rejected(self):
        with pytest.raises(DataValidationError):
            svd_soft_threshold(np.eye(2), -0.1)

    def test_nan_gamma_rejected(self):
        with pytest.raises(DataValidationError, match="gamma must be >= 0"):
            svd_soft_threshold(np.eye(3), np.nan)

    def test_matches_prox_oracle(self):
        # frozen representative of the general random check in
        # test_acceptance; see criterion 1 there for the full sweep
        rng = np.random.default_rng(8)
        m = 3.0 * rng.standard_normal((5, 5))
        gamma = 0.7
        ours = svd_soft_threshold(m, gamma)
        ref = prox_nuclear_oracle(m, gamma, obj_tol=1e-12)
        assert np.linalg.norm(ours - ref) < 1e-5 * np.linalg.norm(ref)

    def test_rank_never_grows(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((5, 2))
        out = svd_soft_threshold(u @ v.T, 0.3)
        assert np.linalg.matrix_rank(out, tol=1e-10) <= 2

    def test_non_expansive(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((6, 4))
            gamma = float(rng.random() * 2)
            lhs = np.linalg.norm(svd_soft_threshold(a, gamma) - svd_soft_threshold(b, gamma))
            assert lhs <= np.linalg.norm(a - b) + 1e-10

    def test_shrinks_nuclear_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.standard_normal((5, 7))
            gamma = float(rng.random() * 3)
            assert nuclear_norm(svd_soft_threshold(m, gamma)) <= nuclear_norm(m) + 1e-10

    def test_prox_characterization(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((6, 5))
        gamma = 0.8
        best = svd_soft_threshold(m, gamma)
        best_val = prox_objective(m, best, gamma)
        for _ in range(100):
            y = best + rng.standard_normal(m.shape) * rng.choice([1e-3, 0.1, 1.0])
            assert prox_objective(m, y, gamma) >= best_val - 1e-12


def _low_rank_plus_noise(seed, n=240, rank=5, noise=0.1):
    rng = np.random.default_rng(seed)
    signal = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
    return signal + noise * rng.standard_normal((n, n))


def _dense_shrink(monkeypatch, m, gamma, rank=0):
    """The same shrinkage with the partial-SVD branch switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(matcore, "PARTIAL_MIN_SIDE", 10 ** 9)
        return shrink_singular_values(m, gamma, rank)


def _fail_full_svd(monkeypatch, shape):
    """Make np.linalg.svd raise on matrices of ``shape``, and only those."""
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        if a.shape == shape:
            raise AssertionError(f"full SVD taken of a {shape} matrix")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(scipy.linalg, "svd", _fail_svd)


def _fail_small_svd(monkeypatch, shape):
    """Make np.linalg.svd raise on every shape but ``shape``: the Lanczos's
    bidiagonal SVDs fail."""
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        if a.shape != shape:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)


def _no_partial(*args, **kwargs):
    raise AssertionError("partial SVD taken")


def _lapack_shrink(m, gamma):
    """The shrinkage from numpy's full SVD, as `shrink_singular_values`
    composes it."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    shrunk = np.maximum(s - gamma, 0.0)
    keep = shrunk > 0.0
    return (u[:, keep] * shrunk[keep]) @ vt[keep], shrunk


class _CountingMatrix:
    """A matrix seen only through shape, @ and .T, counting its products."""

    def __init__(self, m, products=None):
        self.m, self.shape = m, m.shape
        self.products = [0] if products is None else products

    def __matmul__(self, x):
        self.products[0] += 1
        return self.m @ x

    @property
    def T(self):
        return _CountingMatrix(self.m.T, self.products)


class TestPartialSvd:
    # gamma 3 sits above all the noise values but one (about 3.04), so six
    # values survive and the first tries of k are too small
    GAMMA = 3.0

    def _assert_matches_dense(self, got, want):
        (out, shrunk), (ref, ref_shrunk) = got, want
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.count_nonzero(shrunk) == np.count_nonzero(ref_shrunk)
        assert abs(shrunk.sum() - ref_shrunk.sum()) <= 1e-12 * ref_shrunk.sum()

    def test_matches_the_dense_prox(self, monkeypatch):
        m = _low_rank_plus_noise(14)
        got = shrink_singular_values(m, self.GAMMA, 6)
        assert got[1].size < min(m.shape)  # the partial branch was taken
        assert got[1].min() == 0.0         # and it reached the threshold
        self._assert_matches_dense(got, _dense_shrink(monkeypatch, m, self.GAMMA))

    def test_partial_triplets_come_in_descending_order(self):
        m = _low_rank_plus_noise(20)
        u, s, vt = _raw_svd(m, self.GAMMA, 6)
        assert s.size < min(m.shape) and s[-1] <= self.GAMMA
        assert np.all(np.diff(s) <= 0)
        assert np.allclose(m @ vt.T, u * s, atol=1e-10 * s[0])

    def test_too_small_rank_hint_grows_k(self, monkeypatch):
        # a zero hint asks for 1 triplet; the first check finds six Ritz
        # values above gamma, so k becomes 7 (the kept values plus one) in
        # the same basis, and no full SVD of m is taken
        m = _low_rank_plus_noise(15)
        want = _dense_shrink(monkeypatch, m, self.GAMMA)
        _fail_full_svd(monkeypatch, m.shape)
        got = shrink_singular_values(m, self.GAMMA, 0)
        assert got[1].size == np.count_nonzero(want[1]) + 1 == 7
        self._assert_matches_dense(got, want)

    def test_zero_hint_on_a_flat_spectrum_stays_partial(self, monkeypatch):
        # pure noise: the top values sit close together, so the first one
        # converges slowly
        m = np.random.default_rng(21).standard_normal((240, 240))
        s = np.linalg.svd(m, compute_uv=False)
        gamma = 0.5 * (s[0] + s[1])  # one value survives
        want = _dense_shrink(monkeypatch, m, gamma)
        _fail_full_svd(monkeypatch, m.shape)
        got = shrink_singular_values(m, gamma, 0)
        assert got[1].size < min(m.shape) and np.count_nonzero(got[1]) == 1
        self._assert_matches_dense(got, want)

    def test_repeated_top_value_is_kept_in_full(self, monkeypatch):
        # one start vector sees a single copy of a repeated singular value in
        # exact arithmetic; the probe off the bases finds the other two
        rng = np.random.default_rng(22)
        q1, _ = np.linalg.qr(rng.standard_normal((240, 240)))
        q2, _ = np.linalg.qr(rng.standard_normal((240, 240)))
        m = (q1 * np.r_[10.0, 10.0, 10.0, np.linspace(4.0, 0.1, 237)]) @ q2.T
        got = shrink_singular_values(m, 5.0, 0)
        assert got[1].size < min(m.shape) and np.count_nonzero(got[1]) == 3
        self._assert_matches_dense(got, _dense_shrink(monkeypatch, m, 5.0))

    def test_exactly_low_rank_falls_back_to_lapack(self, monkeypatch):
        # rank 3: the basis closes after three steps (an invariant subspace)
        m = _low_rank_plus_noise(23, rank=3, noise=0.0)
        want = _dense_shrink(monkeypatch, m, 1.0)
        assert matcore._partial_svd(m, 1.0, 3) is None
        out, shrunk = shrink_singular_values(m, 1.0, 3)
        assert shrunk.size == min(m.shape)
        assert np.array_equal(out, want[0]) and np.array_equal(shrunk, want[1])

    def test_lanczos_failure_falls_back_to_the_gram(self, monkeypatch):
        m = _low_rank_plus_noise(16)
        want = _dense_shrink(monkeypatch, m, self.GAMMA)
        _fail_small_svd(monkeypatch, m.shape)
        _fail_full_svd(monkeypatch, m.shape)
        out, shrunk = shrink_singular_values(m, self.GAMMA, 6)
        assert shrunk.size < min(m.shape)
        assert np.array_equal(out, want[0]) and np.array_equal(shrunk, want[1])

    def test_lanczos_failure_falls_back_to_lapack(self, monkeypatch):
        # with the Gram guarded off, the hop after the Lanczos is LAPACK's
        m = _low_rank_plus_noise(16)
        want = _lapack_shrink(m, self.GAMMA)
        _fail_small_svd(monkeypatch, m.shape)
        monkeypatch.setattr(matcore, "GRAM_RATIO", 0.0)
        out, shrunk = shrink_singular_values(m, self.GAMMA, 6)
        assert shrunk.size == min(m.shape)
        assert np.array_equal(out, want[0]) and np.array_equal(shrunk, want[1])

    def test_too_many_survivors_fall_back_to_lapack(self, monkeypatch):
        m = _low_rank_plus_noise(17)
        out, shrunk = shrink_singular_values(m, 0.01, 0)  # every value survives
        want = _dense_shrink(monkeypatch, m, 0.01)
        assert shrunk.size == min(m.shape)
        assert np.array_equal(out, want[0]) and np.array_equal(shrunk, want[1])

    def test_too_many_survivors_stop_the_basis_early(self):
        # every value survives: k grows at each check until 8 k passes the
        # side, which happens long before the basis could fill the side
        m = _CountingMatrix(_low_rank_plus_noise(17))
        assert matcore._partial_svd(m, 0.01, 0) is None
        assert 0 < m.products[0] < 120

    def test_takes_any_matrix_vector_product(self):
        m = _low_rank_plus_noise(20)
        got = matcore._partial_svd(_CountingMatrix(m), self.GAMMA, 6)
        assert all(np.array_equal(a, b) for a, b in zip(got, matcore._partial_svd(m, self.GAMMA, 6)))

    def test_reruns_are_bitwise_equal(self):
        m = _low_rank_plus_noise(18)
        a = shrink_singular_values(m, self.GAMMA, 0)
        b = shrink_singular_values(m, self.GAMMA, 0)
        assert a[1].size < min(m.shape)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_small_matrices_stay_on_the_full_svd(self, monkeypatch):
        # with the Gram guarded off, a 199-side matrix takes LAPACK's full SVD
        monkeypatch.setattr(matcore, "_partial_svd", _no_partial)
        monkeypatch.setattr(matcore, "GRAM_RATIO", 0.0)
        m = _low_rank_plus_noise(19, n=199)
        _, shrunk = shrink_singular_values(m, self.GAMMA, 6)
        assert shrunk.size == 199

    def test_small_matrices_take_the_gram(self, monkeypatch):
        m = _low_rank_plus_noise(19, n=199)
        monkeypatch.setattr(matcore, "_partial_svd", _no_partial)
        _fail_full_svd(monkeypatch, m.shape)
        _, shrunk = shrink_singular_values(m, self.GAMMA, 6)
        assert shrunk.size < 199 and shrunk[-1] == 0.0


class TestPartialSvdStepBits:
    """The Lanczos step works in place; it must take the roundings of the
    step it replaced (`partial_svd_oracle`), so no shrinkage moves a bit."""

    @staticmethod
    def _assert_bitwise(m, gamma, rank):
        got, want = matcore._partial_svd(m, gamma, rank), partial_svd_oracle(m, gamma, rank)
        if want is None:
            assert got is None
        else:
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        return got

    @pytest.mark.parametrize("shape", [(240, 240), (240, 220), (220, 260)])
    def test_converged_return(self, shape):
        rng = np.random.default_rng(40)
        m = rng.standard_normal((shape[0], 5)) @ rng.standard_normal((5, shape[1]))
        m += 0.1 * rng.standard_normal(shape)
        got = self._assert_bitwise(m, 3.0, 6)
        kept = np.count_nonzero(np.linalg.svd(m, compute_uv=False) > 3.0)
        assert got is not None and got[1].size == kept + 1

    def test_k_grows_to_the_kept_count_plus_one(self):
        got = self._assert_bitwise(_low_rank_plus_noise(15), 3.0, 0)
        assert got is not None and got[1].size == 7  # k went 1, then 6 kept + 1

    @pytest.mark.parametrize("case", ["survivors", "breakdown"])
    def test_give_up(self, case):
        if case == "survivors":  # every value survives: 8 k passes the side
            m, gamma, rank = _low_rank_plus_noise(17), 0.01, 0
        else:  # exactly rank 3: the basis closes
            m, gamma, rank = _low_rank_plus_noise(23, rank=3, noise=0.0), 1.0, 3
        assert self._assert_bitwise(m, gamma, rank) is None


def _spy(log, real):
    """``real``, appending each result to ``log``."""
    def call(*args):
        log.append(real(*args))
        return log[-1]
    return call


def _repeated_top_value(seed=22):
    """240x240 with a top singular value 10 of multiplicity 3 over a spectrum below 4."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((240, 240)))
    q2, _ = np.linalg.qr(rng.standard_normal((240, 240)))
    return (q1 * np.r_[10.0, 10.0, 10.0, np.linspace(4.0, 0.1, 237)]) @ q2.T


class TestShrinkageCertificate:
    """The partial SVD converges only the kept triplets and stops once the
    first discarded Ritz value plus its residual is at most gamma; its kept
    count and composed shrinkage must still be the dense ones."""

    KINDS = ("just above", "just below", "cluster", "bulk edge", "separated")

    @classmethod
    def _case(cls, seed, kind):
        # signal values in [2, 20], then the kind's values near gamma = 1, then a bulk
        rng = np.random.default_rng([seed, cls.KINDS.index(kind)])
        n1, n2 = (int(n) for n in rng.integers(200, 261, 2))
        nmin = min(n1, n2)
        head = np.sort(rng.uniform(2.0, 20.0, rng.integers(1, 9)))[::-1]
        if kind in ("just above", "just below"):
            head = np.r_[head, 1.0 + (1e-6 if kind == "just above" else -1e-6)]
        elif kind == "cluster":  # six values straddling gamma, none on it
            head = np.r_[head, 1.0 + np.linspace(1e-3, -1e-3, 6)]
        top = {"bulk edge": 0.999, "separated": 0.5}.get(kind, 0.9)
        s = np.r_[head, np.linspace(top, 1e-3, nmin - head.size)]
        q1, _ = np.linalg.qr(rng.standard_normal((n1, nmin)))
        q2, _ = np.linalg.qr(rng.standard_normal((n2, nmin)))
        return (q1 * s) @ q2.T, int(rng.integers(0, np.count_nonzero(s > 1.0) + 2))

    @pytest.mark.parametrize("kind", KINDS)
    def test_battery_matches_the_dense_shrinkage(self, kind):
        for seed in range(6):
            m, rank = self._case(seed, kind)
            got = matcore._partial_svd(m, 1.0, rank)
            assert got is not None, (seed, kind)
            u, s, vt = got
            assert s[-1] <= 1.0 and np.all(s[:-1] > 1.0)
            out = (u[:, :-1] * (s[:-1] - 1.0)) @ vt[:-1]
            ref, ref_shrunk = _lapack_shrink(m, 1.0)
            assert s.size - 1 == np.count_nonzero(ref_shrunk), (seed, kind)
            assert np.linalg.norm(out - ref) <= 1e-10 * (ref_shrunk[0] + 1.0), (seed, kind)  # s1

    def test_probe_hands_a_repeated_top_value_to_the_gram(self, monkeypatch):
        # the Krylov bases see one copy of the top value; the probe off them
        # finds another, so the partial SVD gives up and the Gram serves
        m = _repeated_top_value()
        probes, partials, grams = [], [], []
        monkeypatch.setattr(matcore, "_probe", _spy(probes, matcore._probe))
        monkeypatch.setattr(matcore, "_partial_svd", _spy(partials, matcore._partial_svd))
        monkeypatch.setattr(matcore, "_gram_svd", _spy(grams, matcore._gram_svd))
        _fail_full_svd(monkeypatch, m.shape)
        _, shrunk = shrink_singular_values(m, 5.0, 0)
        assert probes == [True] and partials == [None]
        assert len(grams) == 1 and grams[0] is not None
        assert np.count_nonzero(shrunk) == 3
        assert partial_svd_oracle(m, 5.0, 0) is None

    def test_probe_passes_an_ordinary_matrix(self, monkeypatch):
        probes = []
        monkeypatch.setattr(matcore, "_probe", _spy(probes, matcore._probe))
        assert matcore._partial_svd(_low_rank_plus_noise(14), 3.0, 6) is not None
        assert probes == [False]


def _no_gram(*args, **kwargs):
    raise AssertionError("Gram shrinkage taken")


class TestShrinkageOwnsItsResult:
    """`_stage` overwrites its fill buffer once the shrinkage returns, so no
    branch may hand back its input or memory shared with it."""

    @pytest.mark.parametrize("branch", ["lanczos", "gram", "refused gram", "gamma 0", "zero"])
    def test_out_shares_no_memory_with_the_input(self, monkeypatch, branch):
        m = _low_rank_plus_noise(41, n=240 if branch == "lanczos" else 100)
        gamma, size = 3.0, None
        if branch == "lanczos":
            monkeypatch.setattr(matcore, "_gram_svd", _no_gram)
            _fail_full_svd(monkeypatch, m.shape)
        elif branch == "gram":
            _fail_full_svd(monkeypatch, m.shape)
        elif branch == "refused gram":
            monkeypatch.setattr(np.linalg, "eigh", _no_eigh)
            gamma, size = np.linalg.svd(m, compute_uv=False)[0] / (10 * matcore.GRAM_RATIO), 100
        elif branch == "gamma 0":
            gamma, size = 0.0, 100
        else:
            m[...] = 0.0
        out, shrunk = shrink_singular_values(m, gamma, 6)
        assert size is None or shrunk.size == size
        kept = out.copy()
        assert not np.shares_memory(out, m)
        m[...] = 7.0
        assert np.array_equal(out, kept)


def _eigh_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _no_eigh(*args, **kwargs):
    raise AssertionError("Gram eigendecomposition taken")


class TestGramSvd:
    """The dense shrinkage from eigh of the Gram matrix, against numpy's SVD
    (a different method), and each guard's fall-through to LAPACK."""

    @staticmethod
    def _matrix(shape, seed=30, rank=10):
        rng = np.random.default_rng(seed)
        n1, n2 = shape
        return rng.standard_normal((n1, rank)) @ rng.standard_normal((rank, n2)) \
            + rng.standard_normal(shape)

    @staticmethod
    def _assert_matches_lapack(got, want, rtol=1e-12):
        (out, shrunk), (ref, ref_shrunk) = got, want
        assert np.count_nonzero(shrunk) == np.count_nonzero(ref_shrunk)
        unit = np.abs(ref).max()  # keeps the norms of huge or tiny matrices in range
        assert np.linalg.norm((out - ref) / unit) <= rtol * np.linalg.norm(ref / unit)
        assert abs(shrunk.sum() - ref_shrunk.sum()) <= rtol * ref_shrunk.sum()

    @pytest.mark.parametrize("shape", [(100, 100), (120, 80), (80, 120)])
    @pytest.mark.parametrize("fraction", [0.006, 0.05, 0.3, 0.95])
    def test_matches_numpy_svd(self, monkeypatch, shape, fraction):
        m = self._matrix(shape)
        gamma = fraction * np.linalg.svd(m, compute_uv=False)[0]
        want = _lapack_shrink(m, gamma)
        _fail_full_svd(monkeypatch, shape)  # the Gram must serve
        got = shrink_singular_values(m, gamma)
        assert got[1].size == min(np.count_nonzero(want[1]) + 1, min(shape))
        self._assert_matches_lapack(got, want)

    def test_triplets_are_singular_triplets(self):
        m = self._matrix((80, 120))
        u, s, vt = matcore._gram_svd(m, 5.0)
        assert s.size < 80 and s[-1] <= 5.0 < s[-2]
        assert np.all(np.diff(s) <= 0)
        assert np.allclose(m @ vt.T, u * s, atol=1e-12 * s[0])
        assert np.allclose(u.T @ u, np.eye(s.size), atol=1e-12)

    def test_ratio_guard_lands_on_lapack(self):
        m = self._matrix((100, 100))
        s1 = np.linalg.svd(m, compute_uv=False)[0]
        inside, outside = s1 / (0.999 * matcore.GRAM_RATIO), s1 / (1.001 * matcore.GRAM_RATIO)
        assert shrink_singular_values(m, inside)[1].size < 100
        want = _lapack_shrink(m, outside)
        out, shrunk = shrink_singular_values(m, outside)
        assert shrunk.size == 100
        assert np.array_equal(out, want[0]) and np.array_equal(shrunk, want[1])

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -449, 2.0 ** 449])
    def test_refusal_comes_before_the_eigh(self, monkeypatch, scale):
        m = self._matrix((100, 100))
        m *= scale / np.abs(m).max()
        s1 = np.linalg.svd(m, compute_uv=False)[0]
        calls, eigh = [], np.linalg.eigh

        def counted(g):
            calls.append(g.shape)
            return eigh(g)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert matcore._gram_svd(m, s1 / (10 * matcore.GRAM_RATIO)) is None
            assert calls == []
            assert matcore._gram_svd(m, s1 / (0.999 * matcore.GRAM_RATIO)) is not None
            assert calls == [(100, 100)]

    def test_eigh_failure_lands_on_lapack(self, monkeypatch):
        m = self._matrix((100, 100))
        want = _lapack_shrink(m, 5.0)
        monkeypatch.setattr(np.linalg, "eigh", _eigh_fails)
        out, shrunk = shrink_singular_values(m, 5.0)
        assert shrunk.size == 100
        assert np.array_equal(out, want[0]) and np.array_equal(shrunk, want[1])

    @pytest.mark.parametrize("scale", [2.0 ** -451, 2.0 ** 451])
    def test_out_of_range_lands_on_lapack(self, monkeypatch, scale):
        m = self._matrix((100, 100))
        m *= scale / np.abs(m).max()
        gamma = 0.3 * np.linalg.svd(m, compute_uv=False)[0]
        want = _lapack_shrink(m, gamma)
        monkeypatch.setattr(np.linalg, "eigh", _no_eigh)
        out, shrunk = shrink_singular_values(m, gamma)
        assert shrunk.size == 100
        assert np.array_equal(out, want[0]) and np.array_equal(shrunk, want[1])

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-130, 1e130, 1e160, 1e200])
    def test_scaled_matrices_match_lapack(self, scale):
        # a Gram formed without the range guard keeps 0 values at 1e-200 and
        # 1 at 1e160 here, where LAPACK keeps most of the 40
        m = scale * np.random.default_rng(31).standard_normal((50, 40))
        gamma = 0.2 * np.linalg.svd(m, compute_uv=False)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = shrink_singular_values(m, gamma)
        want = _lapack_shrink(m, gamma)
        assert np.count_nonzero(want[1]) > 20
        self._assert_matches_lapack(got, want)


_FAULTS_SCRIPT = """
import json, resource
from robustmc import SyntheticSpec, generate_synthetic, robust_impute
problem = generate_synthetic(SyntheticSpec(100, 100, 10, 1, 0.1, 0.5, seed=5)).problem()
robust_impute(problem)  # warm-up: first-call allocations and imports
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
path = robust_impute(problem)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"faults": faults, "iterations": sum(s.iterations for s in path.solutions)}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_small_robust_path_does_not_refault_the_heap():
    # a fresh process: importing scipy.linalg, as this module does, would
    # raise glibc's thresholds by itself and hide a missing priming block
    src_dir = os.path.dirname(os.path.dirname(robustmc.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    got = json.loads(run.stdout)
    # 140 iterations: about 1 fault in all with matcore's priming block, 5000 without it
    assert got["faults"] < 10 * got["iterations"], got
