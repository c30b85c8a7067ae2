import warnings

import numpy as np
import pytest
import scipy.linalg

from robustmc import (
    DataValidationError,
    DimensionMismatchError,
    GroundTruthInstance,
    LowRankSparsePair,
    ObservationMask,
    PathSolution,
    Problem,
    Solution,
    SolverConfig,
    SvdError,
    SvdFactors,
    SyntheticSpec,
    generate_synthetic,
    nuclear_norm,
    project,
    soft_impute,
    soft_impute_path,
    svd,
    svd_soft_threshold,
)

from robustmc import matcore
from robustmc.matcore import _raw_svd, shrink_singular_values

from oracles import gram_singular_values, prox_objective, prox_nuclear_oracle


def checkerboard_mask():
    return ObservationMask.from_pairs(2, 2, [(0, 1), (1, 0)])


def complement(mask):
    """The unobserved positions, as a mask of their own."""
    return ObservationMask(~mask.flags)


class TestObservationMask:
    def test_from_pairs_and_counts(self):
        mask = checkerboard_mask()
        assert mask.n_observed == 2
        assert mask.flags.tolist() == [[False, True], [True, False]]
        assert mask.fraction_observed == 0.5

    def test_out_of_bounds_rejected(self):
        with pytest.raises(DataValidationError):
            ObservationMask.from_pairs(2, 2, [(2, 0)])

    def test_duplicates_rejected(self):
        with pytest.raises(DataValidationError):
            ObservationMask.from_pairs(2, 2, [(0, 0), (0, 0)])

    def test_flags_are_read_only(self):
        mask = ObservationMask.full(2, 3)
        with pytest.raises(ValueError):
            mask.flags[0, 0] = False


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
        SvdFactors: lambda: svd(v),
        Solution: lambda: soft_impute(prob, 1.0),
        PathSolution: lambda: soft_impute_path(prob, config),
        GroundTruthInstance: lambda: generate_synthetic(spec),
        LowRankSparsePair: lambda: LowRankSparsePair(v, np.zeros_like(v)),
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
            Problem.from_full(vals, ObservationMask.full(2, 2))


class TestProjection:
    def test_full_mask_is_identity(self):
        m = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(project(m, ObservationMask.full(2, 3)), m)

    def test_single_cell(self):
        mask = ObservationMask.from_pairs(2, 2, [(0, 0)])
        m = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert project(m, mask).tolist() == [[5.0, 0.0], [0.0, 0.0]]

    def test_two_by_two_example(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = checkerboard_mask()
        assert project(m, mask).tolist() == [[0.0, 2.0], [3.0, 0.0]]
        assert project(m, complement(mask)).tolist() == [[1.0, 0.0], [0.0, 4.0]]

    def test_complement_of_full_mask_is_zero(self):
        m = np.ones((3, 3))
        assert not project(m, complement(ObservationMask.full(3, 3))).any()

    def test_complement_of_zero_is_zero(self):
        assert not project(np.zeros((2, 2)), complement(checkerboard_mask())).any()

    def test_projections_sum_to_identity_exactly(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 5))
        mask = ObservationMask(rng.random((7, 5)) < 0.4)
        assert np.array_equal(project(m, mask) + project(m, complement(mask)), m)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 6))
        mask = ObservationMask(rng.random((6, 6)) < 0.5)
        once = project(m, mask)
        assert np.array_equal(project(once, mask), once)

    def test_pythagoras(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.standard_normal((8, 6))
            mask = ObservationMask(rng.random((8, 6)) < rng.random())
            inside, outside = project(m, mask), project(m, complement(mask))
            split = np.sum(inside * inside) + np.sum(outside * outside)
            assert split == pytest.approx(np.sum(m * m), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project(np.zeros((2, 3)), checkerboard_mask())


class TestNorms:
    def test_frobenius_equals_singular_value_energy(self):
        m = np.random.default_rng(3).standard_normal((4, 4))
        s = svd(m).singular_values
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
        f = svd(np.diag([5.0, 2.0]))
        assert np.allclose(f.singular_values, [5.0, 2.0])

    def test_zero_matrix_rank_zero(self):
        f = svd(np.zeros((3, 4)))
        assert f.rank == 0
        assert f.compose().shape == (3, 4)
        assert not f.compose().any()

    def test_reconstruction(self):
        m = np.random.default_rng(5).standard_normal((8, 5))
        f = svd(m)
        resid = np.linalg.norm(f.compose() - m) / np.linalg.norm(m)
        assert resid < 1e-8

    def test_orthonormal_factors(self):
        m = np.random.default_rng(6).standard_normal((7, 4))
        f = svd(m)
        assert np.allclose(f.u.T @ f.u, np.eye(f.rank), atol=1e-8)
        assert np.allclose(f.v.T @ f.v, np.eye(f.rank), atol=1e-8)
        assert np.all(np.diff(f.singular_values) <= 0)


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
        # a zero hint asks for 1 triplet; the guard doubles k to 2, 4 and 8
        # in the same basis, and no full SVD of m is taken
        m = _low_rank_plus_noise(15)
        want = _dense_shrink(monkeypatch, m, self.GAMMA)
        _fail_full_svd(monkeypatch, m.shape)
        got = shrink_singular_values(m, self.GAMMA, 0)
        assert got[1].size == 8
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
        # exact arithmetic; the basis must grow until rounding brings in the
        # other two before the values at 10 count as converged
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
        # every value survives: k doubles at each check until 8 k passes the
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
