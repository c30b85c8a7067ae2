import numpy as np
import pytest
from hypothesis import given, strategies as st

from robustmc import (
    DataValidationError,
    DimensionMismatchError,
    HuberParams,
    ObservationMask,
    SolverConfig,
    choose_cutoff,
    huber_norm_sq,
    pseudo_data,
    psi,
    rho,
    soft_threshold_scalar,
)

from oracles import dense_pseudo_data, huber_norm_sq_oracle

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestRho:
    def test_zero(self):
        assert rho(0, 1) == 0.0

    def test_quadratic_branch(self):
        assert rho(0.5, 1) == 0.25

    def test_linear_branch(self):
        assert rho(2, 1) == 3.0

    def test_branches_agree_at_cutoff(self):
        assert rho(1.0, 1.0) == 1.0
        assert rho(-1.0, 1.0) == 1.0

    def test_even(self):
        xs = np.linspace(-4, 4, 41)
        assert np.allclose(rho(xs, 0.7), rho(-xs, 0.7))

    @given(x=finite, y=finite, t=st.floats(min_value=0, max_value=1))
    def test_convex(self, x, y, t):
        c = 1.3
        mid = rho(t * x + (1 - t) * y, c)
        assert mid <= t * rho(x, c) + (1 - t) * rho(y, c) + 1e-12

    @given(x=finite)
    def test_dominated_by_square(self, x):
        c = 0.9
        assert rho(x, c) <= x * x + 1e-12
        if abs(x) <= c:
            assert rho(x, c) == pytest.approx(x * x, abs=1e-15)
        else:
            assert rho(x, c) < x * x

    def test_bad_cutoff(self):
        with pytest.raises(DataValidationError):
            rho(1.0, 0.0)
        with pytest.raises(DataValidationError):
            HuberParams(-1.0)

    @pytest.mark.parametrize("c", [0, -1.0, np.inf, np.nan])
    def test_every_entry_point_rejects_cutoff_alike(self, c):
        calls = [lambda: rho(1.0, c), lambda: psi(1.0, c), lambda: huber_norm_sq([1.0], c),
                 lambda: soft_threshold_scalar(1.0, c),
                 lambda: pseudo_data([1.0], [0.0], c), lambda: HuberParams(c),
                 lambda: SolverConfig(cutoff=c)]
        for call in calls:
            with pytest.raises(DataValidationError, match="cutoff c must be positive and finite"):
                call()


class TestPsi:
    def test_linear_branch(self):
        assert psi(0.5, 1) == 1.0

    def test_clipped_and_odd(self):
        assert psi(3, 1) == 2.0
        assert psi(-3, 1) == -2.0

    @given(x=finite)
    def test_bounded(self, x):
        assert abs(psi(x, 2.0)) <= 4.0

    def test_matches_finite_difference_of_rho(self):
        rng = np.random.default_rng(13)
        c, h = 0.8, 1e-5
        count = 0
        while count < 50:
            x = float(rng.uniform(-3, 3))
            if abs(abs(x) - c) < 10 * h:
                continue
            count += 1
            fd = (rho(x + h, c) - rho(x - h, c)) / (2 * h)
            assert fd == pytest.approx(psi(x, c), abs=1e-6)


class TestHuberNormSq:
    def test_zero_matrix(self):
        assert huber_norm_sq(np.zeros((3, 3)), 1.0) == 0.0

    def test_mixed_branches(self):
        assert huber_norm_sq([[0.5, 2.0]], 1.0) == 3.25

    def test_reduces_to_frobenius_in_quadratic_regime(self):
        m = np.random.default_rng(14).standard_normal((5, 4))
        c = 10 * float(np.abs(m).max())
        assert huber_norm_sq(m, c) == pytest.approx(np.sum(m * m), rel=1e-12)


@st.composite
def _huber_inputs(draw):
    """A cutoff and an array holding ties |r| == c, signed zeros and entries
    whose square overflows, laid out 1-D, C-ordered or F-ordered."""
    c = draw(st.one_of(st.floats(1e-3, 1e3), st.floats(1e154, 1e300)))
    huge = st.floats(1.3e154, 1e300)
    value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([c, -c, 0.0, -0.0]),
                      huge, huge.map(lambda v: -v))
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    r = np.array(draw(st.lists(value, min_size=rows * cols, max_size=rows * cols)))
    layout = draw(st.sampled_from(["1-D", "C", "F"]))
    if layout != "1-D":
        r = r.reshape(rows, cols, order=layout)
    return r, c


class TestHuberNormSqBits:
    """`huber_norm_sq` fuses `rho`'s branches into one buffer; its sum must
    keep the bits of np.sum(rho(r, c))."""

    @given(_huber_inputs())
    def test_matches_the_branch_form(self, case):
        r, c = case
        with np.errstate(over="ignore"):
            got, want = huber_norm_sq(r, c), huber_norm_sq_oracle(r, c)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_large_arrays_keep_their_summation_order(self):
        # on these inputs the sum's bits depend on the memory order it takes
        r = np.asfortranarray(np.random.default_rng(43).standard_normal((300, 257)))
        for m in (r, np.ascontiguousarray(r), r[:, ::2]):
            want = huber_norm_sq_oracle(m, 1.0)
            assert np.float64(huber_norm_sq(m, 1.0)).tobytes() == np.float64(want).tobytes()
        assert huber_norm_sq_oracle(np.ascontiguousarray(r), 1.0) != huber_norm_sq_oracle(r, 1.0)


class TestPseudoData:
    def test_quadratic_regime_passes_observations_through_exactly(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        c = float(np.abs(x - y).max()) + 1.0
        assert np.array_equal(pseudo_data(x, y, c), x)

    def test_clipped_cell(self):
        c = 0.5
        y = np.array([1.0])
        z = pseudo_data(np.array([1.0 + 2 * c]), y, c)
        assert z[0] == pytest.approx(1.0 + c)
        z = pseudo_data(np.array([1.0 - 2 * c]), y, c)
        assert z[0] == pytest.approx(1.0 - c)

    def test_matches_half_psi_identity(self):
        # z = y + psi(x - y, c) / 2, rebuilt both ways
        rng = np.random.default_rng(17)
        x = rng.standard_normal(25) * 3
        y = rng.standard_normal(25)
        c = 0.4
        z = pseudo_data(x, y, c)
        assert np.allclose(z, y + 0.5 * psi(x - y, c), atol=1e-12)

    def test_observed_vectors_equal_the_dense_form_bit_for_bit(self):
        rng = np.random.default_rng(16)
        mask = ObservationMask(rng.random((40, 30)) < 0.5)
        x = np.where(mask.flags, rng.standard_normal((40, 30)) * 3, 0.0)
        y = rng.standard_normal((40, 30))
        c = 0.7
        dense = dense_pseudo_data(x, y, mask.flags, c)
        assert np.array_equal(pseudo_data(x[mask.flags], y[mask.flags], c), dense[mask.flags])
        assert np.array_equal(np.where(mask.flags, pseudo_data(x, y, c), 0.0), dense)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pseudo_data(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)
        with pytest.raises(DimensionMismatchError):
            pseudo_data(np.zeros(4), np.zeros(5), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        ok = np.zeros(3)
        with_bad = np.array([0.0, bad, 0.0])
        for args in ((with_bad, ok), (ok, with_bad)):
            with pytest.raises(DataValidationError, match="NaN or Inf"):
                pseudo_data(*args, 1.0)


class TestSoftThresholdScalar:
    def test_dead_zone(self):
        assert soft_threshold_scalar(0.5, 1.0) == 0.0

    def test_shrinks_by_c(self):
        assert soft_threshold_scalar(2.0, 1.0) == 1.0
        assert soft_threshold_scalar(-2.0, 1.0) == -1.0

    def test_minimizes_scalar_objective(self):
        c = 0.7
        for x in np.linspace(-3, 3, 25):
            s_star = soft_threshold_scalar(x, c)
            val = 0.5 * (x - s_star) ** 2 + c * abs(s_star)
            for s in np.linspace(-4, 4, 81):
                assert val <= 0.5 * (x - s) ** 2 + c * abs(s) + 1e-12

    def test_huber_infimal_convolution_identity(self):
        # min_s 0.5*(x-s)^2 + c|s| equals rho_c(x)/2, pointwise on a grid
        c = 1.1
        for x in np.linspace(-5, 5, 100):
            s_star = soft_threshold_scalar(x, c)
            lhs = 0.5 * (x - s_star) ** 2 + c * abs(s_star)
            assert lhs == pytest.approx(0.5 * rho(x, c), abs=1e-12)


class TestChooseCutoff:
    def test_reference_value(self):
        assert choose_cutoff(1.0, 100, 100, 0.1) == pytest.approx(1 / np.sqrt(10), abs=1e-12)

    def test_linear_in_gamma(self):
        assert choose_cutoff(2.0, 30, 20, 0.3) == pytest.approx(
            2 * choose_cutoff(1.0, 30, 20, 0.3), rel=1e-14
        )

    def test_fully_observed_small(self):
        assert choose_cutoff(2.0, 4, 3, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_zero_fraction_rejected(self):
        with pytest.raises(DataValidationError):
            choose_cutoff(1.0, 10, 10, 0.0)

    @pytest.mark.parametrize("args, message", [
        ((1.0, 0, 10, 0.5), "dimensions must be positive"),
        ((1.0, 10, 10, 1.5), "observed_fraction must be in"),
    ])
    def test_bad_shape_or_fraction_rejected(self, args, message):
        with pytest.raises(DataValidationError, match=message):
            choose_cutoff(*args)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(DataValidationError):
            choose_cutoff(gamma, 10, 10, 0.5)
