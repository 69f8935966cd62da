import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squintsense.config import SystemConfig
from squintsense.exceptions import ConfigError
from squintsense.geometry import (
    FEJER_BLOCK,
    composite_aod_bounds,
    flat_horizontal_gain,
    horizontal_steering,
    safe_arccos,
    uniform_phase_power,
    uniform_phase_sum,
    upa_steering,
    vertical_steering,
)


def brute_phase_sum(slope, m):
    k = np.arange(m)
    return np.mean(np.exp(-1j * np.pi * k * slope))


class TestUniformPhaseSum:
    def test_zero_slope_is_one(self):
        assert uniform_phase_sum(0.0, 16) == pytest.approx(1.0)

    def test_even_integer_slope_is_unit_magnitude(self):
        for slope in (2.0, -2.0, 4.0):
            assert abs(uniform_phase_sum(slope, 8)) == pytest.approx(1.0)

    def test_matches_brute_force_on_fixed_grid(self):
        slopes = np.linspace(-3.0, 3.0, 1001)
        for m in (1, 2, 7, 16, 64):
            closed = uniform_phase_sum(slopes, m)
            brute = np.array([brute_phase_sum(s, m) for s in slopes])
            np.testing.assert_allclose(closed, brute, atol=1e-12)

    @given(
        slope=st.floats(-8.0, 8.0, allow_nan=False),
        m=st.integers(1, 128),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_property(self, slope, m):
        closed = uniform_phase_sum(slope, m)
        brute = brute_phase_sum(slope, m)
        assert abs(closed - brute) < 1e-10

    @given(slope=st.floats(-8.0, 8.0, allow_nan=False), m=st.integers(1, 128))
    @settings(max_examples=200, deadline=None)
    def test_magnitude_at_most_one(self, slope, m):
        assert abs(uniform_phase_sum(slope, m)) <= 1.0 + 1e-12

    def test_near_singular_points(self):
        # slopes within float ulps of the even-integer peaks
        for base in (0.0, 2.0, -2.0):
            for eps in (0.0, 1e-14, -1e-14, 1e-13):
                s = base + eps
                assert abs(uniform_phase_sum(s, 32) - brute_phase_sum(s, 32)) < 1e-9

    def test_array_shape_preserved(self):
        slopes = np.zeros((3, 4, 5))
        out = uniform_phase_sum(slopes, 8)
        assert out.shape == (3, 4, 5)


# generic slopes, and even integers (the kernel's removable singularities)
# nudged by at most 1e-13
SLOPES = st.one_of(
    st.floats(-8.0, 8.0, allow_nan=False),
    st.builds(
        lambda k, eps: 2.0 * k + eps,
        st.integers(-4, 4),
        st.sampled_from([-1e-13, -1e-14, 0.0, 1e-14, 1e-13]),
    ),
)


KERNEL_SIZES = (1, 2, 7, 16, 64, 128)
NUDGES = (0.0, 1e-13, -1e-13, 1e-9, -1e-9)


def assert_kernel_matches_phase_sum(slopes, m):
    """uniform_phase_power, with every floating-point error raising, equals
    |uniform_phase_sum|^2 to rtol 1e-12, keeps the input's shape and leaves
    the input unmodified."""
    before = slopes.copy()
    with np.errstate(all="raise"):
        power = uniform_phase_power(slopes, m)
    np.testing.assert_array_equal(slopes, before)
    assert power.shape == slopes.shape
    np.testing.assert_allclose(
        power, np.abs(uniform_phase_sum(slopes, m)) ** 2, rtol=1e-12, atol=0
    )


class TestUniformPhasePower:
    @given(slope=SLOPES, m=st.one_of(st.just(1), st.integers(1, 128)))
    @settings(max_examples=400, deadline=None)
    def test_equals_squared_phase_sum(self, slope, m):
        power = uniform_phase_power(slope, m)
        assert isinstance(power, float)
        expected = abs(uniform_phase_sum(slope, m)) ** 2
        assert abs(power - expected) <= 1e-12 * expected

    def test_matches_on_arrays_with_singular_entries(self):
        slopes = np.concatenate([np.linspace(-6.0, 6.0, 2001), [2.0 + 1e-13, -4.0 - 1e-13]])
        for m in (1, 2, 7, 16, 64):
            power = uniform_phase_power(slopes, m)
            np.testing.assert_allclose(
                power, np.abs(uniform_phase_sum(slopes, m)) ** 2, rtol=1e-12, atol=0
            )

    def test_array_shape_preserved(self):
        assert uniform_phase_power(np.zeros((3, 4, 5)), 8).shape == (3, 4, 5)

    def test_input_not_modified(self):
        slopes = np.linspace(-1.0, 1.0, 11)
        before = slopes.copy()
        uniform_phase_power(slopes, 16)
        np.testing.assert_array_equal(slopes, before)

    @pytest.mark.parametrize("m", KERNEL_SIZES)
    def test_near_nulls(self, m):
        # x = 2k/m are the nulls; for odd k they are the poles of tan(m u/2),
        # and for k a multiple of m the even-integer singularities
        k = np.arange(-2 * m, 2 * m + 1)
        assert_kernel_matches_phase_sum((2.0 * k / m)[:, None] + np.array(NUDGES), m)

    @pytest.mark.parametrize("m", KERNEL_SIZES)
    def test_near_even_integers(self, m):
        # even integers 2 mod 4 are the poles of tan(u/2); the nudges of
        # +-1e-12 fall just outside the limit branch (|sin u| < 1e-12)
        nudges = np.array(NUDGES + (1e-14, -1e-14, 1e-12, -1e-12))
        assert_kernel_matches_phase_sum((2.0 * np.arange(-4, 5))[:, None] + nudges, m)

    def test_inputs_larger_than_one_block(self):
        rng = np.random.default_rng(3)
        for size in (FEJER_BLOCK + 1, 2 * FEJER_BLOCK + 123, 3 * FEJER_BLOCK - 1):
            slopes = rng.uniform(-6.0, 6.0, size)
            # singular and null entries in every block, up to the last element
            slopes[::997] = 2.0 * rng.integers(-3, 4, slopes[::997].size)
            slopes[5::997] = 2.0 / 16.0 * rng.integers(-40, 41, slopes[5::997].size)
            slopes[-1] = 2.0
            assert_kernel_matches_phase_sum(slopes, 16)
            assert_kernel_matches_phase_sum(slopes.reshape(1, -1, 1), 7)

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(4)
        for shape in ((24, 16), (FEJER_BLOCK // 3 + 5, 7)):
            slopes = rng.uniform(-6.0, 6.0, shape)
            slopes[::5, ::3] = 2.0
            assert_kernel_matches_phase_sum(slopes.T, 64)
            assert_kernel_matches_phase_sum(slopes[::2, ::-1], 64)

    def test_zero_dimensional_input_returns_float(self):
        for slope in (np.array(0.3), np.float64(2.0), np.array(0.0), 6.0 + 1e-13):
            with np.errstate(all="raise"):
                power = uniform_phase_power(slope, 16)
            assert type(power) is float
            expected = abs(uniform_phase_sum(float(slope), 16)) ** 2
            assert power == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestSteering:
    def setup_method(self):
        self.cfg = SystemConfig(m_h=8, m_v=4, n_subcarriers=16, n_candidates=16)

    def test_unit_norm(self):
        a = upa_steering(self.cfg, 0.7, 1.2, 3e9)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_entry_formula(self):
        theta, phi, f = 0.6, 1.0, 2.5e9
        cfg = self.cfg
        a = upa_steering(cfg, theta, phi, f)
        ratio = 1.0 + f / cfg.fc
        for mh in range(cfg.m_h):
            for mv in range(cfg.m_v):
                expected = np.exp(
                    -1j * np.pi * (mh * np.sin(theta) * np.cos(phi) + mv * np.cos(theta)) * ratio
                ) / np.sqrt(cfg.m_total)
                assert a[mh * cfg.m_v + mv] == pytest.approx(expected, abs=1e-12)

    def test_kronecker_structure(self):
        a_h = horizontal_steering(0.5, 0.9, 1e9, 8, 30e9)
        a_v = vertical_steering(0.5, 1e9, 4, 30e9)
        a = upa_steering(self.cfg, 0.5, 0.9, 1e9)
        np.testing.assert_allclose(a, np.kron(a_h, a_v), atol=1e-15)

    def test_vertical_ignores_azimuth(self):
        v1 = vertical_steering(0.5, 1e9, 16, 30e9)
        v2 = vertical_steering(0.5, 1e9, 16, 30e9)
        np.testing.assert_array_equal(v1, v2)


class TestSafeArccos:
    def test_identity_inside(self):
        x = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(safe_arccos(x), np.arccos(x))

    def test_clamps_small_drift(self):
        assert safe_arccos(1.0 + 5e-10) == pytest.approx(0.0)
        assert safe_arccos(-1.0 - 5e-10) == pytest.approx(np.pi)

    def test_rejects_large_values(self):
        with pytest.raises(ConfigError):
            safe_arccos(1.001)


class TestFlatGain:
    def test_value_matches_interval_formula(self):
        cfg = SystemConfig()
        lo, hi = composite_aod_bounds(cfg)
        assert lo < hi
        expected = np.sqrt(2.0 * np.pi / (cfg.m_h * (hi - lo)))
        assert flat_horizontal_gain(cfg) == pytest.approx(expected, rel=1e-12)

    def test_bounds_from_roi_corners(self):
        cfg = SystemConfig()
        lo, hi = composite_aod_bounds(cfg)
        a = np.arccos(np.sin(cfg.theta_max) * np.cos(cfg.phi_min))
        b = np.arccos(
            np.clip(np.sin(cfg.theta_max) * np.cos(cfg.phi_max) * (1 + cfg.bandwidth / cfg.fc), -1, 1)
        )
        assert (lo, hi) == pytest.approx((min(a, b), max(a, b)))
