import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import horizontal_steering, uniform_phase_sum, upa_steering, vertical_steering

from squintsense.config import SystemConfig
from squintsense.exceptions import ConfigError
from squintsense.geometry import (
    ENVELOPE_MARGIN,
    FEJER_BLOCK,
    composite_aod_bounds,
    fejer_envelope,
    flat_horizontal_gain,
    safe_arccos,
    uniform_phase_power,
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

    @pytest.mark.parametrize("shape", [(11,), (128, 128), (3, 16384)], ids=["small", "one-block", "blocks"])
    def test_out_takes_the_same_bits(self, shape):
        slopes = np.random.default_rng(4).uniform(-3.0, 3.0, shape)
        out = np.full(shape, np.nan)
        assert uniform_phase_power(slopes, 16, scale=0.7, out=out) is out
        np.testing.assert_array_equal(out, uniform_phase_power(slopes, 16, scale=0.7))

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

    def test_starts_no_thread(self, monkeypatch):
        """Every block of a call runs on the calling thread."""

        def refuse(thread):
            raise AssertionError("uniform_phase_power started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        # two blocks and a ragged third, with singular entries in the last
        slopes = np.random.default_rng(11).uniform(-4.0, 4.0, 2 * FEJER_BLOCK + 123)
        slopes[-5:] = [0.0, 2.0, -4.0, 1e-13, 2.0 + 1e-13]
        assert_kernel_matches_phase_sum(slopes, 16)

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


# powers of two: s * x and the kernel's x * (pi/4 * s) are then exact
# rescalings of the unscaled products, so the kernel sees the very phase
# that uniform_phase_sum(s * x) sees, even at nulls
EXACT_SCALES = (0.25, 0.5, 2.0)


class TestScaledPower:
    """uniform_phase_power(x, m, scale=s) against uniform_phase_sum(s * x)."""

    @staticmethod
    def assert_matches(slopes, m, scale):
        before = slopes.copy()
        with np.errstate(all="raise"):
            power = uniform_phase_power(slopes, m, scale=scale)
        np.testing.assert_array_equal(slopes, before)
        assert power.shape == slopes.shape
        np.testing.assert_allclose(
            power, np.abs(uniform_phase_sum(scale * slopes, m)) ** 2, rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("m", KERNEL_SIZES)
    @pytest.mark.parametrize("scale", EXACT_SCALES)
    def test_products_at_nulls_and_even_integers(self, m, scale):
        # products 2k/m (nulls, and even integers where m divides k) and even
        # integers nudged into and just out of the limit branch
        nulls = (2.0 * np.arange(-2 * m, 2 * m + 1) / m)[:, None] + np.array(NUDGES)
        evens = (2.0 * np.arange(-4, 5))[:, None] + np.array(NUDGES + (1e-12, -1e-12))
        for products in (nulls, evens):
            self.assert_matches(products / scale, m, scale)

    @pytest.mark.parametrize("scale", EXACT_SCALES)
    def test_inputs_larger_than_one_block(self, scale):
        rng = np.random.default_rng(5)
        for size in (FEJER_BLOCK + 1, 2 * FEJER_BLOCK + 123):
            products = rng.uniform(-6.0, 6.0, size)
            products[::997] = 2.0 * rng.integers(-3, 4, products[::997].size)
            products[5::997] = 2.0 / 16.0 * rng.integers(-40, 41, products[5::997].size)
            products[-1] = 2.0
            self.assert_matches(products / scale, 16, scale)
            self.assert_matches((products / scale).reshape(1, -1, 1), 7, scale)

    @given(
        slope=SLOPES,
        scale=st.floats(0.05, 1.0),
        m=st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]),
    )
    @settings(max_examples=300, deadline=None)
    def test_generic_scale(self, slope, scale, m):
        """Any scale, such as the sin(theta_hat) of an AAS dictionary. s * x and
        x * (pi/4 * s) may then differ in their last bit, which at a null
        moves the power by its own size, hence the floor at 1e-12 of the
        kernel's unit peak, as in the explicit-sum oracle tests. m is a power
        of two, as in the default and scaled configs, so m u is exact in
        both: for other m, rounding m u alone moves both powers by up to
        ~4e-4 within 1e-10 of a nonzero even-integer slope, by the same
        amount only when both see the same u."""
        power = uniform_phase_power(slope, m, scale=scale)
        assert isinstance(power, float)
        expected = abs(uniform_phase_sum(scale * slope, m)) ** 2
        assert abs(power - expected) <= 1e-12 * expected + 1e-12


def exact_fejer_power(slope: float, m: int, mpmath) -> float:
    """(sin(m u) / (m sin u))^2, u = pi * slope / 2, at 50 digits. The Fejer
    power has period 2 in the slope, and the reduction is exact in mpmath,
    so no rounding is shared with the float64 kernel."""
    with mpmath.workdps(50):
        x = mpmath.mpf(slope)
        reduced = x - 2 * mpmath.nint(x / 2)
        if reduced == 0:
            return 1.0
        u = mpmath.pi * reduced / 2
        return float((mpmath.sin(m * u) / (m * mpmath.sin(u))) ** 2)


class TestKernelExactness:
    """uniform_phase_power against an independent 50-digit reference at slopes
    near even integers up to 200, for the power-of-two m of every shipped
    config; the kernel's documented accurate domain."""

    @pytest.mark.parametrize("m", [16, 64])
    def test_near_even_integers_against_mpmath(self, m):
        mpmath = pytest.importorskip("mpmath")
        offsets = 10.0 ** -np.arange(1, 16)
        offsets = np.concatenate([[0.0], offsets, -offsets])
        slopes = (2.0 * np.arange(-3, 101)[:, None] + offsets).ravel()
        got = uniform_phase_power(slopes, m)
        want = np.array([exact_fejer_power(x, m, mpmath) for x in slopes])
        # the rounded product pi x / 4 moves the slope by a few ulp of x, so
        # the error grows with x and with the kernel's own slope; inside the
        # main lobe it stays far below the sidelobe bound
        error = np.abs(got - want)
        assert np.all(error <= 1e-11 * np.maximum(want, 1e-12))
        near = np.abs(np.tile(offsets, len(slopes) // offsets.size)) <= 1e-3
        assert np.all(error[near] <= 1e-12 * want[near])


FULL = SystemConfig()
SCALED = SystemConfig(m_h=16, m_v=16, n_subcarriers=32, n_candidates=512)


# the subcarrier ratios 1 + f_n / fc of the default, scaled and odd-array configs
ENVELOPE_RATIOS = [
    1.0 + cfg.subcarrier_offsets() / cfg.fc
    for cfg in (FULL, SCALED, SystemConfig(n_subcarriers=24), SystemConfig(n_subcarriers=44))
]


class TestFejerEnvelope:
    """fejer_envelope bounds the kernel at every ratio of a config's range."""

    @staticmethod
    def kernel_max(slopes, m, ratio):
        """The largest computed kernel value over the ratios, per slope."""
        return uniform_phase_power(ratio[:, None] * slopes, m).max(axis=0)

    @given(
        m=st.sampled_from([7, 13, 16, 64]),
        ratio=st.sampled_from(ENVELOPE_RATIOS),
        center=st.sampled_from([0.0, 2.0, -2.0]),
        exponent=st.floats(-14.0, -5.0),
        sign=st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_kernel_near_peaks(self, m, ratio, center, exponent, sign):
        """Near slopes 0 and +-2, where the kernel of a non-power-of-two m
        reads above the exact power, the margin covers it."""
        slope = np.array([center + sign * 10.0**exponent])
        bound = fejer_envelope(slope, m, ratio.min(), ratio.max())
        assert np.all((1.0 + ENVELOPE_MARGIN) * bound >= self.kernel_max(slope, m, ratio))

    @pytest.mark.parametrize("m", [7, 13, 16, 64])
    @pytest.mark.parametrize("ratio", ENVELOPE_RATIOS[::2], ids=["n128", "n24"])
    def test_bounds_kernel_over_every_slope(self, m, ratio):
        slopes = np.concatenate([np.linspace(-2.5, 2.5, 20001), 2.0 * np.arange(-1, 2) / m])
        bound = fejer_envelope(slopes, m, ratio.min(), ratio.max())
        assert np.all((1.0 + ENVELOPE_MARGIN) * bound >= self.kernel_max(slopes, m, ratio))

    @pytest.mark.parametrize("m", [16, 64])
    def test_bounds_accurate_kernel_without_margin(self, m):
        """For the power-of-two m of the kernel's accurate domain, the bound
        holds on its own: it bounds the exact power."""
        ratio = ENVELOPE_RATIOS[0]
        slopes = np.linspace(-2.5, 2.5, 20001)
        bound = fejer_envelope(slopes, m, ratio.min(), ratio.max())
        assert np.all(bound >= self.kernel_max(slopes, m, ratio) * (1.0 - 1e-12))

    @pytest.mark.parametrize("m", [7, 16, 64])
    def test_main_lobe_within_one_percent(self, m):
        """At one ratio the bound is the power itself up to 1% on the main
        lobe, so rows near a peak are not kept by a loose bound."""
        slopes = np.linspace(-2.0 / m, 2.0 / m, 401)
        ratio = np.ones(1)
        bound = fejer_envelope(slopes, m, 1.0, 1.0)
        power = self.kernel_max(slopes, m, ratio)
        lobe = np.abs(slopes) <= 1.0 / m
        assert np.all(bound >= power)
        assert np.all(bound[lobe] <= 1.01 * power[lobe])
        assert np.all(fejer_envelope(np.array([0.0, 2.0, -4.0]), m, 1.0, 1.2) == 1.0)


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
