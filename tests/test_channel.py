from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from oracles import comm_gain, upa_steering, weight_vector

from squintsense.beamforming import aas_beamformer, comm_beamformer
from squintsense.channel import (
    Scene,
    comm_attenuation,
    echo_gain,
    generate_scene,
    scene_arrays,
    sensing_attenuation,
)
from squintsense.config import SystemConfig
from squintsense.exceptions import ConfigError


def materialized_echo(cfg, scene, weights, n):
    """Quadratic-form oracle: build the M x M channel matrix explicitly.

    Each scatterer's distance is H / cos(theta) and its cross section the
    config's target or clutter RCS.
    """
    kappa = cfg.kappa
    has_clutter = len(scene.clutter) > 0
    los_w = np.sqrt(kappa / (1 + kappa)) if has_clutter else 1.0
    f = cfg.subcarrier_offsets()[n]
    g_mtx = np.zeros((cfg.m_total, cfg.m_total), dtype=complex)
    for theta, phi in scene.targets:
        a = upa_steering(cfg, theta, phi, f)
        distance = cfg.height / np.cos(theta)
        coeff = (
            los_w
            * sensing_attenuation(cfg, distance, cfg.sigma_rcs)
            * np.exp(-4j * np.pi * distance / cfg.wavelength)
        )
        g_mtx += coeff * np.outer(np.conj(a), a)
    if has_clutter:
        clu_w = np.sqrt(1 / (1 + kappa)) / np.sqrt(len(scene.clutter))
        for (theta, phi), fading in zip(scene.clutter, scene.fading):
            a = upa_steering(cfg, theta, phi, f)
            distance = cfg.height / np.cos(theta)
            coeff = clu_w * sensing_attenuation(cfg, distance, cfg.sigma_clutter) * fading
            g_mtx += coeff * np.outer(np.conj(a), a)
    w = weight_vector(weights, n)
    return complex(np.conj(w) @ g_mtx @ w)


class TestAttenuation:
    def test_sensing_amplitude_formula(self):
        cfg = SystemConfig(m_h=8, m_v=8)
        lam = cfg.wavelength
        dist, rcs = 55.0, 3.0
        expected = np.sqrt(lam**2 * 64**2 * rcs / ((4 * np.pi) ** 3 * dist**4))
        assert sensing_attenuation(cfg, dist, rcs) == pytest.approx(expected, rel=1e-12)

    def test_comm_amplitude_formula(self):
        cfg = SystemConfig(m_h=8, m_v=8)
        expected = np.sqrt(cfg.wavelength**2 * 64) / (4 * np.pi * 70.0)
        assert comm_attenuation(cfg, 70.0) == pytest.approx(expected, rel=1e-12)

    def test_sensing_scales_inverse_square_distance(self):
        cfg = SystemConfig()
        a1 = sensing_attenuation(cfg, 50.0, 1.0)
        a2 = sensing_attenuation(cfg, 100.0, 1.0)
        assert a1 / a2 == pytest.approx(4.0, rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ConfigError):
            sensing_attenuation(SystemConfig(), 0.0, 1.0)
        with pytest.raises(ConfigError):
            sensing_attenuation(SystemConfig(), np.array([50.0, -1.0]), 1.0)
        with pytest.raises(ConfigError):
            comm_attenuation(SystemConfig(), np.array([50.0, 0.0]))

    def test_array_distances_match_scalar_calls(self):
        """On 10k random distances, each as a Python float and as a numpy
        float, a scalar call gives a float with the bits of that distance's
        entry in one array call."""
        cfg = SystemConfig()
        dist = cfg.height / np.cos(np.random.default_rng(29).uniform(0.0, 1.5, 10_000))
        for scalars in (list(dist), dist.tolist()):  # np.float64, then float
            got = [sensing_attenuation(cfg, d, 2.0) for d in scalars]
            assert all(type(a) is float for a in got)
            np.testing.assert_array_equal(sensing_attenuation(cfg, dist, 2.0), got)
            np.testing.assert_array_equal(
                comm_attenuation(cfg, dist), [comm_attenuation(cfg, d) for d in scalars]
            )

    def test_zero_d_path_keeps_the_numpy_expression_bits(self):
        """Arrays of distances or cross sections give the bits of the numpy
        expression evaluated on them. A scalar distance takes the 0-d array
        path: on each of the first 2,000 distances, with an array of cross
        sections, it gives the bits of the expression on np.asarray(distance)."""
        cfg = SystemConfig()
        rng = np.random.default_rng(23)
        dist = cfg.height / np.cos(rng.uniform(0.0, 1.5, 10_000))
        rcs = cfg.sigma_rcs

        def expression(distance, rcs):
            lam = cfg.wavelength
            return np.sqrt(lam**2 * cfg.m_total**2 * rcs / ((4.0 * np.pi) ** 3 * distance**4))

        rcs_rows = rng.uniform(0.5, 2.0, dist.size)
        np.testing.assert_array_equal(sensing_attenuation(cfg, dist, rcs), expression(dist, rcs))
        np.testing.assert_array_equal(
            sensing_attenuation(cfg, dist, rcs_rows), expression(dist, rcs_rows)
        )
        for d in dist[:2000]:
            np.testing.assert_array_equal(
                sensing_attenuation(cfg, d, rcs_rows), expression(np.asarray(d), rcs_rows)
            )


class TestEchoGainOracle:
    @pytest.mark.parametrize("m", [8, 16])
    def test_matches_materialized_matrix(self, m):
        cfg = SystemConfig(m_h=m, m_v=m, n_subcarriers=16, n_candidates=16, n_clutter=3)
        rng = np.random.default_rng(42)
        for trial in range(25):
            scene = generate_scene(cfg, 2, 0, (42, trial))
            theta_hat = rng.uniform(cfg.theta_min, cfg.theta_max)
            weights = aas_beamformer(cfg, theta_hat)
            n = int(rng.integers(cfg.n_subcarriers))
            fast = echo_gain(cfg, scene_arrays(cfg, scene), weights, np.array([n]))[0]
            slow = materialized_echo(cfg, scene, weights, n)
            assert abs(fast - slow) <= 1e-10 * max(abs(slow), 1e-30)

    @pytest.mark.parametrize("include_clutter", [True, False])
    def test_broadcast_matches_materialized_on_all_subcarriers(self, include_clutter):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16, n_clutter=3)
        rng = np.random.default_rng(43)
        n_idx = np.arange(cfg.n_subcarriers)
        for trial in range(6):
            scene = generate_scene(cfg, 2, 1, (43, trial), include_clutter)
            for weights in (
                aas_beamformer(cfg, rng.uniform(cfg.theta_min, cfg.theta_max)),
                comm_beamformer(cfg, *scene.users[0]),
            ):
                fast = echo_gain(cfg, scene_arrays(cfg, scene), weights, n_idx)
                assert fast.shape == (cfg.n_subcarriers,)
                slow = np.array([materialized_echo(cfg, scene, weights, n) for n in n_idx])
                # when every scatterer sits in a sidelobe the M x M oracle
                # loses relative accuracy, so the floor is 1e-12 of the echo
                # with all scatterers at the unit beam peak
                peak = np.sum(np.abs(scene_arrays(cfg, scene)[2]))
                np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12 * peak)

    def test_clutter_flag(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16)
        n = np.array([3])
        bf = aas_beamformer(cfg, 0.7)
        with_c = echo_gain(cfg, scene_arrays(cfg, generate_scene(cfg, 1, 0, 5)), bf, n)
        bare = generate_scene(cfg, 1, 0, 5, include_clutter=False)
        without = echo_gain(cfg, scene_arrays(cfg, bare), bf, n)
        assert with_c[0] != without[0]

    def test_empty_scene_zero(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16)
        gain = echo_gain(cfg, scene_arrays(cfg, Scene()), aas_beamformer(cfg, 0.7), np.arange(4))
        np.testing.assert_array_equal(gain, np.zeros(4))


class TestSceneArrays:
    def test_targets_first_with_rician_weights(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16, n_clutter=2)
        scene = generate_scene(cfg, 2, 0, 17)
        theta, phi, amp = scene_arrays(cfg, scene)
        sources = np.concatenate([scene.targets, scene.clutter])
        np.testing.assert_array_equal(theta, sources[:, 0])
        np.testing.assert_array_equal(phi, sources[:, 1])
        los_w = np.sqrt(cfg.kappa / (1 + cfg.kappa))
        clu_w = np.sqrt(1 / (1 + cfg.kappa)) / np.sqrt(2)
        for a, (th, _) in zip(amp[:2], scene.targets):
            distance = cfg.height / np.cos(th)
            expected = (
                los_w
                * sensing_attenuation(cfg, distance, cfg.sigma_rcs)
                * np.exp(-4j * np.pi * distance / cfg.wavelength)
            )
            assert a == pytest.approx(expected, rel=1e-12)
        for a, (th, _), fading in zip(amp[2:], scene.clutter, scene.fading):
            distance = cfg.height / np.cos(th)
            expected = clu_w * sensing_attenuation(cfg, distance, cfg.sigma_clutter) * fading
            assert a == pytest.approx(expected, rel=1e-12)

    def test_without_clutter_pure_los(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16, n_clutter=2)
        scene = generate_scene(cfg, 1, 0, 18, include_clutter=False)
        theta, _, amp = scene_arrays(cfg, scene)
        assert len(theta) == 1
        distance = cfg.height / np.cos(scene.targets[0, 0])
        assert abs(amp[0]) == pytest.approx(sensing_attenuation(cfg, distance, cfg.sigma_rcs))

    def test_empty_scene(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16)
        theta, phi, amp = scene_arrays(cfg, Scene())
        assert theta.shape == phi.shape == amp.shape == (0,)


class TestCommGain:
    def test_unit_beamformed_magnitude(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16)
        theta, phi = 0.7, 1.4
        bf = comm_beamformer(cfg, theta, phi)
        expected = comm_attenuation(cfg, cfg.height / np.cos(theta))
        for n in range(cfg.n_subcarriers):
            assert abs(comm_gain(cfg, theta, phi, bf, n)) == pytest.approx(expected, rel=1e-9)


class TestSceneGeneration:
    def setup_method(self):
        self.cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16)

    def test_deterministic(self):
        a = generate_scene(self.cfg, 2, 2, 123)
        b = generate_scene(self.cfg, 2, 2, 123)
        for f in fields(Scene):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))

    def test_counts(self):
        scene = generate_scene(self.cfg, 3, 2, 1)
        assert scene.targets.shape == (3, 2)
        assert scene.clutter.shape == (self.cfg.n_clutter, 2)
        assert scene.fading.shape == (self.cfg.n_clutter,)
        assert scene.users.shape == (2, 2)

    def test_without_clutter_keeps_target_and_user_draws(self):
        """Clutter is drawn either way, so the other streams do not move."""
        for seed in range(5):
            with_c = generate_scene(self.cfg, 3, 2, seed)
            without = generate_scene(self.cfg, 3, 2, seed, include_clutter=False)
            np.testing.assert_array_equal(without.targets, with_c.targets)
            np.testing.assert_array_equal(without.users, with_c.users)
            assert without.clutter.shape == (0, 2)
            assert without.fading.shape == (0,)

    def test_angles_inside_roi(self):
        scene = generate_scene(self.cfg, 5, 3, 9)
        theta, phi = np.concatenate([scene.targets, scene.clutter, scene.users]).T
        assert np.all((self.cfg.theta_min <= theta) & (theta <= self.cfg.theta_max))
        assert np.all((self.cfg.phi_min <= phi) & (phi <= self.cfg.phi_max))

    def test_user_separation(self):
        cfg = self.cfg
        for seed in range(20):
            scene = generate_scene(cfg, 0, 3, seed)
            users = scene.users
            for i in range(len(users)):
                for j in range(i + 1, len(users)):
                    d = np.hypot(*(users[i] - users[j]))
                    assert d >= cfg.user_min_separation

    def test_separation_infeasible_raises(self):
        cfg = self.cfg.replace(user_min_separation=np.pi)
        with pytest.raises(ConfigError):
            generate_scene(cfg, 0, 3, 0)

    def test_target_marginals_uniform(self):
        """KS test of the elevation and azimuth marginals against uniform."""
        cfg = self.cfg
        thetas, phis = [], []
        for seed in range(400):
            scene = generate_scene(cfg, 1, 0, (77, seed))
            thetas.append(scene.targets[0, 0])
            phis.append(scene.targets[0, 1])
        span_t = cfg.theta_max - cfg.theta_min
        span_p = cfg.phi_max - cfg.phi_min
        p_t = stats.kstest((np.array(thetas) - cfg.theta_min) / span_t, "uniform").pvalue
        p_p = stats.kstest((np.array(phis) - cfg.phi_min) / span_p, "uniform").pvalue
        assert p_t > 1e-3
        assert p_p > 1e-3

    def test_clutter_fading_unit_variance(self):
        cfg = self.cfg
        draws = []
        for seed in range(300):
            scene = generate_scene(cfg, 0, 0, (88, seed))
            draws.extend(scene.fading)
        draws = np.array(draws)
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.1)
        assert abs(np.mean(draws)) < 0.1

