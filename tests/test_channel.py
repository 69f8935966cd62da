import numpy as np
import pytest
from scipy import stats

from oracles import comm_gain, upa_steering, weight_vector

from squintsense.beamforming import aas_beamformer, comm_beamformer
from squintsense.channel import (
    Scene,
    Target,
    User,
    comm_attenuation,
    echo_gain,
    generate_scene,
    scene_arrays,
    sensing_attenuation,
)
from squintsense.config import SystemConfig
from squintsense.exceptions import ConfigError


def materialized_echo(cfg, scene, weights, n, include_clutter=True):
    """Quadratic-form oracle: build the M x M channel matrix explicitly."""
    kappa = cfg.kappa
    has_clutter = include_clutter and bool(scene.clutterers)
    los_w = np.sqrt(kappa / (1 + kappa)) if has_clutter else 1.0
    f = cfg.subcarrier_offsets()[n]
    g_mtx = np.zeros((cfg.m_total, cfg.m_total), dtype=complex)
    for t in scene.targets:
        a = upa_steering(cfg, t.theta, t.phi, f)
        coeff = (
            los_w
            * sensing_attenuation(cfg, t.distance, t.rcs)
            * np.exp(-4j * np.pi * t.distance / cfg.wavelength)
        )
        g_mtx += coeff * np.outer(np.conj(a), a)
    if has_clutter:
        clu_w = np.sqrt(1 / (1 + kappa)) / np.sqrt(len(scene.clutterers))
        for c in scene.clutterers:
            a = upa_steering(cfg, c.theta, c.phi, f)
            coeff = clu_w * sensing_attenuation(cfg, c.distance, c.rcs) * c.fading
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
        cfg = SystemConfig()
        dist = np.array([42.0, 55.5, 90.0])
        np.testing.assert_array_equal(
            sensing_attenuation(cfg, dist, 2.0), [sensing_attenuation(cfg, d, 2.0) for d in dist]
        )
        np.testing.assert_array_equal(
            comm_attenuation(cfg, dist), [comm_attenuation(cfg, d) for d in dist]
        )
        assert isinstance(sensing_attenuation(cfg, 42.0, 2.0), float)


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
            fast = echo_gain(cfg, scene, weights, n)
            slow = materialized_echo(cfg, scene, weights, n)
            assert abs(fast - slow) <= 1e-10 * max(abs(slow), 1e-30)

    @pytest.mark.parametrize("include_clutter", [True, False])
    def test_broadcast_matches_materialized_on_all_subcarriers(self, include_clutter):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16, n_clutter=3)
        rng = np.random.default_rng(43)
        n_idx = np.arange(cfg.n_subcarriers)
        for trial in range(6):
            scene = generate_scene(cfg, 2, 1, (43, trial))
            user = scene.users[0]
            for weights in (
                aas_beamformer(cfg, rng.uniform(cfg.theta_min, cfg.theta_max)),
                comm_beamformer(cfg, user.theta, user.phi),
            ):
                fast = echo_gain(cfg, scene, weights, n_idx, include_clutter)
                assert fast.shape == (cfg.n_subcarriers,)
                slow = np.array(
                    [materialized_echo(cfg, scene, weights, n, include_clutter) for n in n_idx]
                )
                # when every scatterer sits in a sidelobe the M x M oracle
                # loses relative accuracy, so the floor is 1e-12 of the echo
                # with all scatterers at the unit beam peak
                peak = np.sum(np.abs(scene_arrays(cfg, scene, include_clutter)[2]))
                np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12 * peak)

    def test_clutter_flag(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16)
        scene = generate_scene(cfg, 1, 0, 5)
        with_c = echo_gain(cfg, scene, aas_beamformer(cfg, 0.7), 3, include_clutter=True)
        without = echo_gain(cfg, scene, aas_beamformer(cfg, 0.7), 3, include_clutter=False)
        assert with_c != without

    def test_empty_scene_zero(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16)
        assert echo_gain(cfg, Scene(), aas_beamformer(cfg, 0.7), 0) == 0.0


class TestSceneArrays:
    def test_targets_first_with_rician_weights(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16, n_clutter=2)
        scene = generate_scene(cfg, 2, 0, 17)
        theta, phi, amp = scene_arrays(cfg, scene)
        sources = scene.targets + scene.clutterers
        np.testing.assert_array_equal(theta, [s.theta for s in sources])
        np.testing.assert_array_equal(phi, [s.phi for s in sources])
        los_w = np.sqrt(cfg.kappa / (1 + cfg.kappa))
        clu_w = np.sqrt(1 / (1 + cfg.kappa)) / np.sqrt(2)
        for a, t in zip(amp[:2], scene.targets):
            expected = (
                los_w
                * sensing_attenuation(cfg, t.distance, t.rcs)
                * np.exp(-4j * np.pi * t.distance / cfg.wavelength)
            )
            assert a == pytest.approx(expected, rel=1e-12)
        for a, c in zip(amp[2:], scene.clutterers):
            expected = clu_w * sensing_attenuation(cfg, c.distance, c.rcs) * c.fading
            assert a == pytest.approx(expected, rel=1e-12)

    def test_without_clutter_pure_los(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16, n_clutter=2)
        scene = generate_scene(cfg, 1, 0, 18)
        theta, _, amp = scene_arrays(cfg, scene, include_clutter=False)
        assert len(theta) == 1
        t = scene.targets[0]
        assert abs(amp[0]) == pytest.approx(sensing_attenuation(cfg, t.distance, t.rcs))

    def test_empty_scene(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16)
        theta, phi, amp = scene_arrays(cfg, Scene())
        assert theta.shape == phi.shape == amp.shape == (0,)


class TestCommGain:
    def test_unit_beamformed_magnitude(self):
        cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16)
        user = User(theta=0.7, phi=1.4, distance=cfg.height / np.cos(0.7), noise_var=1e-12)
        bf = comm_beamformer(cfg, user.theta, user.phi)
        for n in range(cfg.n_subcarriers):
            expected = comm_attenuation(cfg, user.distance)
            assert abs(comm_gain(cfg, user, bf, n)) == pytest.approx(expected, rel=1e-9)


class TestSceneGeneration:
    def setup_method(self):
        self.cfg = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=16)

    def test_deterministic(self):
        a = generate_scene(self.cfg, 2, 2, 123)
        b = generate_scene(self.cfg, 2, 2, 123)
        assert a == b

    def test_counts(self):
        scene = generate_scene(self.cfg, 3, 2, 1)
        assert len(scene.targets) == 3
        assert len(scene.clutterers) == self.cfg.n_clutter
        assert len(scene.users) == 2

    def test_angles_inside_roi(self):
        scene = generate_scene(self.cfg, 5, 3, 9)
        for obj in scene.targets + scene.clutterers + scene.users:
            assert self.cfg.theta_min <= obj.theta <= self.cfg.theta_max
            assert self.cfg.phi_min <= obj.phi <= self.cfg.phi_max

    def test_distances_consistent_with_height(self):
        scene = generate_scene(self.cfg, 4, 0, 2)
        for t in scene.targets:
            assert t.distance == pytest.approx(self.cfg.height / np.cos(t.theta))

    def test_user_separation(self):
        cfg = self.cfg
        for seed in range(20):
            scene = generate_scene(cfg, 0, 3, seed)
            users = scene.users
            for i in range(len(users)):
                for j in range(i + 1, len(users)):
                    d = np.hypot(users[i].theta - users[j].theta, users[i].phi - users[j].phi)
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
            thetas.append(scene.targets[0].theta)
            phis.append(scene.targets[0].phi)
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
            draws.extend(c.fading for c in scene.clutterers)
        draws = np.array(draws)
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.1)
        assert abs(np.mean(draws)) < 0.1

