import math

import numpy as np
import pytest

from squintsense.beamforming import (
    aas_azimuth_grid,
    aas_beamformer,
    comm_beamformer,
    eas_beamformer,
    eas_elevation_grid,
)
from squintsense.channel import comm_gain, generate_scene
from squintsense.config import SystemConfig
from squintsense.detection import elevation_candidates
from squintsense.exceptions import InfeasibleError
from squintsense.power import (
    SinrContext,
    allocate_comm,
    allocate_sensing,
    backoff_tau_c,
    check_feasibility,
    grid_echo_strength,
    sinr_context,
)

CFG = SystemConfig(m_h=16, m_v=16, n_subcarriers=32, n_candidates=32)


def oracle_symbol_count(cfg, strengths):
    """Smallest integer T for which the per-symbol power sum fits the budget."""
    sigma2 = cfg.noise_variance()
    required = cfg.tau_s * sigma2 / np.asarray(strengths)
    t = 1
    while np.sum(required / t) > cfg.p_s_max * (1 + 1e-12):
        t += 1
    return t


class TestAllocateSensing:
    def test_snr_exactly_at_threshold(self):
        """Allocated power times echo strength equals tau_s * sigma^2 * T."""
        cfg = CFG
        bf = eas_beamformer(cfg)
        strengths = grid_echo_strength(cfg, bf, eas_elevation_grid(cfg), 1.5)
        t, p = allocate_sensing(cfg, strengths)
        snr = t * p * strengths / cfg.noise_variance()
        np.testing.assert_allclose(snr, cfg.tau_s, rtol=1e-9)

    def test_budget_respected_and_minimal(self):
        cfg = CFG
        bf = eas_beamformer(cfg)
        strengths = grid_echo_strength(cfg, bf, eas_elevation_grid(cfg), 1.5)
        t, p = allocate_sensing(cfg, strengths)
        assert np.sum(p) <= cfg.p_s_max * (1 + 1e-12)
        if t > 1:
            assert np.sum(p * t / (t - 1)) > cfg.p_s_max

    def test_matches_integer_search_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cfg = CFG.replace(tau_s_db=float(rng.uniform(5, 22)))
            strengths = 10 ** rng.uniform(-12.5, -10, cfg.n_subcarriers)
            t, p = allocate_sensing(cfg, strengths)
            assert t == oracle_symbol_count(cfg, strengths)
            np.testing.assert_allclose(
                p, cfg.tau_s * cfg.noise_variance() / (t * strengths), rtol=1e-12
            )

    def test_zero_strength_infeasible(self):
        with pytest.raises(InfeasibleError):
            allocate_sensing(CFG, np.array([1e-12, 0.0]))

    def test_single_symbol_when_budget_ample(self):
        cfg = CFG.replace(p_s_max=1e9)
        strengths = np.full(cfg.n_subcarriers, 1e-12)
        t, _ = allocate_sensing(cfg, strengths)
        assert t == 1


class TestGridEchoStrength:
    def test_alpha_squared_gain_fourth(self):
        """alpha^2 |g|^4 against the explicit gain: at an arbitrary azimuth
        for EAS weights, and on the design grid for AAS weights, which the
        AAS closed form assumes."""
        from squintsense.channel import sensing_attenuation

        cfg = CFG
        theta_hat = 0.8
        alpha = sensing_attenuation(cfg, cfg.height / math.cos(theta_hat), cfg.sigma_rcs)
        cases = (
            (eas_beamformer(cfg), np.full(cfg.n_subcarriers, 1.2)),
            (aas_beamformer(cfg, theta_hat), aas_azimuth_grid(cfg)),
        )
        for bf, phi in cases:
            out = grid_echo_strength(cfg, bf, theta_hat, phi)
            for n in (0, 13, 31):
                g = abs(bf.gain(theta_hat, phi[n], n))
                assert g > 0.0
                assert out[n] == pytest.approx(alpha**2 * g**4, rel=1e-12)

    def test_aas_closed_form_matches_kernel_on_every_candidate(self):
        """For AAS weights the strength is alpha(theta_hat)^2 with no kernel
        call; the kernel evaluation on the design grid agrees to 1e-15."""
        from squintsense.channel import sensing_attenuation

        cfg = SystemConfig(m_h=16, m_v=16, n_subcarriers=32, n_candidates=512)
        phi_grid = aas_azimuth_grid(cfg)
        n_idx = np.arange(cfg.n_subcarriers)
        for theta_hat in elevation_candidates(cfg):
            bf = aas_beamformer(cfg, theta_hat)
            alpha = sensing_attenuation(cfg, cfg.height / np.cos(theta_hat), cfg.sigma_rcs)
            kernel = alpha**2 * bf.power_gain(theta_hat, phi_grid, n_idx) ** 2
            closed = grid_echo_strength(cfg, bf, theta_hat, phi_grid)
            assert closed.shape == (cfg.n_subcarriers,)
            np.testing.assert_allclose(closed, kernel, rtol=1e-15, atol=0)


def random_feasible_context(rng, k, n=1, margin=2.0, tau_c=10.0):
    """Random chi with diagonal dominance at tau_c * margin."""
    chi = 10 ** rng.uniform(-14, -10, size=(k, k, n))
    for sc in range(n):
        for row in range(k):
            off = chi[row, :, sc].sum() - chi[row, row, sc]
            chi[row, row, sc] = off * tau_c * margin + 10 ** rng.uniform(-12, -10)
    noise = 10 ** rng.uniform(-15, -13, size=(k, n))
    return SinrContext(chi=chi, effective_noise=noise)


def sinr_of(ctx, p, tau_unused, n=0):
    chi = ctx.chi[:, :, n]
    k = chi.shape[0]
    out = np.empty(k)
    for row in range(k):
        interference = sum(chi[row, col] * p[col] for col in range(k) if col != row)
        out[row] = chi[row, row] * p[row] / (interference + ctx.effective_noise[row, n])
    return out


class TestAllocateComm:
    def test_round_trip_sinr_equals_threshold(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            tau_c = 10 ** rng.uniform(0, 1.5)
            ctx = random_feasible_context(rng, k, tau_c=tau_c)
            p = allocate_comm(ctx, tau_c, 0)
            assert np.all(p > 0)
            np.testing.assert_allclose(sinr_of(ctx, p, tau_c), tau_c, rtol=1e-9)

    def test_single_user_closed_form(self):
        rng = np.random.default_rng(2)
        ctx = random_feasible_context(rng, 1)
        tau_c = 8.0
        p = allocate_comm(ctx, tau_c, 0)
        expected = tau_c * ctx.effective_noise[0, 0] / ctx.chi[0, 0, 0]
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_symmetric_two_user_closed_form(self):
        diag, off, noise, tau_c = 2e-11, 1e-13, 3e-14, 5.0
        chi = np.array([[[diag], [off]], [[off], [diag]]])
        ctx = SinrContext(chi=chi, effective_noise=np.full((2, 1), noise))
        p = allocate_comm(ctx, tau_c, 0)
        expected = tau_c * noise / (diag - tau_c * off)
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_infeasible_raises(self):
        chi = np.array([[[1e-12], [1e-12]], [[1e-12], [1e-12]]])
        ctx = SinrContext(chi=chi, effective_noise=np.full((2, 1), 1e-14))
        assert not check_feasibility(ctx, 10.0, 0)
        with pytest.raises(InfeasibleError):
            allocate_comm(ctx, 10.0, 0)


class TestBatchedComm:
    def test_matches_per_subcarrier_solves(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            tau_c = 10 ** rng.uniform(0, 1.5)
            ctx = random_feasible_context(rng, k, n=9, tau_c=tau_c)
            batched = allocate_comm(ctx, tau_c)
            assert batched.shape == (k, 9)
            per_n = np.column_stack([allocate_comm(ctx, tau_c, n) for n in range(9)])
            np.testing.assert_allclose(batched, per_n, rtol=1e-12, atol=0)

    def test_infeasible_subcarrier_named(self):
        rng = np.random.default_rng(14)
        ctx = random_feasible_context(rng, 2, n=5)
        ctx.chi[0, 1, 3] = 1e3 * ctx.chi[0, 0, 3]
        assert check_feasibility(ctx, 10.0, 2)
        assert not check_feasibility(ctx, 10.0, 3)
        assert not check_feasibility(ctx, 10.0)
        with pytest.raises(InfeasibleError, match="subcarrier 3"):
            allocate_comm(ctx, 10.0)

    def test_zero_direct_gain_raises(self):
        ctx = random_feasible_context(np.random.default_rng(15), 2, n=3)
        ctx.chi[1, 1, 2] = 0.0
        with pytest.raises(InfeasibleError):
            allocate_comm(ctx, 10.0)


class TestBackoff:
    def test_no_backoff_when_feasible(self):
        rng = np.random.default_rng(3)
        ctx = random_feasible_context(rng, 3, tau_c=10.0)
        assert backoff_tau_c(ctx, 10.0) == 10.0

    def test_half_db_steps(self):
        # feasible only below tau = 2: backoff lands on 10 * 10^(-0.05 j)
        chi = np.array([[[1e-12], [2.4e-13]], [[2.4e-13], [1e-12]]])
        ctx = SinrContext(chi=chi, effective_noise=np.full((2, 1), 1e-14))
        tau0 = 10.0
        tau = backoff_tau_c(ctx, tau0)
        steps = math.log10(tau0 / tau) / 0.05
        assert steps == pytest.approx(round(steps), abs=1e-9)
        assert check_feasibility(ctx, tau, 0)
        assert not check_feasibility(ctx, tau * 10**0.05, 0)

    def test_floor_raises(self):
        chi = np.array([[[1e-13], [1e-9]], [[1e-9], [1e-13]]])
        ctx = SinrContext(chi=chi, effective_noise=np.full((2, 1), 1e-14))
        with pytest.raises(InfeasibleError):
            backoff_tau_c(ctx, 10.0)


def sinr_context_reference(cfg, scene, comm_weights, sensing_weights, sensing_powers):
    """Scalar per-subcarrier reference: |h_n(user) . w_n|^2 from comm_gain."""
    k_users, n = len(scene.users), cfg.n_subcarriers
    chi = np.empty((k_users, k_users, n))
    eff_noise = np.empty((k_users, n))
    for k, user in enumerate(scene.users):
        for l, w in enumerate(comm_weights):
            for sc in range(n):
                chi[k, l, sc] = abs(comm_gain(cfg, user, w, sc)) ** 2
        for sc in range(n):
            leak = abs(comm_gain(cfg, user, sensing_weights, sc)) ** 2
            eff_noise[k, sc] = leak * sensing_powers[sc] + user.noise_var
    return chi, eff_noise


class TestSinrContext:
    def test_shapes_and_noise_floor(self):
        cfg = CFG
        scene = generate_scene(cfg, 1, 2, 7)
        comm_w = [comm_beamformer(cfg, u.theta, u.phi) for u in scene.users]
        bf = eas_beamformer(cfg)
        p = np.full(cfg.n_subcarriers, 1e-3)
        ctx = sinr_context(cfg, scene, comm_w, bf, p)
        assert ctx.chi.shape == (2, 2, cfg.n_subcarriers)
        assert ctx.effective_noise.shape == (2, cfg.n_subcarriers)
        assert np.all(ctx.effective_noise >= cfg.noise_variance())

    def test_direct_gain_dominates_for_separated_users(self):
        cfg = CFG
        scene = generate_scene(cfg, 1, 2, 11)
        comm_w = [comm_beamformer(cfg, u.theta, u.phi) for u in scene.users]
        ctx = sinr_context(cfg, scene, comm_w, eas_beamformer(cfg), np.zeros(cfg.n_subcarriers))
        diag = np.einsum("kkn->kn", ctx.chi)
        assert np.all(diag > 0)

    @pytest.mark.parametrize("stage", ["eas", "aas"])
    def test_matches_per_subcarrier_comm_gain_reference(self, stage):
        cfg = CFG
        rng = np.random.default_rng(16)
        for seed in range(4):
            scene = generate_scene(cfg, 1, 3, (16, seed))
            comm_w = [comm_beamformer(cfg, u.theta, u.phi) for u in scene.users]
            bf = eas_beamformer(cfg) if stage == "eas" else aas_beamformer(cfg, 0.9)
            p = 10 ** rng.uniform(-4, -2, cfg.n_subcarriers)
            ctx = sinr_context(cfg, scene, comm_w, bf, p)
            chi, eff_noise = sinr_context_reference(cfg, scene, comm_w, bf, p)
            np.testing.assert_allclose(ctx.chi, chi, rtol=1e-12, atol=0)
            np.testing.assert_allclose(ctx.effective_noise, eff_noise, rtol=1e-12, atol=0)
