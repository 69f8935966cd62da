import math

import numpy as np
import pytest

import oracles

import squintsense.power as power
from squintsense.beamforming import (
    aas_azimuth_grid,
    aas_beamformer,
    comm_beamformer,
    eas_beamformer,
    eas_elevation_grid,
)
from squintsense.channel import generate_scene
from squintsense.config import SystemConfig
from squintsense.detection import elevation_candidates
from squintsense.exceptions import InfeasibleError
from squintsense.power import (
    SinrContext,
    aas_grid_strength,
    allocate_comm,
    allocate_sensing,
    backoff_tau_c,
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
        eas, aas = eas_beamformer(cfg), aas_beamformer(cfg, theta_hat)
        eas_phi, aas_phi = np.full(cfg.n_subcarriers, 1.2), aas_azimuth_grid(cfg)
        cases = (
            (eas, eas_phi, grid_echo_strength(cfg, eas, theta_hat, eas_phi)),
            (aas, aas_phi, aas_grid_strength(cfg, theta_hat)),
        )
        for bf, phi, out in cases:
            for n in (0, 13, 31):
                g = abs(oracles.gain(bf, theta_hat, phi[n], n))
                assert g > 0.0
                assert out[n] == pytest.approx(alpha**2 * g**4, rel=1e-12)

    def test_aas_closed_form_matches_kernel_on_every_candidate(self):
        """For AAS stages the strength is alpha(theta_hat)^2 with no kernel
        call; the kernel evaluation on the design grid agrees to 1e-15. All
        stages at once give the same rows, bit for bit."""
        from squintsense.channel import sensing_attenuation

        cfg = SystemConfig(m_h=16, m_v=16, n_subcarriers=32, n_candidates=512)
        phi_grid = aas_azimuth_grid(cfg)
        n_idx = np.arange(cfg.n_subcarriers)
        thetas = elevation_candidates(cfg)
        stacked = aas_grid_strength(cfg, thetas)
        assert stacked.shape == (len(thetas), cfg.n_subcarriers)
        for theta_hat, row in zip(thetas, stacked):
            bf = aas_beamformer(cfg, theta_hat)
            alpha = sensing_attenuation(cfg, cfg.height / np.cos(theta_hat), cfg.sigma_rcs)
            kernel = alpha**2 * bf.power_gain(theta_hat, phi_grid, n_idx) ** 2
            closed = aas_grid_strength(cfg, theta_hat)
            assert closed.shape == (cfg.n_subcarriers,)
            np.testing.assert_allclose(closed, kernel, rtol=1e-15, atol=0)
            np.testing.assert_array_equal(row, closed)


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
            p = allocate_comm(ctx, tau_c)[:, 0]
            assert np.all(p > 0)
            np.testing.assert_allclose(sinr_of(ctx, p, tau_c), tau_c, rtol=1e-9)

    def test_single_user_closed_form(self):
        rng = np.random.default_rng(2)
        ctx = random_feasible_context(rng, 1)
        tau_c = 8.0
        p = allocate_comm(ctx, tau_c)[:, 0]
        expected = tau_c * ctx.effective_noise[0, 0] / ctx.chi[0, 0, 0]
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_symmetric_two_user_closed_form(self):
        diag, off, noise, tau_c = 2e-11, 1e-13, 3e-14, 5.0
        chi = np.array([[[diag], [off]], [[off], [diag]]])
        ctx = SinrContext(chi=chi, effective_noise=np.full((2, 1), noise))
        p = allocate_comm(ctx, tau_c)[:, 0]
        expected = tau_c * noise / (diag - tau_c * off)
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_infeasible_raises(self):
        chi = np.array([[[1e-12], [1e-12]], [[1e-12], [1e-12]]])
        ctx = SinrContext(chi=chi, effective_noise=np.full((2, 1), 1e-14))
        with pytest.raises(InfeasibleError):
            allocate_comm(ctx, 10.0)


class TestBatchedComm:
    def test_matches_per_subcarrier_solves(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            tau_c = 10 ** rng.uniform(0, 1.5)
            ctx = random_feasible_context(rng, k, n=9, tau_c=tau_c)
            batched = allocate_comm(ctx, tau_c)
            assert batched.shape == (k, 9)
            one = [SinrContext(ctx.chi[:, :, [n]], ctx.effective_noise[:, [n]]) for n in range(9)]
            per_n = np.hstack([allocate_comm(c, tau_c) for c in one])
            np.testing.assert_allclose(batched, per_n, rtol=1e-12, atol=0)

    def test_infeasible_subcarrier_named(self):
        rng = np.random.default_rng(14)
        ctx = random_feasible_context(rng, 2, n=5)
        ctx.chi[0, 1, 3] = 1e3 * ctx.chi[0, 0, 3]
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
        allocate_comm(ctx, tau)  # feasible
        with pytest.raises(InfeasibleError):
            allocate_comm(ctx, tau * 10**0.05)

    def test_floor_raises(self):
        chi = np.array([[[1e-13], [1e-9]], [[1e-9], [1e-13]]])
        ctx = SinrContext(chi=chi, effective_noise=np.full((2, 1), 1e-14))
        with pytest.raises(InfeasibleError):
            backoff_tau_c(ctx, 10.0)

    @staticmethod
    def assert_same_outcome(ctx, tau_c):
        """backoff_tau_c returns or raises exactly as the reference loop."""
        try:
            want = reference_backoff_tau_c(ctx, tau_c)
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError) as got:
                backoff_tau_c(ctx, tau_c)
            assert got.value.last_threshold == exc.last_threshold
            return None
        got = backoff_tau_c(ctx, tau_c)
        assert got == want and type(got) is type(want)
        return got

    def test_matches_reference_on_random_contexts(self):
        rng = np.random.default_rng(23)
        outcomes = set()
        for _ in range(300):
            k, n = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            ctx = random_feasible_context(rng, k, n, margin=10 ** rng.uniform(-4, 1))
            tau = 10 ** rng.uniform(-1, 2)
            got = self.assert_same_outcome(ctx, tau)
            outcomes.add("raised" if got is None else "kept" if got == tau else "backed off")
        assert outcomes == {"raised", "kept", "backed off"}

    def test_matches_reference_at_ladder_ties(self, monkeypatch):
        """Largest ratio sums at 1 / candidate exactly, and one ulp either side,
        on every rung of the ladder; also NaN and no ratio sums at all."""
        ctx = random_feasible_context(np.random.default_rng(4), 2, n=3)
        tau_c, rungs = 10.0, []
        candidate, step = tau_c, 10.0 ** (-power.BACKOFF_STEP_DB / 10.0)
        while candidate >= tau_c * power.BACKOFF_FLOOR_RATIO:
            rungs.append(candidate)
            candidate *= step
        sums = np.array([[0.01, 0.02, 0.03], [0.04, 0.05, 0.06]])
        tables = [np.full((2, 3), np.nan), np.empty((0, 3))]
        for rung in rungs:
            tie = 1.0 / rung
            for worst in (np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf)):
                table = sums.copy()
                table[1, 2] = worst
                tables.append(table)
        results = []
        for table in tables:
            monkeypatch.setattr(power, "_ratio_sums", lambda chi, table=table: table)
            results.append(self.assert_same_outcome(ctx, tau_c))
        assert results[:2] == [None, tau_c]
        ties = results[2:]
        assert ties[0::3] == rungs and ties[1::3] == [*rungs[1:], None]


def reference_backoff_tau_c(ctx, tau_c):
    """backoff_tau_c as an elementwise test of the whole ratio-sum table at
    every step of the ladder."""
    ratio_sums = power._ratio_sums(ctx.chi)
    floor = tau_c * power.BACKOFF_FLOOR_RATIO
    candidate = tau_c
    step = 10.0 ** (-power.BACKOFF_STEP_DB / 10.0)
    while candidate >= floor:
        if np.all(1.0 / candidate > ratio_sums):
            return candidate
        candidate *= step
    raise InfeasibleError(
        "no feasible SINR threshold above the backoff floor", last_threshold=candidate
    )


def sinr_context_reference(cfg, scene, comm_weights, sensing_weights, sensing_powers):
    """Scalar per-subcarrier reference: |h_n(user) . w_n|^2 from comm_gain."""
    k_users, n = len(scene.users), cfg.n_subcarriers
    chi = np.empty((k_users, k_users, n))
    eff_noise = np.empty((k_users, n))
    for k, (theta, phi) in enumerate(scene.users):
        for l, w in enumerate(comm_weights):
            for sc in range(n):
                chi[k, l, sc] = abs(oracles.comm_gain(cfg, theta, phi, w, sc)) ** 2
        for sc in range(n):
            leak = abs(oracles.comm_gain(cfg, theta, phi, sensing_weights, sc)) ** 2
            eff_noise[k, sc] = leak * sensing_powers[sc] + cfg.noise_variance()
    return chi, eff_noise


class TestSinrContext:
    def test_shapes_and_noise_floor(self):
        cfg = CFG
        scene = generate_scene(cfg, 1, 2, 7)
        comm_w = [comm_beamformer(cfg, th, ph) for th, ph in scene.users]
        bf = eas_beamformer(cfg)
        p = np.full(cfg.n_subcarriers, 1e-3)
        ctx = sinr_context(cfg, scene, comm_w, [bf], [p])
        assert ctx.chi.shape == (2, 2, cfg.n_subcarriers)
        assert ctx.effective_noise.shape == (1, 2, cfg.n_subcarriers)
        assert np.all(ctx.effective_noise >= cfg.noise_variance())

    def test_direct_gain_dominates_for_separated_users(self):
        cfg = CFG
        scene = generate_scene(cfg, 1, 2, 11)
        comm_w = [comm_beamformer(cfg, th, ph) for th, ph in scene.users]
        ctx = sinr_context(
            cfg, scene, comm_w, [eas_beamformer(cfg)], [np.zeros(cfg.n_subcarriers)]
        )
        diag = np.einsum("kkn->kn", ctx.chi)
        assert np.all(diag > 0)

    @pytest.mark.parametrize("stage", ["eas", "aas"])
    def test_matches_per_subcarrier_comm_gain_reference(self, stage):
        cfg = CFG
        rng = np.random.default_rng(16)
        for seed in range(4):
            scene = generate_scene(cfg, 1, 3, (16, seed))
            comm_w = [comm_beamformer(cfg, th, ph) for th, ph in scene.users]
            bf = eas_beamformer(cfg) if stage == "eas" else aas_beamformer(cfg, 0.9)
            p = 10 ** rng.uniform(-4, -2, cfg.n_subcarriers)
            ctx = sinr_context(cfg, scene, comm_w, [bf], [p])
            chi, eff_noise = sinr_context_reference(cfg, scene, comm_w, bf, p)
            np.testing.assert_allclose(ctx.chi, chi, rtol=1e-12, atol=0)
            np.testing.assert_allclose(ctx.effective_noise[0], eff_noise, rtol=1e-12, atol=0)

    def test_two_stages_share_chi_and_get_one_noise_row_each(self):
        cfg = CFG
        rng = np.random.default_rng(17)
        scene = generate_scene(cfg, 1, 3, (17, 0))
        comm_w = [comm_beamformer(cfg, th, ph) for th, ph in scene.users]
        stages = [eas_beamformer(cfg), aas_beamformer(cfg, 0.9)]
        powers = [10 ** rng.uniform(-4, -2, cfg.n_subcarriers) for _ in stages]
        ctx = sinr_context(cfg, scene, comm_w, stages, powers)
        assert ctx.effective_noise.shape == (2, 3, cfg.n_subcarriers)
        for row, bf, p in zip(ctx.effective_noise, stages, powers):
            chi, eff_noise = sinr_context_reference(cfg, scene, comm_w, bf, p)
            np.testing.assert_allclose(ctx.chi, chi, rtol=1e-12, atol=0)
            np.testing.assert_allclose(row, eff_noise, rtol=1e-12, atol=0)


def stacked_context(rng, k, n_stages, n=7, tau_c=10.0):
    """Feasible chi with an independent effective-noise row per stage."""
    ctx = random_feasible_context(rng, k, n=n, tau_c=tau_c)
    noise = 10 ** rng.uniform(-15, -13, size=(n_stages, k, n))
    return SinrContext(chi=ctx.chi, effective_noise=noise)


class TestStackedComm:
    def test_matches_single_stage_calls_exactly(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            k, n_stages = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            tau_c = 10 ** rng.uniform(0, 1.5)
            ctx = stacked_context(rng, k, n_stages, tau_c=tau_c)
            stacked = allocate_comm(ctx, tau_c)
            assert stacked.shape == ctx.effective_noise.shape
            for noise, got in zip(ctx.effective_noise, stacked):
                one = allocate_comm(SinrContext(ctx.chi, noise), tau_c)
                assert one.shape == (k, 7)
                np.testing.assert_array_equal(got, one)
                # each stage is the transposed view of a C-ordered (N, K) block:
                # numpy's sums round by memory layout, and the trial metrics sum these
                assert got.T.flags.c_contiguous and one.T.flags.c_contiguous

    @pytest.mark.parametrize("bad_stage", [0, 1, 2])
    def test_failing_residual_in_any_stage_raises(self, monkeypatch, bad_stage):
        ctx = stacked_context(np.random.default_rng(19), 3, 3)
        allocate_comm(ctx, 10.0)  # feasible as built
        solve = np.linalg.solve
        calls = []

        def perturbed(a, b):
            calls.append(b)
            x = solve(a, b)  # every stage in one call: (S, N, K, 1)
            x[bad_stage] *= 1.0 + 1e-6
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(InfeasibleError, match="residual too large"):
            allocate_comm(ctx, 10.0)
        assert len(calls) == 1 and calls[0].shape[0] == 3


def cross_gain_ratios(chi):
    """F (N, K, K): F_n[k, l] = chi[k, l, n] / chi[k, k, n] off the diagonal, 0 on it."""
    ratios = np.moveaxis(chi / np.einsum("kkn->kn", chi)[:, None, :], 2, 0).copy()
    k = ratios.shape[1]
    ratios[:, np.arange(k), np.arange(k)] = 0.0
    return ratios


class TestLeastPowerCertificate:
    """allocate_comm's powers are the least meeting SINR tau_c, and its
    row-sum (diagonal dominance) test is no looser than the exact one,
    tau rho(F_n) < 1 on every subcarrier (Zander 1992; Foschini & Miljanic 1993)."""

    def test_every_feasible_power_is_at_least_the_solve(self):
        """Powers with SINR >= tau_c for every user, drawn both as the solve
        plus (I - tau F)^-1 e for e >= 0 and as random perturbations of the
        solve kept only where they meet tau_c, are >= the solve entry by entry."""
        rng = np.random.default_rng(21)
        accepted = rejected = 0
        for _ in range(100):
            k = int(rng.integers(2, 6))
            tau_c = 10 ** rng.uniform(0, 1.5)
            ctx = random_feasible_context(rng, k, margin=rng.uniform(1.05, 3.0), tau_c=tau_c)
            least = allocate_comm(ctx, tau_c)[:, 0]
            system = np.eye(k) - tau_c * cross_gain_ratios(ctx.chi)[0]
            slack = rng.exponential(size=(20, k)) * least * rng.uniform(0, 0.5, size=(20, 1))
            candidates = [least + np.linalg.solve(system, e) for e in slack]
            candidates += list(least * (1 + rng.uniform(-0.05, 0.3, size=(200, k))))
            for p in candidates:
                if np.all(sinr_of(ctx, p, tau_c) >= tau_c * (1 - 1e-12)):
                    accepted += 1
                    assert np.all(p >= least * (1 - 1e-9))
                else:
                    rejected += 1
        assert accepted >= 2000 and rejected >= 2000

    def test_row_sum_test_accepts_no_tau_the_spectral_test_rejects(self):
        """On random gains, and on gains whose every row of F_n sums to one s,
        where rho(F_n) = s and the two tests meet at tau = 1/s."""
        rng = np.random.default_rng(22)
        accepted = spectral_only = backed_off = 0
        for i in range(300):
            k, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            chi = 10 ** rng.uniform(-14, -10, size=(k, k, n))
            diag = np.arange(k), np.arange(k)
            if i % 2:
                chi[diag] *= 10 ** rng.uniform(0, 3, size=(k, n))
                tau = 10 ** rng.uniform(-1, 1.5)
            else:
                row_sum = 10 ** rng.uniform(-1.5, 0)
                chi[diag] = 0.0
                chi *= row_sum / chi.sum(axis=1, keepdims=True)
                chi[diag] = 1.0
                chi *= 10 ** rng.uniform(-12, -10, size=(k, 1, n))
                tau = 10 ** rng.uniform(-0.3, 0.3) / row_sum
            ctx = SinrContext(chi=chi, effective_noise=10 ** rng.uniform(-15, -13, size=(k, n)))
            radius = np.abs(np.linalg.eigvals(cross_gain_ratios(chi))).max(axis=1)
            # backoff_tau_c steps down to the first tau the row-sum test accepts
            try:
                assert np.all(backoff_tau_c(ctx, tau) * radius < 1)
                backed_off += 1
            except InfeasibleError as exc:  # none above its floor
                assert "backoff floor" in str(exc)
            try:
                allocate_comm(ctx, tau)
            except InfeasibleError as exc:
                assert "SINR threshold infeasible" in str(exc)
                spectral_only += np.all(tau * radius < 1)
                continue
            accepted += 1
            assert np.all(tau * radius < 1)
        assert accepted >= 20 and spectral_only >= 20  # both tests decide, and differ
        assert backed_off >= 200
