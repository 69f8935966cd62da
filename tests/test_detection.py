import functools

import numpy as np
import pytest

import oracles

from squintsense.beamforming import (
    aas_beamformer,
    aas_unit_phase,
    eas_beamformer,
    eas_elevation_grid,
)
from squintsense.channel import Scene, echo_gain, generate_scene, scene_arrays
from squintsense.config import SystemConfig
from squintsense.channel import sensing_attenuation
from squintsense import detection
from squintsense.detection import (
    aas_pursuit,
    assemble_observation,
    azimuth_candidates,
    eas_pursuit,
    elevation_candidates,
    hierarchical_detect,
    modified_mp,
    proposed_plan,
)
from squintsense.exceptions import ConfigError
from squintsense.geometry import (
    ENVELOPE_MARGIN,
    FEJER_BLOCK,
    fejer_envelope,
    uniform_phase_power,
)
from squintsense.power import allocate_sensing
from squintsense.simkit import allocate_comm_plan

CFG = SystemConfig(
    m_h=16, m_v=16, n_subcarriers=32, n_candidates=256, tau_s_db=25.0, n_clutter=0
)


def eas_matrix(cfg):
    """The plan's EAS dictionary: (rows (L, N), norms (L,))."""
    plan = proposed_plan(cfg)
    return plan.eas_rows, plan.eas_norms


def reference_mp(obs, columns, iterations):
    """Matching pursuit with complex correlation against the dictionary cast
    to complex and the norms computed per call; (index, metric, residual
    norm, phasor) per iteration."""
    norms = np.linalg.norm(columns, axis=0)
    residual = np.asarray(obs, dtype=complex).copy()
    steps = []
    for _ in range(iterations):
        corr = columns.astype(complex).T @ residual
        metric = np.abs(corr) / norms
        best = int(np.argmax(metric))
        coeff = corr[best] / norms[best] ** 2
        phasor = coeff / abs(coeff)
        residual = residual - phasor * columns[:, best]
        steps.append((best, metric[best], np.linalg.norm(residual), phasor))
    return steps


class TestCandidates:
    def test_candidate_grid_contains_subcarrier_grid(self):
        """The L-point refinement passes through all N coarse grid points."""
        cfg = CFG.replace(n_candidates=(CFG.n_subcarriers - 1) * 4 + 1)
        cand = elevation_candidates(cfg)
        coarse = eas_elevation_grid(cfg)
        np.testing.assert_allclose(cand[::4], coarse, atol=1e-12)

    def test_candidates_monotone_and_bounded(self):
        for cand, lo, hi in (
            (elevation_candidates(CFG), CFG.theta_min, CFG.theta_max),
            (azimuth_candidates(CFG), CFG.phi_min, CFG.phi_max),
        ):
            assert len(cand) == CFG.n_candidates
            assert np.all(np.diff(cand) > 0)
            assert cand[0] == pytest.approx(lo, abs=1e-12)
            assert cand[-1] == pytest.approx(hi, abs=1e-12)

    def test_uniform_grid_option(self):
        cfg = CFG.replace(uniform_candidate_grid=True)
        cand = elevation_candidates(cfg)
        np.testing.assert_allclose(np.diff(cand), np.diff(cand)[0], rtol=1e-9)


class TestMeasurementMatrix:
    def test_shape_and_positivity(self):
        rows, _ = eas_matrix(CFG)
        assert rows.shape == (CFG.n_candidates, CFG.n_subcarriers)
        assert np.all(rows >= 0)
        assert np.all(np.linalg.norm(rows, axis=1) > 0)

    def test_entries_match_direct_evaluation(self):
        cfg = CFG
        plan = proposed_plan(cfg)
        bf, p = plan.eas_weights, plan.eas_powers
        cand = elevation_candidates(cfg)
        for l in (0, 100, 255):
            alpha = sensing_attenuation(cfg, cfg.height / np.cos(cand[l]), cfg.sigma_rcs)
            for n in (0, 17, 31):
                g = abs(oracles.gain(bf, cand[l], 0.5 * (cfg.phi_min + cfg.phi_max), n))
                want = np.sqrt(p[n]) * alpha * g**2
                assert plan.eas_rows[l, n] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        "cfg, thetas, cells",
        [
            (
                CFG,
                (CFG.theta_min, 0.5, 0.7, 1.0, CFG.theta_max),
                [(l, n) for l in (0, 37, 100, 180, 255) for n in (0, 9, 17, 31)],
            ),
            (SystemConfig(), (0.45, 1.1), [(0, 0), (1500, 47), (2600, 80), (4095, 127)]),
        ],
        ids=["scaled", "full"],
    )
    def test_aas_entries_match_explicit_weights(self, cfg, thetas, cells):
        """Entry (n, l) = sqrt(p_n) alpha(theta_hat) |a(theta_hat, phi_l, f_n) . w_n|^2
        with the steering vector and weights materialized."""
        rng = np.random.default_rng(13)
        cand = azimuth_candidates(cfg)
        np.testing.assert_array_equal(proposed_plan(cfg).aas_candidates, cand)
        f = cfg.subcarrier_offsets()
        for theta_hat in thetas:
            bf = aas_beamformer(cfg, theta_hat)
            p = rng.uniform(1e-4, 1e-2, cfg.n_subcarriers)
            rows, _ = oracles.aas_table(cfg, theta_hat, oracles.aas_scale(cfg, theta_hat, p))
            alpha = sensing_attenuation(cfg, cfg.height / np.cos(theta_hat), cfg.sigma_rcs)
            for l, n in cells:
                a = oracles.upa_steering(cfg, theta_hat, cand[l], f[n])
                want = np.sqrt(p[n]) * alpha * abs(a @ oracles.weight_vector(bf, n)) ** 2
                # the explicit M-term sum is accurate only to ~1e-15 of the
                # beam peak in deep sidelobes: floor at 1e-12 of the column peak
                peak = rows[l].max()
                assert rows[l, n] == pytest.approx(want, rel=1e-12, abs=1e-12 * peak)

    def test_aas_unit_phase_times_sine_is_horizontal_phase(self):
        plan = proposed_plan(CFG)
        cand = plan.aas_candidates
        f = CFG.subcarrier_offsets()
        for theta_hat in np.linspace(CFG.theta_min, CFG.theta_max, 9):
            bf = aas_beamformer(CFG, theta_hat)
            np.testing.assert_allclose(
                np.sin(theta_hat) * plan.aas_unit_phase,
                bf._horizontal_phase(theta_hat, cand[:, None], f),
                rtol=0,
                atol=1e-15,
            )


class TestModifiedMp:
    def synth(self, rows, entries):
        """Observation = sum of phasor * row for (index, phase) entries."""
        obs = np.zeros(rows.shape[1], dtype=complex)
        for idx, phase in entries:
            obs += np.exp(1j * phase) * rows[idx]
        return obs

    # narrow vertical beam + one candidate per subcarrier: low-coherence
    # dictionary where greedy pursuit recovers supports exactly
    MP_CFG = SystemConfig(
        m_h=16, m_v=64, n_subcarriers=32, n_candidates=32, tau_s_db=25.0, n_clutter=0
    )

    def test_exact_recovery_distinct_candidates(self):
        cfg = self.MP_CFG
        rows, norms = eas_matrix(cfg)
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = int(rng.integers(1, 4))
            idx = rng.choice(cfg.n_candidates, size=q, replace=False)
            entries = [(int(i), float(rng.uniform(0, 2 * np.pi))) for i in idx]
            cv = modified_mp(self.synth(rows, entries), rows, norms, q)
            expected = np.zeros(cfg.n_candidates, dtype=int)
            expected[idx] = 1
            np.testing.assert_array_equal(cv.counts, expected)

    def test_support_localized_on_dense_grid(self):
        """On the dense (coherent) grid, supports land within a beamwidth."""
        rows, norms = eas_matrix(CFG)
        rng = np.random.default_rng(6)
        beam_bins = 24  # main-lobe width in candidate bins at this config
        for _ in range(50):
            idx = rng.choice(np.arange(32, CFG.n_candidates - 32, 1))
            cv = modified_mp(self.synth(rows, [(int(idx), 0.4)]), rows, norms, 1)
            got = int(np.flatnonzero(cv.counts)[0])
            assert abs(got - idx) <= beam_bins

    def test_repeated_candidate_counted_twice(self):
        rows, norms = eas_matrix(CFG)
        obs = self.synth(rows, [(90, 0.2), (90, 0.2)])
        cv = modified_mp(obs, rows, norms, 2)
        assert cv.counts[90] == 2
        assert cv.counts.sum() == 2

    def test_phasors_unit_magnitude(self):
        rows, norms = eas_matrix(CFG)
        cv = modified_mp(self.synth(rows, [(10, 1.0), (200, 2.0)]), rows, norms, 2)
        for ph in cv.phasors:
            assert abs(ph) == pytest.approx(1.0, rel=1e-12)

    def test_residual_norm_nonincreasing_in_trace(self):
        rows, norms = eas_matrix(CFG)
        rng = np.random.default_rng(9)
        obs = self.synth(rows, [(40, 0.5), (60, 1.5)])
        obs = obs + 1e-3 * np.linalg.norm(obs) * (
            rng.standard_normal(len(obs)) + 1j * rng.standard_normal(len(obs))
        )
        cv = modified_mp(obs, rows, norms, 6)
        norms = [r for (_, _, r) in cv.trace]
        start = np.linalg.norm(obs)
        assert norms[0] <= start
        # deflation with unit phasors is not strictly monotone, but the trace
        # must never exceed the starting norm by more than a column's worth
        col_max = np.linalg.norm(rows, axis=1).max()
        assert all(r <= start + col_max for r in norms)

    def test_zero_iterations(self):
        rows, norms = eas_matrix(CFG)
        cv = modified_mp(np.zeros(CFG.n_subcarriers, dtype=complex), rows, norms, 0)
        assert cv.counts.sum() == 0
        assert cv.trace == ()

    def test_matches_complex_reference(self):
        """Real-GEMM correlation and stored norms reproduce the complex-cast
        pursuit: same indices, metrics, residual norms and phasors."""
        eas = eas_matrix(CFG)
        scale = oracles.aas_scale(CFG, 0.7, np.full(CFG.n_subcarriers, 1e-3))
        aas = oracles.aas_table(CFG, 0.7, scale)
        rng = np.random.default_rng(11)
        for rows, norms in (eas, aas):
            np.testing.assert_allclose(norms, np.linalg.norm(rows, axis=1), rtol=1e-14, atol=0)
            obs = self.synth(rows, [(40, 0.5), (60, 1.5), (200, 2.5)])
            noise = rng.standard_normal(len(obs)) + 1j * rng.standard_normal(len(obs))
            obs = obs + 1e-2 * np.linalg.norm(obs) * noise
            cases = (
                (obs, 4),                                      # q > 1, noisy
                (self.synth(rows, [(90, 0.2), (90, 0.2)]), 2),  # repeated index
            )
            selected = []
            for obs, iterations in cases:
                scale = np.linalg.norm(obs)
                cv = modified_mp(obs, rows, norms, iterations)
                steps = reference_mp(obs, rows.T, iterations)
                assert len(cv.trace) == len(steps)
                for (idx, metric, res), phasor, (r_idx, r_metric, r_res, r_phasor) in zip(
                    cv.trace, cv.phasors, steps
                ):
                    assert idx == r_idx
                    assert metric == pytest.approx(r_metric, rel=1e-12, abs=0.0)
                    # a fully deflated residual is rounding noise: scale by |obs|
                    assert res == pytest.approx(r_res, rel=1e-12, abs=1e-12 * scale)
                    assert phasor == pytest.approx(r_phasor, rel=1e-12, abs=0.0)
                selected.append([idx for idx, _, _ in cv.trace])
            assert len(selected[0]) == 4
            assert selected[1] == [90, 90]


def unit_echo(cfg, scene, bf):
    """The noise-free echo of beam bf off scene at unit power, (N,)."""
    return echo_gain(cfg, scene_arrays(cfg, scene), bf, np.arange(cfg.n_subcarriers))


class TestObservation:
    def test_noise_variance_scales_with_symbols(self):
        cfg = CFG
        echo = unit_echo(cfg, Scene(), eas_beamformer(cfg))
        p = np.zeros(cfg.n_subcarriers)
        draws = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            draws.append(assemble_observation(cfg, echo, p, 4, rng))
        var = np.var(np.concatenate(draws))
        assert var == pytest.approx(cfg.noise_variance() / 4, rel=0.1)

    def test_signal_part_deterministic(self):
        cfg = CFG
        echo = unit_echo(cfg, generate_scene(cfg, 1, 0, 3), eas_beamformer(cfg))
        p = np.full(cfg.n_subcarriers, 1e-3)
        a = assemble_observation(cfg, echo, p, 1, np.random.default_rng(0))
        b = assemble_observation(cfg, echo, p, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_symbols(self):
        with pytest.raises(ConfigError):
            assemble_observation(
                CFG, unit_echo(CFG, Scene(), eas_beamformer(CFG)), np.zeros(32), 0,
                np.random.default_rng(0),
            )


class TestEasStageCache:
    """The EAS half of :func:`proposed_plan`: beam, T_0, p_0 and dictionary."""

    def test_matches_fresh_computation(self):
        plan = proposed_plan(CFG)
        fresh = proposed_plan.__wrapped__(CFG)
        strengths = oracles.grid_echo_strength(
            CFG, eas_beamformer(CFG), eas_elevation_grid(CFG), 1.5
        )
        t, p = allocate_sensing(CFG, strengths)
        assert plan.eas_symbol_count == t
        np.testing.assert_array_equal(plan.eas_powers, p)
        np.testing.assert_array_equal(plan.eas_rows, fresh.eas_rows)
        np.testing.assert_array_equal(plan.eas_norms, fresh.eas_norms)
        np.testing.assert_array_equal(plan.eas_candidates, elevation_candidates(CFG))
        assert plan.eas_weights.kind == "eas"

    def test_cached_arrays_are_read_only(self):
        plan = proposed_plan(CFG)
        arrays = (plan.eas_powers, plan.eas_rows, plan.eas_candidates, plan.eas_norms)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(ValueError):
            plan.eas_rows *= 2.0

    def test_one_entry_per_config(self):
        assert proposed_plan(CFG) is proposed_plan(SystemConfig(**{
            f: getattr(CFG, f) for f in CFG.__dataclass_fields__
        }))
        for change in ({"tau_s_db": 24.0}, {"n_candidates": 128}, {"kappa_db": 7.0}):
            other = CFG.replace(**change)
            assert proposed_plan(other) is not proposed_plan(CFG)
        lower = proposed_plan(CFG.replace(tau_s_db=24.0))
        assert lower.eas_symbol_count <= proposed_plan(CFG).eas_symbol_count

    def test_cache_is_small_and_bounded(self):
        maxsize = proposed_plan.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        for tau in np.linspace(10.0, 20.0, maxsize + 3):
            proposed_plan(CFG.replace(tau_s_db=float(tau), m_h=4, m_v=4, n_candidates=64))
        assert proposed_plan.cache_info().currsize <= maxsize

    def test_detection_leaves_cache_intact(self):
        plan = proposed_plan(CFG)
        before = plan.eas_rows.copy(), plan.eas_powers.copy()
        scene = generate_scene(CFG, 2, 0, 5)
        result = hierarchical_detect(CFG, scene, np.random.default_rng(1))
        np.testing.assert_array_equal(result.sensing_powers[0], plan.eas_powers)
        np.testing.assert_array_equal(plan.eas_rows, before[0])
        np.testing.assert_array_equal(plan.eas_powers, before[1])


class TestAasTableCache:
    """The AAS half of :func:`proposed_plan`: azimuth candidates and the
    unit-phase table."""

    def test_matches_fresh_computation(self):
        plan = proposed_plan(CFG)
        cand = azimuth_candidates(CFG)
        np.testing.assert_array_equal(plan.aas_candidates, cand)
        assert plan.aas_unit_phase.shape == (CFG.n_candidates, CFG.n_subcarriers)
        np.testing.assert_array_equal(plan.aas_unit_phase, aas_unit_phase(CFG, cand))

    def test_cached_arrays_are_read_only(self):
        plan = proposed_plan(CFG)
        for arr in (plan.aas_candidates, plan.aas_unit_phase, plan.aas_row_window):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        for arr in (plan.aas_unit_phase, plan.aas_row_window):
            with pytest.raises(ValueError):
                arr *= 2.0

    def test_one_entry_per_config(self):
        assert proposed_plan(CFG) is proposed_plan(SystemConfig(**{
            f: getattr(CFG, f) for f in CFG.__dataclass_fields__
        }))
        for change in ({"n_candidates": 128}, {"phi_max": 2.5}, {"tau_s_db": 24.0}):
            assert proposed_plan(CFG.replace(**change)) is not proposed_plan(CFG)
        assert proposed_plan(CFG.replace(n_candidates=128)).aas_unit_phase.shape == (128, 32)

    def test_cache_is_small_and_bounded(self):
        maxsize = proposed_plan.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        for tau in np.linspace(10.0, 20.0, maxsize + 3):
            proposed_plan(CFG.replace(tau_s_db=float(tau), m_h=4, m_v=4, n_candidates=64))
        assert proposed_plan.cache_info().currsize <= maxsize

    def test_detection_leaves_table_intact(self):
        plan = proposed_plan(CFG)
        before = plan.aas_candidates.copy(), plan.aas_unit_phase.copy()
        scene = generate_scene(CFG, 2, 0, 5)
        result = hierarchical_detect(CFG, scene, np.random.default_rng(1))
        assert len(result.elevations) >= 1
        assert proposed_plan(CFG) is plan
        np.testing.assert_array_equal(plan.aas_candidates, before[0])
        np.testing.assert_array_equal(plan.aas_unit_phase, before[1])


class TestHierarchicalDetect:
    def test_on_grid_noiseless_like_recovery(self):
        """A strong on-candidate target is recovered at its exact grid cell."""
        cfg = CFG
        cand_t = elevation_candidates(cfg)
        cand_p = azimuth_candidates(cfg)
        theta, phi = float(cand_t[37]), float(cand_p[149])
        scene = Scene(targets=np.array([[theta, phi]]))
        result = hierarchical_detect(cfg, scene, np.random.default_rng(12))
        assert len(result.estimates) == 1
        est_theta, est_phi = result.estimates[0]
        assert est_theta == pytest.approx(theta, abs=np.max(np.diff(cand_t)) * 1.5)
        assert est_phi == pytest.approx(phi, abs=np.max(np.diff(cand_p)) * 1.5)

    def test_multiplicities_sum_to_q(self):
        cfg = CFG
        scene = generate_scene(cfg, 3, 0, 21)
        result = hierarchical_detect(cfg, scene, np.random.default_rng(4))
        assert sum(m for _, m in result.elevations) == 3
        assert len(result.estimates) <= 3
        assert result.symbol_counts[0] >= 1
        assert len(result.symbol_counts) == 1 + len(result.elevations)

    def test_estimates_inside_roi(self):
        cfg = CFG
        scene = generate_scene(cfg, 2, 0, 8)
        result = hierarchical_detect(cfg, scene, np.random.default_rng(2))
        for th, ph in result.estimates:
            assert cfg.theta_min - 1e-9 <= th <= cfg.theta_max + 1e-9
            assert cfg.phi_min - 1e-9 <= ph <= cfg.phi_max + 1e-9


# the scaled and crowded configs of the benchmark workloads
SCALED = SystemConfig(m_h=16, m_v=16, n_subcarriers=32, n_candidates=512)
CROWDED = SCALED.replace(tau_c_db=20.0)


def assert_same_schedule(got, want, err_msg=""):
    """Estimates, symbol counts and sensing powers of two detection results
    equal, shape and dtype included."""
    for name in ("estimates", "symbol_counts", "sensing_powers"):
        np.testing.assert_array_equal(
            getattr(got, name), getattr(want, name), f"{name} {err_msg}", strict=True
        )


class TestStackedStages:
    """The stacked pipeline against the per-stage reference in oracles.py."""

    @pytest.mark.parametrize(
        "cfg, q, k",
        [(SCALED, 2, 2), (CROWDED, 4, 6)],
        ids=["scaled-q2", "crowded-q4"],
    )
    def test_matches_per_stage_reference(self, cfg, q, k):
        stage_counts = set()
        for seed in range(20):
            scene = generate_scene(cfg, q, k, (seed, 0))
            got = hierarchical_detect(cfg, scene, np.random.default_rng((seed, 1)))
            want = oracles.per_stage_detect(cfg, scene, np.random.default_rng((seed, 1)))
            assert got.elevations == want.elevations
            assert_same_schedule(got, want)
            assert got.user_gains.shape == (len(got.symbol_counts) + k, k, cfg.n_subcarriers)
            np.testing.assert_array_equal(got.user_gains, want.user_gains)
            for a, b in zip(got.traces, want.traces):
                np.testing.assert_array_equal(a.counts, b.counts)
                assert a.phasors == b.phasors
                assert a.trace == b.trace
            stage_counts.add(len(got.symbol_counts))
        assert max(stage_counts) >= 3  # several AAS stages share one stacked call

    def test_no_targets_runs_no_aas_stage(self):
        scene = generate_scene(CROWDED, 0, 2, 3)
        got = hierarchical_detect(CROWDED, scene, np.random.default_rng(3))
        want = oracles.per_stage_detect(CROWDED, scene, np.random.default_rng(3))
        assert got.estimates.shape == (0, 2)
        assert_same_schedule(got, want)
        assert got.user_gains.shape == (3, 2, CROWDED.n_subcarriers)
        np.testing.assert_array_equal(got.user_gains, want.user_gains)


# the random configs of TestRandomConfigs: m_h and m_v from these sets, N in
# 8..48 and L = N * (1..64), at the default ROI; scenes with q in {1, 2, 3}
# targets and no users, and one with q = 2 targets and k = 3 users, clutter on
RANDOM_M_H = (3, 5, 6, 7, 9, 12, 13, 16, 24)
RANDOM_M_V = (3, 5, 7, 13, 16)
RANDOM_CONFIGS = 100
RANDOM_SCENES = ((1, 0), (2, 0), (3, 0), (2, 3))  # (q, k)


class TestRandomConfigs:
    """hierarchical_detect against oracles.per_stage_detect, whose every stage
    runs modified_mp over its whole table, on seeded random configs."""

    def test_matches_per_stage_reference(self, monkeypatch):
        observations = []  # each pursuit's observation, in stage order
        for name in ("eas_pursuit", "aas_pursuit"):
            def record(*args, real=getattr(detection, name)):
                observations.append(args[-2])
                return real(*args)

            monkeypatch.setattr(detection, name, record)
        rng = np.random.default_rng(26)
        ran = skipped = bounded = 0
        for i in range(RANDOM_CONFIGS):
            n = int(rng.integers(8, 49))
            fields = dict(
                m_h=int(rng.choice(RANDOM_M_H)), m_v=int(rng.choice(RANDOM_M_V)),
                n_subcarriers=n, n_candidates=n * int(rng.integers(1, 65)),
            )
            try:
                cfg = SystemConfig(**fields)
                runs = []
                for q, k in RANDOM_SCENES:
                    scene = generate_scene(cfg, q, k, (i, q) if k == 0 else (i, q, k))
                    observations.clear()
                    got = hierarchical_detect(cfg, scene, np.random.default_rng((i, q, 1)))
                    want = oracles.per_stage_detect(cfg, scene, np.random.default_rng((i, q, 1)))
                    runs.append((got, want, list(observations)))
            except ConfigError:
                skipped += 1
                continue
            ran += 1
            bounded += cfg.n_candidates * n > FEJER_BLOCK  # eas_pursuit takes its bounds
            for got, want, stage_obs in runs:
                assert got.elevations == want.elevations, fields
                assert_same_schedule(got, want, str(fields))
                np.testing.assert_array_equal(got.user_gains, want.user_gains, str(fields))
                for a, b, obs in zip(got.traces, want.traces, stage_obs, strict=True):
                    assert_same_pursuit(a, b, obs)
        assert ran >= 0.75 * RANDOM_CONFIGS, skipped  # most configs ran
        assert 0 < bounded < ran

    def test_result_arrays_have_one_form(self):
        """Every detection result holds (Q, 2) float estimates, Q at most q and
        one per AAS pick, (S,) int64 symbol counts, S = 1 + the AAS stages, and
        (S, N) float sensing powers, at q in {0, 1, 3} and K in {0, 2}, the
        empty frame included; allocate_comm_plan's plan holds the latter two
        arrays themselves, not copies."""
        rng = np.random.default_rng(35)
        ran = 0
        for i in range(RANDOM_CONFIGS // 5):
            n = int(rng.integers(8, 49))
            fields = dict(
                m_h=int(rng.choice(RANDOM_M_H)), m_v=int(rng.choice(RANDOM_M_V)),
                n_subcarriers=n, n_candidates=n * int(rng.integers(1, 17)),
            )
            try:
                cfg = SystemConfig(**fields)
                proposed_plan(cfg)
            except ConfigError:
                continue
            ran += 1
            for q in (0, 1, 3):
                for k in (0, 2):
                    scene = generate_scene(cfg, q, k, (i, q, k))
                    result = hierarchical_detect(cfg, scene, np.random.default_rng((i, 1)))
                    stages = 1 + len(result.elevations)
                    picks = sum(len(cv.trace) for cv in result.traces[1:])
                    for name, shape, kind in (
                        ("estimates", (picks, 2), "f"),
                        ("symbol_counts", (stages,), "i"),
                        ("sensing_powers", (stages, n), "f"),
                    ):
                        got = getattr(result, name)
                        assert got.shape == shape and got.dtype.kind == kind, (name, fields)
                    assert picks <= q and result.symbol_counts.dtype == np.int64
                    plan = allocate_comm_plan(cfg, scene, result)
                    assert plan.symbol_counts is result.symbol_counts
                    assert plan.sensing_powers is result.sensing_powers
        assert ran >= 10


FULL = SystemConfig()
# every config whose EAS dictionary exceeds one kernel block, so eas_pursuit bounds it
CERTIFIED = [FULL, SCALED.replace(n_candidates=1024), SCALED.replace(n_candidates=2048)]
# aas_pursuit bounds the AAS table at every size, the scaled config's one block too
AAS_CERTIFIED = CERTIFIED + [SCALED]
# a config whose rows all leave the main lobe: every block's peak bound is 0
OFF_LOBE = SystemConfig(m_h=64, m_v=16, n_subcarriers=16, n_candidates=2048)


def spy_rows(monkeypatch):
    """Record the candidates whose rows aas_pursuit evaluates, one list per call."""
    calls, active = [], []
    real_rows, real_pursuit = detection._aas_rows, detection.aas_pursuit

    def rows(cfg, plan, theta_hat, index, out=None):
        if active:
            calls[-1].extend(np.arange(cfg.n_candidates)[index].tolist())
        return real_rows(cfg, plan, theta_hat, index, out=out)

    def pursuit(*args):
        calls.append([])
        active.append(True)
        try:
            return real_pursuit(*args)
        finally:
            active.pop()

    monkeypatch.setattr(detection, "_aas_rows", rows)
    monkeypatch.setattr(detection, "aas_pursuit", pursuit)
    return calls


def reference_bins(cfg):
    """Edges of the |sin(theta_hat)| bins: 0, AAS_BINS + 1 uniform points over
    the sines of the least and largest elevation candidates, and 1."""
    cand = elevation_candidates(cfg)
    inner = np.linspace(np.sin(cand.min()), np.sin(cand.max()), detection.AAS_BINS + 1)
    return np.concatenate([[0.0], inner, [1.0]])


def reference_block_bound(cfg, theta_hat, powers, residual):
    """The bound of aas_pursuit on each block of ceil(L/N) candidates, from the
    unit-phase table directly, in the bin holding |sin(theta_hat)|:
    (bound (B,), block of each candidate (L,))."""
    table = np.abs(aas_unit_phase(cfg, azimuth_candidates(cfg)))
    n_cand, n = table.shape
    size = -(-n_cand // n)
    blocks = [table[i : i + size] for i in range(0, n_cand, size)]
    lo = np.array([b.min(axis=0) for b in blocks])
    hi = np.array([b.max(axis=0) for b in blocks])
    edges = reference_bins(cfg)
    sin_theta = abs(np.sin(theta_hat))
    j = max(i for i in range(len(edges) - 1) if edges[i] <= sin_theta)
    s_lo, s_hi = edges[j], edges[j + 1]
    assert s_lo <= sin_theta <= s_hi

    def lobe(x):  # the Fejer power on its main lobe, 0 beyond
        return np.where(x <= 2 / cfg.m_h, uniform_phase_power(x, cfg.m_h), 0.0)

    width = min(8, n)
    floor = []
    for b, top in zip(blocks, hi):
        x = b.min(axis=1)  # each row's entry of least |X|
        peak = lobe(x).min()
        # each row's entries on the width subcarriers around its least |X|
        first = np.clip(b.argmin(axis=1) - width // 2, 0, n - width)
        window = b[np.arange(len(b))[:, None], first[:, None] + np.arange(width)]
        rows = np.linalg.norm(lobe(s_hi * window), axis=1).min()
        floor.append(max(peak, np.linalg.norm(lobe(s_hi * top)), rows))
    alpha = sensing_attenuation(cfg, cfg.height / np.cos(theta_hat), cfg.sigma_rcs)
    scale = np.sqrt(powers) * alpha
    envelope = fejer_envelope(1.0, cfg.m_h, s_lo * lo, s_hi * hi)
    top = (1 + ENVELOPE_MARGIN) * envelope @ (scale * np.abs(residual))
    bottom = (1 - ENVELOPE_MARGIN) * np.array(floor) * scale.min()
    bound = np.full(len(blocks), np.inf)
    np.divide(top, bottom, out=bound, where=bottom > 0)
    return bound, np.arange(n_cand) // size


def assert_same_pursuit(got, want, obs):
    """Counts and picks equal; metrics, residual norms and phasors within the
    tolerances of test_matches_complex_reference."""
    np.testing.assert_array_equal(got.counts, want.counts)
    assert [idx for idx, _, _ in got.trace] == [idx for idx, _, _ in want.trace]
    scale = np.linalg.norm(obs)
    for (_, metric, res), phasor, (_, w_metric, w_res), w_phasor in zip(
        got.trace, got.phasors, want.trace, want.phasors
    ):
        assert metric == pytest.approx(w_metric, rel=1e-12, abs=0.0)
        assert res == pytest.approx(w_res, rel=1e-12, abs=1e-12 * scale)
        assert phasor == pytest.approx(w_phasor, rel=1e-12, abs=0.0)


class TestCertifiedAasPursuit:
    """aas_pursuit against the whole dictionary, at every table size."""

    @pytest.mark.parametrize(
        "cfg", AAS_CERTIFIED, ids=["full", "scaled-1024", "scaled-2048", "scaled"]
    )
    def test_matches_whole_dictionary(self, monkeypatch, cfg):
        calls = spy_rows(monkeypatch)
        stages = []
        real = detection.aas_pursuit

        def record(cfg, plan, theta_hat, scale, obs, iterations):
            got = real(cfg, plan, theta_hat, scale, obs, iterations)
            stages.append((theta_hat, scale, obs, iterations, got))
            return got

        monkeypatch.setattr(detection, "aas_pursuit", record)
        for q in (1, 2, 3, 5):
            for include_clutter in (True, False):
                for seed in range(5):
                    scene = generate_scene(cfg, q, 2, (seed, q), include_clutter)
                    hierarchical_detect(cfg, scene, np.random.default_rng((seed, q, 1)))
        rng = np.random.default_rng(5)
        edges = proposed_plan(cfg).aas_bin_edges
        for theta_hat in (0.05, 1.5):  # one elevation in each outer bin
            assert not edges[1] <= np.sin(theta_hat) <= edges[-2]
            scale = oracles.aas_scale(cfg, theta_hat, rng.uniform(1e-4, 1e-2, cfg.n_subcarriers))
            rows, _ = oracles.aas_table(cfg, theta_hat, scale)
            obs = np.exp(2j * np.pi * rng.random(3)) @ rows[
                rng.choice(cfg.n_candidates, 3, replace=False)
            ]
            obs += 0.05 * np.abs(obs).max() * rng.standard_normal(cfg.n_subcarriers)
            detection.aas_pursuit(cfg, proposed_plan(cfg), theta_hat, scale, obs, 3)
        assert len(stages) >= 42
        for theta_hat, scale, obs, iterations, got in stages:
            want = modified_mp(obs, *oracles.aas_table(cfg, theta_hat, scale), iterations)
            assert_same_pursuit(got, want, obs)
        evaluated = [len(rows) for rows in calls]
        assert len(evaluated) == len(stages)
        assert np.median(evaluated) < cfg.n_candidates  # the bounds pruned rows

    @pytest.mark.parametrize(
        "cfg", AAS_CERTIFIED + [OFF_LOBE], ids=["full", "s1024", "s2048", "s512", "off"]
    )
    def test_bound_holds_and_certifies_the_pick(self, monkeypatch, cfg):
        """For random residuals, powers and elevations, every candidate's exact
        metric is at most its block's bound, every block whose bound reaches
        the pick's metric was evaluated, and the pursuit's bound is that one."""
        calls, pursuits = spy_rows(monkeypatch), spy_blocks(monkeypatch)
        rng = np.random.default_rng(17)
        n = cfg.n_subcarriers
        thetas = [*rng.uniform(cfg.theta_min, cfg.theta_max, 12), 0.05, 1.5]
        for theta_hat in thetas:
            powers = rng.uniform(1e-4, 1e-2, n)
            residual = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            scale = oracles.aas_scale(cfg, theta_hat, powers)
            rows, norms = oracles.aas_table(cfg, theta_hat, scale)
            metric = np.abs(rows @ residual) / norms
            bound, block = reference_block_bound(cfg, theta_hat, powers, residual)
            assert np.all(metric <= bound[block])

            got = detection.aas_pursuit(cfg, proposed_plan(cfg), theta_hat, scale, residual, 1)
            assert got.trace[0][0] == int(np.argmax(metric))
            needed = np.flatnonzero(bound >= metric.max())
            assert set(needed) <= set(block[calls[-1]])
            np.testing.assert_allclose(pursuits[-1][0](residual), bound, rtol=1e-12)

    @pytest.mark.parametrize(
        "cfg", AAS_CERTIFIED + [OFF_LOBE], ids=["full", "s1024", "s2048", "s512", "off"]
    )
    def test_block_tables_hold_at_every_elevation(self, cfg):
        """Each row's |X| lies in its block's range, its aas_row_window is the
        run of min(8, N) |X| that holds its least, and at every sin(theta_hat)
        in (0, 1], bin edges included, the tables of each bin holding it bound
        the kernel: (1 + M) U is at least every row's entries and (1 - M) floor
        at most every row's norm."""
        plan = proposed_plan(cfg)
        table = plan.aas_unit_phase
        block = np.arange(len(table)) // -(-len(table) // cfg.n_subcarriers)
        lo, hi = plan.aas_block_range
        assert np.all(lo[block] <= np.abs(table)) and np.all(np.abs(table) <= hi[block])
        window, width = plan.aas_row_window, min(8, cfg.n_subcarriers)
        assert window.shape == (len(table), width)
        np.testing.assert_array_equal(window.min(axis=1), np.abs(table).min(axis=1))
        runs = np.lib.stride_tricks.sliding_window_view(np.abs(table), width, axis=1)
        assert np.all((runs == window[:, None, :]).all(axis=2).any(axis=1))
        edges = reference_bins(cfg)
        np.testing.assert_array_equal(plan.aas_bin_edges, edges)
        for sin_theta in np.union1d(np.linspace(0.02, 1.0, 30), edges[1:]):
            power = uniform_phase_power(table, cfg.m_h, scale=sin_theta)
            norms = np.linalg.norm(power, axis=1)
            bins = np.flatnonzero((edges[:-1] <= sin_theta) & (sin_theta <= edges[1:]))
            assert bins.size >= 1
            for j in bins:
                envelope, floor = detection.aas_bin_tables(cfg, j)
                assert np.all(power <= (1 + ENVELOPE_MARGIN) * envelope[block])
                assert np.all((1 - ENVELOPE_MARGIN) * floor[block] <= norms)

    @pytest.mark.parametrize(
        "cfg", AAS_CERTIFIED + [OFF_LOBE], ids=["full", "s1024", "s2048", "s512", "off"]
    )
    def test_every_elevation_candidate_takes_an_inner_bin(self, cfg):
        """The squint grid's first candidate sits an ulp below theta_min; it
        still takes an inner bin, not the wide bin down to 0."""
        edges = proposed_plan(cfg).aas_bin_edges
        sines = np.sin(elevation_candidates(cfg))
        assert np.all((edges[1] <= sines) & (sines <= edges[-2]))
        assert np.all(np.diff(edges) > 0)

    def test_bin_tables_are_cached_and_read_only(self):
        for j in range(detection.AAS_BINS + 2):
            tables = detection.aas_bin_tables(FULL, j)
            assert detection.aas_bin_tables(FULL, j) is tables
            for arr in tables:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        assert detection.aas_bin_tables.cache_info().maxsize is not None

    def test_margin_widens_every_bound(self, monkeypatch):
        """With a margin of 1 every block bound is infinite: each stage
        evaluates all rows, and the picks stay those of the whole table."""
        calls = spy_rows(monkeypatch)
        monkeypatch.setattr(detection, "ENVELOPE_MARGIN", 1.0)
        result = hierarchical_detect(FULL, generate_scene(FULL, 2, 0, 3), np.random.default_rng(3))
        assert len(calls) == len(result.traces) - 1 >= 1
        assert all(sorted(rows) == list(range(FULL.n_candidates)) for rows in calls)

    @pytest.mark.parametrize("cfg", [*CERTIFIED[:2], SCALED], ids=["full", "s1024", "s512"])
    def test_zero_powers_raise(self, cfg):
        obs = np.ones(cfg.n_subcarriers, dtype=complex)
        zero = oracles.aas_scale(cfg, 0.7, np.zeros(cfg.n_subcarriers))
        with pytest.raises(ConfigError, match="zero-norm"):
            aas_pursuit(cfg, proposed_plan(cfg), 0.7, zero, obs, 1)

    def test_few_rows_for_a_separated_target(self, monkeypatch):
        """A lone target at full scale: each stage evaluates at most 160 of the
        4096 rows, one first batch of 128 and one more block."""
        calls = spy_rows(monkeypatch)
        for seed in range(10):
            scene = generate_scene(FULL, 1, 0, seed, include_clutter=False)
            hierarchical_detect(FULL, scene, np.random.default_rng(seed))
        assert len(calls) == 10
        assert max(len(rows) for rows in calls) <= 160

    def test_few_rows_at_the_scaled_config(self, monkeypatch):
        """50 scaled q=2 trials with clutter: the median AAS stage evaluates at
        most 64 of the 512 rows, one first batch of 4 blocks."""
        calls = spy_rows(monkeypatch)
        for seed in range(50):
            scene = generate_scene(SCALED, 2, 2, seed)
            hierarchical_detect(SCALED, scene, np.random.default_rng(seed))
        assert len(calls) >= 50
        assert np.median([len(rows) for rows in calls]) <= 64


def spy_blocks(monkeypatch):
    """Record each _block_pursuit call on blocks as (bound, candidates whose rows
    it evaluates); modified_mp's calls, with every row evaluated, pass through."""
    calls = []
    real = detection._block_pursuit

    def block_pursuit(obs, iterations, n_cand, size, bound, rows, evaluated=None):
        if evaluated is not None:
            return real(obs, iterations, n_cand, size, bound, rows, evaluated)
        seen = []
        calls.append((bound, seen))

        def spied(index, out):
            seen.extend(np.asarray(index).tolist())
            return rows(index, out)

        return real(obs, iterations, n_cand, size, bound, spied)

    monkeypatch.setattr(detection, "_block_pursuit", block_pursuit)
    return calls


def reference_eas_table(cfg):
    """eas_block_bound from the EAS dictionary one block of ceil(L/N) rows at a
    time: (table (B, N), block of each candidate (L,))."""
    plan = proposed_plan(cfg)
    rows, norms = plan.eas_rows, plan.eas_norms
    size = -(-len(rows) // cfg.n_subcarriers)
    table = [rows[i : i + size].max(axis=0) / norms[i : i + size].min()
             for i in range(0, len(rows), size)]
    return np.array(table), np.arange(len(rows)) // size


class TestCertifiedEasPursuit:
    """eas_pursuit on dictionaries past one kernel block against the whole dictionary."""

    @pytest.mark.parametrize("cfg", CERTIFIED, ids=["full", "scaled-1024", "scaled-2048"])
    def test_matches_whole_dictionary(self, monkeypatch, cfg):
        calls = spy_blocks(monkeypatch)
        stages = []
        real = detection.eas_pursuit

        def record(plan, obs, iterations):
            got = real(plan, obs, iterations)
            stages.append((obs, iterations, got, len(calls) - 1))
            return got

        monkeypatch.setattr(detection, "eas_pursuit", record)
        for q in (1, 2, 3, 5):
            for include_clutter in (True, False):
                for seed in range(5):
                    scene = generate_scene(cfg, q, 2, (seed, q), include_clutter)
                    hierarchical_detect(cfg, scene, np.random.default_rng((seed, q, 1)))
        assert len(stages) == 40
        plan = proposed_plan(cfg)
        for obs, iterations, got, call in stages:
            want = modified_mp(obs, plan.eas_rows, plan.eas_norms, iterations)
            assert_same_pursuit(got, want, obs)
        evaluated = [len(calls[call][1]) for _, _, _, call in stages]
        assert np.median(evaluated) < cfg.n_candidates  # the bounds pruned rows

    @pytest.mark.parametrize("cfg", CERTIFIED, ids=["full", "scaled-1024", "scaled-2048"])
    def test_bound_holds_and_certifies_the_pick(self, monkeypatch, cfg):
        """For random residuals, and for dictionary rows under noise, every
        row's exact metric is at most its block's bound, the pursuit bounds
        with the reference table times 1 + ENVELOPE_MARGIN, and every block
        whose bound reaches the pick's metric was evaluated."""
        calls = spy_blocks(monkeypatch)
        rows, norms = eas_matrix(cfg)
        table, block = reference_eas_table(cfg)
        rng = np.random.default_rng(18)
        n = cfg.n_subcarriers
        for i in range(16):
            residual = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if i % 2:  # a phased dictionary row: bounds near the pick, so blocks are pruned
                row = rows[rng.integers(cfg.n_candidates)]
                residual = np.exp(2j * np.pi * rng.random()) * row + 0.05 * row.max() * residual
            metric = np.abs(rows @ residual) / norms
            assert np.all(metric <= (table @ np.abs(residual))[block])

            got = eas_pursuit(proposed_plan(cfg), residual, 1)
            assert got.trace[0][0] == int(np.argmax(metric))
            bound, seen = calls[-1]
            want = (1 + ENVELOPE_MARGIN) * (table @ np.abs(residual))
            np.testing.assert_allclose(bound(residual), want, rtol=1e-12)
            needed = np.flatnonzero(want >= metric.max())
            assert set(needed) <= set(block[seen])

    @pytest.mark.parametrize("cfg", CERTIFIED, ids=["full", "scaled-1024", "scaled-2048"])
    def test_block_table_matches_reference(self, cfg):
        plan = proposed_plan(cfg)
        table, block = reference_eas_table(cfg)
        assert plan.eas_block_bound.shape == (block[-1] + 1, cfg.n_subcarriers)
        np.testing.assert_array_equal(plan.eas_block_bound, table)
        assert not plan.eas_block_bound.flags.writeable
        with pytest.raises(ValueError):
            plan.eas_block_bound[0] = 1.0

    def test_few_rows_for_a_lone_target(self, monkeypatch):
        """A lone target at full scale: its one EAS pick evaluates at most 512
        of the 4096 rows."""
        calls = spy_blocks(monkeypatch)
        plan = proposed_plan(FULL)
        for seed in range(10):
            scene = generate_scene(FULL, 1, 0, seed, include_clutter=False)
            obs = assemble_observation(
                FULL, unit_echo(FULL, scene, plan.eas_weights), plan.eas_powers,
                plan.eas_symbol_count, np.random.default_rng(seed),
            )
            eas_pursuit(plan, obs, 1)
        assert len(calls) == 10
        assert max(len(seen) for _, seen in calls) <= 512

    @pytest.mark.parametrize("cfg", CERTIFIED[:2], ids=["full", "s1024"])
    def test_zero_norm_row_raises(self, cfg):
        plan = proposed_plan(cfg)
        rows, norms = plan.eas_rows.copy(), plan.eas_norms.copy()
        rows[7], norms[7] = 0.0, 0.0
        degenerate = plan._replace(eas_rows=rows, eas_norms=norms)
        obs = np.ones(cfg.n_subcarriers, dtype=complex)
        with pytest.raises(ConfigError, match="zero-norm"):
            eas_pursuit(degenerate, obs, 1)
        assert eas_pursuit(degenerate, obs, 0).trace == ()


class TestBlockPursuitPicks:
    """eas_pursuit and aas_pursuit pick what modified_mp picks over the whole
    dictionary where that pick is a tie, or no pick at all."""

    @pytest.mark.parametrize("stage", ["eas", "aas"])
    def test_tie_goes_to_the_least_candidate(self, monkeypatch, stage):
        """Candidate 700 repeated at 100, in a block of lower bound that the
        block path evaluates later: a residual on that row ties the two
        exactly, and every path picks 100."""
        cfg, lo, hi = CERTIFIED[1], 100, 700
        grid = {"eas": "elevation_candidates", "aas": "azimuth_candidates"}[stage]
        real = getattr(detection, grid)

        def duplicated(cfg):
            cand = real(cfg).copy()
            cand[lo] = cand[hi]
            return cand

        monkeypatch.setattr(detection, grid, duplicated)
        plan = detection.proposed_plan.__wrapped__(cfg)
        monkeypatch.setattr(detection, "proposed_plan", lambda cfg: plan)
        monkeypatch.setattr(detection, "aas_bin_tables", detection.aas_bin_tables.__wrapped__)
        calls = spy_blocks(monkeypatch)
        size = -(-cfg.n_candidates // cfg.n_subcarriers)
        assert lo // size != hi // size
        if stage == "eas":
            rows, norms = plan.eas_rows, plan.eas_norms
            pursue = functools.partial(eas_pursuit, plan)
        else:
            powers = np.random.default_rng(19).uniform(1e-4, 1e-2, cfg.n_subcarriers)
            scale = oracles.aas_scale(cfg, 0.7, powers)
            rows, norms = oracles.aas_table(cfg, 0.7, scale)
            pursue = functools.partial(aas_pursuit, cfg, plan, 0.7, scale)
        obs = np.exp(0.3j) * rows[hi]
        metric = np.abs(rows @ obs) / norms
        assert metric[lo] == metric[hi] == metric.max()  # an exact tie
        want = modified_mp(obs, rows, norms, 1)
        got = pursue(obs, 1)
        assert want.trace[0][0] == got.trace[0][0] == lo
        assert_same_pursuit(got, want, obs)
        seen = calls[-1][1]
        assert seen.index(hi) < seen.index(lo)  # the later pick of the two is the least

    @pytest.mark.parametrize("cfg", CERTIFIED[:2], ids=["full", "s1024"])
    def test_zero_residual_makes_no_pick(self, cfg):
        zero = np.zeros(cfg.n_subcarriers, dtype=complex)
        scale = oracles.aas_scale(cfg, 0.7, np.full(cfg.n_subcarriers, 1e-3))
        plan = proposed_plan(cfg)
        for got, table in (
            (eas_pursuit(plan, zero, 2), eas_matrix(cfg)),
            (aas_pursuit(cfg, plan, 0.7, scale, zero, 2), oracles.aas_table(cfg, 0.7, scale)),
        ):
            want = modified_mp(zero, *table, 2)
            assert want.trace == got.trace == () and want.phasors == got.phasors == ()
            np.testing.assert_array_equal(got.counts, want.counts)
            assert not got.counts.any()
