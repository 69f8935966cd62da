import numpy as np
import pytest

from squintsense.beamforming import (
    aas_azimuth_grid,
    aas_beamformer,
    eas_beamformer,
    eas_elevation_grid,
)
from squintsense.channel import Scene, Target, generate_scene
from squintsense.config import SystemConfig
from squintsense.detection import (
    assemble_observation,
    azimuth_candidates,
    build_measurement_matrix,
    eas_stage,
    elevation_candidates,
    hierarchical_detect,
    modified_mp,
)
from squintsense.exceptions import ConfigError
from squintsense.power import allocate_sensing, grid_echo_strength

CFG = SystemConfig(
    m_h=16, m_v=16, n_subcarriers=32, n_candidates=256, tau_s_db=25.0, n_clutter=0
)


def eas_matrix(cfg):
    bf = eas_beamformer(cfg)
    strengths = grid_echo_strength(cfg, bf, eas_elevation_grid(cfg), 1.5)
    t, p = allocate_sensing(cfg, strengths)
    return build_measurement_matrix(cfg, bf, p), bf, t, p


def reference_mp(obs, columns, iterations, stop_ratio=None):
    """Matching pursuit with complex correlation against the dictionary cast
    to complex and the norms computed per call; (index, metric, residual
    norm, phasor) per iteration."""
    norms = np.linalg.norm(columns, axis=0)
    residual = np.asarray(obs, dtype=complex).copy()
    stop_level = stop_ratio * np.linalg.norm(residual) if stop_ratio else None
    steps = []
    for _ in range(iterations):
        corr = columns.astype(complex).T @ residual
        metric = np.abs(corr) / norms
        best = int(np.argmax(metric))
        coeff = corr[best] / norms[best] ** 2
        phasor = coeff / abs(coeff)
        residual = residual - phasor * columns[:, best]
        steps.append((best, metric[best], np.linalg.norm(residual), phasor))
        if stop_level is not None and np.linalg.norm(residual) < stop_level:
            break
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
        mtx, _, _, _ = eas_matrix(CFG)
        assert mtx.columns.shape == (CFG.n_subcarriers, CFG.n_candidates)
        assert np.all(mtx.columns >= 0)
        assert np.all(np.linalg.norm(mtx.columns, axis=0) > 0)

    def test_entries_match_direct_evaluation(self):
        from squintsense.channel import sensing_attenuation

        cfg = CFG
        mtx, bf, _, p = eas_matrix(cfg)
        cand = elevation_candidates(cfg)
        for l in (0, 100, 255):
            alpha = sensing_attenuation(cfg, cfg.height / np.cos(cand[l]), cfg.sigma_rcs)
            for n in (0, 17, 31):
                g = abs(bf.gain(cand[l], 0.5 * (cfg.phi_min + cfg.phi_max), n))
                assert mtx.columns[n, l] == pytest.approx(np.sqrt(p[n]) * alpha * g**2, rel=1e-9)

    def test_aas_requires_theta_hat(self):
        cfg = CFG
        bf = aas_beamformer(cfg, 0.7)
        with pytest.raises(ConfigError):
            build_measurement_matrix(cfg, bf, np.ones(cfg.n_subcarriers))


class TestModifiedMp:
    def synth(self, mtx, entries):
        """Observation = sum of phasor * column for (index, phase) entries."""
        obs = np.zeros(mtx.columns.shape[0], dtype=complex)
        for idx, phase in entries:
            obs += np.exp(1j * phase) * mtx.columns[:, idx]
        return obs

    # narrow vertical beam + one candidate per subcarrier: low-coherence
    # dictionary where greedy pursuit recovers supports exactly
    MP_CFG = SystemConfig(
        m_h=16, m_v=64, n_subcarriers=32, n_candidates=32, tau_s_db=25.0, n_clutter=0
    )

    def test_exact_recovery_distinct_candidates(self):
        cfg = self.MP_CFG
        mtx, _, _, _ = eas_matrix(cfg)
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = int(rng.integers(1, 4))
            idx = rng.choice(cfg.n_candidates, size=q, replace=False)
            entries = [(int(i), float(rng.uniform(0, 2 * np.pi))) for i in idx]
            cv = modified_mp(self.synth(mtx, entries), mtx, q)
            expected = np.zeros(cfg.n_candidates, dtype=int)
            expected[idx] = 1
            np.testing.assert_array_equal(cv.counts, expected)

    def test_support_localized_on_dense_grid(self):
        """On the dense (coherent) grid, supports land within a beamwidth."""
        mtx, _, _, _ = eas_matrix(CFG)
        rng = np.random.default_rng(6)
        beam_bins = 24  # main-lobe width in candidate bins at this config
        for _ in range(50):
            idx = rng.choice(np.arange(32, CFG.n_candidates - 32, 1))
            cv = modified_mp(self.synth(mtx, [(int(idx), 0.4)]), mtx, 1)
            got = int(np.flatnonzero(cv.counts)[0])
            assert abs(got - idx) <= beam_bins

    def test_repeated_candidate_counted_twice(self):
        mtx, _, _, _ = eas_matrix(CFG)
        obs = self.synth(mtx, [(90, 0.2), (90, 0.2)])
        cv = modified_mp(obs, mtx, 2)
        assert cv.counts[90] == 2
        assert cv.counts.sum() == 2

    def test_phasors_unit_magnitude(self):
        mtx, _, _, _ = eas_matrix(CFG)
        cv = modified_mp(self.synth(mtx, [(10, 1.0), (200, 2.0)]), mtx, 2)
        for ph in cv.phasors:
            assert abs(ph) == pytest.approx(1.0, rel=1e-12)

    def test_residual_norm_nonincreasing_in_trace(self):
        mtx, _, _, _ = eas_matrix(CFG)
        rng = np.random.default_rng(9)
        obs = self.synth(mtx, [(40, 0.5), (60, 1.5)])
        obs = obs + 1e-3 * np.linalg.norm(obs) * (
            rng.standard_normal(len(obs)) + 1j * rng.standard_normal(len(obs))
        )
        cv = modified_mp(obs, mtx, 6)
        norms = [r for (_, _, r) in cv.trace]
        start = np.linalg.norm(obs)
        assert norms[0] <= start
        # deflation with unit phasors is not strictly monotone, but the trace
        # must never exceed the starting norm by more than a column's worth
        col_max = np.linalg.norm(mtx.columns, axis=0).max()
        assert all(r <= start + col_max for r in norms)

    def test_zero_iterations(self):
        mtx, _, _, _ = eas_matrix(CFG)
        cv = modified_mp(np.zeros(CFG.n_subcarriers, dtype=complex), mtx, 0)
        assert cv.counts.sum() == 0
        assert cv.trace == ()

    def test_stop_ratio_halts_early(self):
        mtx, _, _, _ = eas_matrix(CFG)
        obs = self.synth(mtx, [(120, 0.0)])
        cv = modified_mp(obs, mtx, 5, stop_ratio=1e-6)
        assert cv.counts.sum() < 5
        assert cv.counts[120] >= 1

    def test_matches_complex_reference(self):
        """Real-GEMM correlation and stored norms reproduce the complex-cast
        pursuit: same indices, metrics, residual norms and phasors."""
        eas, _, _, _ = eas_matrix(CFG)
        aas = build_measurement_matrix(
            CFG, aas_beamformer(CFG, 0.7), np.full(CFG.n_subcarriers, 1e-3), theta_hat=0.7
        )
        rng = np.random.default_rng(11)
        for mtx in (eas, aas):
            np.testing.assert_allclose(
                mtx.norms, np.linalg.norm(mtx.columns, axis=0), rtol=1e-14, atol=0
            )
            obs = self.synth(mtx, [(40, 0.5), (60, 1.5), (200, 2.5)])
            noise = rng.standard_normal(len(obs)) + 1j * rng.standard_normal(len(obs))
            obs = obs + 1e-2 * np.linalg.norm(obs) * noise
            cases = (
                (obs, 4, None),                                      # q > 1, noisy
                (self.synth(mtx, [(90, 0.2), (90, 0.2)]), 2, None),  # repeated index
                (self.synth(mtx, [(120, 0.0)]), 5, 1e-6),            # stops early
            )
            selected = []
            for obs, iterations, stop_ratio in cases:
                scale = np.linalg.norm(obs)
                cv = modified_mp(obs, mtx, iterations, stop_ratio)
                steps = reference_mp(obs, mtx.columns, iterations, stop_ratio)
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
            assert len(selected[2]) < 5


class TestObservation:
    def test_noise_variance_scales_with_symbols(self):
        cfg = CFG
        bf = eas_beamformer(cfg)
        p = np.zeros(cfg.n_subcarriers)
        draws = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            draws.append(assemble_observation(cfg, Scene(), bf, p, 4, rng))
        var = np.var(np.concatenate(draws))
        assert var == pytest.approx(cfg.noise_variance() / 4, rel=0.1)

    def test_signal_part_deterministic(self):
        cfg = CFG
        scene = generate_scene(cfg, 1, 0, 3)
        bf = eas_beamformer(cfg)
        p = np.full(cfg.n_subcarriers, 1e-3)
        a = assemble_observation(cfg, scene, bf, p, 1, np.random.default_rng(0))
        b = assemble_observation(cfg, scene, bf, p, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_symbols(self):
        with pytest.raises(ConfigError):
            assemble_observation(
                CFG, Scene(), eas_beamformer(CFG), np.zeros(32), 0, np.random.default_rng(0)
            )


class TestEasStageCache:
    def test_matches_fresh_computation(self):
        stage = eas_stage(CFG)
        mtx, bf, t, p = eas_matrix(CFG)
        assert stage.symbol_count == t
        np.testing.assert_array_equal(stage.powers, p)
        np.testing.assert_array_equal(stage.matrix.columns, mtx.columns)
        np.testing.assert_array_equal(stage.matrix.candidates, mtx.candidates)
        assert stage.weights.kind == "eas"

    def test_cached_arrays_are_read_only(self):
        stage = eas_stage(CFG)
        arrays = (
            stage.powers,
            stage.matrix.columns,
            stage.matrix.candidates,
            stage.matrix.norms,
            stage.weights.ttd.vertical,
            stage.weights.ttd.horizontal,
        )
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(ValueError):
            stage.matrix.columns *= 2.0

    def test_one_entry_per_config(self):
        assert eas_stage(CFG) is eas_stage(SystemConfig(**{
            f: getattr(CFG, f) for f in CFG.__dataclass_fields__
        }))
        for change in ({"tau_s_db": 24.0}, {"n_candidates": 128}, {"kappa_db": 7.0}):
            other = CFG.replace(**change)
            assert eas_stage(other) is not eas_stage(CFG)
        assert eas_stage(CFG.replace(tau_s_db=24.0)).symbol_count <= eas_stage(CFG).symbol_count

    def test_cache_is_small_and_bounded(self):
        maxsize = eas_stage.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        for tau in np.linspace(10.0, 20.0, maxsize + 3):
            eas_stage(CFG.replace(tau_s_db=float(tau), m_h=4, m_v=4, n_candidates=64))
        assert eas_stage.cache_info().currsize <= maxsize

    def test_detection_leaves_cache_intact(self):
        stage = eas_stage(CFG)
        before = stage.matrix.columns.copy(), stage.powers.copy()
        scene = generate_scene(CFG, 2, 0, 5)
        result = hierarchical_detect(CFG, scene, 2, np.random.default_rng(1))
        assert result.sensing_powers[0] is stage.powers
        np.testing.assert_array_equal(stage.matrix.columns, before[0])
        np.testing.assert_array_equal(stage.powers, before[1])


class TestHierarchicalDetect:
    def test_on_grid_noiseless_like_recovery(self):
        """A strong on-candidate target is recovered at its exact grid cell."""
        cfg = CFG
        cand_t = elevation_candidates(cfg)
        cand_p = azimuth_candidates(cfg)
        theta, phi = float(cand_t[37]), float(cand_p[149])
        scene = Scene(
            targets=(Target(theta, phi, cfg.height / np.cos(theta), cfg.sigma_rcs),)
        )
        result = hierarchical_detect(cfg, scene, 1, np.random.default_rng(12))
        assert len(result.estimates) == 1
        est_theta, est_phi = result.estimates[0]
        assert est_theta == pytest.approx(theta, abs=np.max(np.diff(cand_t)) * 1.5)
        assert est_phi == pytest.approx(phi, abs=np.max(np.diff(cand_p)) * 1.5)

    def test_multiplicities_sum_to_q(self):
        cfg = CFG
        scene = generate_scene(cfg, 3, 0, 21)
        result = hierarchical_detect(cfg, scene, 3, np.random.default_rng(4))
        assert sum(m for _, m in result.elevations) == 3
        assert len(result.estimates) <= 3
        assert result.symbol_counts[0] >= 1
        assert len(result.symbol_counts) == 1 + len(result.elevations)

    def test_estimates_inside_roi(self):
        cfg = CFG
        scene = generate_scene(cfg, 2, 0, 8)
        result = hierarchical_detect(cfg, scene, 2, np.random.default_rng(2))
        for th, ph in result.estimates:
            assert cfg.theta_min - 1e-9 <= th <= cfg.theta_max + 1e-9
            assert cfg.phi_min - 1e-9 <= ph <= cfg.phi_max + 1e-9
