import itertools
import math
import tracemalloc

import numpy as np
import pytest

import squintsense.simkit as simkit
from squintsense.beamforming import (
    BeamformerWeights,
    aas_azimuth_grid,
    aas_unit_phase,
    comm_beamformer,
    eas_elevation_grid,
)
from squintsense.channel import Scene, generate_scene, scene_arrays, sensing_attenuation
from squintsense.config import RunConfig, SystemConfig
from squintsense.detection import (
    MeasurementMatrix,
    azimuth_candidates,
    elevation_candidates,
    hierarchical_detect,
    proposed_plan,
)
from squintsense.exceptions import ConfigError, InfeasibleError
from squintsense.geometry import uniform_phase_power
from squintsense.power import (
    PowerPlan,
    SinrContext,
    allocate_comm,
    backoff_tau_c,
    sinr_context,
)
from squintsense.simkit import (
    _cell_bound,
    _cell_response,
    _row_bound,
    _scan_record,
    aggregate,
    aggregate_to_csv,
    allocate_comm_plan,
    azimuth_only_plan,
    distance_error,
    exhaustive_plan,
    plan_proposed_trial,
    records_to_csv,
    run_azimuth_only_baseline,
    run_exhaustive_baseline,
    run_experiment,
    run_proposed_trial,
    run_single_trial,
    sum_rate,
    transmit_power_metrics,
)

SCALED = SystemConfig(
    m_h=16, m_v=16, n_subcarriers=32, n_candidates=512, tau_s_db=25.0
)


def ground_position(height, theta, phi):
    r = height * math.tan(theta)
    return np.array([r * math.cos(phi), r * math.sin(phi)])


class TestDistanceError:
    def test_identical_lists_zero(self):
        pairs = [(0.5, 1.0), (0.9, 2.0)]
        assert distance_error(40.0, pairs, pairs) == 0.0

    def test_small_azimuth_error_is_arc_length(self):
        h, theta, phi, dphi = 40.0, 0.7, 1.2, 1e-5
        r = h * math.tan(theta)
        err = distance_error(h, [(theta, phi)], [(theta, phi + dphi)])
        assert err == pytest.approx(r * dphi, rel=1e-4)

    def test_sorting_matches_min_cost_assignment_on_fixture(self):
        """Crossed two-target fixture: the sort-based pairing is optimal."""
        h = 40.0
        truth = [(0.5, 1.0), (0.8, 2.0)]
        estimates = [(0.81, 2.02), (0.52, 0.97)]  # given in swapped order
        got = distance_error(h, truth, estimates)
        best = min(
            np.mean(
                [
                    np.linalg.norm(
                        ground_position(h, *t) - ground_position(h, *e)
                    )
                    for t, e in zip(truth, perm)
                ]
            )
            for perm in itertools.permutations(estimates)
        )
        assert got == pytest.approx(best, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            distance_error(40.0, [(0.5, 1.0)], [])

    def test_empty_lists(self):
        assert distance_error(40.0, [], []) == 0.0


class TestSumRate:
    def test_all_zero_sinr(self):
        assert sum_rate([np.zeros((2, 4))]) == 0.0

    def test_uniform_threshold_closed_form(self):
        tau, k, n, stages = 9.0, 3, 8, 4
        rate = sum_rate([np.full((k, n), tau)] * stages)
        assert rate == pytest.approx(k * n * math.log2(1 + tau), rel=1e-12)

    def test_hand_arithmetic(self):
        assert sum_rate([np.array([[1.0, 3.0]])]) == pytest.approx(3.0)


class TestTransmitPowerMetrics:
    def test_zero_comm_reduces_to_sensing(self):
        plan = PowerPlan(
            symbol_counts=[2, 3],
            sensing_powers=[np.array([1.0, 2.0]), np.array([0.5, 0.5])],
            comm_powers=[np.zeros((0, 2)), np.zeros((0, 2))],
        )
        total, avg = transmit_power_metrics(plan)
        assert total == pytest.approx(2 * 3.0 + 3 * 1.0)
        assert avg == pytest.approx((3.0 * 2 + 1.0 * 3) / 2)

    def test_doubling_symbols_doubles_metrics(self):
        p = [np.array([1.0, 2.0])]
        c = [np.array([[0.1, 0.2]])]
        t1 = transmit_power_metrics(PowerPlan([2], p, c))
        t2 = transmit_power_metrics(PowerPlan([4], p, c))
        assert t2[0] == pytest.approx(2 * t1[0])
        assert t2[1] == pytest.approx(2 * t1[1])

    def test_single_stage_hand_sum(self):
        plan = PowerPlan([5], [np.array([0.2, 0.3])], [np.array([[0.1, 0.1], [0.2, 0.2]])])
        total, avg = transmit_power_metrics(plan)
        assert total == pytest.approx(5 * 0.5)
        assert avg == pytest.approx(5 * (0.5 + 0.6))


def on_grid_single_target_scene(cfg, row, col):
    theta = float(eas_elevation_grid(cfg)[row])
    phi = float(aas_azimuth_grid(cfg)[col])
    return Scene(targets=np.array([[theta, phi]])), theta, phi


class TestBaselines:
    def test_exhaustive_noiseless_on_grid_exact_cell(self):
        cfg = SCALED.replace(tau_s_db=60.0, n_clutter=0)
        scene, theta, phi = on_grid_single_target_scene(cfg, 10, 20)
        rec = run_exhaustive_baseline(cfg, scene, np.random.default_rng(0))
        assert rec.distance_error_m < 1e-6

    def test_azimuth_only_noiseless_on_grid_exact_cell(self):
        cfg = SCALED.replace(tau_s_db=60.0, n_clutter=0)
        scene, theta, phi = on_grid_single_target_scene(cfg, 10, 20)
        rec = run_azimuth_only_baseline(cfg, scene, np.random.default_rng(0))
        assert rec.distance_error_m < 1e-6

    def test_azimuth_only_empty_scene(self):
        rec = run_azimuth_only_baseline(SCALED, Scene(), np.random.default_rng(0))
        assert rec.ok
        assert rec.total_sensing_energy > 0

    def test_symbol_energy_accounting(self):
        """Exhaustive probes N^2 cell-symbols; azimuth-only N symbols."""
        cfg = SCALED
        scene = generate_scene(cfg, 1, 0, 3)
        n = cfg.n_subcarriers
        rec_e = run_exhaustive_baseline(cfg, scene, np.random.default_rng(1))
        rec_a = run_azimuth_only_baseline(cfg, scene, np.random.default_rng(1))
        # each exhaustive symbol spends its cell's tight power on all N
        # subcarriers: the stored per-stage power vector has N^2 entries
        assert len(rec_e.symbol_counts) == 1
        assert rec_e.total_sensing_energy > rec_a.total_sensing_energy

    def test_ee_consistency(self):
        cfg = SCALED
        scene = generate_scene(cfg, 1, 2, 5)
        rec = run_proposed_trial(cfg, scene, np.random.default_rng(5))
        assert rec.energy_efficiency * rec.avg_transmit_power == pytest.approx(
            rec.sum_rate, rel=1e-12
        )

    @pytest.mark.parametrize("limit", [2e-10, 4e-10, 8e-10, 1e-9])
    def test_scans_held_to_max_abs_ttd(self, limit):
        """A scan whose largest TTD delay exceeds the limit fails as a recorded
        ConfigError. At SCALED the azimuth-only scan's largest delay is its
        horizontal one, above its vertical 6.94e-10 s."""
        for method, largest in (("exhaustive", 2.42e-10), ("azimuth_only", 8.55e-10)):
            run = RunConfig(system=SCALED.replace(max_abs_ttd=limit), method=method, trials=2)
            records, _ = run_experiment(run)
            assert all(r.ok == (limit > largest) for r in records)
            if limit < largest:
                with pytest.raises(ConfigError, match="max_abs_ttd"):
                    run_single_trial(run, 0, 0)


# non-power-of-two arrays, and subcarrier counts that are not powers of two
ODD_CONFIGS = [
    SystemConfig(m_h=13, m_v=7, n_subcarriers=24, n_candidates=64, tau_s_db=25.0),
    SystemConfig(m_h=13, m_v=7, n_subcarriers=44, n_candidates=64, tau_s_db=25.0),
]
EVERY_CONFIG = pytest.mark.parametrize(
    "cfg", [SCALED, *ODD_CONFIGS], ids=["scaled", "13x7-n24", "13x7-n44"]
)


def reference_exhaustive_response(cfg, scene):
    """The scan's noise-free response as one (N, N, N) kernel broadcast per
    scatterer, averaged over subcarriers."""
    n = cfg.n_subcarriers
    theta_grid, phi_grid = eas_elevation_grid(cfg), aas_azimuth_grid(cfg)
    ratio = 1.0 + cfg.subcarrier_offsets() / cfg.fc
    cell_h = np.sin(theta_grid)[:, None] * np.cos(phi_grid)[None, :]
    cell_v = np.cos(theta_grid)
    response = np.zeros((n, n), dtype=complex)
    for th, ph, amp in zip(*scene_arrays(cfg, scene)):
        x_h = ratio[None, None, :] * (np.sin(th) * np.cos(ph) - cell_h[:, :, None])
        x_v = ratio[None, :] * (np.cos(th) - cell_v[:, None])
        gain2 = uniform_phase_power(x_h, cfg.m_h) * uniform_phase_power(x_v, cfg.m_v)[:, None, :]
        response += amp * np.mean(gain2, axis=2)
    return response


def every_cell_response(cfg, scene):
    """_cell_response on all N^2 cells, (N, N): in one call up to N = 45, in
    calls of 2048 cells above, so a full-scale grid forms no ~100 MB array."""
    n = cfg.n_subcarriers
    rows, cols = np.divmod(np.arange(n * n), n)
    echoes = scene_arrays(cfg, scene)
    parts = [
        _cell_response(cfg, echoes, rows[i : i + 2048], cols[i : i + 2048])
        for i in range(0, n * n, 2048)
    ]
    return np.concatenate(parts).reshape(n, n)


def on_grid_scene(cfg):
    """Targets and a clutterer exactly on grid cells: zero slope difference on
    every subcarrier, the kernels' limit branch."""
    theta_grid, phi_grid = eas_elevation_grid(cfg), aas_azimuth_grid(cfg)
    n = cfg.n_subcarriers
    cells = [(n // 3, n // 2), (n - 1, 0), (0, n - 1)]
    targets = np.array([(theta_grid[r], phi_grid[c]) for r, c in cells])
    clutter = np.array([(theta_grid[n // 2], phi_grid[n // 4])])
    return Scene(targets, clutter, np.array([0.6 - 0.8j]))


class TestExhaustiveResponse:
    @staticmethod
    def check(cfg, scene):
        with np.errstate(all="raise"):
            got = every_cell_response(cfg, scene)
        want = reference_exhaustive_response(cfg, scene)
        peak = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * peak

    @EVERY_CONFIG
    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("include_clutter", [True, False], ids=["clutter", "los"])
    def test_matches_per_scatterer_reference(self, cfg, q, include_clutter):
        for seed in range(4):
            self.check(cfg, generate_scene(cfg, q, 0, seed, include_clutter))

    @EVERY_CONFIG
    def test_scatterers_on_grid_cells(self, cfg):
        self.check(cfg, on_grid_scene(cfg))

    @EVERY_CONFIG
    def test_scatterer_just_off_grid_cell(self, cfg):
        """A slope difference of ~1e-7 on every subcarrier, near the kernel's
        limit branch but outside it."""
        theta_grid, phi_grid = eas_elevation_grid(cfg), aas_azimuth_grid(cfg)
        n = cfg.n_subcarriers
        theta, phi = theta_grid[n // 3], phi_grid[n // 2] + 1e-7
        self.check(cfg, Scene(targets=np.array([[theta, phi]])))

    def test_no_scatterers(self):
        response = every_cell_response(SCALED, Scene())
        assert response.shape == (32, 32)
        assert not response.any()


def scan_noise(cfg, rng):
    """The exhaustive scan's noise draw, as the first use of its generator."""
    n = cfg.n_subcarriers
    return np.sqrt(cfg.noise_variance() / (2.0 * n)) * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )


def full_grid_statistic(cfg, scene, noise):
    """The scan statistic on every cell, from the response of every cell."""
    plan = exhaustive_plan(cfg)
    response = every_cell_response(cfg, scene)
    return np.abs(plan.sqrt_powers[:, None] * response + noise) / plan.expected[:, None]


def full_grid_scan(cfg, scene, seed):
    """The scan's record from the per-scatterer reference response on the
    whole grid, the same noise draw and the same top-q rule."""
    n = cfg.n_subcarriers
    theta_grid, phi_grid = eas_elevation_grid(cfg), aas_azimuth_grid(cfg)
    alpha = sensing_attenuation(cfg, cfg.height / np.cos(theta_grid), cfg.sigma_rcs)
    p_cell = cfg.tau_s * cfg.noise_variance() / alpha**2
    noise = scan_noise(cfg, np.random.default_rng(seed))
    signal = np.sqrt(p_cell)[:, None] * reference_exhaustive_response(cfg, scene)
    statistic = np.abs(signal + noise) / (np.sqrt(p_cell)[:, None] * alpha[:, None])
    grids = (theta_grid, phi_grid)
    return _scan_record("exhaustive", cfg, scene, statistic, grids, n * np.repeat(p_cell, n))


def spy_scan(monkeypatch, cfg, scene, seed):
    """Run the scan; return (its record, the statistic it ranked, the size of
    each batch of cells it evaluated, the rows whose cells it bounded)."""
    seen = {"batches": [], "bounded": []}

    def response(cfg, echoes, rows, cols):
        seen["batches"].append(len(rows))
        return _cell_response(cfg, echoes, rows, cols)

    def cell_bound(cfg, echoes, noise, vertical, rows):
        seen["bounded"].extend(rows)
        return _cell_bound(cfg, echoes, noise, vertical, rows)

    def record(method, cfg, scene, statistic, grids, powers):
        seen["statistic"] = statistic.copy()
        return _scan_record(method, cfg, scene, statistic, grids, powers)

    monkeypatch.setattr(simkit, "_cell_response", response)
    monkeypatch.setattr(simkit, "_cell_bound", cell_bound)
    monkeypatch.setattr(simkit, "_scan_record", record)
    rec = run_exhaustive_baseline(cfg, scene, np.random.default_rng(seed))
    return rec, seen["statistic"], seen["batches"], seen["bounded"]


class TestExhaustivePruning:
    """The scan evaluates only cells that may be a top-q cell, each once and
    with the bits of the evaluator on every cell, and its record is that of
    the full-grid scan."""

    @staticmethod
    def check(monkeypatch, cfg, scene, seed):
        rec, statistic, batches, bounded = spy_scan(monkeypatch, cfg, scene, seed)
        assert rec == full_grid_scan(cfg, scene, seed)
        evaluated = np.isfinite(statistic)
        assert np.all(statistic[~evaluated] == -np.inf)
        assert sum(batches) == evaluated.sum()
        assert evaluated.any() == bool(len(scene.targets))
        assert len(set(bounded)) == len(bounded)
        full = full_grid_statistic(cfg, scene, scan_noise(cfg, np.random.default_rng(seed)))
        assert np.array_equal(statistic[evaluated], full[evaluated])
        return batches, bounded

    @EVERY_CONFIG
    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("include_clutter", [True, False], ids=["clutter", "los"])
    def test_same_record_as_full_grid(self, monkeypatch, cfg, q, include_clutter):
        for seed in range(3):
            self.check(monkeypatch, cfg, generate_scene(cfg, q, 0, seed, include_clutter), seed)

    @pytest.mark.parametrize("include_clutter", [True, False], ids=["clutter", "los"])
    def test_more_targets_than_first_batch(self, monkeypatch, include_clutter):
        """q = 12 is above the first batch of 8 cells, so the first batch
        takes q cells."""
        for seed in range(3):
            scene = generate_scene(SCALED, 12, 0, seed, include_clutter)
            batches, _ = self.check(monkeypatch, SCALED, scene, seed)
            assert batches[0] == 12

    @EVERY_CONFIG
    def test_scatterers_on_grid_cells(self, monkeypatch, cfg):
        self.check(monkeypatch, cfg, on_grid_scene(cfg), 4)

    def test_same_work_after_other_scans(self, monkeypatch):
        """Cell bounds left in the reused work arrays by earlier trials add no
        evaluated cell and no bounded row."""
        scene = generate_scene(SCALED, 1, 0, 2)
        simkit.scan_work.cache_clear()
        _, alone, *work_alone = spy_scan(monkeypatch, SCALED, scene, 2)
        for seed in range(3):
            spy_scan(monkeypatch, SCALED, generate_scene(SCALED, 3, 0, seed), seed)
        _, after, *work_after = spy_scan(monkeypatch, SCALED, scene, 2)
        assert work_after == work_alone
        assert after.tobytes() == alone.tobytes()

    def test_separated_full_scale_scene_evaluates_few_rows(self, monkeypatch):
        """Few cells are evaluated, and few rows are bounded cell by cell."""
        cfg = SystemConfig()
        n = cfg.n_subcarriers
        theta_grid, phi_grid = eas_elevation_grid(cfg), aas_azimuth_grid(cfg)
        targets = np.array([
            (theta_grid[30] + 1e-3, phi_grid[40] - 2e-3),
            (theta_grid[95] - 2e-3, phi_grid[100] + 1e-3),
        ])
        clutter = generate_scene(cfg, 2, 0, 3)
        scene = Scene(targets, clutter.clutter, clutter.fading)
        rec, statistic, batches, bounded = spy_scan(monkeypatch, cfg, scene, 3)
        assert sum(batches) <= 16
        assert len(bounded) < n // 8
        assert rec.distance_error_m < 1.0
        full = full_grid_statistic(cfg, scene, scan_noise(cfg, np.random.default_rng(3)))
        assert np.array_equal(np.argsort(statistic.ravel())[-2:], np.argsort(full.ravel())[-2:])


class TestScanBound:
    """The closed-form bounds hold at every cell of the full-grid statistic."""

    @staticmethod
    def check(cfg, scene, seed):
        noise = scan_noise(cfg, np.random.default_rng(seed))
        statistic = full_grid_statistic(cfg, scene, noise)
        echoes = scene_arrays(cfg, scene)
        rows, vertical = _row_bound(cfg, echoes, noise)
        cells = _cell_bound(cfg, echoes, noise, vertical, np.arange(cfg.n_subcarriers))
        assert np.all(cells >= statistic)
        assert np.all(rows >= cells.max(axis=1))

    @EVERY_CONFIG
    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("include_clutter", [True, False], ids=["clutter", "los"])
    def test_bounds_hold(self, cfg, q, include_clutter):
        for seed in range(4):
            self.check(cfg, generate_scene(cfg, q, 0, seed, include_clutter), seed)

    @EVERY_CONFIG
    def test_bounds_hold_on_grid_cells(self, cfg):
        self.check(cfg, on_grid_scene(cfg), 5)


def reference_azimuth_only_scan(cfg, scene, seed):
    """The azimuth-only scan as one (scatterer, subcarrier, symbol) broadcast
    summed over its first axis: (record, statistic)."""
    n = cfg.n_subcarriers
    plan = azimuth_only_plan(cfg)
    rng = np.random.default_rng(seed)
    s_theta, s_phi, s_amp = scene_arrays(cfg, scene)
    x_h = (np.sin(s_theta) * np.cos(s_phi))[:, None, None] * plan.ratio[:, None] - plan.steer_h
    x_v = np.cos(s_theta)[:, None] * plan.ratio - np.cos(cfg.theta_min) + plan.v_ttd
    p_h = np.where(plan.pointed, uniform_phase_power(x_h, cfg.m_h), plan.flat**2)
    p_h *= uniform_phase_power(x_v, cfg.m_v)[:, :, None]
    response = np.sum(s_amp[:, None, None] * p_h, axis=0)
    noise = np.sqrt(cfg.noise_variance() / 2.0) * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    statistic = np.abs(plan.sqrt_powers * response + noise) / plan.expected
    grids = (plan.theta_grid, plan.phi_grid)
    record = _scan_record("azimuth_only", cfg, scene, statistic, grids, plan.powers.ravel())
    return record, statistic


class TestAzimuthOnlyScan:
    """The scan's record and every bit of its statistic equal the broadcast
    reference's, whatever scene the reused work arrays held before."""

    @staticmethod
    def check(monkeypatch, cfg, scene, seed):
        seen = []

        def record(method, cfg, scene, statistic, grids, powers):
            seen.append(statistic.copy())
            return _scan_record(method, cfg, scene, statistic, grids, powers)

        monkeypatch.setattr(simkit, "_scan_record", record)
        rec = run_azimuth_only_baseline(cfg, scene, np.random.default_rng(seed))
        monkeypatch.undo()
        want_rec, want = reference_azimuth_only_scan(cfg, scene, seed)
        assert rec == want_rec
        assert seen[0].tobytes() == want.tobytes()

    @EVERY_CONFIG
    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("include_clutter", [True, False], ids=["clutter", "los"])
    def test_matches_broadcast_reference(self, monkeypatch, cfg, q, include_clutter):
        for seed in range(3):
            self.check(monkeypatch, cfg, generate_scene(cfg, q, 0, seed, include_clutter), seed)

    @EVERY_CONFIG
    def test_scatterers_on_grid_cells(self, monkeypatch, cfg):
        self.check(monkeypatch, cfg, on_grid_scene(cfg), 4)

    def test_empty_scene_after_a_full_one(self, monkeypatch):
        """With no scatterers the reused response reads zero again."""
        self.check(monkeypatch, SCALED, generate_scene(SCALED, 3, 0, 1), 1)
        self.check(monkeypatch, SCALED, Scene(), 2)

    def test_more_scatterers_than_a_block(self, monkeypatch):
        """At N = 32 a block holds 16 scatterers; 20 take two blocks."""
        assert len(simkit.scan_work(SCALED.n_subcarriers).slope) == 16
        cfg = SCALED.replace(n_clutter=17)
        self.check(monkeypatch, cfg, generate_scene(cfg, 3, 0, 5), 5)


def traced_peak(scan, cfg, scene):
    """tracemalloc peak of one scan, after one warm-up scan of the scene."""
    scan(cfg, scene, np.random.default_rng(0))
    tracemalloc.start()
    try:
        scan(cfg, scene, np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExhaustiveMemory:
    def test_peak_below_one_cube(self):
        """No (N, N, N) array: the traced peak of one scan stays below N^3 float64s."""
        cfg = SCALED.replace(n_subcarriers=96)
        assert traced_peak(run_exhaustive_baseline, cfg, generate_scene(cfg, 3, 0, 1)) < 96**3 * 8

    def test_steady_state_peak_at_defaults(self):
        """A full-scale trial reuses the scan's N x N work arrays: its traced
        peak stays below four N x N float64 arrays."""
        cfg = SystemConfig()
        peak = traced_peak(run_exhaustive_baseline, cfg, generate_scene(cfg, 2, 2, 1))
        assert peak < 4 * cfg.n_subcarriers**2 * 8

    def test_azimuth_only_peak_independent_of_scatterers(self):
        """The azimuth-only scan holds one scatterer's arrays at a time at
        full scale: q = 8 peaks within 10% of q = 1."""
        cfg = SystemConfig()
        peaks = [
            traced_peak(run_azimuth_only_baseline, cfg, generate_scene(cfg, q, 0, 1))
            for q in (1, 8)
        ]
        assert peaks[1] <= 1.1 * peaks[0]


def reference_comm_plan(cfg, scene, stage_weights, sensing_powers):
    """The comm plan built stage by stage: one SINR context per sensing stage,
    the smallest of their backed-off thresholds, then one allocation each."""
    if len(scene.users) == 0:
        return [np.zeros((0, cfg.n_subcarriers)) for _ in stage_weights], [], cfg.tau_c
    comm_w = [comm_beamformer(cfg, theta, phi) for theta, phi in scene.users]
    contexts = []
    for w, p in zip(stage_weights, sensing_powers):
        ctx = sinr_context(cfg, scene, comm_w, [w], [p])
        contexts.append(SinrContext(chi=ctx.chi, effective_noise=ctx.effective_noise[0]))
    tau_eff = min(backoff_tau_c(ctx, cfg.tau_c) for ctx in contexts)
    comm_powers = []
    sinrs = []
    for ctx in contexts:
        p_stage = allocate_comm(ctx, tau_eff)
        comm_powers.append(p_stage)
        diag = np.einsum("kkn->kn", ctx.chi)
        interference = np.einsum("kln,ln->kn", ctx.chi, p_stage) - diag * p_stage
        sinrs.append(diag * p_stage / (interference + ctx.effective_noise))
    return comm_powers, sinrs, tau_eff


# the scaled config of the benchmark workloads
COMM_CFG = SystemConfig(m_h=16, m_v=16, n_subcarriers=32, n_candidates=512)


def detected_stages(cfg, q, k, seed, include_clutter=True):
    """(scene, detection result) of one detection run."""
    scene = generate_scene(cfg, q, k, (seed, 0), include_clutter)
    return scene, hierarchical_detect(cfg, scene, np.random.default_rng((seed, 1)))


def comm_plan_args(cfg, scene, result):
    return cfg, scene, result.stage_weights, result.sensing_powers


class TestCommPlan:
    @staticmethod
    def assert_same_plan(cfg, scene, result):
        got = allocate_comm_plan(*comm_plan_args(cfg, scene, result))
        want = reference_comm_plan(*comm_plan_args(cfg, scene, result))
        assert got[2] == want[2]
        assert len(got[0]) == len(want[0]) == len(result.stage_weights)
        assert len(got[1]) == len(want[1])
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            np.testing.assert_array_equal(a, b)
        # the trial metrics sum over the powers: they must round alike too
        plans = [
            PowerPlan(list(result.symbol_counts), list(result.sensing_powers), powers, tau)
            for powers, _, tau in (got, want)
        ]
        assert transmit_power_metrics(plans[0]) == transmit_power_metrics(plans[1])
        assert sum_rate(got[1]) == sum_rate(want[1])
        return got[2]

    @pytest.mark.parametrize("include_clutter", [True, False])
    @pytest.mark.parametrize("tau_c_db", [10.0, 20.0])
    @pytest.mark.parametrize("q,k", [(0, 2), (1, 1), (2, 2), (4, 6)])
    def test_matches_per_stage_reference_bitwise(self, q, k, tau_c_db, include_clutter):
        cfg = COMM_CFG.replace(tau_c_db=tau_c_db)
        taus = [
            self.assert_same_plan(cfg, *detected_stages(cfg, q, k, seed, include_clutter))
            for seed in range(3)
        ]
        if (k, tau_c_db) == (6, 20.0):  # the crowded case must exercise the backoff
            assert min(taus) < cfg.tau_c

    def test_no_users(self):
        tau_eff = self.assert_same_plan(COMM_CFG, *detected_stages(COMM_CFG, 2, 0, 4))
        assert tau_eff == COMM_CFG.tau_c

    def test_infeasible_raises_the_same_error(self):
        cfg = COMM_CFG.replace(tau_c_db=80.0)
        args = comm_plan_args(cfg, *detected_stages(cfg, 2, 6, 5))
        errors = []
        for plan in (allocate_comm_plan, reference_comm_plan):
            with pytest.raises(InfeasibleError) as info:
                plan(*args)
            errors.append((str(info.value), info.value.last_threshold))
        assert errors[0] == errors[1]

    def test_gain_table_built_once_per_trial(self, monkeypatch):
        """One stacked call for chi and every AAS stage's leakage, then one
        for the EAS stage's flat-model beam."""
        cfg = COMM_CFG.replace(tau_c_db=20.0)
        plan_args = comm_plan_args(cfg, *detected_stages(cfg, 4, 6, 3))
        n_stages = len(plan_args[2])
        assert n_stages > 1
        calls = []
        power_gain = BeamformerWeights.power_gain

        def counted(self, *args):
            calls.append(self.kind)
            return power_gain(self, *args)

        monkeypatch.setattr(BeamformerWeights, "power_gain", counted)
        allocate_comm_plan(*plan_args)
        assert calls == ["stack", "eas"]


class TestTrialCallCounts:
    """Per-trial work that must not grow with the number of stages or users."""

    def test_one_echo_form_and_flat_kernel_count(self, monkeypatch):
        import squintsense.beamforming as beamforming
        import squintsense.channel as channel
        import squintsense.detection as detection

        cfg = COMM_CFG.replace(tau_c_db=20.0)
        proposed_plan(cfg)  # the cached plan is built once per config, not per trial
        counts = {"scene_arrays": 0, "kernel": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        echo_form = counted("scene_arrays", channel.scene_arrays)
        for module in (channel, detection):
            monkeypatch.setattr(module, "scene_arrays", echo_form)
        # power_gain's kernel; the per-stage dictionaries call it through detection
        monkeypatch.setattr(
            beamforming, "uniform_phase_power", counted("kernel", beamforming.uniform_phase_power)
        )
        seen = set()
        for q, k in ((4, 6), (4, 1), (1, 6), (3, 3)):
            for seed in range(6):
                scene = generate_scene(cfg, q, k, (seed, 0))
                counts.update(scene_arrays=0, kernel=0)
                result, _, _ = plan_proposed_trial(cfg, scene, np.random.default_rng((seed, 1)))
                assert counts["scene_arrays"] == 1
                seen.add((len(result.symbol_counts), k, counts["kernel"]))
        stages = {n for n, _, _ in seen}
        assert len(stages) >= 3 and max(stages) >= 4
        # EAS echo 1, stacked AAS echoes 2, stacked SINR table 2, EAS leakage 1
        assert {kernel for _, _, kernel in seen} == {6}


class TestScanTopCells:
    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_same_cells_as_argsort_of_every_cell(self, monkeypatch, q):
        """The scan record takes the cells that a descending argsort of the
        whole statistic takes, when unevaluated rows read -inf."""
        n = SCALED.n_subcarriers
        grids = (np.arange(n, dtype=float), np.arange(n, dtype=float))
        picked = []
        monkeypatch.setattr(simkit, "_finish_record", lambda *args: picked.append(args[3]))
        rng = np.random.default_rng(q)
        for evaluated in (1, 4, 9, n):
            statistic = np.full((n, n), -np.inf)
            rows = rng.choice(n, evaluated, replace=False)
            statistic[rows] = rng.rayleigh(size=(evaluated, n))
            _scan_record("exhaustive", SCALED, Scene(np.zeros((q, 2))), statistic, grids, None)
            flat = np.argsort(statistic.ravel())[::-1][:q]
            assert picked.pop() == [(float(i // n), float(i % n)) for i in flat]


def plan_arrays(plan):
    """(name, array) of every ndarray of a method plan, the nested EAS
    dictionary's included."""
    for name, value in plan._asdict().items():
        if isinstance(value, MeasurementMatrix):
            yield from ((f"{name}.{key}", arr) for key, arr in vars(value).items())
        elif isinstance(value, np.ndarray):
            yield name, value


class PlanCacheContract:
    """Cache contract of a method's per-config plan, checked by one subclass
    per method: ``plan`` is the cached plan function, ``run`` the trial that
    reads it."""

    plan = run = None

    def test_cached_arrays_are_read_only(self):
        arrays = dict(plan_arrays(self.plan(SCALED)))
        assert len(arrays) >= 4
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_one_entry_per_config(self):
        assert self.plan(SCALED) is self.plan(SystemConfig(**{
            f: getattr(SCALED, f) for f in SCALED.__dataclass_fields__
        }))
        for change in ({"tau_s_db": 24.0}, {"phi_max": 2.5}, {"m_h": 8}):
            assert self.plan(SCALED.replace(**change)) is not self.plan(SCALED)

    def test_cache_is_small_and_bounded(self):
        maxsize = self.plan.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        small = SCALED.replace(m_h=4, m_v=4, n_subcarriers=8, n_candidates=64)
        for tau in np.linspace(10.0, 20.0, maxsize + 3):
            self.plan(small.replace(tau_s_db=float(tau)))
        assert self.plan.cache_info().currsize <= maxsize

    def test_trials_leave_plan_intact(self):
        plan = self.plan(SCALED)
        before = {name: arr.copy() for name, arr in plan_arrays(plan)}
        for seed in range(3):
            scene = generate_scene(SCALED, 2, 0, seed)
            assert self.run(SCALED, scene, np.random.default_rng(seed)).ok
        assert self.plan(SCALED) is plan
        for name, arr in plan_arrays(plan):
            np.testing.assert_array_equal(arr, before[name], err_msg=name)


class TestProposedPlanCache(PlanCacheContract):
    plan = staticmethod(proposed_plan)
    run = staticmethod(run_proposed_trial)

    def test_matches_fresh_computation(self):
        plan = proposed_plan(SCALED)
        fresh = proposed_plan.__wrapped__(SCALED)
        assert plan is not fresh
        for (name, arr), (_, want) in zip(plan_arrays(plan), plan_arrays(fresh), strict=True):
            np.testing.assert_array_equal(arr, want, err_msg=name)
        assert plan.eas_symbol_count == fresh.eas_symbol_count
        assert plan.eas_weights.kind == "eas"
        assert plan.eas_weights.v_slope == fresh.eas_weights.v_slope
        np.testing.assert_array_equal(plan.eas_matrix.candidates, elevation_candidates(SCALED))
        np.testing.assert_array_equal(plan.aas_candidates, azimuth_candidates(SCALED))
        assert plan.aas_unit_phase.shape == (SCALED.n_candidates, SCALED.n_subcarriers)
        np.testing.assert_array_equal(
            plan.aas_unit_phase, aas_unit_phase(SCALED, azimuth_candidates(SCALED))
        )
        scene = generate_scene(SCALED, 2, 0, 5)
        result = hierarchical_detect(SCALED, scene, np.random.default_rng(1))
        assert result.sensing_powers[0] is plan.eas_powers
        lower = proposed_plan(SCALED.replace(tau_s_db=24.0))
        assert lower.eas_symbol_count <= plan.eas_symbol_count


class TestExhaustivePlanCache(PlanCacheContract):
    plan = staticmethod(exhaustive_plan)
    run = staticmethod(run_exhaustive_baseline)

    def test_matches_fresh_computation(self):
        plan = exhaustive_plan(SCALED)
        fresh = exhaustive_plan.__wrapped__(SCALED)
        assert plan is not fresh
        for name, value in fresh._asdict().items():
            np.testing.assert_array_equal(getattr(plan, name), value)
        np.testing.assert_array_equal(plan.theta_grid, eas_elevation_grid(SCALED))
        assert plan.powers.shape == (SCALED.n_subcarriers**2,)


class TestAzimuthOnlyPlanCache(PlanCacheContract):
    plan = staticmethod(azimuth_only_plan)
    run = staticmethod(run_azimuth_only_baseline)

    def test_matches_fresh_computation(self):
        plan = azimuth_only_plan(SCALED)
        fresh = azimuth_only_plan.__wrapped__(SCALED)
        assert plan is not fresh
        for name, value in fresh._asdict().items():
            np.testing.assert_array_equal(getattr(plan, name), value)
        assert plan.powers.shape == (SCALED.n_subcarriers, SCALED.n_subcarriers)
        assert np.all(azimuth_only_plan(SCALED.replace(tau_s_db=24.0)).powers < plan.powers)

    def test_ttd_limit_fails_every_trial(self):
        cfg = SCALED.replace(max_abs_ttd=1e-15)
        for seed in range(2):
            with pytest.raises(ConfigError, match="max_abs_ttd"):
                run_azimuth_only_baseline(cfg, generate_scene(cfg, 1, 0, seed), np.random.default_rng(0))


class TestRunExperiment:
    def make_run(self, **kwargs):
        defaults = dict(
            system=SCALED,
            method="proposed",
            q_targets=1,
            k_users=0,
            trials=3,
            seed=7,
        )
        defaults.update(kwargs)
        return RunConfig(**defaults)

    @pytest.mark.parametrize("method", ["proposed", "exhaustive", "azimuth_only"])
    def test_deterministic_aggregate_csv(self, method):
        run = self.make_run(method=method)
        records1, rows1 = run_experiment(run)
        records2, rows2 = run_experiment(run)
        assert records_to_csv(records1) == records_to_csv(records2)
        assert aggregate_to_csv(rows1) == aggregate_to_csv(rows2)

    @pytest.mark.parametrize("method", ["exhaustive", "azimuth_only"])
    def test_interleaved_runs_match_runs_alone(self, method):
        """The scans reuse work arrays per N. Trials of two runs at one N and
        of one at another N, interleaved, give the bytes of each run alone."""
        runs = [
            self.make_run(method=method, q_targets=3, k_users=1),
            self.make_run(method=method, q_targets=1, include_clutter=False, seed=8),
            self.make_run(method=method, system=ODD_CONFIGS[0], q_targets=2),
        ]
        alone = []
        for run in runs:
            simkit.scan_work.cache_clear()
            alone.append(records_to_csv(run_experiment(run)[0]))
        interleaved = [[] for _ in runs]
        for trial in range(3):
            for records, run in zip(interleaved, runs):
                records.append(run_single_trial(run, 0, trial))
        assert [records_to_csv(records) for records in interleaved] == alone

    def test_trial_records_complete(self):
        run = self.make_run(trials=2)
        records, rows = run_experiment(run)
        assert len(records) == 2
        assert all(r.ok for r in records)
        assert rows[0]["trials_ok"] == 2
        assert rows[0]["trials_failed"] == 0

    def test_failed_trials_counted(self):
        # an impossibly strict sensing threshold forces ceil overflow errors?
        # instead: user separation impossible -> ConfigError recorded
        run = self.make_run(
            k_users=3,
            system=SCALED.replace(user_min_separation=math.pi),
        )
        records, rows = run_experiment(run)
        assert all(not r.ok for r in records)
        assert rows[0]["trials_failed"] == len(records)
        assert np.isnan(rows[0]["mean_distance_error_m"])

    def test_sweep_produces_one_row_per_value(self):
        run = self.make_run(
            trials=2, sweep_var="tau_s_db", sweep_values=(15.0, 25.0)
        )
        records, rows = run_experiment(run)
        assert len(rows) == 2
        assert [r["sweep_value"] for r in rows] == [15.0, 25.0]
        assert len(records) == 4

    def test_csv_schema(self):
        run = self.make_run(trials=2)
        records, rows = run_experiment(run)
        agg = aggregate_to_csv(rows, provenance=["test"])
        lines = [l for l in agg.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "sweep_var",
            "sweep_value",
            "method",
            "mean_distance_error_m",
            "stderr_m",
            "mean_total_sensing_energy",
            "mean_avg_transmit_power",
            "mean_sum_rate",
            "mean_ee",
            "trials_ok",
            "trials_failed",
        ]
        assert len(lines) == 2
        trial_csv = records_to_csv(records)
        assert trial_csv.splitlines()[0].startswith("trial,seed,method")

    def test_aggregate_order_independent(self):
        run = self.make_run(trials=3)
        records, _ = run_experiment(run)
        a = aggregate(records)
        b = aggregate(records[::-1])
        assert a[0]["mean_distance_error_m"] == pytest.approx(
            b[0]["mean_distance_error_m"]
        )
