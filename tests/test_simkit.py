import inspect
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import linear_sum_assignment

import oracles

import squintsense.simkit as simkit
from squintsense.beamforming import (
    BeamformerWeights,
    aas_azimuth_grid,
    aas_unit_phase,
    eas_elevation_grid,
)
from squintsense.channel import Scene, generate_scene, scene_arrays
from squintsense.config import RunConfig, SystemConfig
from squintsense.detection import (
    azimuth_candidates,
    elevation_candidates,
    hierarchical_detect,
    proposed_plan,
)
from squintsense.exceptions import ConfigError, InfeasibleError
from squintsense.power import PowerPlan
from squintsense.simkit import (
    _azimuth_only_bound,
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
    records_to_csv,
    run_azimuth_only_baseline,
    run_exhaustive_baseline,
    run_experiment,
    run_proposed_trial,
    run_single_trial,
    sum_rate,
    transmit_power_metrics,
)
from test_detection import RANDOM_M_H, RANDOM_M_V

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
        """Crossed two-target fixture, estimates in swapped order: the least
        mean distance over every pairing."""
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

    def test_pairs_across_the_sort_order(self):
        """Sorting by (theta, phi) would pair each truth with the other's
        estimate; the least-cost pairing keeps each with its own."""
        h = 40.0
        truth = [(0.50, 1.0), (0.51, 2.0)]
        estimates = [(0.52, 1.0), (0.49, 2.0)]
        own, crossed = (
            np.mean([
                np.linalg.norm(ground_position(h, *t) - ground_position(h, *e))
                for t, e in zip(truth, pairing)
            ])
            for pairing in (estimates, estimates[::-1])
        )
        assert distance_error(h, truth, estimates) == pytest.approx(own, rel=1e-12)
        assert own < crossed

    def test_matches_scipy_assignment(self):
        """Random instances with q = 1..8: the assignment of scipy's
        linear_sum_assignment, and its mean distance on ground positions
        from scalar trig."""
        rng = np.random.default_rng(8)
        h = 40.0
        for q in itertools.chain.from_iterable(itertools.repeat(range(1, 9), 25)):
            cost = rng.random((q, q)) * 10.0 ** rng.integers(-3, 3)
            rows, cols = linear_sum_assignment(cost)
            np.testing.assert_array_equal(simkit._min_cost_assignment(cost), cols)
            truth = rng.uniform((0.3, 0.5), (1.2, 2.6), (q, 2))
            estimates = truth + rng.normal(0.0, 0.05, (q, 2))
            pos_t = [ground_position(h, *t) for t in truth]
            pos_e = [ground_position(h, *e) for e in estimates]
            dist = np.array([[np.linalg.norm(t - e) for e in pos_e] for t in pos_t])
            rows, cols = linear_sum_assignment(dist)
            got = distance_error(h, truth.tolist(), estimates.tolist())
            assert got == pytest.approx(dist[rows, cols].mean(), rel=1e-12)

    def test_single_target_keeps_scalar_bits(self):
        """q = 1: the bits of the scalar expression, each angle through
        numpy's scalar trig, on 2000 random pairs."""
        rng = np.random.default_rng(1)
        for truth, estimate in rng.uniform((0.2, 0.4), (1.3, 2.7), (2000, 2, 2)):
            radius = [40.0 * np.tan(float(theta)) for theta, _ in (truth, estimate)]
            x, y = (
                [r * f(float(phi)) for r, (_, phi) in zip(radius, (truth, estimate))]
                for f in (np.cos, np.sin)
            )
            want = float(np.hypot(x[0] - x[1], y[0] - y[1]))
            assert distance_error(40.0, [tuple(truth)], [tuple(estimate)]) == want

    def test_non_finite_angle_raises_promptly(self):
        """A NaN or infinite angle, in the truth or the estimates, at q = 1 and
        q = 2, raises ConfigError. Run in a subprocess with a timeout, so an
        assignment loop that never ends fails the test instead of hanging."""
        code = (
            "from squintsense.exceptions import ConfigError\n"
            "from squintsense.simkit import distance_error\n"
            "nan, inf = float('nan'), float('inf')\n"
            "for truth, estimates in (\n"
            "    ([(0.5, 1.0)], [(nan, 1.0)]),\n"
            "    ([(0.5, 1.0), (0.7, 2.0)], [(0.5, nan), (0.7, 2.0)]),\n"
            "    ([(0.5, 1.0), (inf, 2.0)], [(0.5, 1.0), (0.7, 2.0)]),\n"
            "):\n"
            "    try:\n"
            "        distance_error(40.0, truth, estimates)\n"
            "    except ConfigError:\n"
            "        print('raised')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        assert done.stdout.split() == ["raised"] * 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            distance_error(40.0, [(0.5, 1.0)], [])

    def test_empty_lists(self):
        assert distance_error(40.0, [], []) == 0.0


class TestSumRate:
    def test_all_zero_sinr(self):
        assert sum_rate(np.zeros((1, 2, 4))) == 0.0

    def test_uniform_threshold_closed_form(self):
        tau, k, n, stages = 9.0, 3, 8, 4
        rate = sum_rate(np.full((stages, k, n), tau))
        assert rate == pytest.approx(k * n * math.log2(1 + tau), rel=1e-12)

    def test_hand_arithmetic(self):
        assert sum_rate(np.array([[[1.0, 3.0]]])) == pytest.approx(3.0)


def frame_plan(symbol_counts, sensing_powers, comm_powers):
    """A PowerPlan of the given stages, with zero SINR."""
    comm_powers = np.array(comm_powers, dtype=float)
    return PowerPlan(
        np.array(symbol_counts), np.array(sensing_powers), 1.0, comm_powers, 0.0 * comm_powers
    )


class TestTransmitPowerMetrics:
    def test_zero_comm_reduces_to_sensing(self):
        plan = frame_plan([2, 3], [[1.0, 2.0], [0.5, 0.5]], np.zeros((2, 0, 2)))
        total, avg = transmit_power_metrics(plan)
        assert total == pytest.approx(2 * 3.0 + 3 * 1.0)
        assert avg == pytest.approx((3.0 * 2 + 1.0 * 3) / 2)

    def test_doubling_symbols_doubles_metrics(self):
        p = [[1.0, 2.0]]
        c = [[[0.1, 0.2]]]
        t1 = transmit_power_metrics(frame_plan([2], p, c))
        t2 = transmit_power_metrics(frame_plan([4], p, c))
        assert t2[0] == pytest.approx(2 * t1[0])
        assert t2[1] == pytest.approx(2 * t1[1])

    def test_single_stage_hand_sum(self):
        plan = frame_plan([5], [[0.2, 0.3]], [[[0.1, 0.1], [0.2, 0.2]]])
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


def every_cell_response(cfg, scene):
    """The uncapped _cell_response on all N^2 cells, (N, N): in one call up to
    N = 45, in calls of 2048 cells above, so a full-scale grid forms no ~100 MB
    array; each cell has its bits whatever cells share its call."""
    n = cfg.n_subcarriers
    rows, cols = np.divmod(np.arange(n * n), n)
    plan, echoes = exhaustive_plan(cfg), scene_arrays(cfg, scene)
    parts = [
        _cell_response(cfg, plan, echoes, rows[i : i + 2048], cols[i : i + 2048])
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
        want = oracles.reference_exhaustive_response(cfg, scene)
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


def exhaustive_noise(cfg, seed):
    """The exhaustive scan's noise on every cell, for the trial generator seed."""
    return oracles.scan_noise(cfg, np.random.default_rng(seed), oracles.exhaustive_variance(cfg))


def magnitude_uniforms(cfg, seed):
    """The magnitude uniforms U0, (N, N), a scan draws from the generator seed."""
    n = cfg.n_subcarriers
    return np.random.default_rng(seed).random((2, n, n))[0]


def full_grid_statistic(cfg, scene, noise):
    """The scan statistic on every cell, from the response of every cell."""
    plan = exhaustive_plan(cfg)
    response = every_cell_response(cfg, scene)
    return np.abs(plan.sqrt_powers[:, None] * response + noise) / plan.expected[:, None]


def spy_scan(monkeypatch, cfg, scene, seed):
    """Run the scan; return (its record, the statistic it ranked, the size of
    each batch of cells it evaluated, the rows whose cells it bounded)."""
    seen = {"batches": [], "bounded": []}

    def response(cfg, plan, echoes, rows, cols):
        seen["batches"].append(len(rows))
        return _cell_response(cfg, plan, echoes, rows, cols)

    def cell_bound(*args):
        seen["bounded"].extend(args[-1])
        return _cell_bound(*args)

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
        assert rec == oracles.full_grid_scan(cfg, scene, seed)
        evaluated = np.isfinite(statistic)
        assert np.all(statistic[~evaluated] == -np.inf)
        assert sum(batches) == evaluated.sum()
        assert evaluated.any() == bool(len(scene.targets))
        assert len(set(bounded)) == len(bounded)
        full = full_grid_statistic(cfg, scene, exhaustive_noise(cfg, seed))
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
        full = full_grid_statistic(cfg, scene, exhaustive_noise(cfg, 3))
        assert np.array_equal(np.argsort(statistic.ravel())[-2:], np.argsort(full.ravel())[-2:])


class TestScanBound:
    """The closed-form bounds hold at every cell of the full-grid statistic."""

    @staticmethod
    def check(cfg, scene, seed):
        statistic = full_grid_statistic(cfg, scene, exhaustive_noise(cfg, seed))
        plan, echoes = exhaustive_plan(cfg), scene_arrays(cfg, scene)
        noise = magnitude_uniforms(cfg, seed), oracles.exhaustive_variance(cfg)
        rows, vertical = _row_bound(cfg, plan, echoes, *noise)
        cells = _cell_bound(cfg, plan, echoes, *noise, vertical, np.arange(cfg.n_subcarriers))
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

    @staticmethod
    def check_azimuth_only(cfg, scene, seed):
        _, statistic = oracles.reference_azimuth_only_scan(cfg, scene, seed)
        noise = oracles.scan_noise(cfg, np.random.default_rng(seed), cfg.noise_variance())
        out = np.empty((cfg.n_subcarriers, cfg.n_subcarriers))
        plan = azimuth_only_plan(cfg)
        bound, _ = _azimuth_only_bound(cfg, plan, scene_arrays(cfg, scene), np.abs(noise), out)
        assert np.all(bound >= statistic)

    @EVERY_CONFIG
    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("include_clutter", [True, False], ids=["clutter", "los"])
    def test_azimuth_only_bound_holds(self, cfg, q, include_clutter):
        for seed in range(4):
            self.check_azimuth_only(cfg, generate_scene(cfg, q, 0, seed, include_clutter), seed)

    @EVERY_CONFIG
    def test_azimuth_only_bound_holds_on_grid_cells(self, cfg):
        self.check_azimuth_only(cfg, on_grid_scene(cfg), 5)


class TestAzimuthOnlyScan:
    """The scan evaluates only cells that may be a top-q cell, each with the
    bits of the broadcast reference, and its record is the reference's,
    whatever scene the reused work arrays held before."""

    @staticmethod
    def check(monkeypatch, cfg, scene, seed):
        seen = []

        def record(method, cfg, scene, statistic, grids, powers):
            seen.append(statistic.copy())
            return _scan_record(method, cfg, scene, statistic, grids, powers)

        monkeypatch.setattr(simkit, "_scan_record", record)
        rec = run_azimuth_only_baseline(cfg, scene, np.random.default_rng(seed))
        monkeypatch.undo()
        want_rec, want = oracles.reference_azimuth_only_scan(cfg, scene, seed)
        assert rec == want_rec
        statistic = seen[0]
        evaluated = np.isfinite(statistic)
        assert statistic[evaluated].tobytes() == want[evaluated].tobytes()
        assert np.all(statistic[~evaluated] == -np.inf)
        assert evaluated.any() == bool(len(scene.targets))

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
        """With no scatterers no cell of the reused statistic is left over."""
        self.check(monkeypatch, SCALED, generate_scene(SCALED, 3, 0, 1), 1)
        self.check(monkeypatch, SCALED, Scene(), 2)

    def test_more_scatterers_than_a_block(self, monkeypatch):
        """20 scatterers at N = 32: a kernel call takes 204 cells, a quarter
        kernel block, so the first batch of 384 cells takes two calls."""
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

    def test_azimuth_only_holds_no_scatterer_grid(self):
        """No (scatterer, N, N) array: at full scale with 12 scatterers, where
        one such array alone is 12 N x N float64 arrays, the azimuth-only
        scan's traced peak stays below 8 of them."""
        cfg = SystemConfig()
        scene = generate_scene(cfg, 8, 0, 1)
        assert len(scene_arrays(cfg, scene)[2]) == 12
        assert traced_peak(run_azimuth_only_baseline, cfg, scene) < 8 * cfg.n_subcarriers**2 * 8


# the scaled config of the benchmark workloads
COMM_CFG = SystemConfig(m_h=16, m_v=16, n_subcarriers=32, n_candidates=512)


def detected_stages(cfg, q, k, seed, include_clutter=True):
    """(scene, detection result) of one detection run."""
    scene = generate_scene(cfg, q, k, (seed, 0), include_clutter)
    return scene, hierarchical_detect(cfg, scene, np.random.default_rng((seed, 1)))


def reference_plan_args(cfg, scene, result):
    return cfg, scene, oracles.stage_beams(cfg, result), result.sensing_powers


class TestCommPlan:
    @staticmethod
    def assert_same_plan(cfg, scene, result):
        got = allocate_comm_plan(cfg, scene, result)
        comm_powers, sinrs, tau_eff = oracles.reference_comm_plan(
            *reference_plan_args(cfg, scene, result)
        )
        assert got.effective_tau_c == tau_eff
        assert got.symbol_counts.tolist() == list(result.symbol_counts)
        np.testing.assert_array_equal(got.sensing_powers, np.stack(result.sensing_powers))
        assert len(got.comm_powers) == len(comm_powers) == len(result.symbol_counts)
        assert len(got.sinrs) == len(sinrs)
        for a, b in zip([*got.comm_powers, *got.sinrs], comm_powers + sinrs):
            np.testing.assert_array_equal(a, b)
        # the trial metrics sum over the powers: they must round as a sum
        # one stage at a time does
        assert transmit_power_metrics(got) == oracles.reference_power_metrics(
            result.symbol_counts, result.sensing_powers, comm_powers
        )
        assert sum_rate(got.sinrs) == oracles.reference_sum_rate(sinrs)
        return got.effective_tau_c

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
        stages = detected_stages(cfg, 2, 6, 5)
        errors = []
        for plan, args in (
            (allocate_comm_plan, (cfg, *stages)),
            (oracles.reference_comm_plan, reference_plan_args(cfg, *stages)),
        ):
            with pytest.raises(InfeasibleError) as info:
                plan(*args)
            errors.append((str(info.value), info.value.last_threshold))
        assert errors[0] == errors[1]

    def test_frame_beams_evaluated_once_per_trial(self, monkeypatch):
        """Detection makes one power_gain call for the EAS beam and one for
        the AAS beams stacked with the users' beams; the comm plan makes none."""
        cfg = COMM_CFG.replace(tau_c_db=20.0)
        calls = []
        power_gain = BeamformerWeights.power_gain

        def counted(self, *args):
            calls.append(self.kind)
            return power_gain(self, *args)

        monkeypatch.setattr(BeamformerWeights, "power_gain", counted)
        scene, result = detected_stages(cfg, 4, 6, 3)
        assert len(result.symbol_counts) > 2
        assert calls == ["eas", "stack"]
        allocate_comm_plan(cfg, scene, result)
        assert calls == ["eas", "stack"]

    def test_backed_off_target_is_item_2(self):
        """The _backoff hook of bench/run.py reads the configured target as
        args[0].tau_c and the backed-off one as result[2] of
        allocate_comm_plan; a reordered PowerPlan would silently misreport
        its power.backoff_db."""
        cfg = COMM_CFG.replace(tau_c_db=20.0)
        scene, result = detected_stages(cfg, 4, 6, 0)
        plan = allocate_comm_plan(cfg, scene, result)
        assert plan[2] == plan.effective_tau_c < cfg.tau_c
        assert next(iter(inspect.signature(allocate_comm_plan).parameters)) == "cfg"


class TestProposedRecord:
    """run_proposed_trial's record against oracles.reference_proposed_trial,
    field by field."""

    @pytest.mark.parametrize(
        "cfg, q, k, include_clutter",
        [
            (COMM_CFG, 2, 2, True),
            (COMM_CFG.replace(tau_c_db=20.0), 4, 6, True),
            (COMM_CFG, 0, 2, True),
            (COMM_CFG, 2, 0, True),
            (COMM_CFG, 3, 6, False),
            (COMM_CFG.replace(m_h=8, m_v=13), 2, 2, True),
        ],
        ids=["q2k2", "crowded", "q0k2", "q2k0", "q3k6-los", "mh8-mv13"],
    )
    def test_matches_reference_trial(self, cfg, q, k, include_clutter):
        for seed in range(5):
            scene = generate_scene(cfg, q, k, (seed, 0), include_clutter)
            got = run_proposed_trial(cfg, scene, np.random.default_rng((seed, 1)))
            want = oracles.reference_proposed_trial(cfg, scene, np.random.default_rng((seed, 1)))
            for name in simkit.TRIAL_FIELDS:
                np.testing.assert_equal(getattr(got, name), getattr(want, name), name)


RANDOM_RECORD_CONFIGS = 50
RANDOM_RECORD_SKIPS = 0  # configs of the seed-27 draw that raise ConfigError


class TestRandomConfigRecords:
    """Every method's record against its reference, field by field, on seeded
    random configs in the ranges of test_detection.TestRandomConfigs (N in
    8..48, L = N {1, ..., 64}): run_proposed_trial against
    oracles.reference_proposed_trial, run_exhaustive_baseline against
    oracles.full_grid_scan and run_azimuth_only_baseline against
    oracles.reference_azimuth_only_scan. Each
    config runs q in {0, 1, 2, 3} targets with clutter on and off, and k = 0
    or 3 users by turns, so every (q, k, clutter) case runs on 25 configs:
    q = 0 gives frames with no AAS stage, and with k = 0 no beam at all.
    A scene's targets and clutter do not depend on k, and the scans read no
    user. Of the 50 drawn configs, RANDOM_RECORD_SKIPS (0) raise ConfigError."""

    def test_every_method_matches_its_reference(self):
        rng = np.random.default_rng(27)
        skipped = bounded = 0
        for i in range(RANDOM_RECORD_CONFIGS):
            n = int(rng.integers(8, 49))
            fields = dict(
                m_h=int(rng.choice(RANDOM_M_H)), m_v=int(rng.choice(RANDOM_M_V)),
                n_subcarriers=n, n_candidates=n * int(rng.integers(1, 65)),
            )
            try:
                cfg = SystemConfig(**fields)
                runs = []
                for q, include_clutter in itertools.product((0, 1, 2, 3), (True, False)):
                    k = 3 * ((i + q) % 2)
                    scene = generate_scene(cfg, q, k, (i, q), include_clutter)
                    seed = (i, q, 1)
                    runs += [
                        (
                            run_proposed_trial(cfg, scene, np.random.default_rng(seed)),
                            oracles.reference_proposed_trial(
                                cfg, scene, np.random.default_rng(seed)
                            ),
                        ),
                        (
                            run_exhaustive_baseline(cfg, scene, np.random.default_rng(seed)),
                            oracles.full_grid_scan(cfg, scene, seed),
                        ),
                        (
                            run_azimuth_only_baseline(cfg, scene, np.random.default_rng(seed)),
                            oracles.reference_azimuth_only_scan(cfg, scene, seed)[0],
                        ),
                    ]
            except ConfigError:
                skipped += 1
                continue
            bounded += cfg.n_candidates * n > simkit.FEJER_BLOCK  # eas_pursuit takes its bounds
            for got, want in runs:
                for name in simkit.TRIAL_FIELDS:
                    np.testing.assert_equal(
                        getattr(got, name), getattr(want, name), f"{name} {fields}"
                    )
        assert skipped == RANDOM_RECORD_SKIPS
        assert 0 < bounded < RANDOM_RECORD_CONFIGS - skipped, bounded


class TestTrialCallCounts:
    """Per-trial work that must not grow with the number of stages or users."""

    def test_one_echo_form_and_flat_kernel_count(self, monkeypatch):
        import squintsense.beamforming as beamforming
        import squintsense.channel as channel
        import squintsense.detection as detection

        cfg = COMM_CFG.replace(tau_c_db=20.0)
        proposed_plan(cfg)  # the cached plan is built once per config, not per trial
        counts = {"scene_arrays": 0, "kernel": 0, "beamformers": 0}

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
        init = beamforming.BeamformerWeights.__init__

        def counted_init(self, *args, **kwargs):
            counts["beamformers"] += 1
            init(self, *args, **kwargs)

        # the AAS and user beams of the frame are one beamformer, not A + K
        monkeypatch.setattr(beamforming.BeamformerWeights, "__init__", counted_init)
        seen = set()
        for q, k in ((4, 6), (4, 1), (1, 6), (3, 3)):
            for seed in range(6):
                scene = generate_scene(cfg, q, k, (seed, 0))
                counts.update(scene_arrays=0, kernel=0, beamformers=0)
                result = hierarchical_detect(cfg, scene, np.random.default_rng((seed, 1)))
                allocate_comm_plan(cfg, scene, result)
                assert counts["scene_arrays"] == 1
                assert counts["beamformers"] == 1
                seen.add((len(result.symbol_counts), k, counts["kernel"]))
        stages = {n for n, _, _ in seen}
        assert len(stages) >= 3 and max(stages) >= 4
        # the EAS beam 1, the AAS beams stacked with the users' beams 2
        assert {kernel for _, _, kernel in seen} == {3}


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
            scene = Scene(np.zeros((q, 2)))
            _scan_record("exhaustive", SCALED, scene, statistic, grids, np.ones(n * n))
            flat = np.argsort(statistic.ravel())[::-1][:q]
            assert picked.pop() == [(float(i // n), float(i % n)) for i in flat]


def plan_arrays(plan):
    """(name, array) of every ndarray of a method plan."""
    for name, value in plan._asdict().items():
        if isinstance(value, np.ndarray):
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
        np.testing.assert_array_equal(plan.eas_candidates, elevation_candidates(SCALED))
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


class TestScanNoiseSampler:
    """The scans draw their noise as uniforms U and turn them into circular
    Gaussian noise of variance s^2 by _noise_magnitude and _noise_at. The
    bounds were fixed before any run: every KS test passes at p >= 1e-3 on
    its fixed seed, over 20,000 rows of N = 32 cells."""

    ROWS, N, VARIANCE = 20_000, 32, 0.37

    def sample(self, seed):
        u = np.random.default_rng(seed).random((2, self.ROWS, self.N))
        magnitude = simkit._noise_magnitude(u[0], self.VARIANCE)
        return u, simkit._noise_at(magnitude, u[1])

    def test_power_is_exponential_and_phase_uniform(self):
        _, noise = self.sample(1)
        power = (np.abs(noise) ** 2 / self.VARIANCE).ravel()
        assert stats.kstest(power, "expon").pvalue >= 1e-3
        phase = (np.angle(noise.ravel()) / (2 * np.pi)) % 1.0
        assert stats.kstest(phase, "uniform").pvalue >= 1e-3
        scale = np.sqrt(self.VARIANCE / 2)
        for part in (noise.real.ravel(), noise.imag.ravel()):
            assert stats.kstest(part, "norm", args=(0.0, scale)).pvalue >= 1e-3

    def test_row_maxima_follow_their_cdf(self):
        """A row's largest |n|^2 / s^2, from its largest U0, has the CDF
        (1 - e^-x)^N of the largest of N Exp(1) draws."""
        u, _ = self.sample(2)
        largest = simkit._noise_magnitude(u[0].max(axis=1), self.VARIANCE) ** 2 / self.VARIANCE
        result = stats.kstest(largest, lambda x: (-np.expm1(-x)) ** self.N)
        assert result.pvalue >= 1e-3

    def test_matches_eager_normal_draw_at_fixed_cells(self):
        """Two-sample KS tests of the materialized noise against the eager
        draw of 2 N^2 normals at three fixed cells: 6,667 scans a side,
        20,001 values."""
        cfg = SCALED
        variance = oracles.exhaustive_variance(cfg)
        cells = np.array([0, 5 * 32 + 17, 32 * 32 - 1])
        draws = {"uniform": [], "eager": []}
        rng = {"uniform": np.random.default_rng(3), "eager": np.random.default_rng(4)}
        sampler = {"uniform": oracles.scan_noise, "eager": oracles.eager_scan_noise}
        for _ in range(-(-self.ROWS // len(cells))):
            for kind in draws:
                draws[kind].append(sampler[kind](cfg, rng[kind], variance).take(cells))
        uniform, eager = (np.concatenate(draws[kind]) for kind in ("uniform", "eager"))
        for part in (np.abs, np.real, np.imag):
            assert stats.ks_2samp(part(uniform), part(eager)).pvalue >= 1e-3

    @given(
        u=st.lists(
            st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0 - 2.0**-53)),
            min_size=1,
            max_size=64,
        ),
        ulps=st.integers(0, 3),
        variance=st.floats(1e-30, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_row_max_magnitude_bounds_every_cell(self, u, ulps, variance):
        """The transform of a row's largest uniform is >= the transform of
        every uniform in the row, and equal at the largest; rows hold values
        a few ulps apart, where a non-monotone log1p would show."""
        row = np.array(u)
        row = np.minimum(np.concatenate([row, row + ulps * np.spacing(row)]), 1.0 - 2.0**-53)
        cells = simkit._noise_magnitude(row, variance)
        largest = simkit._noise_magnitude(row.max(keepdims=True), variance)[0]
        assert np.all(largest >= cells)
        assert largest == cells[row.argmax()]


class TestScanBlocks:
    """The threshold loop splits every callback call at its scan's cap: at
    most simkit._scan_block rows or cells for the exhaustive scan, FEJER_BLOCK
    // (4 S) for the azimuth-only scan. The split is safe because the uncapped
    helpers give every row and cell the bits it has in a call of its own."""

    @pytest.mark.parametrize("q", [2, 5, 8])
    def test_capped_calls_keep_each_cells_bits(self, q):
        """The uncapped helpers at full scale: 40 rows and 300 cells in one
        call each, every row and cell with the bits of a call of its own."""
        cfg = SystemConfig()
        n = cfg.n_subcarriers
        scene = generate_scene(cfg, q, 0, (q, 0))
        plan, echoes = exhaustive_plan(cfg), scene_arrays(cfg, scene)
        noise = magnitude_uniforms(cfg, q), oracles.exhaustive_variance(cfg)
        _, vertical = _row_bound(cfg, plan, echoes, *noise)
        rng = np.random.default_rng(q)
        rows = rng.permutation(n)[:40]
        cells = rng.choice(n * n, 300, replace=False)
        r, c = np.divmod(cells, n)
        bound = _cell_bound(cfg, plan, echoes, *noise, vertical, rows)
        response = _cell_response(cfg, plan, echoes, r, c)
        for i, row in enumerate(rows):
            alone = _cell_bound(cfg, plan, echoes, *noise, vertical, np.array([row]))
            np.testing.assert_array_equal(bound[i], alone[0])
        for i in range(len(cells)):
            assert response[i] == _cell_response(cfg, plan, echoes, r[i : i + 1], c[i : i + 1])[0]

    @pytest.mark.parametrize("q", [2, 5, 8])
    def test_loop_caps_every_callback_call(self, monkeypatch, q):
        """Full-scale scans: every loop request goes out in pieces of at most
        the scan's cap, every exhaustive kernel input holds at most
        FEJER_BLOCK // 2 slopes, and each record is its reference's."""
        cfg = SystemConfig()
        n = cfg.n_subcarriers
        scene = generate_scene(cfg, q, 0, (q, 0))
        echoes = scene_arrays(cfg, scene)
        scatterers = len(echoes[2])
        caps = {
            "exhaustive": simkit._scan_block(cfg, echoes),
            "azimuth_only": simkit.FEJER_BLOCK // max(1, 4 * scatterers),
        }
        assert caps["exhaustive"] * scatterers * n <= simkit.FEJER_BLOCK // 2
        assert (caps["exhaustive"] >= 8) == (q == 2)  # the q = 2 first batch of 8 fits
        seen = {scan: {"blocks": [], "requests": [], "calls": [], "kernel": []} for scan in caps}
        scan = None

        def counted(key, fn, size=lambda *args: len(args[-1])):  # rows or cells
            def wrapper(*args, **kwargs):
                seen[scan][key].append(size(*args))
                return fn(*args, **kwargs)
            return wrapper

        def top_q_scan(work, q, first, row_bound, cell_bound, evaluate, batch, block):
            seen[scan]["blocks"].append(block)
            cell_bound, evaluate = counted("calls", cell_bound), counted("calls", evaluate)
            return real_scan(work, q, first, row_bound, cell_bound, evaluate, batch, block)

        real_scan = simkit._top_q_scan
        monkeypatch.setattr(simkit, "_top_q_scan", top_q_scan)
        monkeypatch.setattr(simkit, "_in_blocks", counted("requests", simkit._in_blocks))
        for name in ("_cell_bound", "_cell_response"):
            monkeypatch.setattr(simkit, name, counted("calls", getattr(simkit, name)))
        monkeypatch.setattr(simkit, "uniform_phase_power", counted(
            "kernel", simkit.uniform_phase_power, lambda slope, m: np.size(slope)
        ))
        scan = "exhaustive"
        rec = run_exhaustive_baseline(cfg, scene, np.random.default_rng(q))
        assert rec == oracles.full_grid_scan(cfg, scene, q)
        scan = "azimuth_only"
        rec = run_azimuth_only_baseline(cfg, scene, np.random.default_rng(q))
        assert rec == oracles.reference_azimuth_only_scan(cfg, scene, q)[0]
        for scan, cap in caps.items():
            assert seen[scan]["blocks"] == [cap]
            assert 0 < max(seen[scan]["calls"]) <= cap
            # at q = 5 and q = 8 the loop asks for more than one call's worth
            assert (max(seen[scan]["requests"]) > cap) == (q != 2)
        assert max(seen["exhaustive"]["kernel"]) <= simkit.FEJER_BLOCK // 2

    def test_no_row_set_bounded_empty(self, monkeypatch):
        """Full-scale scans at q = 2 often end with no row bound above the
        q-th statistic while cells of earlier rows are still live: the loop
        then evaluates those cells without a cell_bound call on no rows, and
        each record is its reference's."""
        cfg = SystemConfig()
        sizes = []
        real_scan = simkit._top_q_scan

        def top_q_scan(work, q, first, row_bound, cell_bound, *rest):
            def spied(rows):
                sizes.append(len(rows))
                return cell_bound(rows)
            return real_scan(work, q, first, row_bound, spied, *rest)

        monkeypatch.setattr(simkit, "_top_q_scan", top_q_scan)
        for seed in range(3):
            scene = generate_scene(cfg, 2, 2, (seed, 0))
            rec = run_exhaustive_baseline(cfg, scene, np.random.default_rng(seed))
            assert rec == oracles.full_grid_scan(cfg, scene, seed)
            rec = run_azimuth_only_baseline(cfg, scene, np.random.default_rng(seed))
            assert rec == oracles.reference_azimuth_only_scan(cfg, scene, seed)[0]
        assert sizes and min(sizes) > 0

    @pytest.mark.parametrize(
        "length, block, sizes",
        [(20, 10, [10, 10]), (30, 10, [10, 10, 10]), (21, 10, [7, 7, 7]), (7, 10, [7])],
    )
    def test_fewest_pieces_of_at_most_block(self, length, block, sizes):
        """A length that is an exact multiple of the cap goes in length / cap
        calls, not one more."""
        seen = []

        def fn(a):
            seen.append(len(a))
            return a

        out = simkit._in_blocks(fn, block, np.arange(length))
        assert seen == sizes
        assert np.array_equal(out, np.arange(length))

    @pytest.mark.parametrize("q", [1, 3])
    def test_statistic_independent_of_block(self, q):
        """A toy statistic: the loop's work array comes out bit-equal whether
        each callback call takes 1 row or cell, 3, or all of them."""
        n = 16
        rng = np.random.default_rng(q)
        values = rng.rayleigh(size=(n, n))
        bounds = values + rng.uniform(0.0, 1.0, (n, n))
        results = []
        for block in (1, 3, n * n):
            work = simkit.scan_work.__wrapped__(n)  # fresh arrays for each block
            sizes = []

            def cell_bound(rows):
                sizes.append(len(rows))
                return bounds[rows]

            def evaluate(cells):
                sizes.append(len(cells))
                return values.take(cells)

            statistic = simkit._top_q_scan(
                work, q, 2, bounds.max(axis=1), cell_bound, evaluate, 4, block
            )
            assert max(sizes) <= block
            results.append(statistic.tobytes())
        assert results[0] == results[1] == results[2]
        evaluated = np.isfinite(statistic)
        assert np.array_equal(statistic[evaluated], values[evaluated])
        top = np.sort(values.ravel())[-q:]
        assert np.array_equal(np.sort(statistic.ravel())[-q:], top)
