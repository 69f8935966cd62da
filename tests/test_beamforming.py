import functools
import math

import numpy as np
import pytest

import oracles

from squintsense.beamforming import (
    aas_azimuth_grid,
    aas_beamformer,
    comm_beamformer,
    eas_beamformer,
    eas_elevation_grid,
    frame_beams,
)
from squintsense.config import SystemConfig
from squintsense.exceptions import ConfigError
from squintsense.geometry import uniform_phase_power


SMALL = SystemConfig(m_h=16, m_v=16, n_subcarriers=32, n_candidates=32)


class TestGrids:
    def test_elevation_grid_endpoints(self):
        cfg = SystemConfig()
        grid = eas_elevation_grid(cfg)
        assert grid[0] == pytest.approx(cfg.theta_min, abs=1e-12)
        assert grid[-1] == pytest.approx(cfg.theta_max, abs=1e-12)

    def test_azimuth_grid_endpoints(self):
        cfg = SystemConfig()
        grid = aas_azimuth_grid(cfg)
        assert grid[0] == pytest.approx(cfg.phi_min, abs=1e-12)
        assert grid[-1] == pytest.approx(cfg.phi_max, abs=1e-12)

    def test_grids_monotone_increasing(self):
        for cfg in (SystemConfig(), SMALL):
            assert np.all(np.diff(eas_elevation_grid(cfg)) > 0)
            assert np.all(np.diff(aas_azimuth_grid(cfg)) > 0)

    def test_grid_inside_roi(self):
        cfg = SMALL
        grid = eas_elevation_grid(cfg)
        assert np.all(grid >= cfg.theta_min - 1e-12)
        assert np.all(grid <= cfg.theta_max + 1e-12)


class TestVerticalChain:
    def test_eas_vertical_gain_is_one_on_grid(self):
        """Subcarrier n's vertical beam points exactly at grid angle n."""
        cfg = SMALL
        bf = eas_beamformer(cfg)
        grid = eas_elevation_grid(cfg)
        f = cfg.subcarrier_offsets()
        for n in range(cfg.n_subcarriers):
            g = oracles.vertical_gain(bf, grid[n], f[n])
            assert abs(g) == pytest.approx(1.0, abs=1e-9)

    def test_vertical_gain_matches_explicit_weights(self):
        """Closed-form chain gain equals a_v . w_v with materialized vectors."""
        cfg = SMALL
        bf = eas_beamformer(cfg)
        f = cfg.subcarrier_offsets()
        rng = np.random.default_rng(7)
        for n in (0, 5, 31):
            w_v = oracles.vertical_weights(bf, n)
            for theta in rng.uniform(cfg.theta_min, cfg.theta_max, 5):
                a_v = oracles.vertical_steering(theta, f[n], cfg.m_v, cfg.fc)
                explicit = np.dot(a_v, w_v)
                assert oracles.vertical_gain(bf, theta, f[n]) == pytest.approx(explicit, abs=1e-10)

    def test_eas_ttd_slope_formula(self):
        cfg = SMALL
        bf = eas_beamformer(cfg)
        slope = (
            math.cos(cfg.theta_min) - math.cos(cfg.theta_max) * (1 + cfg.bandwidth / cfg.fc)
        ) / (2 * cfg.bandwidth)
        assert bf.v_slope == pytest.approx(slope, rel=1e-12)
        assert bf.h_slope == 0.0


class TestAasChain:
    def test_gain_matches_explicit_weights(self):
        """Factorized closed-form gain equals a(theta,phi,f_n) . w_n."""
        cfg = SMALL
        theta_hat = math.radians(45.0)
        bf = aas_beamformer(cfg, theta_hat)
        f = cfg.subcarrier_offsets()
        rng = np.random.default_rng(11)
        for n in (0, 9, 31):
            w = oracles.weight_vector(bf, n)
            for _ in range(5):
                theta = rng.uniform(cfg.theta_min, cfg.theta_max)
                phi = rng.uniform(cfg.phi_min, cfg.phi_max)
                a = oracles.upa_steering(cfg, theta, phi, f[n])
                explicit = np.dot(a, w)
                assert oracles.gain(bf, theta, phi, n) == pytest.approx(explicit, abs=1e-9)

    def test_unit_gain_on_own_grid(self):
        cfg = SMALL
        theta_hat = math.radians(40.0)
        bf = aas_beamformer(cfg, theta_hat)
        grid = aas_azimuth_grid(cfg)
        for n in range(cfg.n_subcarriers):
            assert abs(oracles.gain(bf, theta_hat, grid[n], n)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("cfg", [SMALL, SystemConfig()], ids=["scaled", "full"])
    def test_vertical_power_is_exactly_one_at_theta_hat(self, cfg):
        """The vertical phase at theta_hat cancels to round-off on every
        subcarrier, far inside the kernel's limit branch, so the AAS
        dictionary needs no vertical factor."""
        f = cfg.subcarrier_offsets()
        thetas = np.random.default_rng(8).uniform(cfg.theta_min, cfg.theta_max, 50)
        for theta_hat in np.concatenate([[cfg.theta_min, cfg.theta_max], thetas]):
            bf = aas_beamformer(cfg, theta_hat)
            vertical = uniform_phase_power(bf._vertical_phase(theta_hat, f), cfg.m_v)
            np.testing.assert_array_equal(vertical, 1.0)

    def test_vertical_lock_holds_off_band_center(self):
        """The elevation response stays peaked at theta_hat on every subcarrier."""
        cfg = SMALL
        theta_hat = math.radians(55.0)
        bf = aas_beamformer(cfg, theta_hat)
        grid = aas_azimuth_grid(cfg)
        thetas = np.linspace(cfg.theta_min, cfg.theta_max, 400)
        for n in (0, 16, 31):
            gains = np.abs(oracles.gain(bf, thetas, grid[n], n))
            peak = thetas[np.argmax(gains)]
            assert abs(peak - theta_hat) < (thetas[1] - thetas[0]) * 1.5


class TestCommChain:
    def test_unit_gain_at_user_everywhere_in_band(self):
        cfg = SMALL
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = rng.uniform(cfg.theta_min, cfg.theta_max)
            phi = rng.uniform(cfg.phi_min, cfg.phi_max)
            bf = comm_beamformer(cfg, theta, phi)
            for n in range(cfg.n_subcarriers):
                assert abs(oracles.gain(bf, theta, phi, n)) == pytest.approx(1.0, abs=1e-12)

    def test_gain_matches_explicit_weights(self):
        cfg = SMALL
        bf = comm_beamformer(cfg, 0.8, 1.3)
        f = cfg.subcarrier_offsets()
        a = oracles.upa_steering(cfg, 0.6, 1.8, f[17])
        explicit = np.dot(a, oracles.weight_vector(bf, 17))
        assert oracles.gain(bf, 0.6, 1.8, 17) == pytest.approx(explicit, abs=1e-9)


class TestPowerGain:
    """power_gain (Fejer kernel) against the explicit |a . w|^2."""

    def probe_angles(self, cfg, theta_hat, rng):
        """The design grid at theta_hat plus random ROI angles: peaks and sidelobes."""
        theta = np.concatenate(
            [np.full(cfg.n_subcarriers, theta_hat), rng.uniform(cfg.theta_min, cfg.theta_max, 8)]
        )
        phi = np.concatenate(
            [aas_azimuth_grid(cfg), rng.uniform(cfg.phi_min, cfg.phi_max, 8)]
        )
        return theta, phi

    @pytest.mark.parametrize("kind", ["aas", "comm"])
    def test_matches_weight_vector_at_every_subcarrier(self, kind):
        cfg = SMALL
        rng = np.random.default_rng(21)
        theta_hat = math.radians(50.0)
        if kind == "aas":
            bf = aas_beamformer(cfg, theta_hat)
        else:
            bf = comm_beamformer(cfg, theta_hat, math.radians(100.0))
        theta, phi = self.probe_angles(cfg, theta_hat, rng)
        n_idx = np.arange(cfg.n_subcarriers)
        power = bf.power_gain(theta[:, None], phi[:, None], n_idx)  # (angles, N)
        assert power.shape == (len(theta), cfg.n_subcarriers)
        f = cfg.subcarrier_offsets()
        w = [oracles.weight_vector(bf, n) for n in n_idx]
        explicit = np.array(
            [
                [abs(oracles.upa_steering(cfg, th, ph, f[n]) @ w[n]) ** 2 for n in n_idx]
                for th, ph in zip(theta, phi)
            ]
        )
        # the explicit M-term sum is accurate only to ~1e-15 of the unit
        # beam peak in deep sidelobes, hence the absolute floor at 1e-12 * peak
        np.testing.assert_allclose(power, explicit, rtol=1e-12, atol=1e-12)

    def test_eas_matches_squared_complex_gain(self):
        cfg = SMALL
        bf = eas_beamformer(cfg)
        theta = np.linspace(cfg.theta_min - 0.05, cfg.theta_max + 0.05, 50)[:, None]
        n_idx = np.arange(cfg.n_subcarriers)
        power = bf.power_gain(theta, 1.5, n_idx)
        np.testing.assert_allclose(
            power, np.abs(oracles.gain(bf, theta, 1.5, n_idx)) ** 2, rtol=1e-12, atol=0
        )
        assert np.all(power[0] == 0.0) and np.all(power[-1] == 0.0)

    def test_scalar_arguments(self):
        bf = aas_beamformer(SMALL, 0.7)
        expected = abs(oracles.gain(bf, 0.7, 1.2, 3)) ** 2
        assert bf.power_gain(0.7, 1.2, 3) == pytest.approx(expected, rel=1e-12)


class TestStackedPowerGain:
    """frame_beams' power_gain against each beam's own call, bit for bit."""

    @staticmethod
    def frame(cfg, aas_count, user_count, rng):
        """(theta_hat, users) of a frame and its single beams, in frame order."""
        theta_hat = rng.uniform(cfg.theta_min, cfg.theta_max, aas_count)
        users = np.column_stack(
            [
                rng.uniform(cfg.theta_min, cfg.theta_max, user_count),
                rng.uniform(cfg.phi_min, cfg.phi_max, user_count),
            ]
        )
        beams = [aas_beamformer(cfg, t) for t in theta_hat]
        beams += [comm_beamformer(cfg, t, p) for t, p in users]
        return theta_hat, users, beams

    @pytest.mark.parametrize("cfg", [SMALL, SystemConfig()], ids=["scaled", "full"])
    @pytest.mark.parametrize("kind", ["aas", "comm"])
    def test_equals_per_beam_evaluation(self, cfg, kind):
        rng = np.random.default_rng(31)
        # scatterer-like angle rows, the AAS design grid and one scalar probe
        theta = rng.uniform(cfg.theta_min, cfg.theta_max, 9)[:, None]
        phi = rng.uniform(cfg.phi_min, cfg.phi_max, 9)[:, None]
        n_idx = np.arange(cfg.n_subcarriers)
        probes = (
            (theta, phi, n_idx),
            (0.8, aas_azimuth_grid(cfg), n_idx),
            (0.7, 1.2, 3),
        )
        for count in (1, 5):
            counts = (count, 0) if kind == "aas" else (0, count)
            theta_hat, users, beams = self.frame(cfg, *counts, rng)
            frame = frame_beams(cfg, theta_hat, users)
            assert frame.kind == "stack"
            for args in probes:
                got = frame.power_gain(*args)
                want = [bf.power_gain(*args) for bf in beams]
                assert got.shape == (count, *np.shape(want[0]))
                for row, one in zip(got, want):
                    np.testing.assert_array_equal(row, one)

    def test_mixed_kinds_keep_their_order(self):
        rng = np.random.default_rng(32)
        theta_hat, users, beams = self.frame(SMALL, 2, 3, rng)
        theta = rng.uniform(SMALL.theta_min, SMALL.theta_max, 6)[:, None]
        phi = rng.uniform(SMALL.phi_min, SMALL.phi_max, 6)[:, None]
        n_idx = np.arange(SMALL.n_subcarriers)
        got = frame_beams(SMALL, theta_hat, users).power_gain(theta, phi, n_idx)
        assert len(got) == len(beams) == 5
        for row, bf in zip(got, beams):
            np.testing.assert_array_equal(row, bf.power_gain(theta, phi, n_idx))

    def test_empty_frame(self):
        phi, n_idx = aas_azimuth_grid(SMALL)[:, None], np.arange(SMALL.n_subcarriers)
        empty = frame_beams(SMALL, np.zeros(0), np.zeros((0, 2))).power_gain(0.8, phi, n_idx)
        assert empty.shape == (0, len(phi), len(n_idx))

    def test_stack_is_held_to_max_abs_ttd(self):
        beams = [aas_beamformer(SMALL, 0.7), comm_beamformer(SMALL, 0.9, 1.1)]
        largest = float(max(
            max((SMALL.m_h - 1) * abs(b.h_slope), (SMALL.m_v - 1) * abs(b.v_slope)) for b in beams
        ))
        cfg = SMALL.replace(max_abs_ttd=largest)
        frame = frame_beams(cfg, [0.7], [(0.9, 1.1)])
        assert frame.h_slope.shape == frame.v_slope.shape == (2,)
        with pytest.raises(ConfigError, match="max_abs_ttd"):
            frame_beams(cfg.replace(max_abs_ttd=math.nextafter(largest, 0.0)), [0.7], [(0.9, 1.1)])


class TestEasBeamformer:
    def test_zero_outside_roi(self):
        cfg = SMALL
        bf = eas_beamformer(cfg)
        assert bf.power_gain(cfg.theta_min - 0.05, 1.5, 0) == 0.0
        assert bf.power_gain(0.5, cfg.phi_max + 0.05, 0) == 0.0


class TestTtdLimits:
    def test_max_abs_ttd_enforced(self):
        cfg = SMALL.replace(max_abs_ttd=1e-15)
        with pytest.raises(ConfigError):
            aas_beamformer(cfg, 0.7)

    def test_default_unbounded(self):
        aas_beamformer(SMALL, 0.7)  # no error

    def test_aas_ttd_slopes(self):
        cfg = SMALL
        theta_hat = 0.9
        bf = aas_beamformer(cfg, theta_hat)
        v_slope = -math.cos(theta_hat) / (2 * cfg.fc)
        h_slope = (
            math.sin(theta_hat)
            * (math.cos(cfg.phi_min) - math.cos(cfg.phi_max) * (1 + cfg.bandwidth / cfg.fc))
            / (2 * cfg.bandwidth)
        )
        assert bf.v_slope == pytest.approx(v_slope, rel=1e-12)
        assert bf.h_slope == pytest.approx(h_slope, rel=1e-12)

    def test_comm_ttd_slopes(self):
        cfg = SMALL
        theta_u, phi_u = 0.8, 1.3
        bf = comm_beamformer(cfg, theta_u, phi_u)
        assert bf.v_slope == pytest.approx(-math.cos(theta_u) / (2 * cfg.fc), rel=1e-12)
        assert bf.h_slope == pytest.approx(
            -math.sin(theta_u) * math.cos(phi_u) / (2 * cfg.fc), rel=1e-12
        )

    @pytest.mark.parametrize(
        "kind, cfg",
        [("eas", SMALL), ("aas", SMALL), ("comm", SMALL), ("aas", SMALL.replace(m_v=1))],
        ids=["eas", "aas", "comm", "aas-one-row"],
    )
    def test_max_abs_ttd_boundary(self, kind, cfg):
        """The largest delay, at the last element of an axis, is allowed; one
        ulp less is not. Slopes are formed as in the constructors."""
        theta, phi = 0.9, 1.3
        ratio = 1.0 + cfg.bandwidth / cfg.fc
        if kind == "eas":
            build, h_slope = eas_beamformer, 0.0
            v_slope = (
                np.cos(cfg.theta_min) - np.cos(cfg.theta_max) * ratio
            ) / (2.0 * cfg.bandwidth)
        elif kind == "aas":
            v_slope = -np.cos(theta) / (2.0 * cfg.fc)
            h_slope = (
                np.sin(theta)
                * (np.cos(cfg.phi_min) - np.cos(cfg.phi_max) * ratio)
                / (2.0 * cfg.bandwidth)
            )
            build = functools.partial(aas_beamformer, theta_hat=theta)
        else:
            h_slope = -np.sin(theta) * np.cos(phi) / (2.0 * cfg.fc)
            v_slope = -np.cos(theta) / (2.0 * cfg.fc)
            build = functools.partial(comm_beamformer, theta_u=theta, phi_u=phi)
        largest = max((cfg.m_h - 1) * abs(h_slope), (cfg.m_v - 1) * abs(v_slope))
        build(cfg.replace(max_abs_ttd=float(largest)))
        with pytest.raises(ConfigError, match="max_abs_ttd"):
            build(cfg.replace(max_abs_ttd=math.nextafter(largest, 0.0)))
