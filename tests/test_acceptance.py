"""End-to-end acceptance checks.

Each check prints one PASS/FAIL line (bypassing pytest capture) with its
elapsed time and budget, and fails if the property or the budget is missed.
"""

import functools
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from test_channel import materialized_echo
from test_power import oracle_symbol_count, random_feasible_context, sinr_of

from squintsense.beamforming import (
    aas_azimuth_grid,
    aas_beamformer,
    comm_beamformer,
    eas_beamformer,
    eas_elevation_grid,
)
from squintsense.channel import generate_scene
from squintsense.config import RunConfig, SystemConfig
from squintsense.detection import hierarchical_detect, modified_mp, proposed_plan
from squintsense.power import allocate_comm, allocate_sensing, grid_echo_strength
from squintsense.simkit import (
    azimuth_only_plan,
    distance_error,
    exhaustive_plan,
    run_experiment,
    run_single_trial,
    trial_seed,
)

SCALED = SystemConfig(
    m_h=16, m_v=16, n_subcarriers=32, n_candidates=512, tau_s_db=25.0
)


REPORT_LINES = []  # printed by the conftest terminal-summary hook


def _report(num, name, ok, elapsed, budget):
    line = "[%2d/16] %-28s %s (%.1fs / %.0fs budget)" % (
        num, name, "PASS" if ok else "FAIL", elapsed, budget
    )
    REPORT_LINES.append(line)
    try:  # also show live when capture is off (-s)
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()
    except (OSError, ValueError):
        pass


def acceptance(num, name, budget):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                ok = elapsed < budget
            except BaseException:
                _report(num, name, False, time.perf_counter() - start, budget)
                raise
            _report(num, name, ok, elapsed, budget)
            assert ok, f"runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"
        return wrapper
    return deco


def _run(system, method="proposed", q=1, k=0, trials=100, seed=0, clutter=True):
    """One aggregated experiment row over matched per-trial seeds."""
    run = RunConfig(
        system=system, method=method, q_targets=q, k_users=k,
        trials=trials, seed=seed, include_clutter=clutter,
    )
    records, agg = run_experiment(run)
    assert all(r.ok for r in records), [r.error for r in records if not r.ok][:3]
    assert len(agg) == 1
    return agg[0]


@acceptance(1, "grid-endpoints", 1)
def test_grid_endpoints_match_roi():
    cfg = SystemConfig()
    thg = eas_elevation_grid(cfg)
    phg = aas_azimuth_grid(cfg)
    for got, want in (
        (thg[0], np.radians(15.0)),
        (thg[-1], np.radians(70.0)),
        (phg[0], np.radians(30.0)),
        (phg[-1], np.radians(150.0)),
    ):
        assert abs(got - want) < 1e-9


@acceptance(2, "beam-peak-alignment", 30)
def test_beam_peaks_align_with_grids():
    cfg = SystemConfig(m_h=16, m_v=16, n_subcarriers=32)
    sweep_pts = 10_000
    f = cfg.subcarrier_offsets()

    # vertical chain of the elevation-sweep beamformer
    bf = eas_beamformer(cfg)
    thg = eas_elevation_grid(cfg)
    theta_sweep = np.linspace(cfg.theta_min, cfg.theta_max, sweep_pts)
    theta_step = theta_sweep[1] - theta_sweep[0]
    m = np.arange(cfg.m_v)
    for n in range(cfg.n_subcarriers):
        w_v = oracles.vertical_weights(bf, n)
        steer = np.exp(
            -1j * np.pi * np.outer(np.cos(theta_sweep) * (1 + f[n] / cfg.fc), m)
        ) / np.sqrt(cfg.m_v)
        best = theta_sweep[np.argmax(np.abs(steer @ w_v))]
        assert abs(best - thg[n]) <= theta_step

    # full gain of the azimuth-sweep beamformer at locked elevations
    phg = aas_azimuth_grid(cfg)
    phi_sweep = np.linspace(cfg.phi_min, cfg.phi_max, sweep_pts)
    phi_step = phi_sweep[1] - phi_sweep[0]
    for theta_hat in np.radians([25.0, 45.0, 65.0]):
        bf = aas_beamformer(cfg, theta_hat)
        for n in range(cfg.n_subcarriers):
            best = phi_sweep[np.argmax(np.abs(oracles.gain(bf, theta_hat, phi_sweep, n)))]
            assert abs(best - phg[n]) <= phi_step


@acceptance(3, "squint-compensation", 5)
def test_comm_beam_unit_gain_at_user():
    cfg = SystemConfig()
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta = rng.uniform(cfg.theta_min, cfg.theta_max)
        phi = rng.uniform(cfg.phi_min, cfg.phi_max)
        bf = comm_beamformer(cfg, theta, phi)
        gains = np.array([oracles.gain(bf, theta, phi, n) for n in range(cfg.n_subcarriers)])
        assert np.max(np.abs(np.abs(gains) - 1.0)) < 1e-9


@acceptance(4, "channel-quadratic-form", 10)
def test_echo_gain_matches_materialized_matrix():
    rng = np.random.default_rng(4)
    for m in (8, 16):
        cfg = SystemConfig(m_h=m, m_v=m, n_subcarriers=32)
        for _ in range(25):
            scene = generate_scene(cfg, q=2, k=1, seed=int(rng.integers(1 << 31)))
            theta_hat = rng.uniform(cfg.theta_min, cfg.theta_max)
            beams = (
                aas_beamformer(cfg, theta_hat),
                comm_beamformer(cfg, *scene.users[0]),
            )
            for bf in beams:
                for n in (0, 15, 31):
                    got = complex(
                        sum(
                            coeff * abs(oracles.gain(bf, th, ph, n)) ** 2
                            for th, ph, coeff in _scene_terms(cfg, scene)
                        )
                    )
                    oracle = materialized_echo(cfg, scene, bf, n)
                    from squintsense.channel import echo_gain, scene_arrays

                    fast = echo_gain(cfg, scene_arrays(cfg, scene), bf, np.array([n]))[0]
                    assert abs(fast - oracle) <= 1e-10 * abs(oracle)
                    assert abs(got - oracle) <= 1e-10 * abs(oracle)


def _scene_terms(cfg, scene):
    """Independent expansion of every echo term (angles and coefficient),
    with distances H / cos(theta) and cross sections from the config."""
    from squintsense.channel import sensing_attenuation

    kappa = cfg.kappa
    los_w = np.sqrt(kappa / (1 + kappa)) if len(scene.clutter) else 1.0
    for theta, phi in scene.targets:
        distance = cfg.height / np.cos(theta)
        coeff = (
            los_w
            * sensing_attenuation(cfg, distance, cfg.sigma_rcs)
            * np.exp(-4j * np.pi * distance / cfg.wavelength)
        )
        yield theta, phi, coeff
    if len(scene.clutter):
        clu_w = np.sqrt(1 / (1 + kappa)) / np.sqrt(len(scene.clutter))
        for (theta, phi), fading in zip(scene.clutter, scene.fading):
            distance = cfg.height / np.cos(theta)
            coeff = clu_w * sensing_attenuation(cfg, distance, cfg.sigma_clutter) * fading
            yield theta, phi, coeff


@acceptance(5, "sensing-power-tightness", 10)
def test_sensing_allocation_tight_and_minimal():
    cfg = SystemConfig(m_h=16, m_v=16, n_subcarriers=32)
    sigma2 = cfg.noise_variance()

    strength_sets = [
        grid_echo_strength(
            cfg, eas_beamformer(cfg), eas_elevation_grid(cfg),
            0.5 * (cfg.phi_min + cfg.phi_max),
        )
    ]
    for theta_hat in (0.5, 1.0):
        strength_sets.append(
            grid_echo_strength(
                cfg, aas_beamformer(cfg, theta_hat), theta_hat, aas_azimuth_grid(cfg)
            )
        )
    for strengths in strength_sets:
        t, p = allocate_sensing(cfg, strengths)
        np.testing.assert_allclose(t * p * strengths / sigma2, cfg.tau_s, rtol=1e-9)
        assert np.sum(p) <= cfg.p_s_max * (1 + 1e-12)
        if t > 1:
            assert np.sum(p * t / (t - 1)) > cfg.p_s_max
        assert t == oracle_symbol_count(cfg, strengths)

    rng = np.random.default_rng(5)
    for _ in range(30):
        rcfg = cfg.replace(tau_s_db=float(rng.uniform(5, 22)))
        strengths = 10 ** rng.uniform(-12.5, -10, rcfg.n_subcarriers)
        t, p = allocate_sensing(rcfg, strengths)
        assert t == oracle_symbol_count(rcfg, strengths)
        np.testing.assert_allclose(t * p * strengths / sigma2, rcfg.tau_s, rtol=1e-9)


@acceptance(6, "comm-power-round-trip", 10)
def test_comm_allocation_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        tau_c = 10 ** rng.uniform(0, 1.5)
        ctx = random_feasible_context(rng, k, tau_c=tau_c)
        p = allocate_comm(ctx, tau_c)[:, 0]
        assert np.all(p > 0)
        np.testing.assert_allclose(sinr_of(ctx, p, tau_c), tau_c, rtol=1e-9)

    # single-user closed form
    from squintsense.power import SinrContext

    ctx = random_feasible_context(np.random.default_rng(60), 1)
    tau_c = 8.0
    p = allocate_comm(ctx, tau_c)[:, 0]
    expected = tau_c * ctx.effective_noise[0, 0] / ctx.chi[0, 0, 0]
    np.testing.assert_allclose(p[0], expected, rtol=1e-12)

    # symmetric two-user closed form
    diag, off, noise, tau_c = 2e-11, 1e-13, 3e-14, 5.0
    chi = np.array([[[diag], [off]], [[off], [diag]]])
    ctx = SinrContext(chi=chi, effective_noise=np.full((2, 1), noise))
    p = allocate_comm(ctx, tau_c)[:, 0]
    np.testing.assert_allclose(p, tau_c * noise / (diag - tau_c * off), rtol=1e-12)


@acceptance(7, "pursuit-exact-recovery", 10)
def test_matching_pursuit_recovery():
    # narrow vertical beam + one candidate per subcarrier: low coherence
    cfg = SystemConfig(
        m_h=16, m_v=64, n_subcarriers=32, n_candidates=32, tau_s_db=25.0, n_clutter=0
    )
    plan = proposed_plan(cfg)  # the EAS dictionary at T_0, p_0
    rows, norms = plan.eas_rows, plan.eas_norms

    rng = np.random.default_rng(7)
    for _ in range(100):
        q = int(rng.integers(1, 4))
        idx = rng.choice(cfg.n_candidates, size=q, replace=False)
        obs = np.zeros(cfg.n_subcarriers, dtype=complex)
        for i in idx:
            obs += np.exp(1j * rng.uniform(0, 2 * np.pi)) * rows[i]
        cv = modified_mp(obs, rows, norms, q)
        expected = np.zeros(cfg.n_candidates, dtype=int)
        expected[idx] = 1
        np.testing.assert_array_equal(cv.counts, expected)

    # two targets sharing one candidate: multiplicity two
    obs = 2.0 * np.exp(0.2j) * rows[20]
    cv = modified_mp(obs, rows, norms, 2)
    assert cv.counts[20] == 2 and cv.counts.sum() == 2


@acceptance(8, "high-snr-localization", 300)
def test_high_snr_end_to_end_localization():
    cfg = SCALED.replace(n_clutter=0)
    offsets = cfg.subcarrier_offsets(cfg.n_candidates)
    thg = eas_elevation_grid(cfg, offsets)
    phg = aas_azimuth_grid(cfg, offsets)
    height = cfg.height

    def local_spacing(grid, value):
        """Ground-angle spacing of the candidates bracketing `value`."""
        i = int(np.clip(np.argmin(np.abs(grid - value)), 1, len(grid) - 2))
        return abs(grid[i + 1] - grid[i - 1])

    hits = 0
    trials = 200
    for trial in range(trials):
        scene = generate_scene(cfg, 1, 0, trial_seed(8, 0, trial, 0), include_clutter=False)
        rng = np.random.default_rng(trial_seed(8, 0, trial, 1))
        result = hierarchical_detect(cfg, scene, rng)
        tgt_theta, tgt_phi = scene.targets[0]
        err = distance_error(height, [(tgt_theta, tgt_phi)], list(result.estimates))
        d_theta = local_spacing(thg, tgt_theta)
        d_phi = local_spacing(phg, tgt_phi)
        spacing = np.hypot(
            height / np.cos(tgt_theta) ** 2 * d_theta,
            height * np.tan(tgt_theta) * d_phi,
        )
        hits += err < 2.0 * spacing
    assert hits >= int(np.ceil(0.99 * trials)), f"{hits}/{trials} within bound"


@acceptance(9, "error-vs-candidate-count", 600)
def test_error_shrinks_with_more_candidates():
    n = SCALED.n_subcarriers
    for tau_db in (15.0, 21.0):
        rows = [
            _run(SCALED.replace(tau_s_db=tau_db, n_candidates=ell),
                 trials=150, seed=9)
            for ell in (n, 4 * n, 16 * n)
        ]
        means = [r["mean_distance_error_m"] for r in rows]
        assert means[0] >= means[1] >= means[2], means
        gap = means[0] - means[2]
        assert gap > rows[0]["stderr_m"] + rows[2]["stderr_m"], (means, rows)


@acceptance(10, "error-vs-subcarrier-count", 600)
def test_error_shrinks_with_more_subcarriers():
    means = []
    for n_sub in (16, 32, 64):
        row = _run(SCALED.replace(n_subcarriers=n_sub), trials=100, seed=10)
        means.append(row["mean_distance_error_m"])
    assert means[0] > means[1] > means[2], means


@acceptance(11, "baseline-energy-ordering", 900)
def test_sensing_energy_ordering_and_accuracy():
    rows = {
        method: _run(SCALED, method=method, trials=200, seed=11)
        for method in ("proposed", "azimuth_only", "exhaustive")
    }
    energy = {m: r["mean_total_sensing_energy"] for m, r in rows.items()}
    assert energy["exhaustive"] > energy["azimuth_only"] > energy["proposed"], energy
    assert energy["exhaustive"] / energy["proposed"] > 10.0, energy
    err = {m: r["mean_distance_error_m"] for m, r in rows.items()}
    assert err["proposed"] <= err["azimuth_only"], err


@acceptance(12, "power-and-efficiency-trends", 600)
def test_power_and_energy_efficiency_trends():
    trials = 40

    power_vs_k = [
        _run(SCALED, k=k, trials=trials, seed=12)["mean_avg_transmit_power"]
        for k in (1, 2, 3)
    ]
    assert power_vs_k[0] < power_vs_k[1] < power_vs_k[2], power_vs_k

    rows_tau_c = [
        _run(SCALED.replace(tau_c_db=v), k=2, trials=trials, seed=12)
        for v in (5.0, 10.0, 15.0)
    ]
    power_vs_tau_c = [r["mean_avg_transmit_power"] for r in rows_tau_c]
    ee_vs_tau_c = [r["mean_ee"] for r in rows_tau_c]
    assert power_vs_tau_c[0] < power_vs_tau_c[1] < power_vs_tau_c[2], power_vs_tau_c
    assert ee_vs_tau_c[0] < ee_vs_tau_c[1] < ee_vs_tau_c[2], ee_vs_tau_c

    ee_vs_tau_s = [
        _run(SCALED.replace(tau_s_db=v), k=2, trials=trials, seed=12)["mean_ee"]
        for v in (15.0, 20.0, 25.0)
    ]
    assert ee_vs_tau_s[0] > ee_vs_tau_s[1] > ee_vs_tau_s[2], ee_vs_tau_s


@acceptance(13, "super-resolution", 600)
def test_error_beats_subcarrier_grid_bound():
    cfg = SCALED.replace(
        n_candidates=32 * SCALED.n_subcarriers, tau_s_db=27.0, n_clutter=0
    )
    thg = eas_elevation_grid(cfg)
    phg = aas_azimuth_grid(cfg)
    radius = cfg.height * np.tan(thg)
    grid_xy = np.stack(
        [np.outer(radius, np.cos(phg)), np.outer(radius, np.sin(phg))], axis=-1
    ).reshape(-1, 2)

    errs, bounds = [], []
    for trial in range(300):
        scene = generate_scene(cfg, 1, 0, trial_seed(13, 0, trial, 0), include_clutter=False)
        rng = np.random.default_rng(trial_seed(13, 0, trial, 1))
        result = hierarchical_detect(cfg, scene, rng)
        tgt_theta, tgt_phi = scene.targets[0]
        errs.append(
            distance_error(cfg.height, [(tgt_theta, tgt_phi)], list(result.estimates))
        )
        r_true = cfg.height * np.tan(tgt_theta)
        truth = np.array([r_true * np.cos(tgt_phi), r_true * np.sin(tgt_phi)])
        bounds.append(np.min(np.hypot(*(grid_xy - truth).T)))
    assert np.mean(errs) < np.mean(bounds), (np.mean(errs), np.mean(bounds))


@acceptance(14, "csv-determinism", 60)
def test_repeated_runs_are_byte_identical(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "m_h = 16\nm_v = 16\nn_subcarriers = 32\nn_candidates = 64\n"
        "tau_s_db = 25\nmethod = proposed\nq_targets = 1\nk_users = 2\n"
        "trials = 4\nseed = 14\nsweep_var = tau_c_db\nsweep_values = 5, 10\n"
    )
    outputs = []
    for rep in range(2):
        out = tmp_path / f"rep{rep}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "squintsense.cli", "simulate",
             "--config", str(config), "--output", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        base = out.with_name(out.stem + "_aggregate.csv")
        trial_file = out.with_name(out.stem + "_trials.csv")
        outputs.append(base.read_bytes() + trial_file.read_bytes())
    assert outputs[0] == outputs[1]


@acceptance(15, "full-scale-smoke", 20)
def test_full_scale_defaults_within_budget():
    """One proposed and one exhaustive trial at the defaults (64x64, N=128,
    L=4096), each within 10 s including any first-use set-up."""
    for method in ("proposed", "exhaustive"):
        run = RunConfig(method=method, q_targets=2, k_users=2, trials=1, seed=15)
        start = time.perf_counter()
        record = run_single_trial(run, 0, 0)
        elapsed = time.perf_counter() - start
        assert record.ok, record.error
        assert np.isfinite(record.distance_error_m)
        assert record.total_sensing_energy > 0
        assert elapsed < 10.0, f"{method} trial took {elapsed:.1f}s of its 10s budget"


def _at_energy(cfg, method, energy):
    """cfg with tau_s shifted by 10 log10(E / energy), E the baseline's sensing
    energy: fixed by the config and linear in tau_s, it then equals energy."""
    plan = exhaustive_plan(cfg) if method == "exhaustive" else azimuth_only_plan(cfg)
    return cfg.replace(tau_s_db=cfg.tau_s_db - 10.0 * np.log10(plan.powers.sum() / energy))


@acceptance(16, "equal-energy-claim", 900)
def test_proposed_beats_baselines_at_equal_energy():
    """The abstract's claim at q=1 on check 11's set-up: with each baseline's
    tau_s lowered until its sensing energy equals the proposed run's mean,
    proposed's mean error plus its stderr is below each baseline's mean error
    minus its stderr."""
    proposed = _run(SCALED, trials=200, seed=11)
    energy = proposed["mean_total_sensing_energy"]
    for method in ("exhaustive", "azimuth_only"):
        row = _run(_at_energy(SCALED, method, energy), method=method, trials=200, seed=11)
        assert row["mean_total_sensing_energy"] == pytest.approx(energy, rel=1e-9)
        ours = proposed["mean_distance_error_m"] + proposed["stderr_m"]
        theirs = row["mean_distance_error_m"] - row["stderr_m"]
        assert ours < theirs, (method, proposed, row)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
