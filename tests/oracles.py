"""Complex-gain oracles that the Fejer power kernels are checked against, the
per-stage detection pipeline that the stacked one is checked against, and
the references of each method's trial record: the proposed trial stage by
stage, and both scans on the whole grid.
Steering vectors are horizontal-major: element index = (m_h - 1) * M_v + m_v."""

import numpy as np

from squintsense import detection
from squintsense.beamforming import (
    aas_azimuth_grid,
    aas_beamformer,
    comm_beamformer,
    eas_elevation_grid,
)
from squintsense.channel import comm_attenuation, echo_gain, scene_arrays, sensing_attenuation
from squintsense.detection import (
    DetectionResult,
    assemble_observation,
    modified_mp,
    proposed_plan,
)
from squintsense.exceptions import ConfigError
from squintsense.geometry import uniform_phase_power
from squintsense.power import SinrContext, allocate_comm, allocate_sensing, backoff_tau_c
from squintsense.simkit import TrialRecord, _scan_record, azimuth_only_plan, distance_error


def uniform_phase_sum(slope, m):
    """(1/m) * sum_{k=0}^{m-1} exp(-1j*pi*k*slope), vectorized over slope.

    Closed form of the array factor of an m-element uniform array whose
    per-element phase is affine in the element index. Equals 1 when the
    slope is an even integer (all terms in phase).
    """
    x = np.atleast_1d(np.asarray(slope, dtype=float))
    u = 0.5 * np.pi * x
    sin_u = np.sin(u)
    near_zero = np.abs(sin_u) < 1e-12
    sin_safe = np.where(near_zero, 1.0, sin_u)
    ratio = np.sin(m * u) / (m * sin_safe)
    # limit as u -> k*pi: sum magnitude m, sign cos(m*u)/cos(u)
    limit = np.cos(m * u) / np.cos(u)
    mag = np.where(near_zero, limit, ratio)
    out = mag * np.exp(-1j * u * (m - 1))
    if np.isscalar(slope) or np.asarray(slope).ndim == 0:
        return complex(out[0])
    return out.reshape(np.shape(slope))


def horizontal_steering(theta, phi, f_dev, m_h, fc):
    """Horizontal steering vector of length m_h at frequency deviation f_dev."""
    m = np.arange(m_h)
    phase = -np.pi * m * np.sin(theta) * np.cos(phi) * (1.0 + f_dev / fc)
    return np.exp(1j * phase) / np.sqrt(m_h)


def vertical_steering(theta, f_dev, m_v, fc):
    """Vertical steering vector of length m_v; depends on elevation only."""
    m = np.arange(m_v)
    phase = -np.pi * m * np.cos(theta) * (1.0 + f_dev / fc)
    return np.exp(1j * phase) / np.sqrt(m_v)


def upa_steering(cfg, theta, phi, f_dev):
    """Full UPA steering vector a = a_h kron a_v (unit 2-norm, length M)."""
    a_h = horizontal_steering(theta, phi, f_dev, cfg.m_h, cfg.fc)
    a_v = vertical_steering(theta, f_dev, cfg.m_v, cfg.fc)
    return np.kron(a_h, a_v)


def vertical_gain(bf, theta, f_dev):
    return uniform_phase_sum(bf._vertical_phase(theta, f_dev), bf.cfg.m_v)


def gain(bf, theta, phi, n):
    """Array gain a(theta, phi, f_n) . w_n; broadcasts over angle arrays."""
    f_dev = bf._f[n]
    if bf.kind == "eas":
        horizontal = bf._flat_gain(theta, phi)
    else:
        horizontal = uniform_phase_sum(
            bf._horizontal_phase(theta, phi, f_dev), bf.cfg.m_h
        )
    return horizontal * vertical_gain(bf, theta, f_dev)


def weight_vector(bf, n) -> np.ndarray:
    """Explicit length-M weights diag(exp(-j 2 pi f_n t)) a^H(ps angles, 0)."""
    if bf.kind == "eas":
        raise ConfigError(
            "EAS horizontal chain is modeled analytically; no explicit weights"
        )
    cfg = bf.cfg
    f_dev = bf._f[n]
    a_ps = np.kron(
        horizontal_steering(bf.ps_theta, bf.ps_phi, 0.0, cfg.m_h, cfg.fc),
        vertical_steering(bf.ps_theta, 0.0, cfg.m_v, cfg.fc),
    )
    # horizontal-major element order, as in upa_steering
    delays = np.add.outer(np.arange(cfg.m_h) * bf.h_slope, np.arange(cfg.m_v) * bf.v_slope)
    return np.exp(-2j * np.pi * f_dev * delays.ravel()) * np.conj(a_ps)


def vertical_weights(bf, n) -> np.ndarray:
    """Vertical-chain weights only (length M_v); defined for every kind."""
    cfg = bf.cfg
    f_dev = bf._f[n]
    a_v = vertical_steering(bf.ps_theta, 0.0, cfg.m_v, cfg.fc)
    delays = np.arange(cfg.m_v) * bf.v_slope
    return np.exp(-2j * np.pi * f_dev * delays) * np.conj(a_v)


def comm_gain(cfg, theta, phi, weights, n: int) -> complex:
    """One-way channel-beamformer product h_n(user) . w_n for a user at
    (theta, phi), distance H / cos(theta)."""
    distance = cfg.height / np.cos(theta)
    beta = comm_attenuation(cfg, distance)
    g = gain(weights, theta, phi, n)
    return complex(beta * np.exp(-2j * np.pi * distance / cfg.wavelength) * g)


def aas_scale(cfg, theta_hat, powers):
    """The dictionary scale sqrt(p_n) alpha(theta_hat) of the AAS stage at
    theta_hat with sensing powers p, the scale aas_pursuit takes."""
    alpha = sensing_attenuation(cfg, cfg.height / np.cos(theta_hat), cfg.sigma_rcs)
    return np.sqrt(np.asarray(powers, dtype=float)) * alpha


def aas_table(cfg, theta_hat, scale):
    """The whole (L, N) dictionary of the AAS stage at theta_hat with
    dictionary scale (N,), every row of :func:`~squintsense.detection._aas_rows`
    times scale_n, and its row 2-norms: (rows, norms). proposed_plan and
    _aas_rows are looked up on the detection module, so a test's patch of
    either applies here too."""
    plan = detection.proposed_plan(cfg)
    rows = detection._aas_rows(cfg, plan, theta_hat, slice(None))
    rows *= scale
    return rows, np.sqrt(np.einsum("ln,ln->l", rows, rows))


def per_stage_detect(cfg, scene, rng) -> DetectionResult:
    """hierarchical_detect one AAS stage at a time, each stage's pursuit
    modified_mp over its whole table: each stage builds its own beam, its
    strength alpha(theta_hat)^2 on an (N,) array, its allocation, and its
    observation from the scene's echo form, echo and noise together. Each
    beam's gain at the users is its own power_gain call."""
    plan = proposed_plan(cfg)
    eas_w, t0, p0 = plan.eas_weights, plan.eas_symbol_count, plan.eas_powers
    echoes = scene_arrays(cfg, scene)
    n_idx = np.arange(cfg.n_subcarriers)
    obs0 = assemble_observation(cfg, echo_gain(cfg, echoes, eas_w, n_idx), p0, t0, rng)
    cv0 = modified_mp(obs0, plan.eas_rows, plan.eas_norms, len(scene.targets))
    selected = np.flatnonzero(cv0.counts)
    elevations = tuple(
        (float(plan.eas_candidates[idx]), int(cv0.counts[idx])) for idx in selected
    )
    estimates, symbol_counts, sensing_powers = [], [t0], [p0]
    beams, traces = [eas_w], [cv0]
    n = cfg.n_subcarriers
    for theta_hat, multiplicity in elevations:
        aas_w = aas_beamformer(cfg, theta_hat)
        grid = np.broadcast_to(theta_hat, (n,))
        alpha = sensing_attenuation(cfg, cfg.height / np.cos(grid), cfg.sigma_rcs)
        t_i, p_i = allocate_sensing(cfg, alpha**2)
        obs = assemble_observation(cfg, echo_gain(cfg, echoes, aas_w, n_idx), p_i, t_i, rng)
        table = aas_table(cfg, theta_hat, aas_scale(cfg, theta_hat, p_i))
        cv = modified_mp(obs, *table, multiplicity)
        estimates.extend(
            (theta_hat, float(ph)) for ph in np.repeat(plan.aas_candidates, cv.counts)
        )
        symbol_counts.append(t_i)
        sensing_powers.append(p_i)
        beams.append(aas_w)
        traces.append(cv)
    beams += [comm_beamformer(cfg, theta, phi) for theta, phi in scene.users]
    return DetectionResult(
        elevations=elevations,
        estimates=tuple(estimates),
        symbol_counts=tuple(symbol_counts),
        sensing_powers=tuple(sensing_powers),
        user_gains=beam_rows(cfg, scene, beams),
        traces=tuple(traces),
    )


def beam_rows(cfg, scene, beams):
    """(B, K, N) power gain of each of B beams at each user of the scene, one
    power_gain call per beam."""
    users, n_idx = scene.users, np.arange(cfg.n_subcarriers)
    rows = np.empty((len(beams), len(users), cfg.n_subcarriers))
    for row, w in zip(rows, beams):
        row[...] = w.power_gain(users[:, :1], users[:, 1:], n_idx)
    return rows


def sinr_context_reference(cfg, scene, comm_weights, sensing_weights, sensing_powers):
    """chi (K, K, N) and each stage's effective noise (S, K, N), from one
    power_gain call per beam, each beam's own user rows."""
    beta2 = comm_attenuation(cfg, cfg.height / np.cos(scene.users[:, :1])) ** 2
    chi = np.stack([beta2 * row for row in beam_rows(cfg, scene, comm_weights)], axis=1)
    eff_noise = [
        beta2 * row * p + cfg.noise_variance()
        for row, p in zip(beam_rows(cfg, scene, sensing_weights), sensing_powers)
    ]
    return chi, np.array(eff_noise).reshape(-1, *chi.shape[1:])


def stage_beams(cfg, result):
    """The sensing beams of a detection result, in stage order: the EAS beam,
    then the AAS beam of each elevation."""
    aas = [aas_beamformer(cfg, theta) for theta, _ in result.elevations]
    return [proposed_plan(cfg).eas_weights, *aas]


def reference_comm_plan(cfg, scene, sensing_beams, sensing_powers):
    """The comm plan built stage by stage from one power_gain call per beam:
    one SINR context per sensing stage, the smallest of their backed-off
    thresholds, then one allocation and one SINR per stage. Returns (comm
    powers (K, N) per stage, achieved SINR (K, N) per stage, tau_eff); with
    no users both are (0, N) and tau_c passes through."""
    if len(scene.users) == 0:
        none = [np.zeros((0, cfg.n_subcarriers)) for _ in sensing_beams]
        return none, none, cfg.tau_c
    comm_w = [comm_beamformer(cfg, theta, phi) for theta, phi in scene.users]
    chi, eff_noise = sinr_context_reference(cfg, scene, comm_w, sensing_beams, sensing_powers)
    contexts = [SinrContext(chi=chi, effective_noise=noise) for noise in eff_noise]
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


def reference_power_metrics(symbol_counts, sensing_powers, comm_powers):
    """(total sensing energy, average transmit power) summed one stage at a
    time: per stage, the float sum of each power array, times T_i."""
    total = sum(t * float(np.sum(p)) for t, p in zip(symbol_counts, sensing_powers))
    per_stage = [
        (float(np.sum(p)) + float(np.sum(c))) * t
        for t, p, c in zip(symbol_counts, sensing_powers, comm_powers)
    ]
    return total, sum(per_stage) / len(per_stage)


def reference_sum_rate(sinrs):
    """Sum rate from the achieved SINR of each stage, one stage at a time."""
    return float(sum(np.sum(np.log2(1.0 + s)) for s in sinrs) / len(sinrs))


def reference_proposed_trial(cfg, scene, rng):
    """The proposed trial's record from per_stage_detect and the per-stage
    comm plan, its metrics summed one stage at a time."""
    result = per_stage_detect(cfg, scene, rng)
    counts, sensing = result.symbol_counts, result.sensing_powers
    comm_powers, sinrs, _ = reference_comm_plan(cfg, scene, stage_beams(cfg, result), sensing)
    record = TrialRecord(q_targets=len(scene.targets), n_stages=len(counts), symbol_counts=counts)
    record.distance_error_m = distance_error(cfg.height, scene.targets.tolist(), result.estimates)
    total, average = reference_power_metrics(counts, sensing, comm_powers)
    record.total_sensing_energy, record.avg_transmit_power = total, average
    record.sum_rate = reference_sum_rate(sinrs)
    record.energy_efficiency = record.sum_rate / average if average > 0 else 0.0
    return record


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


def scan_noise(cfg, rng, variance):
    """A scan's (N, N) complex receiver noise of the given variance per cell,
    on every cell, as the first use of its generator: from (2, N, N)
    uniforms U, magnitude sqrt(-variance log1p(-U[0])) and phase 2 pi U[1]."""
    n = cfg.n_subcarriers
    u = rng.random((2, n, n))
    return np.sqrt(-variance * np.log1p(-u[0])) * np.exp(2j * np.pi * u[1])


def eager_scan_noise(cfg, rng, variance):
    """The same noise from 2 N^2 standard normals, real parts then imaginary:
    the statistical reference of :func:`scan_noise`."""
    n = cfg.n_subcarriers
    draws = np.sqrt(variance / 2.0) * rng.standard_normal((2, n, n))
    return draws[0] + 1j * draws[1]


def exhaustive_variance(cfg):
    """The exhaustive scan's noise variance per cell: one subcarrier's noise,
    averaged coherently over N subcarriers."""
    return cfg.noise_variance() / cfg.n_subcarriers


def full_grid_scan(cfg, scene, seed):
    """The exhaustive scan's record from the per-scatterer reference response
    on the whole grid, the same noise draw and the same top-q rule."""
    n = cfg.n_subcarriers
    theta_grid, phi_grid = eas_elevation_grid(cfg), aas_azimuth_grid(cfg)
    alpha = sensing_attenuation(cfg, cfg.height / np.cos(theta_grid), cfg.sigma_rcs)
    p_cell = cfg.tau_s * cfg.noise_variance() / alpha**2
    noise = scan_noise(cfg, np.random.default_rng(seed), exhaustive_variance(cfg))
    signal = np.sqrt(p_cell)[:, None] * reference_exhaustive_response(cfg, scene)
    statistic = np.abs(signal + noise) / (np.sqrt(p_cell)[:, None] * alpha[:, None])
    grids = (theta_grid, phi_grid)
    return _scan_record("exhaustive", cfg, scene, statistic, grids, n * np.repeat(p_cell, n))


def reference_azimuth_only_scan(cfg, scene, seed):
    """The azimuth-only scan as one (scatterer, subcarrier, symbol) broadcast
    summed over its first axis: (record, statistic on every cell)."""
    plan = azimuth_only_plan(cfg)
    s_theta, s_phi, s_amp = scene_arrays(cfg, scene)
    x_h = (np.sin(s_theta) * np.cos(s_phi))[:, None, None] * plan.ratio[:, None] - plan.steer_h
    x_v = np.cos(s_theta)[:, None] * plan.ratio - np.cos(cfg.theta_min) + plan.v_ttd
    p_h = np.where(plan.pointed, uniform_phase_power(x_h, cfg.m_h), plan.flat**2)
    p_h *= uniform_phase_power(x_v, cfg.m_v)[:, :, None]
    response = np.sum(s_amp[:, None, None] * p_h, axis=0)
    noise = scan_noise(cfg, np.random.default_rng(seed), cfg.noise_variance())
    statistic = np.abs(plan.sqrt_powers * response + noise) / plan.expected
    grids = (plan.theta_grid, plan.phi_grid)
    record = _scan_record("azimuth_only", cfg, scene, statistic, grids, plan.powers.ravel())
    return record, statistic
