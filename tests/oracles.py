"""Complex-gain oracles that the Fejer power kernels are checked against, and
the per-stage detection pipeline that the stacked one is checked against.
Steering vectors are horizontal-major: element index = (m_h - 1) * M_v + m_v."""

import numpy as np

from squintsense import detection
from squintsense.beamforming import aas_beamformer, comm_beamformer
from squintsense.channel import comm_attenuation, echo_gain, scene_arrays, sensing_attenuation
from squintsense.detection import (
    DetectionResult,
    assemble_observation,
    modified_mp,
    proposed_plan,
)
from squintsense.exceptions import ConfigError
from squintsense.power import allocate_sensing


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
    users = scene.users
    beams += [comm_beamformer(cfg, theta, phi) for theta, phi in users]
    user_gains = np.empty((len(beams), len(users), n))
    for row, w in zip(user_gains, beams):
        row[...] = w.power_gain(users[:, :1], users[:, 1:], n_idx)
    return DetectionResult(
        elevations=elevations,
        estimates=tuple(estimates),
        symbol_counts=tuple(symbol_counts),
        sensing_powers=tuple(sensing_powers),
        user_gains=user_gains,
        traces=tuple(traces),
    )
