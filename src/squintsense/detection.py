"""Measurement matrices over dense angle candidates, modified matching
pursuit with a counting vector, and the hierarchical EAS -> AAS pipeline."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .beamforming import (
    BeamformerWeights,
    aas_azimuth_grid,
    aas_beamformer,
    eas_beamformer,
    eas_elevation_grid,
)
from .channel import Scene, echo_gain, sensing_attenuation
from .config import SystemConfig
from .exceptions import ConfigError
from .power import allocate_sensing, grid_echo_strength


@dataclass(frozen=True)
class MeasurementMatrix:
    columns: np.ndarray     # (N, L) real nonnegative
    candidates: np.ndarray  # (L,) angles: elevation (stage 0) or azimuth
    norms: np.ndarray       # (L,) column 2-norms


@dataclass(frozen=True)
class CountingVector:
    counts: np.ndarray  # (L,) nonnegative integers
    phasors: tuple      # complex phasor recovered at each iteration
    trace: tuple        # per iteration: (index, correlation, residual norm)


@dataclass(frozen=True)
class DetectionResult:
    elevations: tuple    # ((theta_hat, Q_i), ...) from the EAS stage
    estimates: tuple     # Q final (theta, phi) pairs
    symbol_counts: tuple
    sensing_powers: tuple
    stage_weights: tuple
    traces: tuple        # CountingVector per stage


def candidate_offsets(cfg: SystemConfig) -> np.ndarray:
    """Fractional frequency positions realizing the L-point grid refinement."""
    return np.arange(cfg.n_candidates) * (cfg.bandwidth / (cfg.n_candidates - 1))


def elevation_candidates(cfg: SystemConfig) -> np.ndarray:
    if cfg.uniform_candidate_grid:
        return np.linspace(cfg.theta_min, cfg.theta_max, cfg.n_candidates)
    return eas_elevation_grid(cfg, candidate_offsets(cfg))


def azimuth_candidates(cfg: SystemConfig) -> np.ndarray:
    if cfg.uniform_candidate_grid:
        return np.linspace(cfg.phi_min, cfg.phi_max, cfg.n_candidates)
    return aas_azimuth_grid(cfg, candidate_offsets(cfg))


def assemble_observation(
    cfg: SystemConfig,
    scene: Scene,
    weights: BeamformerWeights,
    powers: np.ndarray,
    t_symbols: int,
    rng: np.random.Generator,
    include_clutter: bool = True,
) -> np.ndarray:
    """Average of t_symbols matched echoes per subcarrier, as an (N,) array.

    The matched filter preserves the circular Gaussian noise statistics, so
    the T-symbol average is drawn directly with variance sigma^2 / T.
    """
    if t_symbols < 1:
        raise ConfigError("t_symbols must be at least 1")
    n = cfg.n_subcarriers
    sigma2 = cfg.noise_variance()
    signal = np.sqrt(powers) * echo_gain(cfg, scene, weights, np.arange(n), include_clutter)
    scale = np.sqrt(sigma2 / (2.0 * t_symbols))
    noise = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return signal + noise


def build_measurement_matrix(
    cfg: SystemConfig,
    weights: BeamformerWeights,
    powers: np.ndarray,
    theta_hat: float | None = None,
) -> MeasurementMatrix:
    """Dictionary whose column l is the sensing gain pattern of candidate l.

    Entry (n, l) = sqrt(p_n) * alpha(candidate) * |gain(candidate, f_n)|^2;
    alpha uses the candidate's implied distance H / cos(theta). The (L, N)
    gain table is scaled in place and returned transposed, so each column
    is contiguous in memory.
    """
    n_idx = np.arange(cfg.n_subcarriers)
    sqrt_p = np.sqrt(np.asarray(powers, dtype=float))
    if weights.kind == "eas":
        cand = elevation_candidates(cfg)
        phi_probe = 0.5 * (cfg.phi_min + cfg.phi_max)  # flat model: phi-independent
        gains = weights.power_gain(cand[:, None], phi_probe, n_idx)  # (L, N)
        alpha = sensing_attenuation(cfg, cfg.height / np.cos(cand), cfg.sigma_rcs)[:, None]
    else:
        if theta_hat is None:
            raise ConfigError("AAS measurement matrix requires theta_hat")
        cand = azimuth_candidates(cfg)
        gains = weights.power_gain(theta_hat, cand[:, None], n_idx)  # (L, N)
        alpha = sensing_attenuation(cfg, cfg.height / np.cos(theta_hat), cfg.sigma_rcs)
    gains *= sqrt_p * alpha
    norms = np.sqrt(np.einsum("ln,ln->l", gains, gains))
    return MeasurementMatrix(columns=gains.T, candidates=cand, norms=norms)


def modified_mp(
    obs: np.ndarray,
    mtx: MeasurementMatrix,
    iterations: int,
    stop_ratio: float | None = None,
) -> CountingVector:
    """Greedy matching pursuit with phasor-normalized coefficients.

    Each iteration selects the column maximizing the norm-normalized
    correlation with the residual, normalizes the estimated coefficient to
    unit magnitude (the true coefficients are range phasors), deflates the
    residual, and increments the counting vector. Repeated selection of one
    index is allowed. The real dictionary is correlated with the complex
    residual in one real GEMM over the residual's (N, 2) float view.
    """
    if iterations < 0:
        raise ConfigError("iterations must be nonnegative")
    columns = mtx.columns
    counts = np.zeros(columns.shape[1], dtype=int)
    phasors = []
    trace = []
    if iterations == 0:
        return CountingVector(counts=counts, phasors=(), trace=())
    norms = mtx.norms
    if np.any(norms == 0.0):
        raise ConfigError("degenerate dictionary: zero-norm column")
    residual = np.asarray(obs, dtype=complex).copy()
    stop_level = stop_ratio * np.linalg.norm(residual) if stop_ratio else None
    for _ in range(iterations):
        corr = (columns.T @ residual.view(float).reshape(-1, 2)).view(complex)[:, 0]
        metric = np.abs(corr) / norms
        best = int(np.argmax(metric))
        coeff = corr[best] / norms[best] ** 2
        if coeff == 0:
            break
        phasor = coeff / abs(coeff)
        residual = residual - phasor * columns[:, best]
        counts[best] += 1
        phasors.append(phasor)
        trace.append((best, float(metric[best]), float(np.linalg.norm(residual))))
        if stop_level is not None and np.linalg.norm(residual) < stop_level:
            break
    return CountingVector(counts=counts, phasors=tuple(phasors), trace=tuple(trace))


@dataclass(frozen=True)
class EasStage:
    """Trial-invariant stage-0 plan; every array in it is read-only."""

    weights: BeamformerWeights
    symbol_count: int
    powers: np.ndarray        # (N,) sensing powers p_0
    matrix: MeasurementMatrix


@functools.lru_cache(maxsize=4)
def eas_stage(cfg: SystemConfig) -> EasStage:
    """EAS beamformer, (T_0, p_0) and dictionary, computed once per config.

    None of them depends on the scene, so the cached entry is shared by
    every trial; its arrays are made read-only so no caller can alter it.
    """
    weights = eas_beamformer(cfg)
    strengths = grid_echo_strength(
        cfg, weights, eas_elevation_grid(cfg), 0.5 * (cfg.phi_min + cfg.phi_max)
    )
    t0, p0 = allocate_sensing(cfg, strengths)
    mtx = build_measurement_matrix(cfg, weights, p0)
    for arr in (
        weights.ttd.horizontal, weights.ttd.vertical, p0, mtx.columns, mtx.candidates, mtx.norms
    ):
        arr.flags.writeable = False
    return EasStage(weights=weights, symbol_count=t0, powers=p0, matrix=mtx)


def hierarchical_detect(
    cfg: SystemConfig,
    scene: Scene,
    q: int,
    rng: np.random.Generator,
    include_clutter: bool = True,
) -> DetectionResult:
    """Full EAS -> AAS pipeline with per-stage power allocation.

    The number of targets q is assumed known; it fixes the MP iteration
    counts. Each distinct elevation candidate selected in stage 0 spawns
    one AAS stage whose iteration count is that candidate's multiplicity.
    """
    stage0 = eas_stage(cfg)
    eas_w, t0, p0, mtx0 = stage0.weights, stage0.symbol_count, stage0.powers, stage0.matrix

    obs0 = assemble_observation(cfg, scene, eas_w, p0, t0, rng, include_clutter)
    cv0 = modified_mp(obs0, mtx0, q)

    selected = np.flatnonzero(cv0.counts)
    elevations = tuple(
        (float(mtx0.candidates[idx]), int(cv0.counts[idx])) for idx in selected
    )

    phi_grid = aas_azimuth_grid(cfg)
    estimates = []
    symbol_counts = [t0]
    sensing_powers = [p0]
    stage_weights = [eas_w]
    traces = [cv0]
    for theta_hat, multiplicity in elevations:
        aas_w = aas_beamformer(cfg, theta_hat)
        strengths = grid_echo_strength(cfg, aas_w, theta_hat, phi_grid)
        t_i, p_i = allocate_sensing(cfg, strengths)
        obs = assemble_observation(cfg, scene, aas_w, p_i, t_i, rng, include_clutter)
        mtx = build_measurement_matrix(cfg, aas_w, p_i, theta_hat=theta_hat)
        cv = modified_mp(obs, mtx, multiplicity)
        stage_azimuths = np.repeat(mtx.candidates, cv.counts)
        estimates.extend((theta_hat, float(ph)) for ph in stage_azimuths)
        symbol_counts.append(t_i)
        sensing_powers.append(p_i)
        stage_weights.append(aas_w)
        traces.append(cv)

    return DetectionResult(
        elevations=elevations,
        estimates=tuple(estimates),
        symbol_counts=tuple(symbol_counts),
        sensing_powers=tuple(sensing_powers),
        stage_weights=tuple(stage_weights),
        traces=tuple(traces),
    )
