"""Modified matching pursuit with a counting vector, run per stage over one
(L, N) dictionary of dense angle candidates, and the hierarchical EAS -> AAS
pipeline.

What does not depend on the scene is computed once per config and cached
read-only in one :func:`proposed_plan`, which :func:`hierarchical_detect`
fetches once per trial and hands to both pursuits: the whole EAS stage and,
for the AAS stages, the azimuth candidates with their horizontal phase per
unit sin(theta_hat). Every AAS stage's pursuit, and past one kernel block
the EAS pursuit, evaluates only the dictionary rows whose block bound can
reach the best pick, and each pick is still certified against the whole
dictionary. AAS rows are kernel evaluations, so skipping them pays at every
size; EAS rows are read from the cached dictionary, so up to one kernel
block its whole-dictionary GEMM is cheaper than the bounds. An AAS stage's
block bounds depend only on the config and |sin(theta_hat)|, so they are
tabulated per bin of |sin(theta_hat)| (:func:`aas_bin_tables`), each bin
built once, on the first stage that falls in it.

The AAS stages depend only on the elevations the EAS pursuit picks, not on
each other. Every beam of a trial's frame is evaluated once, over the
scene's scatterers followed by its users: the EAS beam in one power-gain
call, and the AAS beams stacked with the K user beams in one more. The
scatterer rows give every stage's echo; the user rows, each stage beam's
leakage and the users' cross gains, go to the communication allocation in
:attr:`DetectionResult.user_gains`. All AAS stages are allocated in one
stacked call from the plan's eas_alpha of their candidates; each stage
keeps its own noise draw, in stage order, and its own dictionary, scaled by
sqrt(p) alpha, and pursuit."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beamforming import (
    BeamformerWeights,
    aas_azimuth_grid,
    aas_unit_phase,
    eas_beamformer,
    eas_elevation_grid,
    frame_beams,
)
from .channel import Scene, echo_sum, scene_arrays, sensing_attenuation
from .config import SystemConfig
from .exceptions import ConfigError
from .geometry import ENVELOPE_MARGIN, FEJER_BLOCK, fejer_envelope, uniform_phase_power
from .power import allocate_sensing, grid_echo_strength

# Uniform bins of |sin(theta_hat)| over the EAS candidates' range, about
# [sin(theta_min), sin(theta_max)], plus one bin on each side out to 0 and 1,
# each with its AAS block bounds
AAS_BINS = 16


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
    user_gains: np.ndarray  # (stages + K, K, N) power gain |g|^2 at each of the K users
                            # of each stage's beam, EAS first, then of each user's beam
    traces: tuple        # CountingVector per stage


def elevation_candidates(cfg: SystemConfig) -> np.ndarray:
    if cfg.uniform_candidate_grid:
        return np.linspace(cfg.theta_min, cfg.theta_max, cfg.n_candidates)
    return eas_elevation_grid(cfg, cfg.subcarrier_offsets(cfg.n_candidates))


def azimuth_candidates(cfg: SystemConfig) -> np.ndarray:
    if cfg.uniform_candidate_grid:
        return np.linspace(cfg.phi_min, cfg.phi_max, cfg.n_candidates)
    return aas_azimuth_grid(cfg, cfg.subcarrier_offsets(cfg.n_candidates))


def assemble_observation(
    cfg: SystemConfig,
    echo: np.ndarray,
    powers: np.ndarray,
    t_symbols,
    rng: np.random.Generator,
) -> np.ndarray:
    """Average of t_symbols matched echoes per subcarrier, as an (N,) array.

    The matched filter preserves the circular Gaussian noise statistics, so
    the T-symbol average is drawn directly with variance sigma^2 / T.
    ``echo`` (N,) is the beam's noise-free echo b^H G_n b at unit power, as
    :func:`~squintsense.channel.echo_gain` gives it. A stack of B beams takes
    (B, N) echoes and powers and B symbol counts and gives (B, N): every
    beam's noise in one draw, beam by beam in the random stream.
    """
    t_symbols = np.asarray(t_symbols)
    if np.any(t_symbols < 1):
        raise ConfigError("t_symbols must be at least 1")
    n = cfg.n_subcarriers
    signal = np.sqrt(powers) * echo
    scales = np.sqrt(cfg.noise_variance() / (2.0 * t_symbols))
    draws = rng.standard_normal((scales.size, 2, n))  # beam by beam: real, then imaginary
    noise = scales.reshape(-1, 1) * (draws[:, 0] + 1j * draws[:, 1])
    return signal + noise.reshape(signal.shape)


def _aas_rows(cfg: SystemConfig, plan, theta_hat: float, index, out=None) -> np.ndarray:
    """Rows ``index`` of the (L, N) Fejer power table of the AAS beam at theta_hat,
    from ``plan`` = proposed_plan(cfg), written to ``out`` when given."""
    rows = plan.aas_unit_phase[index]
    return uniform_phase_power(rows, cfg.m_h, scale=np.sin(theta_hat), out=out)


def modified_mp(
    obs: np.ndarray,
    rows: np.ndarray,
    norms: np.ndarray,
    iterations: int,
) -> CountingVector:
    """Greedy matching pursuit with phasor-normalized coefficients.

    ``rows`` (L, N) is the dictionary, row l the real nonnegative pattern of
    candidate l, and ``norms`` (L,) its row 2-norms. Each iteration selects
    the row maximizing the norm-normalized correlation with the residual,
    normalizes the estimated coefficient to unit magnitude (the true
    coefficients are range phasors), deflates the residual, and increments
    the counting vector. Repeated selection of one index is allowed. The real
    dictionary is correlated with the complex residual in one real GEMM over
    the residual's (N, 2) float view.
    """
    if iterations > 0 and np.any(norms == 0.0):
        raise ConfigError("degenerate dictionary: zero-norm column")
    return _block_pursuit(obs, iterations, len(norms), len(norms), None, None, (rows, norms))


def _block_pursuit(
    obs, iterations: int, n_cand: int, size: int, bound, rows, evaluated=None
) -> CountingVector:
    """The loop of :func:`modified_mp` over n_cand candidates in blocks of ``size``,
    whose picks are those of the whole dictionary, ties to the least candidate.
    Each pick evaluates only the blocks whose bound(residual) (B,) reaches the
    best exact metric: largest bound first, in a first batch of
    max(1, min(4, FEJER_BLOCK // N // size)) blocks, doubling after each batch
    (Fagin, Lotem & Naor, PODS 2001). rows(index, out) writes the rows of at
    most FEJER_BLOCK // N candidates, one kernel block, to out and returns
    their norms.
    Evaluated rows are kept, in evaluation order, for later picks; each pick
    correlates them in one GEMM and each fresh batch in one more. Given
    ``evaluated`` = (rows (n_cand, N), norms (n_cand,)), every candidate starts
    evaluated, in order, and no bound is taken."""
    if iterations < 0:
        raise ConfigError("iterations must be nonnegative")
    chunk = FEJER_BLOCK // len(obs)
    done = np.zeros(-(-n_cand // size), dtype=bool)  # blocks evaluated
    if evaluated is None:
        kept, norms = np.empty((n_cand, len(obs))), np.empty(n_cand)
        cand, count, left = np.empty(n_cand, dtype=int), 0, len(done)
    else:
        (kept, norms), cand, count, left = evaluated, range(n_cand), n_cand, 0
    corr, metric = np.empty(n_cand, dtype=complex), np.empty(n_cand)
    pairs = corr.view(float).reshape(-1, 2)  # the real GEMM's output
    counts = np.zeros(n_cand, dtype=int)
    phasors = []
    trace = []
    residual = np.asarray(obs, dtype=complex).copy()
    for _ in range(iterations):
        r = residual.view(float).reshape(-1, 2)
        np.matmul(kept[:count], r, out=pairs[:count])
        np.divide(np.abs(corr[:count]), norms[:count], metric[:count])
        if left:
            top, batch = bound(residual), max(1, min(4, chunk // size))
            top[done] = -np.inf
        while left:
            live = np.flatnonzero(top >= metric[:count].max(initial=0.0))
            if not live.size:
                break
            blocks = live[np.argsort(top[live])[::-1][:batch]]
            top[blocks], done[blocks], left = -np.inf, True, left - len(blocks)
            new = (blocks[:, None] * size + np.arange(size)).ravel()
            new = new[new < n_cand]
            end = count + len(new)
            cand[count:end] = new
            for i in range(count, end, chunk):  # one kernel block per call
                j = min(i + chunk, end)
                norms[i:j] = rows(cand[i:j], kept[i:j])
            if not norms[count:end].all():
                raise ConfigError("degenerate dictionary: zero-norm column")
            np.matmul(kept[count:end], r, out=pairs[count:end])
            np.divide(np.abs(corr[count:end]), norms[count:end], metric[count:end])
            count, batch = end, 2 * batch
        i = int(np.argmax(metric[:count]))
        if evaluated is None:  # rows in evaluation order: a tie goes to the least candidate
            ties = np.flatnonzero(metric[:count] == metric[i])
            i = ties[np.argmin(cand[ties])]
        coeff = corr[i] / norms[i] ** 2
        if coeff == 0:
            break
        phasor = coeff / abs(coeff)
        residual = residual - phasor * kept[i]
        best = int(cand[i])
        counts[best] += 1
        phasors.append(phasor)
        trace.append((best, float(metric[i]), float(np.linalg.norm(residual))))
    return CountingVector(counts=counts, phasors=tuple(phasors), trace=tuple(trace))


def eas_pursuit(plan, obs, iterations: int) -> CountingVector:
    """Picks equal to those of modified_mp over the stage's whole (L, N) table,
    the EAS dictionary D = eas_rows of ``plan`` = proposed_plan(cfg). Past
    FEJER_BLOCK entries it runs :func:`_block_pursuit` on blocks of ceil(L/N)
    rows, with bound (1 + ENVELOPE_MARGIN) sum_n U(b, n) |r_n|, U the plan's
    eas_block_bound: since D >= 0, |corr_l| / norm_l is at most that sum for
    every row l of block b; a GEMM of fewer rows may round apart. Up to
    FEJER_BLOCK entries the whole GEMM of modified_mp is kept: EAS rows are
    read from the cached dictionary, not computed, so bounds save no kernel
    work there. A dictionary with a zero-norm row goes to modified_mp, which
    rejects it."""
    table, norms = plan.eas_rows, plan.eas_norms
    if table.size <= FEJER_BLOCK or (iterations > 0 and not norms.all()):
        return modified_mp(obs, table, norms, iterations)
    n_cand, n = table.shape

    def rows(index, out):
        np.take(table, index, axis=0, out=out, mode="clip")  # "raise" copies twice
        return norms[index]

    return _block_pursuit(
        obs, iterations, n_cand, -(-n_cand // n),
        lambda r: (1 + ENVELOPE_MARGIN) * (plan.eas_block_bound @ np.abs(r)), rows,
    )


def aas_pursuit(
    cfg: SystemConfig, plan, theta_hat, scale, obs, iterations: int
) -> CountingVector:
    """Picks equal to those of modified_mp over the stage's whole (L, N) table
    at elevation theta_hat with dictionary scale (N,), from ``plan`` =
    proposed_plan(cfg): row l is :func:`_aas_rows` row l, the power gain of
    aas_beamformer(cfg, theta_hat) at candidate l, times scale_n = sqrt(p_n)
    alpha(theta_hat) for the stage's powers p. It runs at every table size
    through :func:`_block_pursuit` on the plan's blocks of ceil(L/N) rows,
    with bound (1 + ENVELOPE_MARGIN) sum_n U(b, n) scale_n |r_n| /
    ((1 - ENVELOPE_MARGIN) floor(b) min(scale)), inf for a zero divisor: U
    and floor are the :func:`aas_bin_tables` of the bin holding
    |sin(theta_hat)|. Each row is computed at most once per stage. A GEMM of
    fewer rows may round apart."""
    n_cand, n = plan.aas_unit_phase.shape
    sin_theta = abs(np.sin(theta_hat))
    envelope, floor = aas_bin_tables(
        cfg, int(np.searchsorted(plan.aas_bin_edges[1:-1], sin_theta, side="right"))
    )
    divisor = (1 - ENVELOPE_MARGIN) / (1 + ENVELOPE_MARGIN) * scale.min() * floor

    def bound(residual):
        top = envelope @ (scale * np.abs(residual))
        return np.divide(top, divisor, out=np.full(len(divisor), np.inf), where=divisor > 0)

    def rows(index, out):
        _aas_rows(cfg, plan, theta_hat, index, out=out)
        out *= scale
        return np.sqrt(np.einsum("ln,ln->l", out, out))

    return _block_pursuit(obs, iterations, n_cand, -(-n_cand // n), bound, rows)


@functools.lru_cache(maxsize=4 * (AAS_BINS + 2))
def aas_bin_tables(cfg: SystemConfig, j: int):
    """Read-only AAS block bounds of bin j = [s_j, s_j+1] of the plan's
    aas_bin_edges, valid for every |sin(theta_hat)| in it: the envelope U (B, N)
    of the Fejer power over each block's |X| range, widened to the bin, and a
    floor (B,) of every block row's 2-norm at unit scale. F falls on its main
    lobe |x| <= 2/m_h, so a row with entries |X| <= x on some subcarriers has
    at least the norm of F(s_j+1 x) on those where s_j+1 x <= 2/m_h. The floor
    takes the larger of two such sets: every subcarrier at x = hi_b, its
    block's largest |X|, and the least over the block's rows of the row's own
    aas_row_window. Built on the first stage that needs it; ENVELOPE_MARGIN is
    left to the caller."""
    plan = proposed_plan(cfg)
    lo, hi = plan.aas_block_range
    s_lo, s_hi = plan.aas_bin_edges[j : j + 2]
    envelope = fejer_envelope(1.0, cfg.m_h, s_lo * lo, s_hi * hi)
    block, row = (
        np.linalg.norm(uniform_phase_power(x, cfg.m_h) * (x <= 2 / cfg.m_h), axis=1)
        for x in (s_hi * hi, s_hi * plan.aas_row_window)
    )
    starts = np.arange(0, cfg.n_candidates, -(-cfg.n_candidates // cfg.n_subcarriers))
    floor = np.maximum(block, np.minimum.reduceat(row, starts))
    envelope.flags.writeable = floor.flags.writeable = False
    return envelope, floor


class ProposedPlan(NamedTuple):
    """Config-invariant part of the proposed method; its arrays are read-only.
    :func:`eas_pursuit` picks what modified_mp picks over the whole eas_rows:
    row l = sqrt(p_0) alpha(theta_l) |gain(theta_l, f_n)|^2 of the EAS beam,
    alpha(theta_l) = eas_alpha[l]."""

    eas_weights: BeamformerWeights
    eas_symbol_count: int          # T_0
    eas_powers: np.ndarray         # (N,) sensing powers p_0
    eas_candidates: np.ndarray     # (L,) elevation candidates
    eas_alpha: np.ndarray          # (L,) sensing attenuation alpha at each candidate
    eas_rows: np.ndarray           # (L, N) stage-0 dictionary
    eas_norms: np.ndarray          # (L,) its row 2-norms
    eas_block_bound: np.ndarray    # (B, N) largest entry over least norm per block of rows
    aas_candidates: np.ndarray     # (L,) azimuth candidates
    aas_unit_phase: np.ndarray     # (L, N) horizontal phase over sin(theta_hat)
    aas_block_range: np.ndarray    # (2, B, N) least and largest |aas_unit_phase| per block;
                                   # aas_bin_tables widens it to a bin's envelope
    aas_row_window: np.ndarray     # (L, W) each row's |aas_unit_phase| on the W = min(8, N)
                                   # subcarriers around its least: aas_bin_tables' row floors
    aas_bin_edges: np.ndarray      # (AAS_BINS + 3,) 0, the candidates' sine range, 1:
                                   # the |sin(theta_hat)| bins of aas_bin_tables


@functools.lru_cache(maxsize=4)
def proposed_plan(cfg: SystemConfig) -> ProposedPlan:
    """EAS beamformer, (T_0, p_0) and dictionary, and the azimuth candidates
    with their :func:`~squintsense.beamforming.aas_unit_phase` table X, each
    with bounds on its blocks of ceil(L/N) rows. None of them depends on the scene,
    so they are computed once per config, shared by every trial and AAS
    stage, and made read-only."""
    weights = eas_beamformer(cfg)
    phi_probe = 0.5 * (cfg.phi_min + cfg.phi_max)  # flat model: phi-independent
    strengths = grid_echo_strength(cfg, weights, eas_elevation_grid(cfg), phi_probe)
    t0, p0 = allocate_sensing(cfg, strengths)
    eas_cand = elevation_candidates(cfg)
    rows = weights.power_gain(eas_cand[:, None], phi_probe, np.arange(cfg.n_subcarriers))
    alpha = sensing_attenuation(cfg, cfg.height / np.cos(eas_cand), cfg.sigma_rcs)
    rows *= np.sqrt(p0) * alpha[:, None]
    norms = np.sqrt(np.einsum("ln,ln->l", rows, rows))
    starts = np.arange(0, cfg.n_candidates, -(-cfg.n_candidates // cfg.n_subcarriers))
    # one (B, N) reduction each, with no (L, N) temporary
    eas_bound = np.maximum.reduceat(rows, starts)
    eas_bound /= np.minimum.reduceat(norms, starts)[:, None]
    cand = azimuth_candidates(cfg)
    unit_phase = aas_unit_phase(cfg, cand)
    magnitude = np.abs(unit_phase)
    block_range = np.stack([f.reduceat(magnitude, starts) for f in (np.minimum, np.maximum)])
    width = min(8, cfg.n_subcarriers)
    first = np.clip(magnitude.argmin(axis=1) - width // 2, 0, cfg.n_subcarriers - width)
    window = np.take_along_axis(magnitude, first[:, None] + np.arange(width), axis=1)
    # the squint grid's ends can sit an ulp outside [theta_min, theta_max]: the
    # inner bins span the candidates, so every EAS pick takes an inner bin
    inner = np.linspace(*np.sin([eas_cand.min(), eas_cand.max()]), AAS_BINS + 1)
    edges = np.concatenate([[0.0], inner, [1.0]])
    arrays = (
        p0, eas_cand, alpha, rows, norms, eas_bound, cand, unit_phase, block_range, window, edges
    )
    for arr in arrays:
        arr.flags.writeable = False
    return ProposedPlan(weights, t0, *arrays)


def hierarchical_detect(
    cfg: SystemConfig,
    scene: Scene,
    rng: np.random.Generator,
) -> DetectionResult:
    """Full EAS -> AAS pipeline with per-stage power allocation.

    The number of targets q = len(scene.targets) is assumed known; it fixes
    the MP iteration counts. Each distinct elevation candidate selected in
    stage 0 spawns one AAS stage whose iteration count is that candidate's
    multiplicity. An AAS beam has unit gain on its design grid, so one
    allocate_sensing call on the (S, 1) stack of the candidates' eas_alpha^2
    allocates every AAS stage. The plan's EAS beam and the trial's one
    beamformer, :func:`~squintsense.beamforming.frame_beams` of the selected
    candidates and the users, each take one power-gain call over the scene's
    scatterers followed by its users; the noise is drawn stage by stage,
    EAS first, so the random stream is consumed in stage order. A frame with
    no AAS stage or no user takes the same path on empty stacks.
    """
    plan = proposed_plan(cfg)
    t0, p0 = plan.eas_symbol_count, plan.eas_powers
    s_theta, s_phi, amp = scene_arrays(cfg, scene)
    n_scat = len(amp)
    theta = np.concatenate((s_theta, scene.users[:, 0]))[:, None]
    phi = np.concatenate((s_phi, scene.users[:, 1]))[:, None]
    n_idx = np.arange(cfg.n_subcarriers)

    eas_gain = plan.eas_weights.power_gain(theta, phi, n_idx)  # (S + K, N)
    obs0 = assemble_observation(cfg, echo_sum(amp, eas_gain[:n_scat]), p0, t0, rng)
    cv0 = eas_pursuit(plan, obs0, len(scene.targets))

    selected = np.flatnonzero(cv0.counts)
    theta_hats = plan.eas_candidates[selected]
    elevations = tuple(zip(theta_hats.tolist(), cv0.counts[selected].tolist()))
    alphas = plan.eas_alpha[selected]
    t_aas, p_aas = allocate_sensing(cfg, alphas[:, None] ** 2)
    # (A + K, S + K, N): the A AAS beams, then the K user beams
    gains = frame_beams(cfg, theta_hats, scene.users).power_gain(theta, phi, n_idx)
    echoes = echo_sum(amp, gains[: len(elevations), :n_scat])
    observations = assemble_observation(cfg, echoes, p_aas, t_aas, rng)
    estimates = []
    traces = [cv0]
    for (theta_hat, multiplicity), alpha, p_i, obs in zip(
        elevations, alphas, p_aas, observations
    ):
        cv = aas_pursuit(cfg, plan, theta_hat, np.sqrt(p_i) * alpha, obs, multiplicity)
        stage_azimuths = np.repeat(plan.aas_candidates, cv.counts)
        estimates.extend((theta_hat, float(ph)) for ph in stage_azimuths)
        traces.append(cv)

    return DetectionResult(
        elevations=elevations,
        estimates=tuple(estimates),
        symbol_counts=(t0, *t_aas.tolist()),
        sensing_powers=(p0, *p_aas),
        user_gains=np.concatenate((eas_gain[None, n_scat:], gains[:, n_scat:])),
        traces=tuple(traces),
    )
