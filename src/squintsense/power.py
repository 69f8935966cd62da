"""Closed-form sensing power / symbol-count allocation and communication
power allocation via the diagonally dominant linear system.

Each user's squint-compensated beam is fixed for the whole frame, so the
cross-gain table chi is built once per trial; only the sensing-leakage
noise, and with it the comm powers, changes from one sensing stage to the
next. The K user beams and the AAS stages' beams are all full beams, so
one stacked power-gain call over (beams x users x subcarriers) gives chi
and every AAS stage's leakage; the EAS beam's flat model takes one more.
An AAS stage's grid echo strength is alpha(theta_hat)^2 in closed form
(:func:`aas_grid_strength`), for every stage of a trial at once."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beamforming import BeamformerWeights
from .channel import Scene, comm_attenuation, sensing_attenuation
from .config import SystemConfig
from .exceptions import InfeasibleError

BACKOFF_STEP_DB = 0.5
BACKOFF_FLOOR_RATIO = 1e-3
SOLVE_RESIDUAL_TOL = 1e-10


@dataclass
class PowerPlan:
    """Allocated symbol counts and powers for all stages of one frame."""

    symbol_counts: list = field(default_factory=list)      # T_i per stage
    sensing_powers: list = field(default_factory=list)     # per stage: array (N,)
    comm_powers: list = field(default_factory=list)        # per stage: array (K, N)
    effective_tau_c: float = 0.0

    @property
    def n_stages(self) -> int:
        return len(self.symbol_counts)


@dataclass(frozen=True)
class SinrContext:
    """Per-trial beamforming-gain table and per-stage effective noise power.

    chi[k, l, n] = beta_k^2 |h_n(user k) . w_{l,n}|^2;
    effective_noise[i, k, n] = beta_k^2 |h_n(user k) . b_{i,n}|^2 p^s_{i,n} + sigma^2
    for sensing stage i. allocate_comm also accepts a single stage's (K, N).
    """

    chi: np.ndarray              # (K, K, N), fixed for the trial
    effective_noise: np.ndarray  # (S, K, N), one row per sensing stage


def grid_echo_strength(
    cfg: SystemConfig,
    weights: BeamformerWeights,
    grid_theta: np.ndarray,
    grid_phi: np.ndarray,
) -> np.ndarray:
    """|b^H G^los b|^2 at the per-subcarrier design grid points.

    A single hypothetical on-grid LoS target with the configured RCS is
    assumed; equals alpha(grid)^2 * |array gain|^4. AAS stages have the
    closed form :func:`aas_grid_strength`.
    """
    n = cfg.n_subcarriers
    grid_theta = np.broadcast_to(np.asarray(grid_theta, float), (n,))
    grid_phi = np.broadcast_to(np.asarray(grid_phi, float), (n,))
    alpha = sensing_attenuation(cfg, cfg.height / np.cos(grid_theta), cfg.sigma_rcs)
    return alpha**2 * weights.power_gain(grid_theta, grid_phi, np.arange(n)) ** 2


def aas_grid_strength(cfg: SystemConfig, theta_hat) -> np.ndarray:
    """:func:`grid_echo_strength` of the AAS stages locked at theta_hat.

    An AAS beam has unit gain at each subcarrier's design grid point
    (theta_hat, phi_n), so the strength is alpha(theta_hat)^2 on every
    subcarrier: (N,) for one elevation, (S, N) for S of them. alpha is
    evaluated on that broadcast array, never on a scalar: numpy's array
    d**4 rounds differently from its scalar d**4 at some distances.
    """
    theta = np.asarray(theta_hat, dtype=float)
    grid = np.broadcast_to(theta[..., None], theta.shape + (cfg.n_subcarriers,))
    return sensing_attenuation(cfg, cfg.height / np.cos(grid), cfg.sigma_rcs) ** 2


def allocate_sensing(cfg: SystemConfig, strengths: np.ndarray):
    """Minimal (T_i, p^s_{i,n}) meeting the grid SNR threshold tau_s.

    T_i = ceil(sum_n tau_s sigma^2 / (P_max strength_n)) and
    p^s_{i,n} = tau_s sigma^2 / (T_i strength_n), which makes every grid SNR
    exactly tau_s and keeps the per-symbol sum within the budget.
    """
    strengths = np.asarray(strengths, dtype=float)
    if np.any(strengths <= 0.0):
        raise InfeasibleError("zero echo strength on some subcarrier: infeasible grid")
    sigma2 = cfg.noise_variance()
    required = cfg.tau_s * sigma2 / strengths
    t_sym = max(1, math.ceil(np.sum(required) / cfg.p_s_max - 1e-12))
    powers = required / t_sym
    return t_sym, powers


def sinr_context(
    cfg: SystemConfig,
    scene: Scene,
    comm_weights: list,
    stage_weights: list,
    stage_powers: list,
) -> SinrContext:
    """Gain table of one trial and the effective noise of each sensing stage.

    Reads the user angles from ``scene.users``; each user's distance H /
    cos(theta) and noise power cfg.noise_variance() follow from the config.
    chi[k, l, :] = beta_k^2 |w_l gain at user k|^2, and effective_noise[i]
    adds the leakage of stage i's sensing beam at stage_powers[i]. The comm
    beams, one or more, and the full (AAS) stage beams form one stack, so
    one power-gain call over (beams x users x subcarriers) serves them all;
    each EAS stage's flat-model beam takes a call of its own.
    """
    n_idx = np.arange(cfg.n_subcarriers)
    theta, phi = scene.users.T[:, :, None]  # each (K, 1)
    k, n_comm = len(theta), len(comm_weights)
    beta2 = comm_attenuation(cfg, cfg.height / np.cos(theta)) ** 2  # (K, 1)
    full = [i for i, w in enumerate(stage_weights) if w.kind != "eas"]
    stack = BeamformerWeights.stack([*comm_weights, *(stage_weights[i] for i in full)])
    gains = beta2 * stack.power_gain(theta, phi, n_idx)  # (n_comm + len(full), K, N)
    leaks = dict(zip(full, gains[n_comm:]))
    # chi keeps the C-ordered (K, K, N) layout its sums round by
    chi = np.ascontiguousarray(np.swapaxes(gains[:n_comm], 0, 1))
    eff_noise = np.empty((len(stage_weights), k, cfg.n_subcarriers))
    for i, (w, p) in enumerate(zip(stage_weights, stage_powers)):
        leak = leaks[i] if i in leaks else beta2 * w.power_gain(theta, phi, n_idx)
        eff_noise[i] = leak * p + cfg.noise_variance()
    return SinrContext(chi=chi, effective_noise=eff_noise)


def _ratio_sums(chi: np.ndarray) -> np.ndarray:
    """Cross-gain ratio sums sum_{l != k} chi[k, l, n] / chi[k, k, n], shape (K, N)."""
    diag = np.einsum("kkn->kn", chi)
    if np.any(diag == 0.0):
        raise InfeasibleError("a user has zero direct beamforming gain")
    return (chi.sum(axis=1) - diag) / diag


def allocate_comm(ctx: SinrContext, tau_c: float) -> np.ndarray:
    """Solve D_n p = s_n for the per-user powers on every subcarrier n.

    Feasibility, diag and D_n depend only on chi, so they are formed once;
    then every subcarrier of every stage is solved in one batched call. The
    result has the shape of ``ctx.effective_noise``: (K, N), or (S, K, N)
    with a leading stage axis. Requires the diagonal-dominance condition to
    hold at tau_c on every subcarrier; the returned powers are strictly
    positive and achieve SINR exactly tau_c per user.
    """
    feasible = np.all(1.0 / tau_c > _ratio_sums(ctx.chi), axis=0)
    if not feasible.all():
        bad = int(np.argmin(feasible))
        raise InfeasibleError(
            f"SINR threshold infeasible on subcarrier {bad}", last_threshold=tau_c
        )
    diag = np.einsum("kkn->kn", ctx.chi)
    k, n = diag.shape
    d_mtx = np.moveaxis(-tau_c * ctx.chi / diag[:, None, :], 2, 0)  # (N, K, K)
    d_mtx[:, np.arange(k), np.arange(k)] = 1.0
    stages = (tau_c * ctx.effective_noise / diag).reshape(-1, k, n)
    rhs = np.swapaxes(stages, 1, 2)[..., None]  # (S, N, K, 1)
    solved = np.linalg.solve(d_mtx, rhs)  # d_mtx broadcasts over the stage axis
    residual = np.linalg.norm(d_mtx @ solved - rhs, axis=(2, 3))
    limit = SOLVE_RESIDUAL_TOL * np.maximum(np.linalg.norm(rhs, axis=(2, 3)), 1e-300)
    if np.any(residual > limit):
        raise InfeasibleError(f"power solve residual too large: {residual.max()}")
    # each stage's powers stay the transposed view of a C-ordered (N, K)
    # block: numpy's sums round by memory layout, and a (K, N) copy would
    # move the trial's power sums in the last digit
    powers = np.swapaxes(solved[..., 0], 1, 2)
    return powers if ctx.effective_noise.ndim == 3 else powers[0]


def backoff_tau_c(ctx: SinrContext, tau_c: float) -> float:
    """Largest tau_c * 10^(-0.05 j) feasible on every subcarrier (0.5 dB steps).

    A candidate is feasible when 1 / candidate exceeds every ratio sum, so each
    ladder step compares one float with the largest of them (NaN when any is
    NaN, which no candidate passes). The ladder is the repeated product
    tau_c * step * step ..., so every candidate keeps its bits.
    """
    worst = float(np.max(_ratio_sums(ctx.chi), initial=-np.inf))
    floor = tau_c * BACKOFF_FLOOR_RATIO
    candidate = tau_c
    step = 10.0 ** (-BACKOFF_STEP_DB / 10.0)
    while candidate >= floor:
        if 1.0 / candidate > worst:
            return candidate
        candidate *= step
    raise InfeasibleError(
        "no feasible SINR threshold above the backoff floor", last_threshold=candidate
    )
