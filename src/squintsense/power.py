"""Closed-form sensing power / symbol-count allocation and communication
power allocation via the diagonally dominant linear system."""

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
    """Per-subcarrier beamforming-gain table and effective noise power.

    chi[k, l, n] = |h_n(user k) . w_{l,n}|^2;
    effective_noise[k, n] = |h_n(user k) . b_{i,n}|^2 p^s_{i,n} + sigma_k^2.
    """

    chi: np.ndarray             # (K, K, N)
    effective_noise: np.ndarray  # (K, N)


def grid_echo_strength(
    cfg: SystemConfig,
    weights: BeamformerWeights,
    grid_theta: np.ndarray,
    grid_phi: np.ndarray,
) -> np.ndarray:
    """|b^H G^los b|^2 at the per-subcarrier design grid points.

    A single hypothetical on-grid LoS target with the configured RCS is
    assumed; equals alpha(grid)^2 * |array gain|^4. An AAS beam has unit
    gain at each subcarrier's design grid point (theta_hat, phi_n), so for
    ``aas`` weights this is alpha(theta_hat)^2 and grid_phi is not used.
    """
    n = cfg.n_subcarriers
    grid_theta = np.broadcast_to(np.asarray(grid_theta, float), (n,))
    alpha = sensing_attenuation(cfg, cfg.height / np.cos(grid_theta), cfg.sigma_rcs)
    if weights.kind == "aas":
        return alpha**2
    grid_phi = np.broadcast_to(np.asarray(grid_phi, float), (n,))
    return alpha**2 * weights.power_gain(grid_theta, grid_phi, np.arange(n)) ** 2


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
    sensing_weights: BeamformerWeights,
    sensing_powers: np.ndarray,
) -> SinrContext:
    """Gain table and effective noise for one sensing stage.

    chi[k, l, :] = beta_k^2 |w_l gain at user k|^2, one power-gain call per
    beamformer over (users x subcarriers).
    """
    users = scene.users
    n_idx = np.arange(cfg.n_subcarriers)
    theta = np.array([u.theta for u in users], dtype=float)[:, None]
    phi = np.array([u.phi for u in users], dtype=float)[:, None]
    beta2 = comm_attenuation(cfg, np.array([u.distance for u in users], dtype=float)) ** 2
    noise_var = np.array([u.noise_var for u in users], dtype=float)
    chi = np.empty((len(users), len(comm_weights), cfg.n_subcarriers))
    for l, w in enumerate(comm_weights):
        chi[:, l, :] = beta2[:, None] * w.power_gain(theta, phi, n_idx)
    leak = beta2[:, None] * sensing_weights.power_gain(theta, phi, n_idx)
    eff_noise = leak * sensing_powers + noise_var[:, None]
    return SinrContext(chi=chi, effective_noise=eff_noise)


def _ratio_sums(chi: np.ndarray) -> np.ndarray:
    """Cross-gain ratio sums sum_{l != k} chi[k, l, n] / chi[k, k, n], shape (K, N')."""
    diag = np.einsum("kkn->kn", chi)
    if np.any(diag == 0.0):
        raise InfeasibleError("a user has zero direct beamforming gain")
    return (chi.sum(axis=1) - diag) / diag


def _subcarriers(n):
    """Index selecting subcarrier n (kept as an axis), or all when n is None."""
    return slice(None) if n is None else [n]


def check_feasibility(ctx: SinrContext, tau_c: float, n: int | None = None) -> bool:
    """True iff 1/tau_c strictly dominates every row's cross-gain ratio sum
    on subcarrier n (on every subcarrier when n is None)."""
    ratio_sums = _ratio_sums(ctx.chi[:, :, _subcarriers(n)])
    return bool(np.all(1.0 / tau_c > ratio_sums))


def allocate_comm(ctx: SinrContext, tau_c: float, n: int | None = None) -> np.ndarray:
    """Solve D_n p = s_n for the per-user powers on subcarrier n.

    With n None, all subcarriers are solved in one batched call and the
    result has shape (K, N); otherwise it is the (K,) vector for n.
    Requires the diagonal-dominance condition to hold at tau_c on every
    solved subcarrier; the returned powers are strictly positive and achieve
    SINR exactly tau_c per user.
    """
    sel = _subcarriers(n)
    chi = ctx.chi[:, :, sel]
    feasible = np.all(1.0 / tau_c > _ratio_sums(chi), axis=0)
    if not feasible.all():
        bad = n if n is not None else int(np.argmin(feasible))
        raise InfeasibleError(
            f"SINR threshold infeasible on subcarrier {bad}", last_threshold=tau_c
        )
    diag = np.einsum("kkn->kn", chi)
    k = chi.shape[0]
    d_mtx = np.moveaxis(-tau_c * chi / diag[:, None, :], 2, 0)  # (N', K, K)
    d_mtx[:, np.arange(k), np.arange(k)] = 1.0
    rhs = (tau_c * ctx.effective_noise[:, sel] / diag).T[:, :, None]  # (N', K, 1)
    powers = np.linalg.solve(d_mtx, rhs)
    residual = np.linalg.norm(d_mtx @ powers - rhs, axis=(1, 2))
    limit = SOLVE_RESIDUAL_TOL * np.maximum(np.linalg.norm(rhs, axis=(1, 2)), 1e-300)
    if np.any(residual > limit):
        raise InfeasibleError(f"power solve residual too large: {residual.max()}")
    powers = powers[:, :, 0].T  # (K, N')
    return powers if n is None else powers[:, 0]


def backoff_tau_c(ctx: SinrContext, tau_c: float) -> float:
    """Largest tau_c * 10^(-0.05 j) feasible on every subcarrier (0.5 dB steps)."""
    ratio_sums = _ratio_sums(ctx.chi)
    floor = tau_c * BACKOFF_FLOOR_RATIO
    candidate = tau_c
    step = 10.0 ** (-BACKOFF_STEP_DB / 10.0)
    while candidate >= floor:
        if np.all(1.0 / candidate > ratio_sums):
            return candidate
        candidate *= step
    raise InfeasibleError(
        "no feasible SINR threshold above the backoff floor", last_threshold=candidate
    )
