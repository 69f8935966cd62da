"""Closed-form sensing power / symbol-count allocation and communication
power allocation via the diagonally dominant linear system, and the frame's
power plan as one array form (:class:`PowerPlan`), which
:func:`squintsense.simkit.allocate_comm_plan` builds once per trial.

Each user's squint-compensated beam is fixed for the whole frame, so the
cross-gain table chi is built once per trial; only the sensing-leakage
noise, and with it the comm powers, changes from one sensing stage to the
next. Detection evaluates every beam of the frame once, over the scene's
scatterers and users together, and hands the user rows on: each stage
beam's power gain at the users and each user beam's, from which
:func:`sinr_context` forms chi and every stage's effective noise in one
broadcast, with no power-gain call of its own. chi's diagonal and its ratio
sums are computed once per context and shared by the backoff, the
feasibility test and the achieved SINR. A stage's grid echo strength, the
alpha^2 |gain|^4 of one on-grid LoS target at each design grid point, is in
closed form: alpha(theta_n)^2 (g^2)^2 for the EAS beam, whose vertical power
there is exactly 1 and whose horizontal chain is the flat gain g, and
alpha(theta_hat)^2 on every subcarrier for an AAS beam, unit gain on its
grid: one number per stage, so :func:`allocate_sensing` allocates a trial's
AAS stages in one call on the (S, 1) stack of them."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import Scene, comm_attenuation
from .config import SystemConfig
from .exceptions import InfeasibleError

BACKOFF_STEP_DB = 0.5
BACKOFF_FLOOR_RATIO = 1e-3
SOLVE_RESIDUAL_TOL = 1e-10


class PowerPlan(NamedTuple):
    """Symbol counts, powers and achieved SINR of every stage of one frame,
    as arrays over S stages, K users and N subcarriers. A scan's one stage
    holds its N^2 symbols' sensing powers as (1, N^2), T folded in."""

    symbol_counts: np.ndarray   # (S,) T_i per stage
    sensing_powers: np.ndarray  # (S, N) p^s_{i,n}
    effective_tau_c: float      # the (possibly backed-off) SINR target
    comm_powers: np.ndarray     # (S, K, N) p^c_{i,k,n}
    sinrs: np.ndarray           # (S, K, N) achieved SINR


@dataclass(frozen=True)
class SinrContext:
    """Per-trial beamforming-gain table and per-stage effective noise power.

    chi[k, l, n] = beta_k^2 |h_n(user k) . w_{l,n}|^2;
    effective_noise[i, k, n] = beta_k^2 |h_n(user k) . b_{i,n}|^2 p^s_{i,n} + sigma^2
    for sensing stage i. ``diag`` and ``ratio_sums`` are computed from chi on
    first use, once per context.
    """

    chi: np.ndarray              # (K, K, N), fixed for the trial
    effective_noise: np.ndarray  # (S, K, N), one row per sensing stage

    @functools.cached_property
    def diag(self) -> np.ndarray:
        """Direct gains chi[k, k, n], shape (K, N)."""
        return np.einsum("kkn->kn", self.chi)

    @functools.cached_property
    def ratio_sums(self) -> np.ndarray:
        """Cross-gain ratio sums sum_{l != k} chi[k, l, n] / chi[k, k, n], shape (K, N)."""
        diag = self.diag
        if np.any(diag == 0.0):
            raise InfeasibleError("a user has zero direct beamforming gain")
        return (self.chi.sum(axis=1) - diag) / diag


def allocate_sensing(cfg: SystemConfig, strengths: np.ndarray):
    """Minimal (T_i, p^s_{i,n}) meeting the grid SNR threshold tau_s.

    T_i = ceil(sum_n tau_s sigma^2 / (P_max strength_n)) and
    p^s_{i,n} = tau_s sigma^2 / (T_i strength_n), which makes every grid SNR
    exactly tau_s and keeps the per-symbol sum within the budget. Takes a
    stack of strengths (..., N), one stage per row, a last axis of 1 meaning
    one strength on every subcarrier, and gives int64 T (...,) and p (..., N),
    T 0-d for an (N,) row. A broadcast row sums to the bits of its full (N,)
    row, which N times the term would not.
    """
    strengths = np.asarray(strengths, dtype=float)
    if np.any(strengths <= 0.0):
        raise InfeasibleError("zero echo strength on some subcarrier: infeasible grid")
    required = cfg.tau_s * cfg.noise_variance() / strengths
    required = np.broadcast_to(required, required.shape[:-1] + (cfg.n_subcarriers,))
    t_sym = np.ceil(required.sum(axis=-1) / cfg.p_s_max - 1e-12)
    if not np.all(t_sym < 2.0**63):  # inf and NaN fail too
        raise InfeasibleError("sensing budget too small: symbol count exceeds int64")
    t_sym = np.maximum(1, t_sym).astype(np.int64)
    return t_sym, required / t_sym[..., None]


def sinr_context(
    cfg: SystemConfig,
    scene: Scene,
    user_gains: np.ndarray,
    stage_powers: np.ndarray,
) -> SinrContext:
    """Gain table of one trial and the effective noise of each sensing stage.

    ``user_gains`` (S + K, K, N) is the power gain |g|^2 at each of the K
    users of scene.users of each of the S stage beams, then of each user's
    beam, as :attr:`~squintsense.detection.DetectionResult.user_gains` holds
    it; ``stage_powers`` the S stages' sensing powers (S, N). Each user's
    distance H / cos(theta) and noise power cfg.noise_variance() follow from
    the config. chi[k, l, :] = beta_k^2 |w_l gain at user k|^2, and
    effective_noise[i] adds the leakage of stage i's sensing beam at
    stage_powers[i], every stage in one broadcast.
    """
    theta = scene.users[:, 0, None]  # (K, 1)
    beta2 = comm_attenuation(cfg, cfg.height / np.cos(theta)) ** 2
    gains = beta2 * user_gains
    n_stages = len(stage_powers)
    # chi keeps the C-ordered (K, K, N) layout its sums round by
    chi = np.ascontiguousarray(np.swapaxes(gains[n_stages:], 0, 1))
    eff_noise = gains[:n_stages]
    eff_noise *= stage_powers[:, None]
    eff_noise += cfg.noise_variance()
    return SinrContext(chi=chi, effective_noise=eff_noise)


def allocate_comm(ctx: SinrContext, tau_c: float) -> np.ndarray:
    """Solve D_n p = s_n for the per-user powers on every subcarrier n.

    Feasibility, diag and D_n depend only on chi, so they are formed once
    (the first two with the context); then every subcarrier of every stage
    is solved in one batched call. The result has the shape of
    ``ctx.effective_noise``, (..., K, N) with any leading stage axes: one
    stage's (K, N), a frame's (S, K, N); K may be 0. Requires diagonal
    dominance at tau_c on every subcarrier; the returned powers are strictly
    positive and achieve SINR exactly tau_c per user.
    """
    feasible = np.all(1.0 / tau_c > ctx.ratio_sums, axis=0)
    if not feasible.all():
        bad = int(np.argmin(feasible))
        raise InfeasibleError(
            f"SINR threshold infeasible on subcarrier {bad}", last_threshold=tau_c
        )
    diag = ctx.diag
    k = len(diag)
    d_mtx = np.moveaxis(-tau_c * ctx.chi / diag[:, None, :], 2, 0)  # (N, K, K)
    d_mtx[:, np.arange(k), np.arange(k)] = 1.0
    rhs = np.swapaxes(tau_c * ctx.effective_noise / diag, -1, -2)[..., None]  # (..., N, K, 1)
    solved = np.linalg.solve(d_mtx, rhs)  # d_mtx broadcasts over the stage axes
    residual = np.linalg.norm(d_mtx @ solved - rhs, axis=(-2, -1))
    limit = SOLVE_RESIDUAL_TOL * np.maximum(np.linalg.norm(rhs, axis=(-2, -1)), 1e-300)
    if np.any(residual > limit):
        raise InfeasibleError(f"power solve residual too large: {residual.max()}")
    # each stage's powers stay the transposed view of a C-ordered (N, K)
    # block: numpy's sums round by memory layout, and a (K, N) copy would
    # move the trial's power sums in the last digit
    return np.swapaxes(solved[..., 0], -1, -2)


def backoff_tau_c(ctx: SinrContext, tau_c: float) -> float:
    """Largest tau_c * 10^(-0.05 j) feasible on every subcarrier (0.5 dB steps).

    A candidate is feasible when 1 / candidate exceeds every ratio sum, so each
    ladder step compares one float with the largest of them (NaN when any is
    NaN, which no candidate passes). The ladder is the repeated product
    tau_c * step * step ..., so every candidate keeps its bits.
    """
    worst = float(np.max(ctx.ratio_sums, initial=-np.inf))
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
