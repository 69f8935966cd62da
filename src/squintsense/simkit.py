"""Monte Carlo experiment harness, metrics, and scan baselines.

A trial's record reads one :class:`~squintsense.power.PowerPlan` of arrays:
the proposed trial's from :func:`allocate_comm_plan`, a scan's one stage.

Both scan baselines rank their N x N statistic by one threshold loop
(:func:`_top_q_scan`), in four arrays that every trial of one N reuses
(:func:`scan_work`). A scan is therefore not safe to run from two threads;
processes are. A scan trial draws its receiver noise as one block of
uniforms and turns them into noise only where the loop reads it
(:func:`_noise_magnitude`, :func:`_noise_at`).
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .beamforming import (
    aas_azimuth_grid,
    check_ttd_range,
    eas_beamformer,
    eas_elevation_grid,
)
from .channel import Scene, generate_scene, scene_arrays, sensing_attenuation
from .config import RunConfig, SystemConfig
from .detection import hierarchical_detect
from .exceptions import ConfigError, SquintSenseError
from .geometry import (
    ENVELOPE_MARGIN,
    fejer_envelope,
    flat_horizontal_gain,
    uniform_phase_power,
)
from .power import (
    PowerPlan,
    allocate_comm,
    backoff_tau_c,
    sinr_context,
)

AGGREGATE_FIELDS = [
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


@dataclass
class TrialRecord:
    trial: int = 0
    seed: str = ""
    method: str = "proposed"
    sweep_var: str = ""
    sweep_value: float = float("nan")
    q_targets: int = 0
    distance_error_m: float = float("nan")
    total_sensing_energy: float = float("nan")
    avg_transmit_power: float = float("nan")
    sum_rate: float = float("nan")
    energy_efficiency: float = float("nan")
    n_stages: int = 0
    symbol_counts: tuple = ()
    ok: bool = True
    error: str = ""


TRIAL_FIELDS = [field.name for field in fields(TrialRecord)]


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in an assignment of least total cost of a square
    matrix, by Kuhn's Hungarian method (1955) in its O(q^3) form with row
    and column potentials u, v and shortest augmenting paths. Scalar loops:
    q is the target count, and numpy calls cost more than they save here."""
    q = len(cost)
    rows = cost.tolist()
    u, v = [0.0] * (q + 1), [0.0] * (q + 1)
    owner = [0] * (q + 1)  # row (1-based) of each column; column 0 is the root
    for row in range(1, q + 1):
        owner[0], col = row, 0
        slack, via = [float("inf")] * (q + 1), [0] * (q + 1)
        used = [False] * (q + 1)
        while owner[col]:
            used[col] = True
            r = owner[col]
            delta, nearest = float("inf"), 0
            for j in range(1, q + 1):
                if not used[j]:
                    reduced = rows[r - 1][j - 1] - u[r] - v[j]
                    if reduced < slack[j]:
                        slack[j], via[j] = reduced, col
                    if slack[j] < delta:
                        delta, nearest = slack[j], j
            for j in range(q + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            col = nearest
        while col:  # augment along the path back to the root
            owner[col] = owner[via[col]]
            col = via[col]
    assignment = np.empty(q, int)
    assignment[np.array(owner[1:]) - 1] = np.arange(q)
    return assignment


def distance_error(height: float, truth, estimates) -> float:
    """Mean ground-plane distance between the (q, 2) (theta, phi) rows truth
    and estimates paired by a minimum-cost assignment: the OSPA distance
    (Schuhmacher, Vo & Vo, IEEE TSP 2008) of order 1 with equal counts and no
    cutoff. A non-finite angle raises ConfigError: no least cost among NaNs."""
    if len(truth) != len(estimates):
        raise ConfigError(
            f"length mismatch: {len(truth)} truths vs {len(estimates)} estimates"
        )
    q = len(truth)
    if not q:
        return 0.0
    angles = np.concatenate((truth, estimates), dtype=float)
    if not np.isfinite(angles).all():
        raise ConfigError("distance_error takes finite angles")
    theta, phi = angles.T
    radius = height * np.tan(theta)
    x, y = radius * np.cos(phi), radius * np.sin(phi)  # ground positions
    cost = np.hypot(x[:q, None] - x[q:], y[:q, None] - y[q:])
    return float(np.mean(cost[np.arange(q), _min_cost_assignment(cost)]))


def sum_rate(sinrs: np.ndarray) -> float:
    """(1/(I+1)) sum over stages, users, subcarriers of log2(1 + SINR), from
    the (S, K, N) achieved SINR: each stage summed over its own axes, then
    the S stage sums in order."""
    stage_rates = np.log2(1.0 + sinrs).sum(axis=(1, 2)).tolist()
    return sum(stage_rates) / len(stage_rates)


def transmit_power_metrics(plan: PowerPlan):
    """(total sensing energy, average transmit power) in W * symbols: each
    stage's powers summed over its own axes, then the S stage values in order."""
    sensing = plan.sensing_powers.sum(axis=1)
    total_sensing = sum((plan.symbol_counts * sensing).tolist())
    per_stage = (sensing + plan.comm_powers.sum(axis=(1, 2))) * plan.symbol_counts
    return total_sensing, sum(per_stage.tolist()) / len(per_stage)


def allocate_comm_plan(cfg: SystemConfig, scene: Scene, result) -> PowerPlan:
    """The frame's power plan: detection ``result``'s stages with the comm
    powers under the (possibly backed-off) SINR target and their SINR.

    The comm beams and their gain table are fixed for the trial, so one SINR
    context, from the result's ``user_gains`` (see :func:`sinr_context`), one
    backoff and one allocation serve every sensing stage, and one stage-axis
    einsum gives every stage's achieved SINR. With no users, the same path
    gives (S, 0, N) comm powers and SINR, and tau_c passes through.
    """
    ctx = sinr_context(cfg, scene, result.user_gains, result.sensing_powers)
    tau_eff = backoff_tau_c(ctx, cfg.tau_c)
    comm_powers = allocate_comm(ctx, tau_eff)
    wanted = ctx.diag * comm_powers
    interference = np.einsum("kln,sln->skn", ctx.chi, comm_powers) - wanted
    sinrs = wanted / (interference + ctx.effective_noise)
    return PowerPlan(result.symbol_counts, result.sensing_powers, tau_eff, comm_powers, sinrs)


def _finish_record(method: str, cfg: SystemConfig, scene: Scene, estimates, plan: PowerPlan):
    record = TrialRecord(method=method, q_targets=len(scene.targets))
    record.distance_error_m = distance_error(cfg.height, scene.targets, estimates)
    record.total_sensing_energy, record.avg_transmit_power = transmit_power_metrics(plan)
    record.sum_rate = sum_rate(plan.sinrs)
    record.energy_efficiency = (
        record.sum_rate / record.avg_transmit_power if record.avg_transmit_power > 0 else 0.0
    )
    record.symbol_counts = tuple(plan.symbol_counts.tolist())
    record.n_stages = len(record.symbol_counts)
    return record


def run_proposed_trial(
    cfg: SystemConfig,
    scene: Scene,
    rng: np.random.Generator,
) -> TrialRecord:
    """Hierarchical detection plus communication allocation for one scene."""
    result = hierarchical_detect(cfg, scene, rng)
    plan = allocate_comm_plan(cfg, scene, result)
    return _finish_record("proposed", cfg, scene, result.estimates, plan)


def _scan_record(method: str, cfg: SystemConfig, scene: Scene, statistic, grids, powers):
    """Record of an N x N scan: the top-q cells of its statistic, whose rows
    and columns follow grids = (elevation grid, azimuth grid), and a one-stage
    plan of the N^2 symbols' sensing ``powers``, T folded in, and no comm.
    Unevaluated (-inf) cells are skipped."""
    theta_grid, phi_grid = grids
    values = statistic.ravel()
    cells = np.flatnonzero(values > -np.inf)
    picked = cells[np.argsort(values[cells])[::-1][: len(scene.targets)]]
    rows, cols = np.divmod(picked, len(phi_grid))
    estimates = np.array((theta_grid[rows], phi_grid[cols])).T
    none = np.zeros((1, 0, cfg.n_subcarriers))
    plan = PowerPlan(np.ones(1, int), powers.reshape(1, -1), cfg.tau_c, none, none)
    return _finish_record(method, cfg, scene, estimates, plan)


class ExhaustivePlan(NamedTuple):
    """Config-invariant part of the exhaustive scan; its arrays are read-only.
    Rows index elevation grid points, columns azimuth grid points. (A named
    tuple: a frozen dataclass costs ~1.5 ms more per fresh import.)"""

    theta_grid: np.ndarray  # (N,) elevation of each row
    phi_grid: np.ndarray    # (N,) azimuth of each column
    ratio: np.ndarray       # (N,) 1 + f_n / fc
    cos_theta: np.ndarray   # (N,) vertical direction cosine of each row
    cell_h: np.ndarray      # (N, N) horizontal direction cosine of each cell
    sqrt_powers: np.ndarray  # (N,) square roots of each row's tight power at unit gain
    expected: np.ndarray    # (N,) noise-free echo amplitude of an on-grid target
    powers: np.ndarray      # (N^2,) sensing powers of the N^2 symbols, T folded in


class ScanWork(NamedTuple):
    """Work arrays of the scan baselines at one N, overwritten by every trial."""

    draws: np.ndarray       # (2, N, N) uniform draws of the noise: magnitudes U0, then phases U1
    statistic: np.ndarray   # (N, N) scan statistic
    bound: np.ndarray       # (N, N) cell bounds of the threshold loop
    grid_bound: np.ndarray  # (N, N) the azimuth-only scan's bound of every cell


@functools.lru_cache(maxsize=4)
def scan_work(n: int) -> ScanWork:
    """The scans' work arrays at N subcarriers, shared by every trial of the
    process so none faults in fresh N^2 arrays; see the module docstring."""
    return ScanWork(np.empty((2, n, n)), *np.empty((3, n, n)))


def _noise_magnitude(u: np.ndarray, variance, out=None) -> np.ndarray:
    """|n| of circular Gaussian noise n of the given variance per cell, from
    the magnitude uniforms u in [0, 1) it is drawn from: |n|^2 = -variance
    log1p(-u) is Exp(variance). Increasing in u, so a row's largest u gives
    its largest |n|; elementwise, so each cell has its bits alone."""
    magnitude = np.negative(u, out=out)
    np.log1p(magnitude, out=magnitude)
    magnitude *= -variance
    return np.sqrt(magnitude, out=magnitude)


def _noise_at(magnitude: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Complex noise of the given magnitudes and phases 2 pi u, u the phase
    uniforms: a uniform phase independent of |n|, which with |n|^2 Exp(s^2)
    makes n circular Gaussian of variance s^2."""
    return magnitude * np.exp(2j * np.pi * u)


@functools.lru_cache(maxsize=4)
def exhaustive_plan(cfg: SystemConfig) -> ExhaustivePlan:
    """The grids, TTD check, attenuation and cell powers of the exhaustive
    scan, computed once per config and shared by every trial."""
    n = cfg.n_subcarriers
    theta_grid = eas_elevation_grid(cfg)
    phi_grid = aas_azimuth_grid(cfg)
    # the pencil at cell (r, c) is the comm beamformer of (theta_r, phi_c)
    cell_h = np.sin(theta_grid)[:, None] * np.cos(phi_grid)[None, :]
    cos_theta = np.cos(theta_grid)
    two_fc = 2.0 * cfg.fc
    check_ttd_range(cfg, np.abs(cell_h).max() / two_fc, np.abs(cos_theta).max() / two_fc)
    alpha_grid = sensing_attenuation(cfg, cfg.height / cos_theta, cfg.sigma_rcs)
    p_cell = cfg.tau_s * cfg.noise_variance() / alpha_grid**2  # per elevation row, gain 1
    sqrt_powers = np.sqrt(p_cell)
    plan = ExhaustivePlan(
        theta_grid=theta_grid,
        phi_grid=phi_grid,
        ratio=1.0 + cfg.subcarrier_offsets() / cfg.fc,
        cos_theta=cos_theta,
        cell_h=cell_h,
        sqrt_powers=sqrt_powers,
        expected=sqrt_powers * alpha_grid,
        # N^2 symbols, each transmitting its cell's tight power on all N subcarriers
        powers=n * np.repeat(p_cell, n),
    )
    for value in plan:
        value.flags.writeable = False
    return plan


def _cell_response(cfg: SystemConfig, plan: ExhaustivePlan, echoes, rows, cols):
    """Noise-free echo of the scan cells (rows[i], cols[i]), averaged coherently
    over subcarriers: (len(rows),), in one kernel call per axis. ``echoes`` is
    the scene's echo form scene_arrays(cfg, scene). Every step is elementwise
    or a reduction along a cell's own axes, so each cell has the same bits
    whatever other cells it is given."""
    s_theta, s_phi, s_amp = echoes
    s_h = np.sin(s_theta) * np.cos(s_phi)
    # squint-compensated pencil at cell (r, c): residual slope is (1 + f/fc) *
    # (target trig - cell trig) in both axes, (cell, n, s); vertical once per row
    distinct, inverse = np.unique(rows, return_inverse=True)
    power = uniform_phase_power(
        plan.ratio[:, None] * (np.cos(s_theta) - plan.cos_theta[distinct, None, None]), cfg.m_v
    )[inverse]
    power *= uniform_phase_power(
        plan.ratio[:, None] * (s_h - plan.cell_h[rows, cols, None, None]), cfg.m_h
    )
    return (power * s_amp).sum(axis=2).mean(axis=1)


def _row_bound(cfg: SystemConfig, plan: ExhaustivePlan, echoes, u_mag, variance):
    """Upper bound of the scan statistic over each row, (N,), and the (N, S)
    array W whose entry W[r, s] bounds scatterer s's vertical power times
    |amplitude| at row r, on every subcarrier. A row's largest |noise| is the
    magnitude of its largest noise uniform in ``u_mag``: N transforms."""
    s_theta, _, s_amp = echoes
    vertical = np.abs(s_amp) * fejer_envelope(
        np.cos(s_theta) - plan.cos_theta[:, None], cfg.m_v, plan.ratio.min(), plan.ratio.max()
    )
    row_noise = _noise_magnitude(u_mag.max(axis=1), variance)
    bound = plan.sqrt_powers * vertical.sum(axis=1) + row_noise
    bound *= (1.0 + ENVELOPE_MARGIN) / plan.expected
    return bound, vertical


def _cell_bound(cfg: SystemConfig, plan: ExhaustivePlan, echoes, u_mag, variance, vertical, rows):
    """Upper bound of the scan statistic at every cell of the given rows,
    (len(rows), N), from the W of _row_bound, in one envelope call; each row
    has the bits it has alone. Only these rows' noise uniforms are turned
    into |noise|."""
    s_theta, s_phi, _ = echoes
    s_h = np.sin(s_theta) * np.cos(s_phi)
    horizontal = fejer_envelope(
        s_h[:, None] - plan.cell_h[rows, None, :], cfg.m_h, plan.ratio.min(), plan.ratio.max()
    )  # (r, s, c)
    response = np.matmul(vertical[rows, None, :], horizontal)[:, 0]
    bound = plan.sqrt_powers[rows, None] * response + _noise_magnitude(u_mag[rows], variance)
    return bound * ((1.0 + ENVELOPE_MARGIN) / plan.expected[rows, None])


def _top_q_scan(work: ScanWork, q: int, first, row_bound, cell_bound, evaluate, batch):
    """work.statistic: the scan statistic at every cell that could be one of
    its q largest, -inf elsewhere (a threshold rule, Fagin, Lotem & Naor, PODS
    2001). ``row_bound`` (N,) bounds each row, ``cell_bound(rows)`` each cell
    of the given rows, ``evaluate(cells)`` is the statistic at flat cells.
    The ``first`` rows of largest bound are bounded, then unevaluated cells of
    largest bound are evaluated in batches of ``batch``, 2 batch, ..., each
    followed by bounding every row above the q-th largest statistic, until no
    cell's is. Each callback gets exactly the rows or cells chosen, in one
    call; callbacks that give each its bits alone give a full-grid record."""
    statistic, bound = work.statistic, work.bound
    statistic.fill(-np.inf)
    bound.fill(-np.inf)  # cell bounds; -inf once evaluated or unbounded
    flat_statistic, flat_bound = statistic.reshape(-1), bound.reshape(-1)
    top = np.full(q, -np.inf)  # the q largest statistics so far
    rows = np.argsort(row_bound)[-first:]
    while q:
        if rows.size:  # else only cells of earlier rows can still be live
            bound[rows] = cell_bound(rows)
            row_bound[rows] = -np.inf  # these rows are bounded cell by cell
        live = (flat_bound > top[0]).nonzero()[0]
        if not live.size:
            break
        if live.size > batch:
            live = live[flat_bound[live].argpartition(-batch)[-batch:]]
        flat_statistic[live] = values = evaluate(live)
        flat_bound[live] = -np.inf
        top = np.partition(np.concatenate((top, values)), -q)[-q:]
        rows, batch = (row_bound > top[0]).nonzero()[0], 2 * batch
    return statistic


def run_exhaustive_baseline(
    cfg: SystemConfig,
    scene: Scene,
    rng: np.random.Generator,
) -> TrialRecord:
    """N x N pencil-beam scan, one squint-compensated beam per OFDM symbol.

    Every subcarrier of a symbol is co-pointed at one grid cell; the power
    on each subcarrier follows the tau_s-tight rule with T = 1, so a symbol
    costs N times the single-subcarrier tight power of its cell. The
    scene-independent part is the cached :func:`exhaustive_plan`.

    :func:`_top_q_scan` evaluates its statistic |sqrt(p_r) response + noise| /
    (sqrt(p_r) alpha_r) from 4 rows and max(8, q) cells.
    With E_m the ``geometry.fejer_envelope`` over the subcarrier ratios,
    scatterer s adds at most W[r, s] = |amp_s| E_{m_v}(cos theta_s - cos
    theta_r) to row r and W[r, s] E_{m_h}(h_s - h_rc) to cell (r, c); a bound
    adds the row's largest |noise| or the cell's own, times 1 + ENVELOPE_MARGIN.
    The noise, of variance noise_variance / N per cell, is one (2, N, N) draw
    of uniforms: a row's largest |noise| is the magnitude of its largest U0,
    and only rows bounded cell by cell and evaluated cells transform theirs.
    """
    n = cfg.n_subcarriers
    plan = exhaustive_plan(cfg)
    work = scan_work(n)
    u_mag, u_phase = rng.random(out=work.draws)
    variance = cfg.noise_variance() / n
    echoes = scene_arrays(cfg, scene)
    q = len(scene.targets)
    row_bound, vertical = _row_bound(cfg, plan, echoes, u_mag, variance)

    def evaluate(cells):
        r, c = np.divmod(cells, n)
        signal = plan.sqrt_powers[r] * _cell_response(cfg, plan, echoes, r, c)
        noise = _noise_at(_noise_magnitude(u_mag.take(cells), variance), u_phase.take(cells))
        return np.abs(signal + noise) / plan.expected[r]
    cell_bound = functools.partial(_cell_bound, cfg, plan, echoes, u_mag, variance, vertical)
    statistic = _top_q_scan(work, q, 4, row_bound, cell_bound, evaluate, max(8, q))
    grids = (plan.theta_grid, plan.phi_grid)
    return _scan_record("exhaustive", cfg, scene, statistic, grids, plan.powers)


def _azimuth_only_fit(cfg: SystemConfig):
    """Affine least-squares fit of the horizontal slope trajectory.

    The per-subcarrier horizontal phase slope needed to track the elevation
    spread is sin(theta_n) (1 + f_n/fc); PS constant + TTD linear term can
    realize only an affine function of f_n, so the residual of this fit is
    the baseline's intrinsic pointing error.
    """
    f = cfg.subcarrier_offsets()
    theta_grid = eas_elevation_grid(cfg)
    target = np.sin(theta_grid) * (1.0 + f / cfg.fc)
    design = np.column_stack([np.ones_like(f), f])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residual = target - design @ coef
    return theta_grid, f, coef, residual


class AzimuthOnlyPlan(NamedTuple):
    """Config-invariant part of the azimuth-only scan; its arrays are read-only.
    Rows index subcarriers (elevation grid points), columns symbols (azimuths)."""

    theta_grid: np.ndarray  # (N,) squint-spread elevation per subcarrier
    phi_grid: np.ndarray    # (N,) azimuth pointed by each symbol
    ratio: np.ndarray       # (N,) 1 + f_n / fc
    v_ttd: np.ndarray       # (N,) vertical TTD phase term 2 f_n v_slope
    steer_h: np.ndarray     # (N, N) realized horizontal slope times cos(phi_m)
    flat: float             # flat ROI-wide horizontal gain
    pointed: np.ndarray     # (N, N) cells whose pointed beam beats the flat one
    sqrt_powers: np.ndarray  # (N, N) square roots of the tight cell powers
    peak_signal: np.ndarray  # (N, N) sqrt_powers times the cell's largest horizontal power
    powers: np.ndarray      # (N, N) tau_s-tight sensing power per cell
    expected: np.ndarray    # (N, N) noise-free echo amplitude of an on-grid target


@functools.lru_cache(maxsize=4)
def azimuth_only_plan(cfg: SystemConfig) -> AzimuthOnlyPlan:
    """The affine fit, grids, flat gain, pointing table, attenuation and cell
    powers of the azimuth-only scan, computed once per config and shared by
    every trial."""
    theta_grid, f, coef, residual = _azimuth_only_fit(cfg)
    phi_grid = aas_azimuth_grid(cfg)
    v_slope = eas_beamformer(cfg).v_slope
    cos_phi = np.cos(phi_grid)  # per-symbol horizontal pointing
    # symbol m realizes the fit's slope in f with horizontal TTD slope -coef[1] cos(phi_m) / 2
    check_ttd_range(cfg, 0.5 * coef[1] * np.abs(cos_phi).max(), v_slope)

    flat = flat_horizontal_gain(cfg)
    # design-point horizontal gain per (subcarrier n, symbol m); whenever the
    # pointed beam is below the flat ROI-wide gain, that cell uses the flat beam
    g_point = np.sqrt(uniform_phase_power(residual[:, None] * cos_phi[None, :], cfg.m_h))
    pointed = g_point >= flat
    g_design = np.where(pointed, g_point, flat)
    alpha_grid = sensing_attenuation(cfg, cfg.height / np.cos(theta_grid), cfg.sigma_rcs)
    strength = alpha_grid[:, None] ** 2 * g_design**4  # (n, m)
    powers = cfg.tau_s * cfg.noise_variance() / strength
    sqrt_powers = np.sqrt(powers)
    affine = coef[0] + coef[1] * f  # realized horizontal slope trajectory
    plan = AzimuthOnlyPlan(
        theta_grid=theta_grid,
        phi_grid=phi_grid,
        ratio=1.0 + f / cfg.fc,
        v_ttd=2.0 * f * v_slope,
        steer_h=affine[:, None] * cos_phi[None, :],
        flat=flat,
        pointed=pointed,
        sqrt_powers=sqrt_powers,
        peak_signal=np.where(pointed, sqrt_powers, sqrt_powers * flat**2),
        powers=powers,
        expected=sqrt_powers * alpha_grid[:, None] * g_design**2,
    )
    for value in plan:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plan


def _azimuth_only_bound(cfg: SystemConfig, plan: AzimuthOnlyPlan, echoes, magnitude, out):
    """Upper bound of the azimuth-only statistic at every cell, in the (N, N)
    ``out``, from every cell's |noise| ``magnitude``, and the vertical powers
    p_v, (S, N). A cell responds sum_s amp_s p_v(s, n) H(s, n, m), H <= 1 if
    pointed and flat^2 if flat, so the bound is (1 + ENVELOPE_MARGIN) (A_n
    peak_signal_nm + |noise_nm|) / expected_nm, A_n = sum_s |amp_s| p_v(s, n).
    The margin carries weight: test scenes reach statistic/bound = 1 / (1 +
    margin)."""
    s_theta, _, s_amp = echoes
    x_v = np.cos(s_theta)[:, None] * plan.ratio - np.cos(cfg.theta_min) + plan.v_ttd
    p_v = uniform_phase_power(x_v, cfg.m_v)
    bound = np.multiply((np.abs(s_amp) @ p_v)[:, None], plan.peak_signal, out=out)
    bound += magnitude
    bound /= plan.expected
    bound *= 1.0 + ENVELOPE_MARGIN
    return bound, p_v


def run_azimuth_only_baseline(
    cfg: SystemConfig,
    scene: Scene,
    rng: np.random.Generator,
) -> TrialRecord:
    """N-symbol azimuth scan with squint-spread elevation coverage.

    Symbol m points the horizontal beam at azimuth phi_m while the stage-0
    vertical TTD spreads subcarriers over the N elevation grid points. The
    horizontal chain realizes only an affine-in-frequency phase slope; where
    the mispointed beam is worse than the ROI-wide flat beam, a subcarrier
    uses the flat beam, and the tau_s-tight power follows the design-point
    gain. The scene-independent part is :func:`azimuth_only_plan`, cached.

    :func:`_top_q_scan` evaluates its statistic from the cell bounds of
    :func:`_azimuth_only_bound`: the 16 rows of largest bound first (8 left a
    fifth of scaled trials a second batch; all N would rank N^2 bounds in
    temporaries freed to the kernel), then batches of 128 q, 256 q, ... cells.
    The noise, of variance noise_variance per cell, is one (2, N, N) draw of
    uniforms; the bound reads every cell's |noise|, so U0 is turned into it
    in place, and evaluated cells take their phase from U1.
    """
    n = cfg.n_subcarriers
    plan = azimuth_only_plan(cfg)
    work = scan_work(n)
    u_mag, u_phase = rng.random(out=work.draws)
    magnitude = _noise_magnitude(u_mag, cfg.noise_variance(), out=u_mag)
    echoes = scene_arrays(cfg, scene)
    s_theta, s_phi, s_amp = echoes
    bound, p_v = _azimuth_only_bound(cfg, plan, echoes, magnitude, work.grid_bound)
    x_target = (np.sin(s_theta) * np.cos(s_phi))[:, None] * plan.ratio  # (scatterer, n)

    def evaluate(cells):
        r = cells // n
        x_h = x_target.take(r, axis=1) - plan.steer_h.take(cells)
        power = np.where(plan.pointed.take(cells), uniform_phase_power(x_h, cfg.m_h), plan.flat**2)
        power *= p_v.take(r, axis=1)
        terms = np.multiply(s_amp[:, None], power)
        response = np.add.accumulate(terms, out=terms)[-1]  # in scatterer order
        signal = plan.sqrt_powers.take(cells) * response
        noise = _noise_at(magnitude.take(cells), u_phase.take(cells))
        return np.abs(signal + noise) / plan.expected.take(cells)
    q = len(scene.targets)
    row_bound, cell_bound = bound.max(axis=1), bound.__getitem__
    statistic = _top_q_scan(work, q, 16, row_bound, cell_bound, evaluate, 128 * q)
    grids = (plan.theta_grid, plan.phi_grid)
    # sensing powers of N symbols x N subcarriers, T folded in
    return _scan_record("azimuth_only", cfg, scene, statistic, grids, plan.powers.ravel())


_METHODS = {
    "proposed": run_proposed_trial,
    "exhaustive": run_exhaustive_baseline,
    "azimuth_only": run_azimuth_only_baseline,
}


def trial_seed(master: int, sweep_idx: int, trial: int, stream: int):
    return (int(master), int(sweep_idx), int(trial), int(stream))


def _label(record: TrialRecord, run: RunConfig, sweep_idx: int, trial: int, value):
    """Stamp a record with its trial, seed path and sweep point."""
    record.trial = trial
    record.seed = "/".join(map(str, trial_seed(run.seed, sweep_idx, trial, 0)[:-1]))
    record.sweep_var = run.sweep_var or ""
    record.sweep_value = float("nan") if value is None else float(value)
    return record


def trial_inputs(run: RunConfig, sweep_idx: int, trial: int, value=None):
    """(system, scene, noise stream) of one seeded trial at sweep value
    ``value``: the scene from stream 0 of (master, sweep, trial), the noise
    generator on stream 1."""
    cfg, q, k = run.at_sweep_value(value)
    seed = trial_seed(run.seed, sweep_idx, trial, 0)
    scene = generate_scene(cfg, q, k, seed, run.include_clutter)
    return cfg, scene, np.random.default_rng(trial_seed(run.seed, sweep_idx, trial, 1))


def run_single_trial(run: RunConfig, sweep_idx: int, trial: int, value=None) -> TrialRecord:
    """One seeded trial of run.method on its :func:`trial_inputs`."""
    record = _METHODS[run.method](*trial_inputs(run, sweep_idx, trial, value))
    return _label(record, run, sweep_idx, trial, value)


def run_experiment(run: RunConfig):
    """All sweep values x trials; failed trials are recorded, not fatal."""
    records = []
    sweep_values = run.sweep_values if run.sweep_var is not None else (None,)
    for sweep_idx, value in enumerate(sweep_values):
        for trial in range(run.trials):
            try:
                rec = run_single_trial(run, sweep_idx, trial, value)
            except SquintSenseError as exc:
                failed = TrialRecord(method=run.method, ok=False, error=str(exc))
                rec = _label(failed, run, sweep_idx, trial, value)
            records.append(rec)
    return records, aggregate(records)


def _group_key(rec):
    value = None if np.isnan(rec.sweep_value) else rec.sweep_value
    return (rec.sweep_var, value, rec.method)


def _mean(records, name: str) -> float:
    return float(np.mean([getattr(r, name) for r in records])) if records else float("nan")


def aggregate(records):
    """Mean and standard error per (sweep value, method) over successful trials."""
    groups = {}  # in order of first appearance
    for rec in records:
        groups.setdefault(_group_key(rec), []).append(rec)
    rows = []
    for (var, value, method), group in groups.items():
        ok = [r for r in group if r.ok]
        errs = np.array([r.distance_error_m for r in ok])
        rows.append({
            "sweep_var": var,
            "sweep_value": float("nan") if value is None else value,
            "method": method,
            "mean_distance_error_m": _mean(ok, "distance_error_m"),
            "stderr_m": float(np.std(errs, ddof=1) / np.sqrt(len(ok))) if len(ok) > 1 else 0.0,
            "mean_total_sensing_energy": _mean(ok, "total_sensing_energy"),
            "mean_avg_transmit_power": _mean(ok, "avg_transmit_power"),
            "mean_sum_rate": _mean(ok, "sum_rate"),
            "mean_ee": _mean(ok, "energy_efficiency"),
            "trials_ok": len(ok),
            "trials_failed": len(group) - len(ok),
        })
    return rows


def csv_text(header, rows, provenance=()) -> str:
    """CSV text: one ``# `` line per provenance entry, the header, the rows."""
    buf = io.StringIO()
    for line in provenance:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _trial_row(rec: TrialRecord) -> list:
    return [
        ";".join(map(str, rec.symbol_counts)) if k == "symbol_counts" else getattr(rec, k)
        for k in TRIAL_FIELDS
    ]


def records_to_csv(records, provenance=()) -> str:
    return csv_text(TRIAL_FIELDS, map(_trial_row, records), provenance)


def aggregate_to_csv(rows, provenance=()) -> str:
    table = ([row[k] for k in AGGREGATE_FIELDS] for row in rows)
    return csv_text(AGGREGATE_FIELDS, table, provenance)
