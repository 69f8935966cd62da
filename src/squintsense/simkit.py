"""Monte Carlo experiment harness, metrics, and scan baselines.

Both scan baselines fill (N, N) work arrays that every trial of one N in the
process reuses (:func:`scan_work`), so a steady-state trial allocates
nothing of N^2 size. A trial's fresh N^2 temporaries used to exceed glibc's
heap trim threshold: each trial handed them back to the kernel and the next
faulted them in again, ~100 minor page faults per full-scale exhaustive
trial and 928 per azimuth-only trial. A scan is therefore not safe to run
from two threads at once; separate processes are.
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
    comm_beamformer,
    eas_beamformer,
    eas_elevation_grid,
)
from .channel import Scene, generate_scene, scene_arrays, sensing_attenuation
from .config import RunConfig, SystemConfig
from .detection import hierarchical_detect
from .exceptions import ConfigError, SquintSenseError
from .geometry import (
    ENVELOPE_MARGIN,
    FEJER_BLOCK,
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


def _positions(height: float, pairs) -> np.ndarray:
    pairs = sorted(pairs)
    out = np.empty((len(pairs), 2))
    for i, (theta, phi) in enumerate(pairs):
        radius = height * np.tan(theta)
        out[i] = (radius * np.cos(phi), radius * np.sin(phi))
    return out


def distance_error(height: float, truth, estimates) -> float:
    """Mean ground-plane distance after sorting both lists by (theta, phi)."""
    truth = list(truth)
    estimates = list(estimates)
    if len(truth) != len(estimates):
        raise ConfigError(
            f"length mismatch: {len(truth)} truths vs {len(estimates)} estimates"
        )
    if not truth:
        return 0.0
    diff = _positions(height, truth) - _positions(height, estimates)
    return float(np.mean(np.hypot(diff[:, 0], diff[:, 1])))


def sum_rate(sinr_stages) -> float:
    """(1/(I+1)) sum over stages, users, subcarriers of log2(1 + SINR)."""
    stages = [np.asarray(s, dtype=float) for s in sinr_stages]
    if not stages:
        return 0.0
    return float(sum(np.sum(np.log2(1.0 + s)) for s in stages) / len(stages))


def transmit_power_metrics(plan: PowerPlan):
    """(total sensing energy, average transmit power) in W * symbols."""
    total_sensing = sum(
        t * float(np.sum(p)) for t, p in zip(plan.symbol_counts, plan.sensing_powers)
    )
    per_stage = []
    for i, t in enumerate(plan.symbol_counts):
        comm = float(np.sum(plan.comm_powers[i])) if i < len(plan.comm_powers) else 0.0
        per_stage.append((float(np.sum(plan.sensing_powers[i])) + comm) * t)
    average = sum(per_stage) / len(per_stage) if per_stage else 0.0
    return total_sensing, average


def allocate_comm_plan(cfg: SystemConfig, scene: Scene, stage_weights, sensing_powers):
    """Per-stage communication powers under the (possibly backed-off) SINR target.

    The comm beams and their gain table are fixed for the trial, so one SINR
    context, one backoff and one allocation serve every sensing stage.
    Returns (comm_powers per stage, achieved SINR arrays per stage, effective
    tau_c). With no users, all outputs are empty and tau_c passes through.
    """
    k_users = len(scene.users)
    if k_users == 0:
        return [np.zeros((0, cfg.n_subcarriers)) for _ in stage_weights], [], cfg.tau_c
    comm_w = [comm_beamformer(cfg, theta, phi) for theta, phi in scene.users]
    ctx = sinr_context(cfg, scene, comm_w, stage_weights, sensing_powers)
    tau_eff = backoff_tau_c(ctx, cfg.tau_c)
    comm_powers = list(allocate_comm(ctx, tau_eff))
    diag = np.einsum("kkn->kn", ctx.chi)
    sinrs = []
    for p_stage, noise in zip(comm_powers, ctx.effective_noise):
        interference = np.einsum("kln,ln->kn", ctx.chi, p_stage) - diag * p_stage
        sinrs.append(diag * p_stage / (interference + noise))
    return comm_powers, sinrs, tau_eff


def _finish_record(method: str, cfg: SystemConfig, scene: Scene, estimates, plan, sinrs):
    record = TrialRecord(method=method, q_targets=len(scene.targets))
    record.distance_error_m = distance_error(cfg.height, scene.targets.tolist(), estimates)
    record.total_sensing_energy, record.avg_transmit_power = transmit_power_metrics(plan)
    record.sum_rate = sum_rate(sinrs)
    record.energy_efficiency = (
        record.sum_rate / record.avg_transmit_power if record.avg_transmit_power > 0 else 0.0
    )
    record.n_stages = plan.n_stages
    record.symbol_counts = tuple(plan.symbol_counts)
    return record


def plan_proposed_trial(
    cfg: SystemConfig,
    scene: Scene,
    rng: np.random.Generator,
):
    """Hierarchical detection, then communication allocation over its stages:
    (DetectionResult, PowerPlan, achieved SINR arrays per stage)."""
    result = hierarchical_detect(cfg, scene, rng)
    comm_powers, sinrs, tau_eff = allocate_comm_plan(
        cfg, scene, result.stage_weights, result.sensing_powers
    )
    plan = PowerPlan(
        symbol_counts=list(result.symbol_counts),
        sensing_powers=list(result.sensing_powers),
        comm_powers=comm_powers,
        effective_tau_c=tau_eff,
    )
    return result, plan, sinrs


def run_proposed_trial(
    cfg: SystemConfig,
    scene: Scene,
    rng: np.random.Generator,
) -> TrialRecord:
    """Hierarchical detection plus communication allocation for one scene."""
    result, plan, sinrs = plan_proposed_trial(cfg, scene, rng)
    return _finish_record("proposed", cfg, scene, result.estimates, plan, sinrs)


def _scan_record(method: str, cfg: SystemConfig, scene: Scene, statistic, grids, powers):
    """Record of an N x N scan: the top-q cells of its statistic, whose rows
    and columns follow grids = (elevation grid, azimuth grid), and a one-stage
    plan whose sensing powers have every symbol's T folded in. Cells at -inf
    (rows the scan did not evaluate) are never picked."""
    theta_grid, phi_grid = grids
    n = statistic.shape[1]
    values = statistic.ravel()
    cells = np.flatnonzero(values > -np.inf)
    flat = cells[np.argsort(values[cells])[::-1][: len(scene.targets)]]
    estimates = [(float(theta_grid[i // n]), float(phi_grid[i % n])) for i in flat]
    plan = PowerPlan(
        symbol_counts=[1],
        sensing_powers=[powers],
        comm_powers=[],
        effective_tau_c=cfg.tau_c,
    )
    return _finish_record(method, cfg, scene, estimates, plan, [])


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
    """Work arrays of the scan baselines at one N, overwritten by every trial.
    B is the azimuth-only scan's scatterers per block, max(1, FEJER_BLOCK // N^2)."""

    draws: np.ndarray      # (2, N, N) standard normal draws: real parts, then imaginary
    noise: np.ndarray      # (N, N) complex receiver noise
    statistic: np.ndarray  # (N, N) scan statistic
    bound: np.ndarray      # (N, N) exhaustive scan's cell bounds
    response: np.ndarray   # (N, N) complex azimuth-only response of the scene
    slope: np.ndarray      # (B, N, N) azimuth-only horizontal slopes of a block
    power: np.ndarray      # (B, N, N) azimuth-only power gains of a block
    term: np.ndarray       # (B, N, N) complex azimuth-only responses of a block


@functools.lru_cache(maxsize=4)
def scan_work(n: int) -> ScanWork:
    """The work arrays of the scans at N subcarriers, shared by every trial
    of the process; see the module docstring for why, and its thread caveat."""
    block = (max(1, FEJER_BLOCK // (n * n)), n, n)
    return ScanWork(
        draws=np.empty((2, n, n)),
        noise=np.empty((n, n), dtype=complex),
        statistic=np.empty((n, n)),
        bound=np.empty((n, n)),
        response=np.empty((n, n), dtype=complex),
        slope=np.empty(block),
        power=np.empty(block),
        term=np.empty(block, dtype=complex),
    )


def _scan_noise(work: ScanWork, rng: np.random.Generator, scale) -> np.ndarray:
    """work.noise filled with scale * (x + 1j y), x and y the generator's next
    two (N, N) standard normal draws; the bits of that expression."""
    draws = rng.standard_normal(out=work.draws)
    draws *= scale
    work.noise.real, work.noise.imag = draws
    return work.noise


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


def _cell_response(cfg: SystemConfig, echoes, rows, cols):
    """Noise-free echo of the scan cells (rows[i], cols[i]), averaged coherently
    over subcarriers: (len(rows),). ``echoes`` is the scene's echo form
    scene_arrays(cfg, scene). Every step is elementwise or a reduction along a
    cell's own axes, so each cell has the same bits whatever other cells it
    is given."""
    plan = exhaustive_plan(cfg)
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


def _row_bound(cfg: SystemConfig, echoes, noise):
    """Upper bound of the scan statistic over each row, (N,), and the (N, S)
    array W whose entry W[r, s] bounds scatterer s's vertical power times
    |amplitude| at row r, on every subcarrier."""
    plan = exhaustive_plan(cfg)
    s_theta, _, s_amp = echoes
    vertical = np.abs(s_amp) * fejer_envelope(
        np.cos(s_theta) - plan.cos_theta[:, None], cfg.m_v, plan.ratio.min(), plan.ratio.max()
    )
    bound = plan.sqrt_powers * vertical.sum(axis=1) + np.abs(noise).max(axis=1)
    bound *= (1.0 + ENVELOPE_MARGIN) / plan.expected
    return bound, vertical


def _cell_bound(cfg: SystemConfig, echoes, noise, vertical, rows):
    """Upper bound of the scan statistic at every cell of the given rows,
    (len(rows), N), from the W of _row_bound."""
    plan = exhaustive_plan(cfg)
    s_theta, s_phi, _ = echoes
    s_h = np.sin(s_theta) * np.cos(s_phi)
    horizontal = fejer_envelope(
        s_h[:, None] - plan.cell_h[rows, None, :], cfg.m_h, plan.ratio.min(), plan.ratio.max()
    )  # (r, s, c)
    response = np.matmul(vertical[rows, None, :], horizontal)[:, 0]
    bound = plan.sqrt_powers[rows, None] * response + np.abs(noise[rows])
    return bound * ((1.0 + ENVELOPE_MARGIN) / plan.expected[rows, None])


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

    Only the top-q cells of the statistic reach the record, so the exact
    statistic |sqrt(p_r) response + noise| / (sqrt(p_r) alpha_r) is computed
    only at cells that could be one (a threshold stopping rule, as in
    Fagin, Lotem & Naor, PODS 2001); the other cells hold -inf. With E_m the
    ``geometry.fejer_envelope`` over the subcarrier ratios, scatterer s adds
    at most W[r, s] = |amp_s| E_{m_v}(cos theta_s - cos theta_r) to row r,
    and W[r, s] E_{m_h}(h_s - h_rc) to cell (r, c); a row's bound adds its
    largest |noise|, a cell's its own, each times 1 + ENVELOPE_MARGIN. The
    noise is drawn first (the response draws no random numbers). The cells
    of the 4 rows of largest bound are bounded first. Then the unevaluated
    cells of largest bound are evaluated in batches of 8, 16, ... (the first
    at least q), and after each batch every row whose bound is above the
    q-th largest statistic has its cells bounded, until no unevaluated
    cell's bound is above that statistic. :func:`_cell_response` computes
    each cell the same way whatever other cells it is given, so evaluated
    cells, the top-q cells and the record are bit-identical to a full-grid
    scan. The noise, statistic and bounds live in :func:`scan_work`.
    """
    n = cfg.n_subcarriers
    plan = exhaustive_plan(cfg)
    work = scan_work(n)
    noise = _scan_noise(work, rng, np.sqrt(cfg.noise_variance() / (2.0 * n)))
    echoes = scene_arrays(cfg, scene)
    q = len(scene.targets)
    statistic = work.statistic
    statistic.fill(-np.inf)
    if q:
        row_bound, vertical = _row_bound(cfg, echoes, noise)
        bound = work.bound  # cell bounds; -inf once evaluated or unbounded
        bound.fill(-np.inf)
        top = np.full(q, -np.inf)  # the q largest statistics so far
        rows, batch = np.argsort(row_bound)[-4:], max(8, q)
        while True:
            bound[rows] = _cell_bound(cfg, echoes, noise, vertical, rows)
            row_bound[rows] = -np.inf  # these rows are bounded cell by cell
            live = np.flatnonzero(bound > top[0])
            if not live.size:
                break
            cells = live[np.argsort(bound.flat[live])[-batch:]]
            r, c = np.divmod(cells, n)
            signal = plan.sqrt_powers[r] * _cell_response(cfg, echoes, r, c)
            statistic[r, c] = np.abs(signal + noise[r, c]) / plan.expected[r]
            bound[r, c] = -np.inf
            top = np.partition(np.concatenate((top, statistic[r, c])), -q)[-q:]
            rows, batch = np.flatnonzero(row_bound > top[0]), 2 * batch
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
        powers=powers,
        expected=sqrt_powers * alpha_grid[:, None] * g_design**2,
    )
    for value in plan:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plan


def run_azimuth_only_baseline(
    cfg: SystemConfig,
    scene: Scene,
    rng: np.random.Generator,
) -> TrialRecord:
    """N-symbol azimuth scan with squint-spread elevation coverage.

    Symbol m points the horizontal beam at azimuth phi_m while the stage-0
    vertical TTD spreads subcarriers over the N elevation grid points. The
    horizontal chain can only realize an affine-in-frequency phase slope,
    so mid-band cells suffer a pointing mismatch; wherever the pointed beam
    is worse than the ROI-wide flat beam, the symbol falls back to the flat
    beam for those subcarriers. The power rule stays tau_s-tight against
    the resulting (degraded) design-point gain. The scene-independent part
    is the cached :func:`azimuth_only_plan`.

    The response over (subcarrier, symbol) is computed in the arrays of
    :func:`scan_work`, for blocks of scatterers of at most FEJER_BLOCK
    elements (one scatterer each from N = 128 up), and added up from zero
    one scatterer at a time, in scatterer order: the order in which numpy
    sums a (scatterer, subcarrier, symbol) array over its first axis.
    """
    plan = azimuth_only_plan(cfg)
    work = scan_work(cfg.n_subcarriers)
    s_theta, s_phi, s_amp = scene_arrays(cfg, scene)
    s_h = np.sin(s_theta) * np.cos(s_phi)
    # vertical phase per (scatterer, subcarrier)
    x_v = np.cos(s_theta)[:, None] * plan.ratio - np.cos(cfg.theta_min) + plan.v_ttd
    p_v = uniform_phase_power(x_v, cfg.m_v)
    flat_cells = ~plan.pointed
    response = work.response
    response.fill(0.0)
    per_block = len(work.slope)
    for start in range(0, len(s_amp), per_block):
        block = slice(start, start + per_block)
        k = len(s_amp[block])
        # horizontal phase per (scatterer, subcarrier, symbol)
        slope = np.subtract(
            s_h[block, None, None] * plan.ratio[:, None], plan.steer_h, out=work.slope[:k]
        )
        power = uniform_phase_power(slope, cfg.m_h, out=work.power[:k])
        np.copyto(power, plan.flat**2, where=flat_cells)
        power *= p_v[block, :, None]
        for term in np.multiply(s_amp[block, None, None], power, out=work.term[:k]):
            response += term
    noise = _scan_noise(work, rng, np.sqrt(cfg.noise_variance() / 2.0))
    signal = np.multiply(plan.sqrt_powers, response, out=response)
    signal += noise
    statistic = np.abs(signal, out=work.statistic)
    statistic /= plan.expected
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


def run_single_trial(run: RunConfig, sweep_idx: int, trial: int, value=None) -> TrialRecord:
    """One seeded trial; scene and noise streams derive from (master, sweep, trial)."""
    cfg, q, k = run.at_sweep_value(value)
    scene = generate_scene(
        cfg, q, k, trial_seed(run.seed, sweep_idx, trial, 0), run.include_clutter
    )
    rng = np.random.default_rng(trial_seed(run.seed, sweep_idx, trial, 1))
    record = _METHODS[run.method](cfg, scene, rng)
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
