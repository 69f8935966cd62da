"""Monte Carlo experiment harness, metrics, and scan baselines."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .beamforming import (
    aas_azimuth_grid,
    comm_beamformer,
    eas_elevation_grid,
    eas_vertical_ttd,
)
from .channel import Scene, generate_scene, scene_arrays, sensing_attenuation
from .config import RunConfig, SystemConfig
from .detection import hierarchical_detect
from .exceptions import ConfigError, SquintSenseError
from .geometry import flat_horizontal_gain, uniform_phase_power
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

TRIAL_FIELDS = [
    "trial",
    "seed",
    "method",
    "sweep_var",
    "sweep_value",
    "q_targets",
    "distance_error_m",
    "total_sensing_energy",
    "avg_transmit_power",
    "sum_rate",
    "energy_efficiency",
    "n_stages",
    "symbol_counts",
    "ok",
    "error",
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

    Returns (comm_powers per stage, achieved SINR arrays per stage, effective
    tau_c). With no users, all outputs are empty and tau_c passes through.
    """
    k_users = len(scene.users)
    if k_users == 0:
        return [np.zeros((0, cfg.n_subcarriers)) for _ in stage_weights], [], cfg.tau_c
    comm_w = [comm_beamformer(cfg, u.theta, u.phi) for u in scene.users]
    contexts = [
        sinr_context(cfg, scene, comm_w, w, p)
        for w, p in zip(stage_weights, sensing_powers)
    ]
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


def _finish_record(method: str, cfg: SystemConfig, scene: Scene, estimates, plan, sinrs):
    record = TrialRecord(method=method, q_targets=len(scene.targets))
    truth = [(t.theta, t.phi) for t in scene.targets]
    record.distance_error_m = distance_error(cfg.height, truth, estimates)
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
    include_clutter: bool = True,
):
    """Hierarchical detection, then communication allocation over its stages:
    (DetectionResult, PowerPlan, achieved SINR arrays per stage)."""
    result = hierarchical_detect(cfg, scene, len(scene.targets), rng, include_clutter)
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
    include_clutter: bool = True,
) -> TrialRecord:
    """Hierarchical detection plus communication allocation for one scene."""
    result, plan, sinrs = plan_proposed_trial(cfg, scene, rng, include_clutter)
    return _finish_record("proposed", cfg, scene, result.estimates, plan, sinrs)


def _scan_record(method: str, cfg: SystemConfig, scene: Scene, statistic, grids, powers):
    """Record of an N x N scan: the top-q cells of its statistic, whose rows
    and columns follow grids = (elevation grid, azimuth grid), and a one-stage
    plan whose sensing powers have every symbol's T folded in."""
    theta_grid, phi_grid = grids
    n = statistic.shape[1]
    flat = np.argsort(statistic.ravel())[::-1][: len(scene.targets)]
    estimates = [(float(theta_grid[i // n]), float(phi_grid[i % n])) for i in flat]
    plan = PowerPlan(
        symbol_counts=[1],
        sensing_powers=[powers],
        comm_powers=[],
        effective_tau_c=cfg.tau_c,
    )
    return _finish_record(method, cfg, scene, estimates, plan, [])


def run_exhaustive_baseline(
    cfg: SystemConfig,
    scene: Scene,
    rng: np.random.Generator,
    include_clutter: bool = True,
) -> TrialRecord:
    """N x N pencil-beam scan, one squint-compensated beam per OFDM symbol.

    Every subcarrier of a symbol is co-pointed at one grid cell; the power
    on each subcarrier follows the tau_s-tight rule with T = 1, so a symbol
    costs N times the single-subcarrier tight power of its cell.
    """
    n = cfg.n_subcarriers
    theta_grid = eas_elevation_grid(cfg)  # (N,)
    phi_grid = aas_azimuth_grid(cfg)      # (N,)
    f = cfg.subcarrier_offsets()
    sigma2 = cfg.noise_variance()
    alpha_grid = sensing_attenuation(cfg, cfg.height / np.cos(theta_grid), cfg.sigma_rcs)
    p_cell = cfg.tau_s * sigma2 / alpha_grid**2  # (N,) per elevation row, gain 1

    s_theta, s_phi, s_amp = scene_arrays(cfg, scene, include_clutter)
    # squint-compensated pencil at cell (m, c): residual slope is
    # (1 + f/fc) * (target trig - cell trig) in both axes
    ratio = 1.0 + f / cfg.fc  # (N,)
    cell_h = np.sin(theta_grid)[:, None] * np.cos(phi_grid)[None, :]  # (m, c)
    cell_v = np.cos(theta_grid)  # (m,)
    response = np.zeros((n, n), dtype=complex)  # coherent subcarrier average per cell
    for th, ph, amp in zip(s_theta, s_phi, s_amp):
        x_h = ratio[None, None, :] * (
            np.sin(th) * np.cos(ph) - cell_h[:, :, None]
        )  # (m, c, n)
        x_v = ratio[None, :] * (np.cos(th) - cell_v[:, None])  # (m, n)
        gain2 = uniform_phase_power(x_h, cfg.m_h)
        del x_h  # free one (N, N, N) array before the next scatterer allocates its own
        gain2 *= uniform_phase_power(x_v, cfg.m_v)[:, None, :]  # (m, c, n)
        response += amp * np.mean(gain2, axis=2)
    signal = np.sqrt(p_cell)[:, None] * response
    noise = np.sqrt(sigma2 / (2.0 * n)) * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    statistic = np.abs(signal + noise) / (np.sqrt(p_cell)[:, None] * alpha_grid[:, None])
    # energy bookkeeping: N^2 symbols, each transmitting its cell's tight
    # power on all N subcarriers; folded into a single pseudo-stage
    grids = (theta_grid, phi_grid)
    return _scan_record("exhaustive", cfg, scene, statistic, grids, n * np.repeat(p_cell, n))


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


def run_azimuth_only_baseline(
    cfg: SystemConfig,
    scene: Scene,
    rng: np.random.Generator,
    include_clutter: bool = True,
) -> TrialRecord:
    """N-symbol azimuth scan with squint-spread elevation coverage.

    Symbol m points the horizontal beam at azimuth phi_m while the stage-0
    vertical TTD spreads subcarriers over the N elevation grid points. The
    horizontal chain can only realize an affine-in-frequency phase slope,
    so mid-band cells suffer a pointing mismatch; wherever the pointed beam
    is worse than the ROI-wide flat beam, the symbol falls back to the flat
    beam for those subcarriers. The power rule stays tau_s-tight against
    the resulting (degraded) design-point gain.
    """
    n = cfg.n_subcarriers
    theta_grid, f, coef, residual = _azimuth_only_fit(cfg)
    phi_grid = aas_azimuth_grid(cfg)
    sigma2 = cfg.noise_variance()
    ratio = 1.0 + f / cfg.fc
    v_slope = eas_vertical_ttd(cfg)[1] - eas_vertical_ttd(cfg)[0] if cfg.m_v > 1 else 0.0

    cos_phi = np.cos(phi_grid)  # per-symbol horizontal pointing
    flat = flat_horizontal_gain(cfg)
    # design-point horizontal gain per (subcarrier n, symbol m); whenever the
    # pointed beam is below the flat ROI-wide gain, that cell uses the flat beam
    g_point = np.sqrt(uniform_phase_power(residual[:, None] * cos_phi[None, :], cfg.m_h))
    pointed = g_point >= flat
    g_design = np.where(pointed, g_point, flat)
    alpha_grid = sensing_attenuation(cfg, cfg.height / np.cos(theta_grid), cfg.sigma_rcs)
    strength = alpha_grid[:, None] ** 2 * g_design**4  # (n, m)
    powers = cfg.tau_s * sigma2 / strength

    s_theta, s_phi, s_amp = scene_arrays(cfg, scene, include_clutter)
    response = np.zeros((n, n), dtype=complex)  # (subcarrier, symbol)
    affine = coef[0] + coef[1] * f  # realized horizontal slope trajectory
    for th, ph, amp in zip(s_theta, s_phi, s_amp):
        x_h = (
            np.sin(th) * np.cos(ph) * ratio[:, None]
            - affine[:, None] * cos_phi[None, :]
        )
        x_v = np.cos(th) * ratio - np.cos(cfg.theta_min) + 2.0 * f * v_slope
        p_h = np.where(pointed, uniform_phase_power(x_h, cfg.m_h), flat**2)
        response += amp * (p_h * uniform_phase_power(x_v, cfg.m_v)[:, None])
    noise = np.sqrt(sigma2 / 2.0) * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    signal = np.sqrt(powers) * response
    expected = np.sqrt(powers) * alpha_grid[:, None] * g_design**2
    statistic = np.abs(signal + noise) / expected
    grids = (theta_grid, phi_grid)
    # sensing powers of N symbols x N subcarriers, T folded in
    return _scan_record("azimuth_only", cfg, scene, statistic, grids, powers.ravel())


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
    scene = generate_scene(cfg, q, k, trial_seed(run.seed, sweep_idx, trial, 0))
    rng = np.random.default_rng(trial_seed(run.seed, sweep_idx, trial, 1))
    record = _METHODS[run.method](cfg, scene, rng, include_clutter=run.include_clutter)
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
