"""Command-line entry point: config loading, subcommand dispatch, CSV output."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .beamforming import aas_beamformer, comm_beamformer, eas_beamformer
from .channel import generate_scene
from .config import RunConfig, SystemConfig
from .detection import hierarchical_detect
from .exceptions import ConfigError, SquintSenseError
from .simkit import (
    aggregate_to_csv,
    csv_text,
    plan_proposed_trial,
    records_to_csv,
    run_experiment,
    trial_seed,
)

OUTPUT_DIR_ENV = "SQUINTSENSE_OUTPUT_DIR"


def _deg(value: str) -> float:
    return math.radians(float(value))


def _echo_deg(radians: float) -> str:
    """Degree text that loads back as exactly ``radians``: ``math.degrees``
    when it does, else its nearest neighbour (up to 4 ulp away) that does.
    24 deg echoes as 24.000000000000004 by ``math.degrees``, 1 ulp high."""
    degrees = math.degrees(radians)
    candidates = [degrees]
    above = below = degrees
    for _ in range(4):
        above = math.nextafter(above, math.inf)
        below = math.nextafter(below, -math.inf)
        candidates += [above, below]
    return repr(next((d for d in candidates if math.radians(d) == radians), degrees))


def _bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected boolean, got {value!r}")


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _echo(parse, value) -> str:
    """Config-file text that ``parse`` turns back into ``value``."""
    if parse is _deg:
        return _echo_deg(value)
    if parse is _bool:
        return str(value).lower()
    if parse is _floats:
        return ",".join(repr(v) for v in value)
    return str(value) if parse is str else repr(value)


# config-file key -> (SystemConfig or RunConfig field, parser), in echo order
CONFIG_KEYS = {
    "fc_hz": ("fc", float),
    "bandwidth_hz": ("bandwidth", float),
    "n_subcarriers": ("n_subcarriers", int),
    "m_h": ("m_h", int),
    "m_v": ("m_v", int),
    "height_m": ("height", float),
    "theta_min_deg": ("theta_min", _deg),
    "theta_max_deg": ("theta_max", _deg),
    "phi_min_deg": ("phi_min", _deg),
    "phi_max_deg": ("phi_max", _deg),
    "noise_psd_dbm_hz": ("noise_psd_dbm_hz", float),
    "sigma_rcs_dbsm": ("sigma_rcs_dbsm", float),
    "kappa_db": ("kappa_db", float),
    "n_clutter": ("n_clutter", int),
    "sigma_clutter_dbsm": ("sigma_clutter_dbsm", float),
    "tau_s_db": ("tau_s_db", float),
    "tau_c_db": ("tau_c_db", float),
    "p_s_max_w": ("p_s_max", float),
    "n_candidates": ("n_candidates", int),
    "user_min_separation_deg": ("user_min_separation", _deg),
    "uniform_candidate_grid": ("uniform_candidate_grid", _bool),
    "max_abs_ttd_s": ("max_abs_ttd", float),
    "method": ("method", str),
    "q_targets": ("q_targets", int),
    "k_users": ("k_users", int),
    "trials": ("trials", int),
    "seed": ("seed", int),
    "include_clutter": ("include_clutter", _bool),
    "sweep_var": ("sweep_var", str),
    "sweep_values": ("sweep_values", _floats),
    "output": ("output", str),
}
_SYSTEM_FIELDS = frozenset(f.name for f in fields(SystemConfig))


def load_config(path: str) -> RunConfig:
    """Parse a flat key=value config file into a validated RunConfig."""
    system_kwargs = {}
    run_kwargs = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field, parse = CONFIG_KEYS[key]
        kwargs = system_kwargs if field in _SYSTEM_FIELDS else run_kwargs
        try:
            kwargs[field] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    try:
        system = SystemConfig(**system_kwargs)
        return RunConfig(system=system, **run_kwargs)
    except ConfigError as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from exc


def echo_config(run: RunConfig) -> list:
    """Config-file lines that reproduce this run exactly."""
    lines = []
    for key, (field, parse) in CONFIG_KEYS.items():
        value = getattr(run.system if field in _SYSTEM_FIELDS else run, field)
        # unset optional keys are left out; sweep values count only with a sweep variable
        if value is None or (field == "sweep_values" and run.sweep_var is None):
            continue
        lines.append(f"{key} = {_echo(parse, value)}")
    return lines


def provenance_lines(run: RunConfig) -> list:
    return [f"squintsense {__version__}", f"master seed {run.seed}", "effective config:"] + [
        "  " + line for line in echo_config(run)
    ]


def _resolve_output(path: str) -> str:
    override = os.environ.get(OUTPUT_DIR_ENV)
    if override:
        return os.path.join(override, os.path.basename(path))
    return path


def _write(path, text, stdout):
    if path is None:
        stdout.write(text)
        return
    path = _resolve_output(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def cmd_simulate(run: RunConfig, args, stdout) -> int:
    records, rows = run_experiment(run)
    prov = provenance_lines(run)
    base = run.output or args.output
    if base is None:
        _write(None, aggregate_to_csv(rows, prov), stdout)
    else:
        root, ext = os.path.splitext(base)
        ext = ext or ".csv"
        _write(root + "_aggregate" + ext, aggregate_to_csv(rows, prov), stdout)
        _write(root + "_trials" + ext, records_to_csv(records, prov), stdout)
    return 0


def _first_trial(run: RunConfig):
    """Scene and noise stream of trial 0 on the unswept base system."""
    scene = generate_scene(run.system, run.q_targets, run.k_users, trial_seed(run.seed, 0, 0, 0))
    return scene, np.random.default_rng(trial_seed(run.seed, 0, 0, 1))


def cmd_detect(run: RunConfig, args, stdout) -> int:
    scene, rng = _first_trial(run)
    result = hierarchical_detect(run.system, scene, run.q_targets, rng, run.include_clutter)
    rows = (
        [stage, it, idx, f"{corr:.12e}", f"{res:.12e}"]
        for stage, counting in enumerate(result.traces)
        for it, (idx, corr, res) in enumerate(counting.trace)
    )
    header = ["stage", "iteration", "selected_index", "correlation", "residual_norm"]
    _write(run.output or args.output, csv_text(header, rows, provenance_lines(run)), stdout)
    return 0


def cmd_power(run: RunConfig, args, stdout) -> int:
    scene, rng = _first_trial(run)
    _, plan, _ = plan_proposed_trial(run.system, scene, rng, run.include_clutter)
    provenance = provenance_lines(run) + [
        f"effective sinr threshold (linear) {plan.effective_tau_c:.12g}"
    ]
    rows = []
    for stage, (t, p_s) in enumerate(zip(plan.symbol_counts, plan.sensing_powers)):
        rows.extend(["sensing", stage, "", n, t, f"{p:.12e}"] for n, p in enumerate(p_s))
    for stage, (t, p_c) in enumerate(zip(plan.symbol_counts, plan.comm_powers)):
        rows.extend(["comm", stage, k, n, t, f"{p:.12e}"] for (k, n), p in np.ndenumerate(p_c))
    header = ["kind", "stage", "user", "subcarrier", "symbols", "power_w"]
    _write(run.output or args.output, csv_text(header, rows, provenance), stdout)
    return 0


def cmd_beampattern(run: RunConfig, args, stdout) -> int:
    cfg = run.system
    kind = args.stage
    subcarriers = [int(s) for s in args.subcarriers.split(",")]
    for n in subcarriers:
        if not 0 <= n < cfg.n_subcarriers:
            raise ConfigError(f"subcarrier index {n} outside [0, {cfg.n_subcarriers - 1}]")
    if kind == "eas":
        bf = eas_beamformer(cfg)
        # sweep elevation at mid azimuth
        theta = np.linspace(cfg.theta_min, cfg.theta_max, args.points)
        phi = 0.5 * (cfg.phi_min + cfg.phi_max)
    else:
        if kind == "aas" and args.theta_hat is None:
            raise ConfigError("beampattern --stage aas requires --theta-hat")
        if kind == "comm" and (args.theta_hat is None or args.phi is None):
            raise ConfigError("beampattern --stage comm requires --theta-hat and --phi")
        theta = math.radians(args.theta_hat)
        if kind == "aas":
            bf = aas_beamformer(cfg, theta)
        else:
            bf = comm_beamformer(cfg, theta, math.radians(args.phi))
        # sweep azimuth at the pointing elevation
        phi = np.linspace(cfg.phi_min, cfg.phi_max, args.points)
    thetas, phis = np.broadcast_arrays(theta, phi)
    rows = (
        [kind, n, f"{math.degrees(th):.6f}", f"{math.degrees(ph):.6f}", f"{g:.12e}"]
        for n in subcarriers
        for th, ph, g in zip(thetas, phis, np.abs(bf.gain(theta, phi, n)))
    )
    header = ["stage", "subcarrier", "theta_deg", "phi_deg", "gain_abs"]
    _write(run.output or args.output, csv_text(header, rows, provenance_lines(run)), stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squintsense",
        description="Wideband OFDM beam-squint angle sensing simulator",
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("simulate", "run a Monte Carlo experiment and emit aggregate/trial CSVs"),
        ("detect", "run one seeded detection trial and dump the pursuit trace"),
        ("power", "print the power plan of one seeded trial as CSV"),
        ("beampattern", "dump gain-vs-angle curves for chosen subcarriers"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--output", default=None, help="output CSV path (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        if name == "beampattern":
            p.add_argument("--stage", required=True, choices=["eas", "aas", "comm"])
            p.add_argument("--theta-hat", type=float, default=None, help="elevation, degrees")
            p.add_argument("--phi", type=float, default=None, help="azimuth, degrees")
            p.add_argument("--subcarriers", default="0", help="comma list of indices")
            p.add_argument("--points", type=int, default=721, help="angle sweep points")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "detect": cmd_detect,
    "power": cmd_power,
    "beampattern": cmd_beampattern,
}


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(stderr)
        return 1
    try:
        if args.config is not None:
            run = load_config(args.config)
        else:
            run = RunConfig(system=SystemConfig())
        if args.seed is not None:
            run = run.replace(seed=args.seed)
        for line in echo_config(run):
            stderr.write(f"# {line}\n")
        return _COMMANDS[args.command](run, args, stdout)
    except ConfigError as exc:
        stderr.write(f"config error: {exc}\n")
        return 1
    except SquintSenseError as exc:
        stderr.write(f"runtime error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
