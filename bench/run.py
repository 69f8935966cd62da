#!/usr/bin/env python3
"""squintsense benchmark: Monte Carlo trials/s per workload, plus a traced per-layer split.

    python3 bench/run.py --workload scaled-proposed --seed 0 --seconds 25 --trace 0

One process, one client, closed loop: trial i+1 of the workload's RunConfig
starts when trial i ends (``simkit.run_single_trial(run, 0, i)``). The
workload seed becomes ``RunConfig.seed``; the program sees only the config
file generated from it. Human-readable lines go to stdout first; the last
line is one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``). Exit status 1 means an output check
failed, 2 that the package sources or arguments are unusable.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import LAYERS, PACKAGE, Hooks, Tracer, hook_report  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set-up is repeated with a fresh import each time and reported as the median.
SETUP_REPEATS = 3
# Warm-up trials use sweep index 1, so their seeds lie outside the timed set.
WARMUP_SWEEP = 1

SCALED = {"m_h": 16, "m_v": 16, "n_subcarriers": 32, "n_candidates": 512}

# Why each workload exists is recorded in bench/BENCHMARK.md. ``check_trials``
# is the fixed trial prefix over which mean_distance_error_m and the CSV
# digest are taken, so both are exact functions of the seed; the timed loop
# always runs at least that many trials.
WORKLOADS = {
    "scaled-proposed": {
        "config": {"method": "proposed", **SCALED, "q_targets": 2, "k_users": 2},
        "check_trials": 40,
    },
    "scaled-crowded": {
        "config": {"method": "proposed", **SCALED, "q_targets": 4, "k_users": 6, "tau_c_db": 20},
        "check_trials": 10,
    },
    "full-proposed": {
        "config": {"method": "proposed", "q_targets": 2, "k_users": 2},
        "check_trials": 6,
    },
    "full-exhaustive": {
        "config": {"method": "exhaustive", "q_targets": 2, "k_users": 2},
        "check_trials": 3,
    },
}

# Spans each method's call path must reach; one that never fires is flagged.
CALL_PATHS = {
    "proposed": (
        "geometry.uniform_phase_sum",
        "beamforming.BeamformerWeights.gain",
        "channel.generate_scene",
        "detection.hierarchical_detect",
        "detection.assemble_observation",
        "detection.build_measurement_matrix",
        "detection.modified_mp",
        "power.grid_echo_strength",
        "power.allocate_sensing",
        "power.sinr_context",
        "power.backoff_tau_c",
        "power.allocate_comm",
        "simkit.run_single_trial",
        "simkit.run_proposed_trial",
        "simkit.allocate_comm_plan",
    ),
    "exhaustive": (
        "geometry.uniform_phase_sum",
        "channel.generate_scene",
        "simkit.run_single_trial",
        "simkit.run_exhaustive_baseline",
    ),
}
CSV_SPANS = ("simkit.records_to_csv", "simkit.aggregate_to_csv")
SETUP_SPANS = ("cli.load_config",)

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("trial_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics, per traced trial unless the name says otherwise:
# (name, unit, kind, span). kind: ms = inclusive time, self_ms = time minus
# nested wrapped calls, calls = call count, counter = value read from a
# call's arguments or result by ON_RETURN.
PER_LAYER = (
    ("geometry.uniform_phase_sum.ms", "ms", "ms", "geometry.uniform_phase_sum"),
    ("geometry.uniform_phase_sum.calls", "count", "calls", "geometry.uniform_phase_sum"),
    ("geometry.uniform_phase_sum.elements", "count", "counter", "geometry.uniform_phase_sum"),
    ("beamforming.gain.calls", "count", "calls", "beamforming.BeamformerWeights.gain"),
    ("beamforming.gain.self_ms", "ms", "self_ms", "beamforming.BeamformerWeights.gain"),
    ("channel.generate_scene.ms", "ms", "ms", "channel.generate_scene"),
    ("detection.assemble_observation.ms", "ms", "ms", "detection.assemble_observation"),
    ("detection.build_measurement_matrix.ms", "ms", "ms", "detection.build_measurement_matrix"),
    ("detection.modified_mp.ms", "ms", "ms", "detection.modified_mp"),
    ("detection.mp_iterations", "count", "counter", "detection.hierarchical_detect"),
    ("detection.stages", "count", "counter", "detection.hierarchical_detect"),
    ("detection.hierarchical_detect.self_ms", "ms", "self_ms", "detection.hierarchical_detect"),
    ("power.sinr_context.ms", "ms", "ms", "power.sinr_context"),
    ("power.grid_echo_strength.ms", "ms", "ms", "power.grid_echo_strength"),
    ("power.allocate_sensing.ms", "ms", "ms", "power.allocate_sensing"),
    ("power.backoff_tau_c.ms", "ms", "ms", "power.backoff_tau_c"),
    ("power.allocate_comm.ms", "ms", "ms", "power.allocate_comm"),
    ("power.allocate_comm.calls", "count", "calls", "power.allocate_comm"),
    ("power.backoff_db", "dB", "counter", "simkit.allocate_comm_plan"),
    ("simkit.allocate_comm_plan.self_ms", "ms", "self_ms", "simkit.allocate_comm_plan"),
    ("simkit.run_exhaustive_baseline.self_ms", "ms", "self_ms", "simkit.run_exhaustive_baseline"),
    ("simkit.trial.self_ms", "ms", "self_ms", "simkit.run_single_trial"),
)
# Computed in traced_run rather than read from one span.
TRACE_EXTRA = (
    ("simkit.csv_ms", "ms"),
    ("cli.load_config_ms", "ms"),
    ("trace_overhead_frac", "frac"),
    ("trace.trials", "count"),
    ("trace.hooks_absent", "count"),
    ("trace.hooks_never_fired", "count"),
)

FINITE_FIELDS = (
    "distance_error_m",
    "total_sensing_energy",
    "avg_transmit_power",
    "sum_rate",
    "energy_efficiency",
)


class CheckFailed(Exception):
    """An output of the program failed a benchmark check."""


def _elements(tracer, args, kwargs, result):
    tracer.add("geometry.uniform_phase_sum.elements", getattr(result, "size", 1))


def _detection_counts(tracer, args, kwargs, result):
    tracer.add("detection.stages", len(result.symbol_counts))
    tracer.add("detection.mp_iterations", sum(len(cv.trace) for cv in result.traces))


def _backoff(tracer, args, kwargs, result):
    tracer.add("power.backoff_db", 10.0 * math.log10(args[0].tau_c / result[2]))


ON_RETURN = {
    "geometry.uniform_phase_sum": _elements,
    "detection.hierarchical_detect": _detection_counts,
    "simkit.allocate_comm_plan": _backoff,
}


# ---------------------------------------------------------------- statistics


def tail_percentile(samples, p: int):
    """The p-th percentile (integer p, numpy's linear rule), or None unless
    at least ten samples lie beyond it."""
    if len(samples) * (100 - p) < 10 * 100:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------- environment


def pin_blas_threads() -> int:
    """One OpenBLAS thread (call before numpy loads); returns this process's CPU count.

    The trials are single-threaded Python calling numpy on small arrays; on
    the reference 2-core machine OpenBLAS's default of one thread per core
    made scaled-proposed both slower (12.0-15.3 vs 17.1-17.3 trials/s) and
    noisier, as its idle worker spins on the second core.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return len(os.sched_getaffinity(0))


def environment(nproc: int) -> dict:
    import ctypes

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = -1
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


# ---------------------------------------------------------------- machine speed


class SpeedProbe:
    """Fixed memory-streaming numpy kernel, timed between trials.

    The reference machine is shared: over seconds, the same trial's wall
    time (and CPU time) swings by up to 2x. Every reported time is divided
    by the speed factor (kernel time / NOMINAL_S) averaged over the kernel
    runs within WINDOW_S of it, which expresses it at the machine's quiet
    speed. Over ten seeds of 25 s runs this cut the quartile spread of
    trials/s from 0.12-0.26 (wall clock) to 0.03-0.06 on the four
    workloads. The buffers are allocated once: a constant 12 MB of peak
    RSS, no peak of the kernel's own.
    """

    ELEMENTS = 1 << 19
    NOMINAL_S = 0.0114  # fastest kernel time seen on the reference machine
    SHARE = 0.15        # of measured work spent in the kernel
    WINDOW_S = 0.5      # kernel runs this close to a span calibrate it

    def __init__(self):
        import numpy

        self.np = numpy
        self.x = numpy.linspace(0.1, 1.0, self.ELEMENTS)
        self.a = numpy.empty(self.ELEMENTS)
        self.b = numpy.empty(self.ELEMENTS)
        self.samples = []  # (midpoint time, factor)
        self.spent = 0.0
        self.busy = 0.0
        self.sample()

    def sample(self):
        np, x, a, b = self.np, self.x, self.a, self.b
        start = time.perf_counter()
        np.multiply(x, 32 * np.pi, out=a)
        np.sin(a, out=b)
        np.cos(a, out=a)
        np.multiply(a, b, out=a)
        np.exp(x, out=b)
        np.multiply(a, b, out=a)
        np.abs(a, out=a)
        a.sum()
        end = time.perf_counter()
        self.spent += end - start
        self.samples.append((0.5 * (start + end), (end - start) / self.NOMINAL_S))

    def keep_share(self, busy_s: float):
        """Account ``busy_s`` of measured work; run the kernel until it has had
        its share of all work so far."""
        self.busy += busy_s
        while self.spent < self.SHARE * self.busy:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor of the kernel runs within WINDOW_S of [start, end],
        else of the run nearest to it."""
        near = [f for t, f in self.samples
                if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        if near:
            return statistics.fmean(near)
        mid = 0.5 * (start + end)
        return min(self.samples, key=lambda sample: abs(sample[0] - mid))[1]


# ---------------------------------------------------------------- program under test


class Package:
    """The squintsense modules of one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        root = importlib.import_module(PACKAGE)
        if Path(root.__file__).resolve().parent != (SRC / PACKAGE).resolve():
            raise ImportError(f"{PACKAGE} imported from {root.__file__}, not from {SRC}")
        for layer in ("cli", "simkit", "exceptions"):
            importlib.import_module(f"{PACKAGE}.{layer}")
        self.modules = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        self.cli = self.modules[f"{PACKAGE}.cli"]
        self.simkit = self.modules[f"{PACKAGE}.simkit"]
        self.error = self.modules[f"{PACKAGE}.exceptions"].SquintSenseError

    def attempt(self, run, sweep_idx: int, trial: int):
        """(record, None) on success, (None, error text) on a recorded failure."""
        try:
            return self.simkit.run_single_trial(run, sweep_idx, trial), None
        except self.error as exc:
            return None, f"{type(exc).__name__}: {exc}"

    def digest(self, outcomes) -> str:
        """sha256 of the trial CSV of the successes plus the failure messages."""
        records = [rec for rec, _ in outcomes if rec is not None]
        failures = [(i, err) for i, (_, err) in enumerate(outcomes) if err is not None]
        text = self.simkit.records_to_csv(records) + repr(failures)
        return hashlib.sha256(text.encode()).hexdigest()


def config_text(workload: str, seed: int) -> str:
    keys = {**WORKLOADS[workload]["config"], "seed": seed}
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def set_up(cfg_path: Path, probe: SpeedProbe, tracer: Tracer | None = None):
    """Fresh import, ``cli.load_config``, one warm-up trial; repeated, with the
    warm-up CSV required to match across repeats.

    Returns (calibrated set-up seconds per repeat, package, RunConfig, last hooks).
    """
    spans, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pkg = Package()
        hooks = Hooks(tracer, pkg.modules, ON_RETURN) if tracer is not None else None
        run = pkg.cli.load_config(str(cfg_path))
        warm = pkg.attempt(run, WARMUP_SWEEP, 0)
        end = time.perf_counter()
        if hooks is not None:
            hooks.remove()
        spans.append((start, end))
        probe.keep_share(end - start)
        digests.add(pkg.digest([warm]))
    if len(digests) != 1:
        raise CheckFailed(f"warm-up trial CSV differs across {SETUP_REPEATS} fresh imports")
    times = [(end - start) / probe.factor(start, end) for start, end in spans]
    return times, pkg, run, hooks


def check_finite(outcomes):
    bad = [
        (rec.trial, name)
        for rec, _ in outcomes if rec is not None
        for name in FINITE_FIELDS if not math.isfinite(getattr(rec, name))
    ]
    if bad:
        raise CheckFailed(f"non-finite fields in successful records: {bad[:5]}")


def successes(outcomes) -> int:
    return sum(rec is not None for rec, _ in outcomes)


# ---------------------------------------------------------------- runs


def timed_run(workload: str, seconds: float, cfg_path: Path):
    """Closed loop: trials 0, 1, ... back to back for ``seconds`` (and at least
    ``check_trials``), then trial 0 again, which must give the same CSV."""
    check = WORKLOADS[workload]["check_trials"]
    probe = SpeedProbe()
    setup_times, pkg, run, _ = set_up(cfg_path, probe)
    outcomes, spans = [], []
    start = time.perf_counter()
    while len(outcomes) < check or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outcomes.append(pkg.attempt(run, 0, len(outcomes)))
        t1 = time.perf_counter()
        spans.append((t0, t1))
        probe.keep_share(t1 - t0)
    probe.sample()  # so the last trial has a kernel run after it
    wall = [t1 - t0 for t0, t1 in spans]
    times = [(t1 - t0) / probe.factor(t0, t1) for t0, t1 in spans]
    if pkg.digest([pkg.attempt(run, 0, 0)]) != pkg.digest(outcomes[:1]):
        raise CheckFailed("trial 0 CSV differs when the trial is repeated")
    check_finite(outcomes)

    ok = successes(outcomes)
    factors = [f for _, f in probe.samples]
    errors = [rec.distance_error_m for rec, _ in outcomes[:check] if rec is not None]
    metrics = {
        "trials_per_s": ok / sum(times),
        "trial_ms_p50": 1e3 * statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p90 = tail_percentile(times, 90)
    info = {
        "trials": len(outcomes),
        "trial_ms_p90": "n/a (<100 trials)" if p90 is None else f"{1e3 * p90:.6g} ms",
        "failed_frac": (len(outcomes) - ok) / len(outcomes),
        f"mean_distance_error_m (trials 0..{check - 1})":
            repr(statistics.fmean(errors)) if errors else "n/a (all failed)",
        f"csv_sha256 (trials 0..{check - 1})": pkg.digest(outcomes[:check]),
        "speed_factor (median, min, max)": ", ".join(
            f"{f(factors):.4f}" for f in (statistics.median, min, max)),
        "wall_trials_per_s": f"{ok / sum(wall):.6g}",
        "wall_trial_ms_p50": f"{1e3 * statistics.median(wall):.6g}",
        "setup_s samples": ", ".join(f"{t:.4f}" for t in setup_times),
    }
    return outcomes, metrics, info


def traced_run(workload: str, seconds: float, cfg_path: Path):
    """Each trial runs once untraced and once traced, in alternating order,
    so drift in machine speed cancels out of the tracing overhead."""
    method = WORKLOADS[workload]["config"]["method"]
    probe = SpeedProbe()
    tracer = Tracer()
    _, pkg, run, setup_hooks = set_up(cfg_path, probe, tracer)
    setup_absent, setup_never = hook_report(tracer, setup_hooks, SETUP_SPANS, SETUP_SPANS)
    setup_factor = statistics.fmean(f for _, f in probe.samples)
    load_ms = (
        1e3 * tracer.spans["cli.load_config"].total / SETUP_REPEATS / setup_factor
        if "cli.load_config" in setup_hooks.installed else 0.0
    )
    tracer.reset()

    hooks = Hooks(tracer, pkg.modules, ON_RETURN)
    hooks.remove()
    plain, traced, plain_s, traced_s = [], [], 0.0, 0.0
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        i = len(plain)
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if tracing:
                hooks.apply()
            t0 = time.perf_counter()
            outcome = pkg.attempt(run, 0, i)
            dt = time.perf_counter() - t0
            hooks.remove()
            probe.keep_share(dt)
            if tracing:
                traced.append(outcome)
                traced_s += dt
            else:
                plain.append(outcome)
                plain_s += dt
    records = [rec for rec, _ in traced if rec is not None]
    hooks.apply()
    try:
        simkit = pkg.simkit
        simkit.records_to_csv(records)
        simkit.aggregate_to_csv(simkit.aggregate(records))
    finally:
        hooks.remove()
    if pkg.digest(traced) != pkg.digest(plain):
        raise CheckFailed("trial CSV differs between the untraced and the traced pass")
    check_finite(traced)

    spans = {name for *_, name in PER_LAYER} | set(CSV_SPANS)
    absent, never = hook_report(tracer, hooks, spans, CALL_PATHS[method] + CSV_SPANS)
    absent = sorted(set(absent) | set(setup_absent))
    never = sorted(set(never) | set(setup_never))
    n = len(traced)
    ms = 1e3 / probe.factor(start, time.perf_counter())  # calibrated ms per second of span time
    metrics = {}
    for name, _, kind, span in PER_LAYER:
        stats = tracer.spans.get(span)
        if span in absent:
            value = 0.0
        elif kind == "ms":
            value = ms * stats.total / n
        elif kind == "self_ms":
            value = ms * stats.self_time / n
        elif kind == "calls":
            value = stats.calls / n
        else:
            value = tracer.counters.get(name, 0.0) / n
        metrics[name] = value
    metrics["simkit.csv_ms"] = ms * sum(
        tracer.spans[s].total for s in CSV_SPANS if s in hooks.installed
    )
    metrics["cli.load_config_ms"] = load_ms
    metrics["trace_overhead_frac"] = 1.0 - (successes(traced) / traced_s) / (
        successes(plain) / plain_s
    )
    metrics["trace.trials"] = n
    metrics["trace.hooks_absent"] = len(absent)
    metrics["trace.hooks_never_fired"] = len(never)

    info = {
        "trials": f"{len(plain)} untraced + {n} traced",
        "absent hooks": ", ".join(absent) or "none",
        "never-fired hooks": ", ".join(never) or "none",
    }
    for span, stats in sorted(tracer.spans.items(), key=lambda item: -item[1].self_time):
        if stats.calls:
            info[f"span {span}"] = (
                f"calls/trial {stats.calls / n:.6g}  ms/trial {ms * stats.total / n:.6g}"
                f"  self_ms/trial {ms * stats.self_time / n:.6g}"
            )
    return plain + traced, metrics, info


# ---------------------------------------------------------------- entry point


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be nonnegative")
        return value

    def positive(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be positive")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed, default=0)
    parser.add_argument("--seconds", type=positive, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(nproc)

    WORK.mkdir(exist_ok=True)
    cfg_path = WORK / f"{args.workload}-{os.getpid()}.cfg"
    cfg_path.write_text(config_text(args.workload, args.seed))
    try:
        if args.trace:
            outcomes, metrics, info = traced_run(args.workload, args.seconds, cfg_path)
            units = {name: unit for name, unit, *_ in PER_LAYER + TRACE_EXTRA}
        else:
            outcomes, metrics, info = timed_run(args.workload, args.seconds, cfg_path)
            units = dict(END_TO_END)
        correct, status = True, 0
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        outcomes, metrics, info, units = [], {}, {}, {}
        correct, status = False, 1
    finally:
        cfg_path.unlink(missing_ok=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  layers {','.join(LAYERS)}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in info.items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"{name:<42} {value:<22.10g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(len(outcomes), 1),
        "failed": len(outcomes) - successes(outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return status


if __name__ == "__main__":
    sys.exit(main())
