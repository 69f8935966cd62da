#!/usr/bin/env python3
"""Run bench/run.py over several seeds and summarise the spread of each metric.

    python3 bench/collect.py --workloads all --seeds 0-9 --trace 0 --out results.json

Each (workload, seed) runs in its own process, one after another. For every
metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median; an
end-to-end spread above a third of its bound in BENCHMARK.json is flagged.
Untraced runs also keep, per seed, the wall-clock figures and the exact
mean distance error, failed fraction and trial-CSV digest, which must not
change under a refactor; ``--compare OLD.json`` checks those three against
an earlier summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("failed_frac", "mean_distance_error_m", "csv_sha256")
WALL = ("wall_trials_per_s", "wall_trial_ms_p50", "speed_factor")


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    info, env = {}, None
    for line in lines[:-1]:
        if line.startswith("env "):
            env = json.loads(line[4:])
        key, sep, value = line.strip().partition(": ")
        name = key.split(" (")[0]
        if sep and name in EXACT + WALL:
            info[name] = value
    return result, info, env


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "values": values}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default="all", help="comma list, or 'all'")
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    parser.add_argument("--compare", type=Path, help="earlier summary to match exactly")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
                 else args.workloads.split(","))
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    summary = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    flagged = []
    for workload in workloads:
        values, per_seed = {}, {}
        for seed in seeds:
            result, info, env = run_once(workload, seed, seconds, args.trace)
            summary["env"] = env
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output check failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            per_seed[str(seed)] = info
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={m['value']:.5g}" for n, m in list(result["metrics"].items())[:6]),
                flush=True)
        stats = {name: summarise(v) for name, v in values.items()}
        summary["workloads"][workload] = {"metrics": stats, "seeds": per_seed}
        for name, s in stats.items():
            if name not in bounds or "spread" not in s:
                continue
            if name != "setup_s" and s["spread"] > bounds[name] / 3:
                flagged.append(f"{workload} {name} spread {s['spread']:.4f} > bound/3")
            print(f"  {workload:<16} {name:<14} median {s['median']:.6g}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                  f"  (bound {bounds[name]})")

    mismatches = []
    if args.compare:
        old = json.loads(args.compare.read_text())["workloads"]
        for workload, data in summary["workloads"].items():
            for seed, fields in data["seeds"].items():
                before = old.get(workload, {}).get("seeds", {}).get(seed)
                if before is None:
                    continue
                diff = [k for k in EXACT if before.get(k) != fields.get(k)]
                if diff:
                    mismatches.append(f"{workload} seed {seed}: {diff} differ")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for line in flagged + mismatches:
        print("FLAG " + line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
