#!/usr/bin/env python3
"""Self-test of the benchmark harness (not part of the package's test suite).

    python3 bench/selftest.py

Covers the percentile rule, span self-time arithmetic for nested wrappers,
hook placement at every lookup site, the ``absent`` and ``never-fired``
hook reports, and that BENCHMARK.json declares exactly the metrics run.py
reports.
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import PACKAGE, Hooks, Tracer, hook_report  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def fake_module(name: str, source: str, **names):
    module = types.ModuleType(f"{PACKAGE}.{name}")
    module.__dict__.update(names)
    exec(source, module.__dict__)
    return module


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.tail_percentile(list(range(99)), 90))
        self.assertAlmostEqual(run.tail_percentile(list(range(100)), 90), 89.1)
        self.assertAlmostEqual(run.tail_percentile(list(range(101)), 90), 90.0)

    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(run.tail_percentile(list(range(999)), 99))
        self.assertAlmostEqual(run.tail_percentile(list(range(1000)), 99), 989.01)


class SelfTime(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = Tracer(self.clock)

    def tick(self, seconds):
        self.clock.now += seconds

    def test_nested_wrappers(self):
        inner = self.tracer.wrap("inner", lambda: self.tick(2))

        def middle_body():
            self.tick(1)
            inner()

        middle = self.tracer.wrap("middle", middle_body)

        def outer_body():
            self.tick(1)
            middle()
            self.tick(3)
            inner()

        self.tracer.wrap("outer", outer_body)()
        spans = self.tracer.spans
        self.assertEqual((spans["inner"].calls, spans["inner"].total), (2, 4.0))
        self.assertEqual(spans["inner"].self_time, 4.0)
        self.assertEqual((spans["middle"].total, spans["middle"].self_time), (3.0, 1.0))
        # outer covers 1 + (1 + 2) + 3 + 2; its children cover 3 + 2
        self.assertEqual((spans["outer"].total, spans["outer"].self_time), (9.0, 4.0))

    def test_raising_call_is_recorded_and_unwound(self):
        def body():
            self.tick(5)
            raise RuntimeError("boom")

        failing = self.tracer.wrap("failing", body)
        outer = self.tracer.wrap("outer", lambda: self.assertRaises(RuntimeError, failing))
        outer()
        self.assertEqual(self.tracer.spans["failing"].total, 5.0)
        self.assertEqual(self.tracer.spans["outer"].self_time, 0.0)
        self.assertEqual(self.tracer._open, [])


class HookReports(unittest.TestCase):
    def setUp(self):
        geometry = fake_module("geometry", "def kernel(x):\n    return x\n")
        beamforming = fake_module(
            "beamforming",
            "def gain(x):\n    return kernel(x) + 1\n"
            "class Weights:\n    def gain(self, x):\n        return kernel(x)\n",
            kernel=geometry.kernel,
        )
        simkit = fake_module(
            "simkit",
            "def run_proposed_trial(x):\n    return gain(x)\n"
            "def unused():\n    return None\n"
            "_METHODS = {'proposed': run_proposed_trial}\n"
            "def run_single_trial(x):\n    return _METHODS['proposed'](x)\n",
            gain=beamforming.gain,
        )
        self.originals = (geometry.kernel, beamforming.kernel, simkit._METHODS["proposed"])
        self.modules = {m.__name__: m for m in (geometry, beamforming, simkit)}
        self.geometry, self.beamforming, self.simkit = geometry, beamforming, simkit
        self.tracer = Tracer()

    def install(self, on_return=None):
        self.hooks = Hooks(self.tracer, self.modules, on_return)

    def test_wrappers_reach_every_lookup_site(self):
        self.install()
        self.simkit.run_single_trial(1)
        self.beamforming.Weights().gain(1)
        spans = self.tracer.spans
        self.assertEqual(spans["geometry.kernel"].calls, 2)
        self.assertEqual(spans["simkit.run_proposed_trial"].calls, 1)
        self.assertEqual(spans["beamforming.Weights.gain"].calls, 1)

    def test_absent_and_never_fired(self):
        self.install()
        self.simkit.run_single_trial(1)
        wanted = ("geometry.kernel", "power.grid_echo_strength", "beamforming.array_gain")
        expected = ("simkit.run_single_trial", "simkit.unused", "power.grid_echo_strength")
        absent, never = hook_report(self.tracer, self.hooks, wanted, expected)
        self.assertEqual(absent, ["beamforming.array_gain", "power.grid_echo_strength"])
        self.assertEqual(never, ["simkit.unused"])

    def test_unreadable_counter_is_absent(self):
        def read_size(tracer, args, kwargs, result):
            tracer.add("geometry.kernel.elements", result.size)  # an int has no size

        self.install({"geometry.kernel": read_size})
        self.assertEqual(self.simkit.run_single_trial(1), 2)
        absent, _ = hook_report(self.tracer, self.hooks, ("geometry.kernel",), ())
        self.assertEqual(absent, ["geometry.kernel"])

    def test_remove_restores_originals(self):
        self.install()
        self.hooks.remove()
        restored = (self.geometry.kernel, self.beamforming.kernel, self.simkit._METHODS["proposed"])
        self.assertEqual(restored, self.originals)
        self.simkit.run_single_trial(1)
        self.assertEqual(self.tracer.spans["geometry.kernel"].calls, 0)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = lambda key: [(m["name"], m["unit"]) for m in bench[key]]  # noqa: E731
        self.assertEqual(declared("end_to_end"), list(run.END_TO_END))
        per_layer = [(name, unit) for name, unit, *_ in run.PER_LAYER + run.TRACE_EXTRA]
        self.assertEqual(declared("per_layer"), per_layer)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
