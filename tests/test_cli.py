import csv
import io
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from squintsense.beamforming import aas_beamformer, comm_beamformer, eas_beamformer
from squintsense.cli import CONFIG_KEYS, echo_config, load_config, main
from squintsense.config import RunConfig, SystemConfig
from squintsense.detection import proposed_plan
from squintsense.exceptions import ConfigError

SCALED_LINES = """
m_h = 16
m_v = 16
n_subcarriers = 32
n_candidates = 64
tau_s_db = 25
q_targets = 1
k_users = 0
trials = 2
seed = 3
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.DictReader(rows))


class TestLoadConfig:
    def test_empty_file_gives_full_scale_defaults(self, tmp_path):
        run = load_config(write_config(tmp_path, ""))
        cfg = run.system
        assert cfg.fc == 30e9
        assert cfg.bandwidth == 6e9
        assert cfg.n_subcarriers == 128
        assert (cfg.m_h, cfg.m_v) == (64, 64)
        assert cfg.height == 40.0
        assert cfg.theta_min == pytest.approx(math.radians(15))
        assert cfg.theta_max == pytest.approx(math.radians(70))
        assert cfg.phi_min == pytest.approx(math.radians(30))
        assert cfg.phi_max == pytest.approx(math.radians(150))
        assert cfg.n_candidates == 4096
        assert cfg.kappa_db == 8.0
        assert cfg.sigma_rcs_dbsm == 10.0
        assert cfg.noise_psd_dbm_hz == -174.0

    def test_degree_keys_converted(self, tmp_path):
        run = load_config(write_config(tmp_path, "theta_min_deg = 20\n"))
        assert run.system.theta_min == pytest.approx(math.radians(20))

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = write_config(tmp_path, "m_h = 16\nbogus_key = 3\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "bogus_key" in str(exc.value)
        assert "line 2" in str(exc.value)

    def test_ordered_bounds_error_names_both_keys(self, tmp_path):
        path = write_config(tmp_path, "theta_min_deg = 80\ntheta_max_deg = 70\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        msg = str(exc.value)
        assert "theta_min" in msg and "theta_max" in msg

    def test_too_few_subcarriers_rejected(self, tmp_path):
        path = write_config(tmp_path, "n_subcarriers = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = write_config(tmp_path, "m_h = sixteen\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "line 1" in str(exc.value)

    def test_comments_and_blanks_ignored(self, tmp_path):
        run = load_config(write_config(tmp_path, "# comment\n\nm_h = 8  # trailing\n"))
        assert run.system.m_h == 8

    def test_echo_round_trips(self, tmp_path):
        run = load_config(write_config(tmp_path, SCALED_LINES))
        echoed = "\n".join(echo_config(run)) + "\n"
        again = load_config(write_config(tmp_path, echoed, name="echo.cfg"))
        assert again == run


# every config key, each set to a value other than its default
EVERY_KEY_LINES = """
fc_hz = 28e9
bandwidth_hz = 2e9
n_subcarriers = 16
m_h = 8
m_v = 4
height_m = 25.5
theta_min_deg = 24
theta_max_deg = 57
phi_min_deg = 48
phi_max_deg = 114
noise_psd_dbm_hz = -170
sigma_rcs_dbsm = 5
kappa_db = 3
n_clutter = 2
sigma_clutter_dbsm = -3
tau_s_db = 15
tau_c_db = 12
p_s_max_w = 0.5
n_candidates = 64
user_min_separation_deg = 6
uniform_candidate_grid = true
max_abs_ttd_s = 1e-6
method = exhaustive
q_targets = 3
k_users = 1
trials = 7
seed = 42
include_clutter = false
sweep_var = height
sweep_values = 20, 30.5
output = out/res.csv
"""

# valid degree range of each degree key while the others keep their defaults
DEGREE_RANGES = {
    "theta_min_deg": (0.01, 69.99),
    "theta_max_deg": (15.01, 89.99),
    "phi_min_deg": (0.01, 149.99),
    "phi_max_deg": (30.01, 179.99),
    "user_min_separation_deg": (0.0, 180.0),
}


class TestConfigKeys:
    def test_every_field_set_by_exactly_one_key(self):
        targets = sorted(field for field, _ in CONFIG_KEYS.values())
        expected = [f.name for f in fields(SystemConfig)] + [
            f.name for f in fields(RunConfig) if f.name != "system"
        ]
        assert len(set(expected)) == len(expected)
        assert targets == sorted(expected)

    def test_echo_round_trips_every_key(self, tmp_path):
        run = load_config(write_config(tmp_path, EVERY_KEY_LINES))
        default = RunConfig()
        system_fields = {f.name for f in fields(SystemConfig)}
        for key, (field, _) in CONFIG_KEYS.items():
            in_system = field in system_fields
            loaded, base = (run.system, default.system) if in_system else (run, default)
            assert getattr(loaded, field) != getattr(base, field), key
        echoed = echo_config(run)
        assert [line.split(" = ")[0] for line in echoed] == list(CONFIG_KEYS)
        again = load_config(write_config(tmp_path, "\n".join(echoed) + "\n", name="echo.cfg"))
        assert again == run

    def test_degree_echo_text(self, tmp_path):
        """math.degrees text is kept where it reloads exactly (the default
        15 deg); 24 deg, whose math.degrees text reloads 1 ulp high, echoes
        as its neighbour 24.0."""
        assert "theta_min_deg = 14.999999999999998" in echo_config(RunConfig())
        run = load_config(write_config(tmp_path, "theta_min_deg = 24\n"))
        assert "theta_min_deg = 24.0" in echo_config(run)

    @given(data=st.data(), key=st.sampled_from(sorted(DEGREE_RANGES)))
    @settings(max_examples=300, deadline=None)
    def test_degree_keys_round_trip(self, tmp_path_factory, data, key):
        lo, hi = DEGREE_RANGES[key]
        degrees = data.draw(st.floats(lo, hi))
        path = tmp_path_factory.mktemp("deg")
        run = load_config(write_config(path, f"{key} = {degrees!r}\n"))
        echoed = "\n".join(echo_config(run)) + "\n"
        assert load_config(write_config(path, echoed, name="echo.cfg")) == run


class TestDispatch:
    def test_no_subcommand_exits_one(self):
        code, _, err = run_cli([])
        assert code == 1
        assert "usage" in err.lower()

    def test_config_error_exits_one(self, tmp_path):
        path = write_config(tmp_path, "n_subcarriers = 1\n")
        code, _, err = run_cli(["simulate", "--config", path])
        assert code == 1
        assert "config error" in err

    @pytest.mark.parametrize(
        "config, flags",
        [("", ["--seed", "-1"]), ("seed = -3\n", [])],
        ids=["flag", "config-key"],
    )
    def test_negative_seed_is_config_error(self, tmp_path, config, flags):
        path = write_config(tmp_path, SCALED_LINES + config)
        code, _, err = run_cli(["simulate", "--config", path, *flags])
        assert code == 1
        assert err.startswith("config error:")
        assert "seed must be nonnegative" in err

    def test_simulate_stdout_csv(self, tmp_path):
        path = write_config(tmp_path, SCALED_LINES)
        code, out, err = run_cli(["simulate", "--config", path])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["method"] == "proposed"
        assert int(rows[0]["trials_ok"]) == 2
        assert "# " in err  # effective config echoed

    def test_simulate_writes_aggregate_and_trial_files(self, tmp_path):
        cfg_path = write_config(tmp_path, SCALED_LINES)
        out_path = str(tmp_path / "res.csv")
        code, _, _ = run_cli(["simulate", "--config", cfg_path, "--output", out_path])
        assert code == 0
        agg = (tmp_path / "res_aggregate.csv").read_text()
        trials = (tmp_path / "res_trials.csv").read_text()
        assert len(parse_csv(agg)) == 1
        assert len(parse_csv(trials)) == 2
        assert agg.startswith("# squintsense")

    def test_output_flag_overrides_config_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, SCALED_LINES + "output = sim.csv\n")
        code, _, err = run_cli(["simulate", "--config", cfg_path, "--output", "res.csv"])
        assert code == 0, err
        written = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert written == ["res_aggregate.csv", "res_trials.csv"]

    def test_config_output_used_without_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, SCALED_LINES + "output = sim.csv\n")
        code, out, err = run_cli(["simulate", "--config", cfg_path])
        assert code == 0, err
        assert out == ""
        written = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert written == ["sim_aggregate.csv", "sim_trials.csv"]

    def test_simulate_deterministic_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path, SCALED_LINES)
        outputs = []
        for name in ("a.csv", "b.csv"):
            out_path = str(tmp_path / name)
            assert run_cli(["simulate", "--config", cfg_path, "--output", out_path])[0] == 0
        a = (tmp_path / "a_aggregate.csv").read_text()
        b = (tmp_path / "b_aggregate.csv").read_text()
        assert a == b

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect"],
            ["power"],
            ["beampattern", "--stage", "eas", "--subcarriers", "0,31", "--points", "101"],
            ["beampattern", "--stage", "aas", "--theta-hat", "40", "--points", "101"],
            ["beampattern", "--stage", "comm", "--theta-hat", "40", "--phi", "80"],
        ],
        ids=["detect", "power", "beampattern-eas", "beampattern-aas", "beampattern-comm"],
    )
    def test_subcommand_deterministic_bytes(self, tmp_path, argv):
        cfg_path = write_config(tmp_path, SCALED_LINES + "k_users = 2\n")
        outputs = []
        for name in ("a.csv", "b.csv"):
            # the second run rebuilds the cached plan
            proposed_plan.cache_clear()
            out_path = tmp_path / name
            code, _, err = run_cli(
                [argv[0], "--config", cfg_path, "--output", str(out_path), *argv[1:]]
            )
            assert code == 0, err
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith(b"# squintsense")

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("SQUINTSENSE_OUTPUT_DIR", str(override))
        cfg_path = write_config(tmp_path, SCALED_LINES)
        code, _, _ = run_cli(
            ["simulate", "--config", cfg_path, "--output", str(tmp_path / "res.csv")]
        )
        assert code == 0
        assert (override / "res_aggregate.csv").exists()

    def test_detect_trace_schema(self, tmp_path):
        path = write_config(tmp_path, SCALED_LINES)
        code, out, _ = run_cli(["detect", "--config", path])
        assert code == 0
        rows = parse_csv(out)
        assert rows, "trace must be nonempty"
        assert set(rows[0]) == {
            "stage",
            "iteration",
            "selected_index",
            "correlation",
            "residual_norm",
        }
        assert all(float(r["residual_norm"]) >= 0 for r in rows)

    def test_power_schema(self, tmp_path):
        path = write_config(tmp_path, SCALED_LINES + "k_users = 2\n")
        code, out, _ = run_cli(["power", "--config", path])
        assert code == 0
        rows = parse_csv(out)
        sensing = [r for r in rows if r["kind"] == "sensing"]
        comm = [r for r in rows if r["kind"] == "comm"]
        stages = {r["stage"] for r in sensing}
        # N sensing rows per stage
        assert len(sensing) == 32 * len(stages)
        assert comm, "communication rows expected with k_users = 2"
        assert all(float(r["power_w"]) > 0 for r in comm)
        assert all(int(r["symbols"]) >= 1 for r in rows)

    def test_beampattern_peaks_at_grid_angles(self, tmp_path):
        from squintsense.beamforming import aas_azimuth_grid

        path = write_config(tmp_path, SCALED_LINES)
        code, out, _ = run_cli(
            [
                "beampattern",
                "--config",
                path,
                "--stage",
                "aas",
                "--theta-hat",
                "45",
                "--subcarriers",
                "0,15,31",
                "--points",
                "2001",
            ]
        )
        assert code == 0
        rows = parse_csv(out)
        cfg = load_config(path).system
        grid = aas_azimuth_grid(cfg)
        step = math.degrees(cfg.phi_max - cfg.phi_min) / 2000
        for n in (0, 15, 31):
            sub = [r for r in rows if int(r["subcarrier"]) == n]
            best = max(sub, key=lambda r: float(r["gain_abs"]))
            assert float(best["phi_deg"]) == pytest.approx(
                math.degrees(grid[n]), abs=2 * step
            )

    @pytest.mark.parametrize("stage", ["eas", "aas", "comm"])
    def test_beampattern_matches_complex_gain_oracle(self, tmp_path, stage):
        """gain_abs, printed to 13 significant digits, is the oracle |a . w|."""
        path = write_config(tmp_path, SCALED_LINES)
        flags = ["--theta-hat", "40", "--phi", "80", "--points", "301", "--subcarriers", "0,15,31"]
        code, out, err = run_cli(["beampattern", "--config", path, "--stage", stage, *flags])
        assert code == 0, err
        cfg = load_config(path).system
        theta, phi = math.radians(40.0), np.linspace(cfg.phi_min, cfg.phi_max, 301)
        if stage == "eas":  # elevation sweep at mid azimuth
            bf = eas_beamformer(cfg)
            theta = np.linspace(cfg.theta_min, cfg.theta_max, 301)
            phi = 0.5 * (cfg.phi_min + cfg.phi_max)
        elif stage == "aas":
            bf = aas_beamformer(cfg, theta)
        else:
            bf = comm_beamformer(cfg, theta, math.radians(80.0))
        want = np.concatenate([np.abs(oracles.gain(bf, theta, phi, n)) for n in (0, 15, 31)])
        got = [float(r["gain_abs"]) for r in parse_csv(out)]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)

    def test_beampattern_requires_theta_hat_for_aas(self, tmp_path):
        path = write_config(tmp_path, SCALED_LINES)
        code, _, err = run_cli(["beampattern", "--config", path, "--stage", "aas"])
        assert code == 1
        assert "theta-hat" in err

    @pytest.mark.parametrize(
        "flags",
        [["--points", "-1"], ["--subcarriers", "x"], ["--subcarriers", "0,,1"]],
        ids=["negative-points", "non-integer-subcarrier", "empty-subcarrier"],
    )
    def test_beampattern_bad_input_is_config_error(self, tmp_path, flags):
        path = write_config(tmp_path, SCALED_LINES)
        code, _, err = run_cli(["beampattern", "--config", path, "--stage", "eas", *flags])
        assert code == 1
        # the effective-config echo lines come first, each behind a '#'
        messages = [line for line in err.splitlines() if not line.startswith("#")]
        assert len(messages) == 1 and messages[0].startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--stage", "aas", "--theta-hat", "nan"],
            ["--stage", "aas", "--theta-hat", "inf"],
            ["--stage", "comm", "--theta-hat", "40", "--phi", "nan"],
        ],
        ids=["aas-nan-theta", "aas-inf-theta", "comm-nan-phi"],
    )
    def test_beampattern_rejects_non_finite_angles(self, tmp_path, flags):
        path = write_config(tmp_path, SCALED_LINES)
        code, out, err = run_cli(["beampattern", "--config", path, *flags])
        assert code == 1 and out == ""
        messages = [line for line in err.splitlines() if not line.startswith("#")]
        assert len(messages) == 1 and "must be finite" in messages[0]
