import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squintsense.config import RunConfig, SystemConfig
from squintsense.exceptions import ConfigError
from squintsense.simkit import run_experiment, run_single_trial

FLOAT_FIELDS = [f.name for f in fields(SystemConfig) if type(f.default) is float]
INT_FIELDS = [f.name for f in fields(SystemConfig) if type(f.default) is int]
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NON_INTEGRAL = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: not v.is_integer())

SCALED = SystemConfig(m_h=8, m_v=8, n_subcarriers=16, n_candidates=32)


class TestFieldValidation:
    @given(name=st.sampled_from([f for f in FLOAT_FIELDS if f != "max_abs_ttd"]), value=NON_FINITE)
    @settings(max_examples=100, deadline=None)
    def test_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            SystemConfig(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, -math.inf, 0.0, -1e-9])
    def test_max_abs_ttd_must_be_positive(self, value):
        with pytest.raises(ConfigError, match="max_abs_ttd"):
            SystemConfig(max_abs_ttd=value)

    def test_max_abs_ttd_infinite_means_unbounded(self):
        assert SystemConfig(max_abs_ttd=math.inf).max_abs_ttd == math.inf

    @given(name=st.sampled_from(INT_FIELDS), value=NON_FINITE)
    @settings(max_examples=50, deadline=None)
    def test_non_finite_in_int_field_rejected(self, name, value):
        with pytest.raises(ConfigError):
            SystemConfig(**{name: value})

    @given(name=st.sampled_from(INT_FIELDS), value=NON_INTEGRAL)
    @settings(max_examples=50, deadline=None)
    def test_fractional_int_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match="integer"):
            SystemConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        assert SystemConfig(n_clutter=np.int64(3)).n_clutter == 3

    def test_nan_height_sweep_fails_fast(self):
        with pytest.raises(ConfigError, match="height"):
            RunConfig(system=SCALED, sweep_var="height", sweep_values=(40.0, math.nan))


class TestSweepValues:
    def test_swept_run_without_value_fails_fast(self):
        run = RunConfig(system=SCALED, sweep_var="height", sweep_values=(40.0,), trials=1)
        with pytest.raises(ConfigError, match="height"):
            run.at_sweep_value(None)
        with pytest.raises(ConfigError, match="height"):
            run_single_trial(run, 0, 0)

    @given(name=st.sampled_from(INT_FIELDS + ["q_targets", "k_users"]), value=NON_INTEGRAL)
    @settings(max_examples=200, deadline=None)
    def test_non_integral_rejected(self, name, value):
        with pytest.raises(ConfigError, match="integral"):
            RunConfig(system=SCALED, sweep_var=name, sweep_values=(value,))

    @given(value=st.integers(0, 6))
    @settings(max_examples=10, deadline=None)
    def test_integral_value_runs_as_recorded(self, value):
        run = RunConfig(
            system=SCALED, q_targets=1, k_users=0, trials=1,
            sweep_var="n_clutter", sweep_values=(float(value),),
        )
        cfg, q, k = run.at_sweep_value(float(value))
        assert cfg.n_clutter == value and isinstance(cfg.n_clutter, int)
        record = run_single_trial(run, 0, 0, float(value))
        assert record.sweep_value == value

    @pytest.mark.parametrize("name", ["q_targets", "k_users"])
    def test_count_sweeps(self, name):
        run = RunConfig(system=SCALED, sweep_var=name, sweep_values=(2.0, 3))
        assert run.at_sweep_value(3.0)[1 if name == "q_targets" else 2] == 3
        with pytest.raises(ConfigError):
            RunConfig(system=SCALED, sweep_var=name, sweep_values=(-1.0,))

    def test_n_clutter_fraction_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(system=SCALED, sweep_var="n_clutter", sweep_values=(2.7,))

    def test_bool_field_takes_zero_or_one(self):
        run = RunConfig(system=SCALED, sweep_var="uniform_candidate_grid", sweep_values=(0, 1.0))
        assert run.at_sweep_value(1.0)[0].uniform_candidate_grid is True
        with pytest.raises(ConfigError):
            RunConfig(system=SCALED, sweep_var="uniform_candidate_grid", sweep_values=(0.5,))

    def test_unknown_sweep_variable_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep variable"):
            RunConfig(system=SCALED, sweep_var="bogus", sweep_values=(1.0,))

    def test_invalid_swept_config_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(system=SCALED, sweep_var="n_candidates", sweep_values=(32.0, 8.0))

    def test_float_sweep_runs(self):
        run = RunConfig(
            system=SCALED, trials=1, sweep_var="tau_s_db", sweep_values=(20.0, 25.0)
        )
        records, rows = run_experiment(run)
        assert [r.sweep_value for r in records] == [20.0, 25.0]
        assert all(r.ok for r in records)
        assert np.all(np.isfinite([r.distance_error_m for r in records]))
