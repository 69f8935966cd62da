"""System configuration: the single source of physical constants.

All angles are stored in radians internally; the file loader in
:mod:`squintsense.cli` accepts degrees and converts on load.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .exceptions import ConfigError

SPEED_OF_LIGHT = 299_792_458.0


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def dbm_to_watt(value_dbm: float) -> float:
    if value_dbm == -math.inf:
        return 0.0
    return 10.0 ** (value_dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class SystemConfig:
    """Physical and algorithmic parameters of the ISAC link.

    Defaults correspond to the full-scale evaluation setup: 30 GHz carrier,
    6 GHz bandwidth, 128 subcarriers, a 64x64 UPA at 40 m height, and a
    region of interest of [15, 70] deg elevation x [30, 150] deg azimuth.
    """

    fc: float = 30e9                      # carrier frequency [Hz]
    bandwidth: float = 6e9                # transmission bandwidth F [Hz]
    n_subcarriers: int = 128              # N
    m_h: int = 64                         # horizontal element count
    m_v: int = 64                         # vertical element count
    height: float = 40.0                  # BS height H [m]
    theta_min: float = math.radians(15.0)
    theta_max: float = math.radians(70.0)
    phi_min: float = math.radians(30.0)
    phi_max: float = math.radians(150.0)
    noise_psd_dbm_hz: float = -174.0
    sigma_rcs_dbsm: float = 10.0          # target RCS
    kappa_db: float = 8.0                 # Rician K-factor
    n_clutter: int = 4                    # clutter scatterer count C
    sigma_clutter_dbsm: float = 0.0       # clutter RCS
    tau_s_db: float = 20.0                # sensing SNR threshold
    tau_c_db: float = 10.0                # communication SINR threshold
    p_s_max: float = 1.0                  # per-symbol sensing power budget [W]
    n_candidates: int = 4096              # angle-candidate count L
    user_min_separation: float = math.radians(10.0)
    uniform_candidate_grid: bool = False  # uniform-in-angle candidate spacing
    max_abs_ttd: float = math.inf         # optional hardware delay-range assert [s]

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "max_abs_ttd":
                if not value > 0:  # +inf means no limit
                    raise ConfigError(f"max_abs_ttd must be positive (got {value!r})")
            elif isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite (got {value!r})")
            elif type(f.default) is int and not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{f.name} must be an integer (got {value!r})")
        if self.fc <= 0:
            raise ConfigError("fc must be positive")
        if self.bandwidth <= 0:
            raise ConfigError("bandwidth must be positive")
        if self.n_subcarriers < 2:
            raise ConfigError("n_subcarriers must be at least 2")
        if self.m_h < 1 or self.m_v < 1:
            raise ConfigError("m_h and m_v must be at least 1")
        if self.height <= 0:
            raise ConfigError("height must be positive")
        if not (0.0 < self.theta_min < self.theta_max < math.pi / 2):
            raise ConfigError(
                "elevation bounds must satisfy 0 < theta_min < theta_max < pi/2 "
                f"(got theta_min={self.theta_min!r}, theta_max={self.theta_max!r})"
            )
        if not (0.0 < self.phi_min < self.phi_max < math.pi):
            raise ConfigError(
                "azimuth bounds must satisfy 0 < phi_min < phi_max < pi "
                f"(got phi_min={self.phi_min!r}, phi_max={self.phi_max!r})"
            )
        if self.n_candidates < self.n_subcarriers:
            raise ConfigError("n_candidates (L) must be at least n_subcarriers (N)")
        if self.n_clutter < 0:
            raise ConfigError("n_clutter must be nonnegative")
        if self.p_s_max <= 0:
            raise ConfigError("p_s_max must be positive")
        if self.user_min_separation < 0:
            raise ConfigError("user_min_separation must be nonnegative")

    @property
    def m_total(self) -> int:
        return self.m_h * self.m_v

    @property
    def wavelength(self) -> float:
        """Carrier wavelength; used in all attenuation and range-phase terms."""
        return SPEED_OF_LIGHT / self.fc

    @property
    def kappa(self) -> float:
        return db_to_linear(self.kappa_db)

    @property
    def tau_s(self) -> float:
        return db_to_linear(self.tau_s_db)

    @property
    def tau_c(self) -> float:
        return db_to_linear(self.tau_c_db)

    @property
    def sigma_rcs(self) -> float:
        return db_to_linear(self.sigma_rcs_dbsm)

    @property
    def sigma_clutter(self) -> float:
        return db_to_linear(self.sigma_clutter_dbsm)

    def subcarrier_offsets(self, count: int | None = None) -> np.ndarray:
        """Frequency deviations of the subcarrier comb: (n-1)*F/(N-1)."""
        n = self.n_subcarriers if count is None else count
        return np.arange(n) * (self.bandwidth / (n - 1))

    def noise_variance(self) -> float:
        """Thermal noise power in one subcarrier band [W]."""
        return dbm_to_watt(self.noise_psd_dbm_hz) * self.bandwidth / self.n_subcarriers

    def replace(self, **kwargs) -> "SystemConfig":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class RunConfig:
    """Batch-run parameters wrapped around a :class:`SystemConfig`."""

    system: SystemConfig = field(default_factory=SystemConfig)
    method: str = "proposed"           # proposed | exhaustive | azimuth_only
    q_targets: int = 1
    k_users: int = 2
    trials: int = 100
    seed: int = 0
    sweep_var: str | None = None       # name of a SystemConfig field or 'q_targets'/'k_users'
    sweep_values: tuple = ()
    output: str | None = None
    include_clutter: bool = True

    def __post_init__(self):
        if self.method not in ("proposed", "exhaustive", "azimuth_only"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.q_targets < 0 or self.k_users < 0:
            raise ConfigError("q_targets and k_users must be nonnegative")
        if self.sweep_var is not None and len(self.sweep_values) == 0:
            raise ConfigError("sweep_values must be nonempty when sweep_var is set")
        for value in self.sweep_values if self.sweep_var is not None else ():
            self.at_sweep_value(value)

    def at_sweep_value(self, value):
        """(system, q_targets, k_users) with the sweep variable set to ``value``.

        Integer and boolean fields take only integral (boolean: 0 or 1)
        values, so the recorded sweep value is the one that runs; every
        swept SystemConfig is validated.
        """
        if self.sweep_var is None:
            return self.system, self.q_targets, self.k_users
        if value is None:
            raise ConfigError(f"sweep variable {self.sweep_var!r} needs a sweep value")
        if self.sweep_var in ("q_targets", "k_users"):
            count = _integral(self.sweep_var, value)
            if count < 0:
                raise ConfigError(f"{self.sweep_var} sweep value must be nonnegative")
            if self.sweep_var == "q_targets":
                return self.system, count, self.k_users
            return self.system, self.q_targets, count
        kinds = {f.name: type(f.default) for f in fields(SystemConfig)}
        kind = kinds.get(self.sweep_var)
        if kind is None:
            raise ConfigError(f"unknown sweep variable {self.sweep_var!r}")
        if kind is bool:
            if value not in (0, 1):
                raise ConfigError(f"sweep value {value!r} for {self.sweep_var!r} must be 0 or 1")
            value = bool(value)
        elif kind is int:
            value = _integral(self.sweep_var, value)
        else:
            value = float(value)
        return self.system.replace(**{self.sweep_var: value}), self.q_targets, self.k_users

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)


def _integral(name: str, value) -> int:
    """``value`` as an int; ConfigError unless it is a whole number."""
    number = float(value)
    if not number.is_integer():
        raise ConfigError(f"sweep value {value!r} for integer field {name!r} is not integral")
    return int(number)
