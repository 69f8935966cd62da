"""TTD/PS beamformer synthesis for the sensing stages and the users.

Three beamformer kinds exist:

* ``eas``   -- stage-0 elevation sweep. The vertical chain is exact; the
  horizontal chain is represented by the ideal flat-gain model (a constant
  magnitude inside the ROI, zero outside), so no horizontal PS azimuth or
  horizontal TTDs are ever materialized.
* ``aas``   -- per-elevation azimuth sweep, exact full-array weights.
* ``comm``  -- per-user squint-compensated weights with unit gain at the
  user direction on every subcarrier.

All closed-form TTD profiles are affine in the element index, so every
partial array gain reduces to a uniform phase sum evaluated in O(1).
Consumers that need only the power |g|^2 (echo synthesis, dictionaries,
grid strengths, SINR tables) evaluate it through the real Fejer kernel
:func:`~squintsense.geometry.uniform_phase_power` via
:meth:`BeamformerWeights.power_gain`, broadcast over angles x subcarriers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .exceptions import ConfigError
from .geometry import (
    flat_horizontal_gain,
    horizontal_steering,
    safe_arccos,
    uniform_phase_power,
    uniform_phase_sum,
    vertical_steering,
)


@dataclass(frozen=True)
class TtdProfile:
    """Per-axis TTD delays; the per-element delay is the additive combination
    t(m_h, m_v) = horizontal[m_h] + vertical[m_v]."""

    horizontal: np.ndarray  # length M_h, seconds
    vertical: np.ndarray    # length M_v, seconds

    def combined(self) -> np.ndarray:
        """Length-M delay vector in horizontal-major element order."""
        return (self.horizontal[:, None] + self.vertical[None, :]).ravel()


def _linear_delays(count: int, slope: float) -> np.ndarray:
    return np.arange(count) * slope


def eas_vertical_ttd(cfg: SystemConfig) -> np.ndarray:
    """Stage-0 vertical delays t(m_v) = (m_v-1)(cos t_min - cos t_max (1+F/fc))/(2F)."""
    if cfg.bandwidth == 0:
        raise ConfigError("EAS vertical TTD requires nonzero bandwidth")
    slope = (
        np.cos(cfg.theta_min)
        - np.cos(cfg.theta_max) * (1.0 + cfg.bandwidth / cfg.fc)
    ) / (2.0 * cfg.bandwidth)
    return _linear_delays(cfg.m_v, slope)


def eas_elevation_grid(cfg: SystemConfig, f_dev=None) -> np.ndarray:
    """Squint-induced elevation angles; defaults to the N subcarrier offsets."""
    f = cfg.subcarrier_offsets() if f_dev is None else np.asarray(f_dev, dtype=float)
    c_lo = np.cos(cfg.theta_min)
    c_hi = np.cos(cfg.theta_max) * (1.0 + cfg.bandwidth / cfg.fc)
    arg = (c_lo - (f / cfg.bandwidth) * (c_lo - c_hi)) / (1.0 + f / cfg.fc)
    return safe_arccos(arg)


def aas_ttd(cfg: SystemConfig, theta_hat: float) -> TtdProfile:
    """Stage-i delays: vertical locks the elevation, horizontal sweeps azimuth."""
    if cfg.bandwidth == 0:
        raise ConfigError("AAS horizontal TTD requires nonzero bandwidth")
    v_slope = -np.cos(theta_hat) / (2.0 * cfg.fc)
    h_slope = (
        np.sin(theta_hat)
        * (np.cos(cfg.phi_min) - np.cos(cfg.phi_max) * (1.0 + cfg.bandwidth / cfg.fc))
        / (2.0 * cfg.bandwidth)
    )
    return TtdProfile(
        horizontal=_linear_delays(cfg.m_h, h_slope),
        vertical=_linear_delays(cfg.m_v, v_slope),
    )


def aas_azimuth_grid(cfg: SystemConfig, f_dev=None) -> np.ndarray:
    """Squint-induced azimuth angles; independent of the locked elevation."""
    f = cfg.subcarrier_offsets() if f_dev is None else np.asarray(f_dev, dtype=float)
    c_lo = np.cos(cfg.phi_min)
    c_hi = np.cos(cfg.phi_max) * (1.0 + cfg.bandwidth / cfg.fc)
    arg = (c_lo - (f / cfg.bandwidth) * (c_lo - c_hi)) / (1.0 + f / cfg.fc)
    return safe_arccos(arg)


def comm_ttd(cfg: SystemConfig, theta_u: float, phi_u: float) -> TtdProfile:
    """Squint-cancelling delays for a user at (theta_u, phi_u)."""
    h_slope = -np.sin(theta_u) * np.cos(phi_u) / (2.0 * cfg.fc)
    v_slope = -np.cos(theta_u) / (2.0 * cfg.fc)
    return TtdProfile(
        horizontal=_linear_delays(cfg.m_h, h_slope),
        vertical=_linear_delays(cfg.m_v, v_slope),
    )


class BeamformerWeights:
    """Analog beamformer state (PS angles + TTD profile) plus gain evaluation.

    Gains are evaluated through the Kronecker-factorized path by default;
    ``weight_vector`` materializes the length-M weights for cross-checking
    and for callers that need explicit vectors (not available for ``eas``,
    whose horizontal chain is the analytic flat-gain model).
    """

    def __init__(self, cfg: SystemConfig, kind: str, ps_theta, ps_phi, ttd: TtdProfile):
        if kind not in ("eas", "aas", "comm"):
            raise ConfigError(f"unknown beamformer kind {kind!r}")
        self.cfg = cfg
        self.kind = kind
        self.ps_theta = ps_theta
        self.ps_phi = ps_phi  # None for EAS: never numerically needed
        self.ttd = ttd
        self._f = cfg.subcarrier_offsets()
        self._flat = flat_horizontal_gain(cfg) if kind == "eas" else None
        if np.isfinite(cfg.max_abs_ttd):
            delays = [ttd.vertical]
            if ttd.horizontal is not None:
                delays.append(ttd.horizontal)
            if max(np.max(np.abs(d)) for d in delays) > cfg.max_abs_ttd:
                raise ConfigError("TTD delay exceeds configured max_abs_ttd")

    def _vertical_phase(self, theta, f_dev):
        cfg = self.cfg
        # vertical TTD profiles are linear in the element index
        v_slope = self.ttd.vertical[1] - self.ttd.vertical[0] if cfg.m_v > 1 else 0.0
        return (
            np.cos(theta) * (1.0 + f_dev / cfg.fc)
            - np.cos(self.ps_theta)
            + 2.0 * f_dev * v_slope
        )

    def _horizontal_phase(self, theta, phi, f_dev):
        cfg = self.cfg
        h_slope = self.ttd.horizontal[1] - self.ttd.horizontal[0] if cfg.m_h > 1 else 0.0
        return (
            np.sin(theta) * np.cos(phi) * (1.0 + f_dev / cfg.fc)
            - np.sin(self.ps_theta) * np.cos(self.ps_phi)
            + 2.0 * f_dev * h_slope
        )

    def _vertical_gain(self, theta, f_dev):
        return uniform_phase_sum(self._vertical_phase(theta, f_dev), self.cfg.m_v)

    def _flat_gain(self, theta, phi):
        """EAS horizontal model: the flat magnitude inside the ROI, zero outside."""
        cfg = self.cfg
        inside = (
            (theta >= cfg.theta_min - 1e-12)
            & (theta <= cfg.theta_max + 1e-12)
            & (phi >= cfg.phi_min - 1e-12)
            & (phi <= cfg.phi_max + 1e-12)
        )
        return np.where(inside, self._flat, 0.0)

    def gain(self, theta, phi, n):
        """Array gain a(theta, phi, f_n) . w_n; broadcasts over angle arrays."""
        f_dev = self._f[n]
        if self.kind == "eas":
            horizontal = self._flat_gain(theta, phi)
        else:
            horizontal = uniform_phase_sum(
                self._horizontal_phase(theta, phi, f_dev), self.cfg.m_h
            )
        return horizontal * self._vertical_gain(theta, f_dev)

    def power_gain(self, theta, phi, n):
        """|gain(theta, phi, n)|^2 through the Fejer kernel.

        Broadcasts angle arrays against subcarrier-index arrays, e.g.
        ``power_gain(theta[:, None], phi[:, None], np.arange(N))`` gives the
        (angles x N) table in one call.
        """
        f_dev = self._f[n]
        vertical = uniform_phase_power(self._vertical_phase(theta, f_dev), self.cfg.m_v)
        if self.kind == "eas":
            horizontal = self._flat_gain(theta, phi) ** 2
        else:
            horizontal = uniform_phase_power(
                self._horizontal_phase(theta, phi, f_dev), self.cfg.m_h
            )
        return horizontal * vertical

    def weight_vector(self, n) -> np.ndarray:
        """Explicit length-M weights diag(exp(-j 2 pi f_n t)) a^H(ps angles, 0)."""
        if self.kind == "eas":
            raise ConfigError(
                "EAS horizontal chain is modeled analytically; no explicit weights"
            )
        cfg = self.cfg
        f_dev = self._f[n]
        a_ps = np.kron(
            horizontal_steering(self.ps_theta, self.ps_phi, 0.0, cfg.m_h, cfg.fc),
            vertical_steering(self.ps_theta, 0.0, cfg.m_v, cfg.fc),
        )
        ttd_response = np.exp(-2j * np.pi * f_dev * self.ttd.combined())
        return ttd_response * np.conj(a_ps)

    def vertical_weights(self, n) -> np.ndarray:
        """Vertical-chain weights only (length M_v); defined for every kind."""
        cfg = self.cfg
        f_dev = self._f[n]
        a_v = vertical_steering(self.ps_theta, 0.0, cfg.m_v, cfg.fc)
        return np.exp(-2j * np.pi * f_dev * self.ttd.vertical) * np.conj(a_v)


def eas_beamformer(cfg: SystemConfig) -> BeamformerWeights:
    """Stage-0 beamformer: PS elevation at theta_min, flat horizontal model."""
    ttd = TtdProfile(horizontal=np.zeros(cfg.m_h), vertical=eas_vertical_ttd(cfg))
    return BeamformerWeights(cfg, "eas", ps_theta=cfg.theta_min, ps_phi=None, ttd=ttd)


def aas_beamformer(cfg: SystemConfig, theta_hat: float) -> BeamformerWeights:
    """Stage-i beamformer: PS at (theta_hat, phi_min), closed-form TTDs."""
    return BeamformerWeights(
        cfg, "aas", ps_theta=theta_hat, ps_phi=cfg.phi_min, ttd=aas_ttd(cfg, theta_hat)
    )


def comm_beamformer(cfg: SystemConfig, theta_u: float, phi_u: float) -> BeamformerWeights:
    """User beamformer with squint fully compensated (gain 1 at the user)."""
    return BeamformerWeights(
        cfg, "comm", ps_theta=theta_u, ps_phi=phi_u, ttd=comm_ttd(cfg, theta_u, phi_u)
    )

