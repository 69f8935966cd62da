"""TTD/PS beamformer synthesis for the sensing stages and the users.

Three beamformer kinds exist:

* ``eas``   -- stage-0 elevation sweep. The vertical chain is exact; the
  horizontal chain is represented by the ideal flat-gain model (a constant
  magnitude inside the ROI, zero outside), so no horizontal PS azimuth or
  horizontal TTDs are ever materialized.
* ``aas``   -- per-elevation azimuth sweep, exact full-array weights.
* ``comm``  -- per-user squint-compensated weights with unit gain at the
  user direction on every subcarrier.

Every closed-form TTD profile is affine in the element index: element
(m_h, m_v) is delayed by m_h * h_slope + m_v * v_slope, so a beamformer
stores just the two slopes (seconds per element), and every partial array
gain reduces to a uniform phase sum evaluated in O(1).
Consumers that need only the power |g|^2 (echo synthesis, dictionaries,
grid strengths, SINR tables) evaluate it through the real Fejer kernel
:func:`~squintsense.geometry.uniform_phase_power` via
:meth:`BeamformerWeights.power_gain`, broadcast over angles x subcarriers.
The kernel forms its sines from SIMD half-angle tangents in cache-sized
blocks. ``power_gain`` builds the horizontal phase table in one array and
multiplies the vertical power into the kernel's output in place, so an
(L x N) AAS dictionary allocates two (L x N) arrays: the phase table and
the power table that becomes the dictionary.
"""

from __future__ import annotations

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


def _squint_grid(cfg: SystemConfig, lo: float, hi: float, f_dev) -> np.ndarray:
    """Angles swept from lo (f = 0) to hi (f = F) by a TTD squint sweep.

    arccos((cos lo - (f/F)(cos lo - cos hi (1+F/fc))) / (1+f/fc)); f_dev
    defaults to the N subcarrier offsets.
    """
    f = cfg.subcarrier_offsets() if f_dev is None else np.asarray(f_dev, dtype=float)
    c_lo = np.cos(lo)
    c_hi = np.cos(hi) * (1.0 + cfg.bandwidth / cfg.fc)
    arg = (c_lo - (f / cfg.bandwidth) * (c_lo - c_hi)) / (1.0 + f / cfg.fc)
    return safe_arccos(arg)


def eas_elevation_grid(cfg: SystemConfig, f_dev=None) -> np.ndarray:
    """Squint-induced elevation angles; defaults to the N subcarrier offsets."""
    return _squint_grid(cfg, cfg.theta_min, cfg.theta_max, f_dev)


def aas_azimuth_grid(cfg: SystemConfig, f_dev=None) -> np.ndarray:
    """Squint-induced azimuth angles; independent of the locked elevation."""
    return _squint_grid(cfg, cfg.phi_min, cfg.phi_max, f_dev)


class BeamformerWeights:
    """Analog beamformer state (PS angles + TTD slopes) plus gain evaluation.

    Gains are evaluated through the Kronecker-factorized path by default;
    ``weight_vector`` materializes the length-M weights for cross-checking
    and for callers that need explicit vectors (not available for ``eas``,
    whose horizontal chain is the analytic flat-gain model).
    """

    def __init__(self, cfg: SystemConfig, kind: str, ps_theta, ps_phi, h_slope, v_slope):
        if kind not in ("eas", "aas", "comm"):
            raise ConfigError(f"unknown beamformer kind {kind!r}")
        self.cfg = cfg
        self.kind = kind
        self.ps_theta = ps_theta
        self.ps_phi = ps_phi  # None for EAS: never numerically needed
        self.h_slope = float(h_slope)  # seconds per element
        self.v_slope = float(v_slope)
        self._f = cfg.subcarrier_offsets()
        self._flat = flat_horizontal_gain(cfg) if kind == "eas" else None
        # the largest delay is at the last element of each axis
        largest = max((cfg.m_h - 1) * abs(self.h_slope), (cfg.m_v - 1) * abs(self.v_slope))
        if largest > cfg.max_abs_ttd:
            raise ConfigError("TTD delay exceeds configured max_abs_ttd")

    def _vertical_phase(self, theta, f_dev):
        cfg = self.cfg
        return (
            np.cos(theta) * (1.0 + f_dev / cfg.fc)
            - np.cos(self.ps_theta)
            + 2.0 * f_dev * self.v_slope
        )

    def _horizontal_phase(self, theta, phi, f_dev):
        cfg = self.cfg
        # the first product already has the full broadcast shape; the other
        # terms are added in place, in the same order as the plain expression
        phase = np.sin(theta) * np.cos(phi) * (1.0 + f_dev / cfg.fc)
        phase -= np.sin(self.ps_theta) * np.cos(self.ps_phi)
        phase += 2.0 * f_dev * self.h_slope
        return phase

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
            return self._flat_gain(theta, phi) ** 2 * vertical
        # the horizontal phase depends on every argument, so its power table
        # already has the full broadcast shape and takes the product in place
        horizontal = uniform_phase_power(self._horizontal_phase(theta, phi, f_dev), self.cfg.m_h)
        horizontal *= vertical
        return horizontal

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
        # horizontal-major element order, as in upa_steering
        delays = np.add.outer(np.arange(cfg.m_h) * self.h_slope, np.arange(cfg.m_v) * self.v_slope)
        return np.exp(-2j * np.pi * f_dev * delays.ravel()) * np.conj(a_ps)

    def vertical_weights(self, n) -> np.ndarray:
        """Vertical-chain weights only (length M_v); defined for every kind."""
        cfg = self.cfg
        f_dev = self._f[n]
        a_v = vertical_steering(self.ps_theta, 0.0, cfg.m_v, cfg.fc)
        delays = np.arange(cfg.m_v) * self.v_slope
        return np.exp(-2j * np.pi * f_dev * delays) * np.conj(a_v)


def eas_beamformer(cfg: SystemConfig) -> BeamformerWeights:
    """Stage-0 beamformer: PS elevation at theta_min, flat horizontal model."""
    v_slope = (
        np.cos(cfg.theta_min)
        - np.cos(cfg.theta_max) * (1.0 + cfg.bandwidth / cfg.fc)
    ) / (2.0 * cfg.bandwidth)
    return BeamformerWeights(
        cfg, "eas", ps_theta=cfg.theta_min, ps_phi=None, h_slope=0.0, v_slope=v_slope
    )


def aas_beamformer(cfg: SystemConfig, theta_hat: float) -> BeamformerWeights:
    """Stage-i beamformer: PS at (theta_hat, phi_min), closed-form TTDs."""
    v_slope = -np.cos(theta_hat) / (2.0 * cfg.fc)
    h_slope = (
        np.sin(theta_hat)
        * (np.cos(cfg.phi_min) - np.cos(cfg.phi_max) * (1.0 + cfg.bandwidth / cfg.fc))
        / (2.0 * cfg.bandwidth)
    )
    return BeamformerWeights(
        cfg, "aas", ps_theta=theta_hat, ps_phi=cfg.phi_min, h_slope=h_slope, v_slope=v_slope
    )


def comm_beamformer(cfg: SystemConfig, theta_u: float, phi_u: float) -> BeamformerWeights:
    """User beamformer with squint fully compensated (gain 1 at the user)."""
    h_slope = -np.sin(theta_u) * np.cos(phi_u) / (2.0 * cfg.fc)
    v_slope = -np.cos(theta_u) / (2.0 * cfg.fc)
    return BeamformerWeights(
        cfg, "comm", ps_theta=theta_u, ps_phi=phi_u, h_slope=h_slope, v_slope=v_slope
    )
