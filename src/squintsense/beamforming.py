"""TTD/PS beamformer synthesis for the sensing stages and the users.

Three beamformer kinds exist:

* ``eas``   -- stage-0 elevation sweep. The vertical chain is exact; the
  horizontal chain is represented by the ideal flat-gain model (a constant
  magnitude inside the ROI, zero outside), so no horizontal PS azimuth or
  horizontal TTDs are ever materialized.
* ``aas``   -- per-elevation azimuth sweep over the full array.
* ``comm``  -- per-user squint-compensated beam with unit gain at the user
  direction on every subcarrier.

Every closed-form TTD profile is affine in the element index: element
(m_h, m_v) is delayed by m_h * h_slope + m_v * v_slope, so a beamformer
stores just the two slopes (seconds per element). Every consumer (echo
synthesis, dictionaries, grid strengths, SINR tables, beam patterns) needs
only the power |g|^2, which :meth:`BeamformerWeights.power_gain` evaluates
through the real Fejer kernel :func:`~squintsense.geometry.uniform_phase_power`,
broadcast over angles x subcarriers. The kernel forms its sines from SIMD
half-angle tangents in cache-sized blocks. ``power_gain`` builds the
horizontal phase table in one array and multiplies the vertical power into
the kernel's output in place.

:func:`frame_beams` builds a frame's A AAS beams and K user beams as one
beamformer of kind ``stack``, whose PS angles and slopes are (A + K,)
arrays computed with no per-beam object; a single beam's slopes are 0-d
arrays. ``power_gain`` puts a stack's state on a leading axis of the same
phase expression, so a stack gives (B, angles..., N) in one kernel call per
array axis, and a single beam is the same code without that axis. A
proposed trial evaluates each beam of its frame once, over the scene's
scatterers followed by its users: the EAS beam in one call (one kernel
call: its horizontal chain is the flat model), and its frame_beams stack in
one more (two kernel calls). Their scatterer rows give every echo, their
user rows the SINR gain table and every stage's leakage.

An AAS beam's PS term and horizontal TTD slope both scale with sin(theta_hat),
so its horizontal phase at (theta_hat, phi) is sin(theta_hat) * X(phi, f),
where :func:`aas_unit_phase` gives X from the config alone. Its vertical
chain is locked at theta_hat, where the vertical phase cancels to round-off
and the vertical power is exactly 1 on every subcarrier. So the AAS
dictionary reuses one cached X for every theta_hat and scales it inside
the kernel, and allocates only the (L x N) power table that becomes the
dictionary.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .exceptions import ConfigError
from .geometry import flat_horizontal_gain, safe_arccos, uniform_phase_power


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


def _squinted_phase(cfg: SystemConfig, direction, steered, slope, f_dev):
    """Per-element phase slope of one array axis: the direction cosine squinted
    by (1 + f/fc), minus the PS steering cosine, plus the TTD term 2 f slope.

    The subtraction forms the full broadcast shape, led by a stack's beam
    axis when steered and slope carry one; the TTD term is added in place,
    in the same order as the plain expression.
    """
    phase = direction * (1.0 + f_dev / cfg.fc) - steered
    phase += 2.0 * f_dev * slope
    return phase


def _sweep_slope(cfg: SystemConfig, lo: float, hi: float, scale=1.0):
    """TTD slope whose squint sweeps an axis from lo (f = 0) to hi (f = F), times
    scale: the EAS vertical slope, and the AAS horizontal one with scale sin(theta_hat)."""
    c_hi = np.cos(hi) * (1.0 + cfg.bandwidth / cfg.fc)
    return scale * (np.cos(lo) - c_hi) / (2.0 * cfg.bandwidth)


def _locked_v_slope(cfg: SystemConfig, theta):
    """Vertical TTD slope that locks an AAS or user beam's vertical chain at theta."""
    return -np.cos(theta) / (2.0 * cfg.fc)


def aas_unit_phase(cfg: SystemConfig, phi: np.ndarray) -> np.ndarray:
    """(L, N) table X over L azimuths phi: aas_beamformer(cfg, t) has horizontal phase
    sin(t) * X at (t, phi) on every subcarrier, for every elevation t."""
    return _squinted_phase(
        cfg,
        np.cos(phi)[:, None],
        np.cos(cfg.phi_min),
        _sweep_slope(cfg, cfg.phi_min, cfg.phi_max),
        cfg.subcarrier_offsets(),
    )


def check_ttd_range(cfg: SystemConfig, h_slope, v_slope) -> None:
    """ConfigError if the largest delay, at the last element of an axis, exceeds
    cfg.max_abs_ttd; the slopes are scalars or the arrays of many beams."""
    largest = max(
        (cfg.m_h - 1) * np.abs(h_slope).max(initial=0.0),
        (cfg.m_v - 1) * np.abs(v_slope).max(initial=0.0),
    )
    if largest > cfg.max_abs_ttd:
        raise ConfigError("TTD delay exceeds configured max_abs_ttd")


class BeamformerWeights:
    """Analog beamformer state (PS angles + TTD slopes) plus power-gain evaluation.

    The slopes are arrays: 0-d for a single beam, (B,) for a beamformer of
    kind ``stack`` (made by :func:`frame_beams`), whose PS angles are (B,)
    arrays too and whose every phase and power has a leading beam axis.
    """

    def __init__(self, cfg: SystemConfig, kind: str, ps_theta, ps_phi, h_slope, v_slope):
        if kind not in ("eas", "aas", "comm", "stack"):
            raise ConfigError(f"unknown beamformer kind {kind!r}")
        self.cfg = cfg
        self.kind = kind
        self.ps_theta = ps_theta
        self.ps_phi = ps_phi  # None for EAS: never numerically needed
        # seconds per element
        self.h_slope, self.v_slope = np.asarray(h_slope, float), np.asarray(v_slope, float)
        check_ttd_range(cfg, self.h_slope, self.v_slope)
        self._f = cfg.offsets
        self._flat = flat_horizontal_gain(cfg) if kind == "eas" else None

    @staticmethod
    def _lead(value, lead):
        """value with the unit axes lead appended, so that a stack's (B,) PS terms
        and slopes index the leading axis of the angle x subcarrier broadcast."""
        return np.reshape(value, np.shape(value) + lead)

    def _vertical_phase(self, theta, f_dev, lead=()):
        return _squinted_phase(
            self.cfg,
            np.cos(theta),
            self._lead(np.cos(self.ps_theta), lead),
            self._lead(self.v_slope, lead),
            f_dev,
        )

    def _horizontal_phase(self, theta, phi, f_dev, lead=()):
        return _squinted_phase(
            self.cfg,
            np.sin(theta) * np.cos(phi),
            self._lead(np.sin(self.ps_theta) * np.cos(self.ps_phi), lead),
            self._lead(self.h_slope, lead),
            f_dev,
        )

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

    def power_gain(self, theta, phi, n):
        """|a(theta, phi, f_n) . w_n|^2 through the Fejer kernel.

        Broadcasts angle arrays against subcarrier-index arrays, e.g.
        ``power_gain(theta[:, None], phi[:, None], np.arange(N))`` gives the
        (angles x N) table in one call; a stack of B beams gives (B, angles x N).
        """
        f_dev = self._f[n]
        lead = (1,) * np.broadcast(theta, phi, f_dev).ndim
        vertical = uniform_phase_power(self._vertical_phase(theta, f_dev, lead), self.cfg.m_v)
        if self.kind == "eas":
            return self._flat_gain(theta, phi) ** 2 * vertical
        # the horizontal phase depends on every argument, so its power table
        # already has the full broadcast shape and takes the product in place
        horizontal = uniform_phase_power(
            self._horizontal_phase(theta, phi, f_dev, lead), self.cfg.m_h
        )
        horizontal *= vertical
        return horizontal


def eas_beamformer(cfg: SystemConfig) -> BeamformerWeights:
    """Stage-0 beamformer: PS elevation at theta_min, flat horizontal model."""
    v_slope = _sweep_slope(cfg, cfg.theta_min, cfg.theta_max)
    return BeamformerWeights(cfg, "eas", cfg.theta_min, None, h_slope=0.0, v_slope=v_slope)


def _aas_beams(cfg: SystemConfig, theta_hat):
    """PS angles and slopes of the AAS beams at elevations theta_hat (scalar or array)."""
    phi = np.full(np.shape(theta_hat), cfg.phi_min)
    h_slope = _sweep_slope(cfg, cfg.phi_min, cfg.phi_max, np.sin(theta_hat))
    return theta_hat, phi, h_slope, _locked_v_slope(cfg, theta_hat)


def _comm_beams(cfg: SystemConfig, theta_u, phi_u):
    """PS angles and slopes of the beams of users at (theta_u, phi_u) (scalars or arrays)."""
    h_slope = -np.sin(theta_u) * np.cos(phi_u) / (2.0 * cfg.fc)
    return theta_u, phi_u, h_slope, _locked_v_slope(cfg, theta_u)


def aas_beamformer(cfg: SystemConfig, theta_hat: float) -> BeamformerWeights:
    """Stage-i beamformer: PS at (theta_hat, phi_min), closed-form TTDs."""
    return BeamformerWeights(cfg, "aas", *_aas_beams(cfg, theta_hat))


def comm_beamformer(cfg: SystemConfig, theta_u: float, phi_u: float) -> BeamformerWeights:
    """User beamformer with squint fully compensated (gain 1 at the user)."""
    return BeamformerWeights(cfg, "comm", *_comm_beams(cfg, theta_u, phi_u))


def frame_beams(cfg: SystemConfig, theta_hat, users) -> BeamformerWeights:
    """One beamformer of kind ``stack``: the AAS beams at the (A,) elevations
    theta_hat, then the beams of the (K, 2) users; A or K may be 0. Row b of
    its power_gain has the bits of that beam's single-beam power_gain."""
    users = np.asarray(users, dtype=float).reshape(-1, 2)
    state = zip(_aas_beams(cfg, np.asarray(theta_hat, dtype=float)), _comm_beams(cfg, *users.T))
    return BeamformerWeights(cfg, "stack", *(np.concatenate(pair) for pair in state))
