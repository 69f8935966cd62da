"""UPA steering vectors with beam squint and the flat horizontal-gain model.

Element ordering of the full steering vector is horizontal-major:
index = (m_h - 1) * M_v + m_v, consistent everywhere in the package.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .exceptions import ConfigError, DegenerateIntervalError

ARCCOS_CLAMP_TOL = 1e-9
# Elements per pass of uniform_phase_power: its work arrays and the block of
# output (384 KB of float64) stay in a core's L2 cache.
FEJER_BLOCK = 16384


def safe_arccos(x):
    """arccos with clamping of small float drift beyond [-1, 1].

    Arguments farther than ARCCOS_CLAMP_TOL outside the interval indicate a
    bad configuration rather than round-off and raise ConfigError.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr > 1.0 + ARCCOS_CLAMP_TOL) or np.any(arr < -1.0 - ARCCOS_CLAMP_TOL):
        raise ConfigError(f"arccos argument outside [-1, 1]: {arr}")
    out = np.arccos(np.clip(arr, -1.0, 1.0))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def horizontal_steering(theta, phi, f_dev, m_h, fc):
    """Horizontal steering vector of length m_h at frequency deviation f_dev."""
    m = np.arange(m_h)
    phase = -np.pi * m * np.sin(theta) * np.cos(phi) * (1.0 + f_dev / fc)
    return np.exp(1j * phase) / np.sqrt(m_h)


def vertical_steering(theta, f_dev, m_v, fc):
    """Vertical steering vector of length m_v; depends on elevation only."""
    m = np.arange(m_v)
    phase = -np.pi * m * np.cos(theta) * (1.0 + f_dev / fc)
    return np.exp(1j * phase) / np.sqrt(m_v)


def upa_steering(cfg: SystemConfig, theta, phi, f_dev):
    """Full UPA steering vector a = a_h kron a_v (unit 2-norm, length M)."""
    a_h = horizontal_steering(theta, phi, f_dev, cfg.m_h, cfg.fc)
    a_v = vertical_steering(theta, f_dev, cfg.m_v, cfg.fc)
    return np.kron(a_h, a_v)


def composite_aod_bounds(cfg: SystemConfig):
    """Composite-AoD interval [psi_min, psi_max] covering the ROI with squint.

    The composite AoD is defined through arccos(sin(theta) cos(phi)) even
    though the horizontal phase uses sin(theta) cos(phi) directly; the arccos
    form is used only for these interval bounds.
    """
    lo = safe_arccos(np.sin(cfg.theta_max) * np.cos(cfg.phi_min))
    hi = safe_arccos(
        np.sin(cfg.theta_max) * np.cos(cfg.phi_max) * (1.0 + cfg.bandwidth / cfg.fc)
    )
    psi_min, psi_max = (lo, hi) if lo <= hi else (hi, lo)
    if psi_max - psi_min <= 0.0:
        raise DegenerateIntervalError(
            f"composite-AoD interval is degenerate: [{psi_min}, {psi_max}]"
        )
    return psi_min, psi_max


def flat_horizontal_gain(cfg: SystemConfig) -> float:
    """Constant horizontal array-gain magnitude assumed over the ROI in stage 0.

    Equals sqrt(2*pi / (M_h * interval width)); the squared gain integrates
    to 2*pi/M_h over the composite-AoD interval.
    """
    psi_min, psi_max = composite_aod_bounds(cfg)
    return float(np.sqrt(2.0 * np.pi / (cfg.m_h * (psi_max - psi_min))))


def uniform_phase_sum(slope, m):
    """(1/m) * sum_{k=0}^{m-1} exp(-1j*pi*k*slope), vectorized over slope.

    Closed form of the array factor of an m-element uniform array whose
    per-element phase is affine in the element index. Equals 1 when the
    slope is an even integer (all terms in phase).
    """
    x = np.atleast_1d(np.asarray(slope, dtype=float))
    u = 0.5 * np.pi * x
    sin_u = np.sin(u)
    near_zero = np.abs(sin_u) < 1e-12
    sin_safe = np.where(near_zero, 1.0, sin_u)
    ratio = np.sin(m * u) / (m * sin_safe)
    # limit as u -> k*pi: sum magnitude m, sign cos(m*u)/cos(u)
    limit = np.cos(m * u) / np.cos(u)
    mag = np.where(near_zero, limit, ratio)
    out = mag * np.exp(-1j * u * (m - 1))
    if np.isscalar(slope) or np.asarray(slope).ndim == 0:
        return complex(out[0])
    return out.reshape(np.shape(slope))


def _fejer_pass(x, m, t=None, s=None, w=None):
    """One pass of the Fejer kernel over x, returned in s.

    t, s and w have x's shape and are allocated when not given; t and w are
    overwritten.
    """
    t = np.multiply(x, 0.25 * np.pi, out=t)  # u/2, exactly half of pi*x/2
    s = np.multiply(t, m, out=s)             # m u/2
    np.tan(t, out=t)
    np.tan(s, out=s)
    w = np.multiply(t, t, out=w)
    w += 1.0
    t /= w  # sin(u)/2 = t/(1+t^2)
    np.multiply(s, s, out=w)
    w += 1.0
    s /= w  # sin(m u)/2
    near_zero = np.abs(t, out=w) < 0.5e-12
    limit = None
    if near_zero.any():
        u_near = 0.5 * np.pi * x[near_zero]
        limit = np.cos(m * u_near) / np.cos(u_near)
        t[near_zero] = 1.0
    t *= m
    s /= t
    s *= s
    if limit is not None:
        s[near_zero] = limit * limit
    return s


def uniform_phase_power(slope, m):
    """|uniform_phase_sum(slope, m)|^2 as a real Fejer kernel, vectorized over slope.

    Equals (sin(m u) / (m sin u))^2 with u = pi*slope/2, and the squared
    limit (cos(m u) / cos(u))^2 where |sin u| < 1e-12. No complex numbers
    are formed.

    Both sines come from half-angle tangents, sin v = 2 tan(v/2) / (1 +
    tan(v/2)^2), because float64 ``np.tan`` is SIMD-vectorized on this
    numpy build while ``np.sin`` and ``np.cos`` run scalar: on 524k
    elements (2-core Xeon, numpy 2.4.6) tan takes 0.9 ms at arguments in
    [0, 3) and 2.1 ms in [0, 192), against 6.3 and 11.3 ms for sin. The
    poles of tan(u/2) are the even-integer singularities, handled by the
    limit branch; those of tan(m u/2) are nulls, where sin(m u) -> 0.
    Inputs larger than FEJER_BLOCK elements are evaluated block by block
    over the flattened input, so the work arrays stay in L2 cache.
    """
    x = np.asarray(slope, dtype=float)
    if x.size <= FEJER_BLOCK:
        out = _fejer_pass(x.reshape(1) if x.ndim == 0 else x, m)
        return float(out[0]) if x.ndim == 0 else out
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    t, w = np.empty(FEJER_BLOCK), np.empty(FEJER_BLOCK)
    for start in range(0, flat_x.size, FEJER_BLOCK):
        block = flat_x[start : start + FEJER_BLOCK]
        k = block.size
        _fejer_pass(block, m, t[:k], flat_out[start : start + k], w[:k])
    return out
