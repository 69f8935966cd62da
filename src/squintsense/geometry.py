"""The Fejer power kernel of affine phase profiles and its envelope, the flat
horizontal-gain model and its composite-AoD bounds.

:func:`uniform_phase_power` takes an optional scalar ``scale`` of the
slopes, applied inside its first multiply, so a table of slopes that many
callers share, such as the AAS phase per unit sin(theta_hat), is never
rescaled into a copy."""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .exceptions import ConfigError, DegenerateIntervalError

ARCCOS_CLAMP_TOL = 1e-9
# Elements per pass of uniform_phase_power: its work arrays and the block of
# output (384 KB of float64) stay in a core's L2 cache.
FEJER_BLOCK = 16384
# Relative margin that makes fejer_envelope bound the computed kernels, not
# only the exact power: near slopes of +-2 the kernel reads up to 4.3e-4 above
# the exact power for m in {3, 7, 13}, and 1e-15 above it for m in {16, 64}
# (against a 50-digit reference).
ENVELOPE_MARGIN = 1e-2


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


def _fejer_pass(x, m, t=None, s=None, w=None, scale=1.0):
    """One pass of the Fejer kernel over scale * x, returned in s.

    t, s and w have x's shape and are allocated when not given; t and w are
    overwritten.
    """
    t = np.multiply(x, 0.25 * np.pi * scale, out=t)  # u/2, exactly half of pi*scale*x/2
    s = np.multiply(t, m, out=s)                     # m u/2
    np.tan(t, out=t)
    np.tan(s, out=s)
    w = np.multiply(t, t, out=w)
    w += 1.0
    t /= w  # sin(u)/2 = t/(1+t^2)
    np.multiply(s, s, out=w)
    w += 1.0
    s /= w  # sin(m u)/2
    # where sin u vanishes the kernel is its limit (cos(m u) / cos u)^2, which
    # rounds to exactly 1.0 there: m / (m * 1) below
    near_zero = np.abs(t, out=w) < 0.5e-12
    if near_zero.any():
        t[near_zero], s[near_zero] = 1.0, m
    t *= m
    s /= t
    s *= s
    return s


def uniform_phase_power(slope, m, scale=1.0, out=None):
    """|(1/m) sum_{k<m} exp(-1j*pi*k*scale*slope)|^2 as a real Fejer kernel, over slope.

    Equals (sin(m u) / (m sin u))^2 with u = pi*scale*slope/2, and 1.0 where
    |sin u| < 1e-12: there the squared limit (cos(m u) / cos u)^2 rounds to
    exactly 1.0 (a fuzz over m up to 1000 and u up to 150 pi). No complex
    numbers are formed. The scalar ``scale`` joins the constant of the
    kernel's first multiply, so a table of slopes shared by many calls is
    scaled without a pass of its own; the default 1.0 leaves that constant,
    and so every bit of the result, unchanged.

    Both sines come from half-angle tangents, sin v = 2 tan(v/2) / (1 +
    tan(v/2)^2), because float64 ``np.tan`` is SIMD-vectorized on this
    numpy build while ``np.sin`` and ``np.cos`` run scalar: on 524k
    elements (2-core Xeon, numpy 2.4.6) tan takes 0.9 ms at arguments in
    [0, 3) and 2.1 ms in [0, 192), against 6.3 and 11.3 ms for sin. The
    poles of tan(u/2) are the even-integer singularities, handled by the
    near-zero branch; those of tan(m u/2) are nulls, where sin(m u) -> 0.
    Inputs larger than FEJER_BLOCK elements are evaluated block by block
    over the flattened input, so the work arrays stay in L2 cache. A
    C-contiguous array ``out`` of the input's shape takes the result in place
    of a new array, with the same bits.

    Accurate domain: m must be a power of two, as in every shipped config
    (16 and 64). Then m u/2 is an exact rescaling of the rounded u/2, so both
    sines see one slope, a few ulp from the input; against a 50-digit
    reference at slopes near even integers up to 200 the relative error
    stays below 1e-11 (with a floor of 1e-12 of the unit peak), and below
    1e-12 inside the main lobe. For other m the two products round apart,
    and near a nonzero even-integer slope, where both sines vanish, their
    ratio can be off by percents: m = 3 at slope 192 + 1e-12 reads 1.025
    against an exact 1.
    """
    x = np.asarray(slope, dtype=float)
    if x.ndim == 0:
        return float(_fejer_pass(x.reshape(1), m, scale=scale)[0])
    if x.size <= FEJER_BLOCK:
        return _fejer_pass(x, m, s=out, scale=scale)
    out = np.empty(x.shape) if out is None else out
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    t, w = np.empty(FEJER_BLOCK), np.empty(FEJER_BLOCK)
    for start in range(0, flat_x.size, FEJER_BLOCK):
        block = flat_x[start : start + FEJER_BLOCK]
        k = block.size
        _fejer_pass(block, m, t[:k], flat_out[start : start + k], w[:k], scale)
    return out


def fejer_envelope(slope, m, lo, hi):
    """Upper bound B of the Fejer power F(x) = (sin(m u) / (m sin u))^2, u =
    pi x / 2, over every x = rho * slope with rho in [lo, hi], 0 <= lo <= hi;
    elementwise over a slope array, with no transcendental.

    F depends on x only through the distance d <= 1 from x to the nearest
    even integer, and B is evaluated at the distance from [lo |slope|,
    hi |slope|] to the even integers. With y = pi d / 2 and t = m y:
    sin y >= y (1 - y^2/6), sin t / t <= P(t) = 1 - t^2/6 + t^4/120 for
    t <= pi/2, and |sin t| / t <= 1/t <= P(pi/2) (pi/2) / t beyond, so
    B = min(1, (P(min(t, pi/2)) (pi/2) / max(t, pi/2) / (1 - y^2/6))^2)
    >= F(d). B(d) >= F(d') for every d' >= d as well: F falls on its main
    lobe d <= 1/m, and F(d') <= 1 / (m sin(pi d'/2))^2 <= F(1/m) beyond.
    B is within 1% of F on the main lobe. It bounds the exact power; the
    computed kernels stay below it times 1 + ENVELOPE_MARGIN.
    """
    a = np.abs(slope)
    b = hi * a
    even = 2.0 * np.floor(0.5 * b)  # the largest even integer <= b
    y = np.minimum(lo * a - even, even + 2.0 - b)
    np.maximum(y, 0.0, out=y)
    y *= 0.5 * np.pi
    t = np.minimum(m * y, 0.5 * np.pi)
    t *= t
    sinc = t * (1.0 / 120.0)
    sinc -= 1.0 / 6.0
    sinc *= t
    sinc += 1.0  # P(min(t, pi/2))
    np.multiply(m, y, out=t)
    np.maximum(t, 0.5 * np.pi, out=t)
    sinc *= 0.5 * np.pi
    sinc /= t
    y *= y
    y *= -1.0 / 6.0
    y += 1.0
    sinc /= y
    sinc *= sinc
    return np.minimum(sinc, 1.0, out=sinc)
