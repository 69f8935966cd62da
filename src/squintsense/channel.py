"""Scenes as arrays, and effective channel interactions.

A :class:`Scene` holds the (theta, phi) rows of a trial's targets, clutter
scatterers and users, and the clutter's fading draws. Distances (H /
cos(theta)), cross sections and noise powers follow from the config, so
they are computed where they are used. Whether clutter is present is
decided once, in :func:`generate_scene`.

Echo gains are evaluated through the rank-1 structure of the per-scatterer
channels; the M x M channel matrix is never materialized. Echoes need only
the beamforming power |g|^2, which is evaluated through the real Fejer kernel
(:meth:`~squintsense.beamforming.BeamformerWeights.power_gain`) for all
scatterers x subcarriers in one broadcast over the echo form of
:func:`scene_arrays`, which a caller builds once per scene and passes to
:func:`echo_gain`. :func:`echo_sum` sums such a power table over its
scatterers, so a trial that evaluates its beams once, over the scene's
scatterers and users together, takes every stage's echo from the scatterer
rows of its two power-gain calls: one for the EAS beam, and one for the AAS
beams stacked with the users' beams, (beams x points x N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .beamforming import BeamformerWeights
from .config import SystemConfig
from .exceptions import ConfigError

# user placements tried per user before generate_scene gives up
MAX_USER_RETRIES = 1000


def _no_angles() -> np.ndarray:
    return np.empty((0, 2))


@dataclass(frozen=True, eq=False)
class Scene:
    """One trial's scene; every angle row is (theta, phi) in radians.

    ``Scene()`` is the empty scene. Clutterer i has fading draw fading[i],
    a CN(0, 1) value fixed within the trial (Swerling I).
    """

    targets: np.ndarray = field(default_factory=_no_angles)  # (q, 2)
    clutter: np.ndarray = field(default_factory=_no_angles)  # (C, 2)
    fading: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=complex))  # (C,)
    users: np.ndarray = field(default_factory=_no_angles)    # (K, 2)


def sensing_attenuation(cfg: SystemConfig, distance, rcs):
    """Two-way sensing amplitude gain sqrt(lambda^2 M^2 rcs / ((4 pi)^3 l^4)).

    Broadcasts over distance and rcs arrays; a scalar gives a float. A scalar
    distance goes through the same expression as a 0-d array, so it gets the
    bits it has inside an array: a Python or numpy float's d**4 rounds apart
    at some distances.
    """
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ConfigError("distance must be positive")
    gain = cfg.wavelength**2 * cfg.m_total**2 * rcs
    out = np.sqrt(gain / ((4.0 * np.pi) ** 3 * distance**4))
    return out if np.ndim(out) else float(out)


def comm_attenuation(cfg: SystemConfig, distance):
    """One-way communication amplitude gain sqrt(lambda^2 M) / (4 pi l).

    Broadcasts over distance arrays; a scalar gives a float.
    """
    if np.any(np.asarray(distance) <= 0):
        raise ConfigError("distance must be positive")
    out = np.sqrt(cfg.wavelength**2 * cfg.m_total) / (4.0 * np.pi * distance)
    return out if np.ndim(out) else float(out)


def scene_arrays(cfg: SystemConfig, scene: Scene):
    """Angles and complex amplitudes of every echo contributor, targets first.

    With clutter present the Rician split applies: LoS terms carry
    sqrt(kappa/(1+kappa)) and the range phasor, clutter terms
    sqrt(1/(1+kappa)) / sqrt(C) and the per-trial fading draws. Without
    clutter the channel is pure line of sight and the LoS weight is 1.
    Returns (theta, phi, amplitude) arrays of equal length.
    """
    kappa = cfg.kappa
    q, c = len(scene.targets), len(scene.clutter)
    theta, phi = np.concatenate([scene.targets, scene.clutter]).T
    dist = cfg.height / np.cos(theta)
    alpha = sensing_attenuation(cfg, dist, np.repeat([cfg.sigma_rcs, cfg.sigma_clutter], [q, c]))
    amp = np.empty(q + c, dtype=complex)
    los_w = np.sqrt(kappa / (1.0 + kappa)) if c else 1.0
    # range phase in real arithmetic: numpy's complex-by-real division
    # multiplies by a reciprocal, which adds a rounding to a ~1e4 rad angle
    range_phase = 4.0 * np.pi * dist[:q] / cfg.wavelength
    amp[:q] = los_w * alpha[:q] * np.exp(-1j * range_phase)
    if c:
        clu_w = np.sqrt(1.0 / (1.0 + kappa)) / np.sqrt(c)
        amp[q:] = clu_w * alpha[q:] * scene.fading
    return theta, phi, amp


def echo_gain(cfg: SystemConfig, echoes, weights: BeamformerWeights, n_idx):
    """Quadratic form b^H G_n b via rank-1 shortcuts, one value per index in n_idx.

    Sums amplitude * |gain|^2 over the contributors of ``echoes``, a scene's
    echo form scene_arrays(cfg, scene), all subcarriers in one broadcast. A
    stack of B beams gives a (B, len(n_idx)) result, one row per beam.
    """
    theta, phi, amp = echoes
    return echo_sum(amp, weights.power_gain(theta[:, None], phi[:, None], n_idx))


def echo_sum(amplitudes: np.ndarray, power: np.ndarray) -> np.ndarray:
    """b^H G_n b of each beam of a power table (..., S, N) over S contributors
    with complex ``amplitudes`` (S,): the (..., N) sum of amplitude * |gain|^2."""
    return np.sum(amplitudes[:, None] * power, axis=-2)


def _draw_angles(cfg: SystemConfig, rng: np.random.Generator, count: int):
    theta = rng.uniform(cfg.theta_min, cfg.theta_max, size=count)
    phi = rng.uniform(cfg.phi_min, cfg.phi_max, size=count)
    return np.column_stack([theta, phi])


def generate_scene(
    cfg: SystemConfig,
    q: int,
    k: int,
    seed: int,
    include_clutter: bool = True,
) -> Scene:
    """Draw q targets, C clutterers, and k users uniformly over the ROI.

    Users are redrawn until every pair is at least cfg.user_min_separation
    apart in the (theta, phi) plane; deterministic under the seed. The
    clutter is always drawn, so the user draws do not depend on
    ``include_clutter``; without it the scene's clutter arrays are empty.
    """
    rng = np.random.default_rng(seed)
    targets = _draw_angles(cfg, rng, q)
    clutter = _draw_angles(cfg, rng, cfg.n_clutter)
    fading = (
        rng.standard_normal(cfg.n_clutter) + 1j * rng.standard_normal(cfg.n_clutter)
    ) / np.sqrt(2.0)
    if not include_clutter:
        clutter, fading = clutter[:0], fading[:0]

    users = []
    for _ in range(k):
        for attempt in range(MAX_USER_RETRIES):
            th = rng.uniform(cfg.theta_min, cfg.theta_max)
            ph = rng.uniform(cfg.phi_min, cfg.phi_max)
            sep = min((np.hypot(th - u_th, ph - u_ph) for u_th, u_ph in users), default=np.inf)
            if sep >= cfg.user_min_separation:
                users.append((th, ph))
                break
        else:
            raise ConfigError(
                f"could not place user with separation {cfg.user_min_separation} "
                f"after {MAX_USER_RETRIES} retries"
            )
    return Scene(targets, clutter, fading, np.array(users).reshape(k, 2))
