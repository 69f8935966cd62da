"""Scene generation and effective channel interactions.

Echo gains are evaluated through the rank-1 structure of the per-scatterer
channels; the M x M channel matrix is never materialized. Echoes need only
the beamforming power |g|^2, which is evaluated through the real Fejer kernel
(:meth:`~squintsense.beamforming.BeamformerWeights.power_gain`) for all
scatterers x subcarriers in one broadcast over the scene's array form
(:func:`scene_arrays`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import BeamformerWeights
from .config import SystemConfig
from .exceptions import ConfigError

# user placements tried per user before generate_scene gives up
MAX_USER_RETRIES = 1000


@dataclass(frozen=True)
class Target:
    theta: float
    phi: float
    distance: float  # = H / cos(theta)
    rcs: float       # m^2


@dataclass(frozen=True)
class Clutterer:
    theta: float
    phi: float
    distance: float
    rcs: float
    fading: complex  # CN(0,1) draw, fixed within a trial (Swerling I)


@dataclass(frozen=True)
class User:
    theta: float
    phi: float
    distance: float
    noise_var: float  # W


@dataclass(frozen=True)
class Scene:
    targets: tuple = ()
    clutterers: tuple = ()
    users: tuple = ()


def sensing_attenuation(cfg: SystemConfig, distance, rcs):
    """Two-way sensing amplitude gain sqrt(lambda^2 M^2 rcs / ((4 pi)^3 l^4)).

    Broadcasts over distance and rcs arrays; scalars give a float.
    """
    if np.any(np.asarray(distance) <= 0):
        raise ConfigError("distance must be positive")
    lam = cfg.wavelength
    out = np.sqrt(lam**2 * cfg.m_total**2 * rcs / ((4.0 * np.pi) ** 3 * distance**4))
    return out if np.ndim(out) else float(out)


def comm_attenuation(cfg: SystemConfig, distance):
    """One-way communication amplitude gain sqrt(lambda^2 M) / (4 pi l).

    Broadcasts over distance arrays; a scalar gives a float.
    """
    if np.any(np.asarray(distance) <= 0):
        raise ConfigError("distance must be positive")
    out = np.sqrt(cfg.wavelength**2 * cfg.m_total) / (4.0 * np.pi * distance)
    return out if np.ndim(out) else float(out)


def scene_arrays(cfg: SystemConfig, scene: Scene, include_clutter: bool = True):
    """Angles and complex amplitudes of every echo contributor, targets first.

    With clutter present the Rician split applies: LoS terms carry
    sqrt(kappa/(1+kappa)) and the range phasor, clutter terms
    sqrt(1/(1+kappa)) / sqrt(C) and the per-trial fading draws. Without
    clutter the channel is pure line of sight and the LoS weight is 1.
    Returns (theta, phi, amplitude) arrays of equal length.
    """
    kappa = cfg.kappa
    has_clutter = include_clutter and bool(scene.clutterers)
    sources = scene.targets + (scene.clutterers if has_clutter else ())
    theta = np.array([s.theta for s in sources], dtype=float)
    phi = np.array([s.phi for s in sources], dtype=float)
    dist = np.array([s.distance for s in sources], dtype=float)
    alpha = sensing_attenuation(cfg, dist, np.array([s.rcs for s in sources], dtype=float))
    q = len(scene.targets)
    amp = np.empty(len(sources), dtype=complex)
    los_w = np.sqrt(kappa / (1.0 + kappa)) if has_clutter else 1.0
    # range phase in real arithmetic: numpy's complex-by-real division
    # multiplies by a reciprocal, which adds a rounding to a ~1e4 rad angle
    range_phase = 4.0 * np.pi * dist[:q] / cfg.wavelength
    amp[:q] = los_w * alpha[:q] * np.exp(-1j * range_phase)
    if has_clutter:
        clu_w = np.sqrt(1.0 / (1.0 + kappa)) / np.sqrt(len(scene.clutterers))
        amp[q:] = clu_w * alpha[q:] * np.array([c.fading for c in scene.clutterers])
    return theta, phi, amp


def echo_gain(
    cfg: SystemConfig,
    scene: Scene,
    weights: BeamformerWeights,
    n,
    include_clutter: bool = True,
):
    """Quadratic form b^H G_n b via rank-1 shortcuts.

    Sums amplitude * |gain|^2 over the contributors of :func:`scene_arrays`.
    ``n`` is a subcarrier index (complex result) or an index array (one
    complex value per entry, all in one broadcast).
    """
    theta, phi, amp = scene_arrays(cfg, scene, include_clutter)
    power = weights.power_gain(theta[:, None], phi[:, None], n)
    total = np.sum(amp[:, None] * power, axis=0)
    return total if np.ndim(n) else complex(total[0])


def _draw_angles(cfg: SystemConfig, rng: np.random.Generator, count: int):
    theta = rng.uniform(cfg.theta_min, cfg.theta_max, size=count)
    phi = rng.uniform(cfg.phi_min, cfg.phi_max, size=count)
    return theta, phi


def generate_scene(
    cfg: SystemConfig,
    q: int,
    k: int,
    seed: int,
) -> Scene:
    """Draw q targets, C clutterers, and k users uniformly over the ROI.

    Users are redrawn until every pair is at least cfg.user_min_separation
    apart in the (theta, phi) plane; deterministic under the seed.
    """
    rng = np.random.default_rng(seed)
    noise_var = cfg.noise_variance()

    t_theta, t_phi = _draw_angles(cfg, rng, q)
    targets = tuple(
        Target(th, ph, cfg.height / np.cos(th), cfg.sigma_rcs)
        for th, ph in zip(t_theta, t_phi)
    )

    c_theta, c_phi = _draw_angles(cfg, rng, cfg.n_clutter)
    fading = (
        rng.standard_normal(cfg.n_clutter) + 1j * rng.standard_normal(cfg.n_clutter)
    ) / np.sqrt(2.0)
    clutterers = tuple(
        Clutterer(th, ph, cfg.height / np.cos(th), cfg.sigma_clutter, complex(fa))
        for th, ph, fa in zip(c_theta, c_phi, fading)
    )

    users = []
    for _ in range(k):
        for attempt in range(MAX_USER_RETRIES):
            th = rng.uniform(cfg.theta_min, cfg.theta_max)
            ph = rng.uniform(cfg.phi_min, cfg.phi_max)
            sep = min(
                (np.hypot(th - u.theta, ph - u.phi) for u in users),
                default=np.inf,
            )
            if sep >= cfg.user_min_separation:
                users.append(User(th, ph, cfg.height / np.cos(th), noise_var))
                break
        else:
            raise ConfigError(
                f"could not place user with separation {cfg.user_min_separation} "
                f"after {MAX_USER_RETRIES} retries"
            )
    return Scene(targets=targets, clutterers=clutterers, users=tuple(users))

