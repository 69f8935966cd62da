"""Beam-squint-aided hierarchical 2D angle sensing for wideband OFDM ISAC.

A link-level simulator for a base station with a uniform planar array that
exploits (rather than compensates) beam squint: true-time-delay lines spread
the OFDM subcarriers across the region of interest so every symbol probes
many directions at once, first in elevation, then in azimuth, with matching
pursuit refinement on a dense candidate grid and SNR/SINR-tight power
allocation for the sensing and communication streams.
"""

__version__ = "0.1.0"

from .beamforming import (
    BeamformerWeights,
    aas_azimuth_grid,
    aas_beamformer,
    aas_unit_phase,
    comm_beamformer,
    eas_beamformer,
    eas_elevation_grid,
    frame_beams,
)
from .channel import (
    Scene,
    comm_attenuation,
    echo_gain,
    generate_scene,
    scene_arrays,
    sensing_attenuation,
)
from .config import RunConfig, SystemConfig, db_to_linear, dbm_to_watt
from .detection import (
    CountingVector,
    DetectionResult,
    ProposedPlan,
    assemble_observation,
    azimuth_candidates,
    elevation_candidates,
    hierarchical_detect,
    modified_mp,
    proposed_plan,
)
from .exceptions import (
    ConfigError,
    InfeasibleError,
    SquintSenseError,
)
from .geometry import (
    composite_aod_bounds,
    fejer_envelope,
    flat_horizontal_gain,
    safe_arccos,
    uniform_phase_power,
)
from .power import (
    PowerPlan,
    SinrContext,
    allocate_comm,
    allocate_sensing,
    backoff_tau_c,
    sinr_context,
)
from .simkit import (
    AzimuthOnlyPlan,
    ExhaustivePlan,
    TrialRecord,
    aggregate,
    aggregate_to_csv,
    azimuth_only_plan,
    distance_error,
    exhaustive_plan,
    records_to_csv,
    run_azimuth_only_baseline,
    run_exhaustive_baseline,
    run_experiment,
    run_proposed_trial,
    run_single_trial,
    sum_rate,
    transmit_power_metrics,
)
