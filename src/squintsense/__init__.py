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
    TtdProfile,
    aas_azimuth_grid,
    aas_beamformer,
    aas_ttd,
    comm_beamformer,
    comm_ttd,
    eas_beamformer,
    eas_elevation_grid,
    eas_vertical_ttd,
)
from .channel import (
    Clutterer,
    Scene,
    Target,
    User,
    comm_attenuation,
    comm_gain,
    echo_gain,
    generate_scene,
    scene_arrays,
    sensing_attenuation,
)
from .config import RunConfig, SystemConfig, db_to_linear, dbm_to_watt
from .detection import (
    CountingVector,
    DetectionResult,
    EasStage,
    MeasurementMatrix,
    assemble_observation,
    azimuth_candidates,
    build_measurement_matrix,
    eas_stage,
    elevation_candidates,
    hierarchical_detect,
    modified_mp,
)
from .exceptions import (
    ConfigError,
    DegenerateIntervalError,
    InfeasibleError,
    SquintSenseError,
)
from .geometry import (
    composite_aod_bounds,
    flat_horizontal_gain,
    horizontal_steering,
    safe_arccos,
    uniform_phase_power,
    uniform_phase_sum,
    upa_steering,
    vertical_steering,
)
from .power import (
    PowerPlan,
    SinrContext,
    allocate_comm,
    allocate_sensing,
    backoff_tau_c,
    check_feasibility,
    grid_echo_strength,
    sinr_context,
)
from .simkit import (
    TrialRecord,
    aggregate,
    aggregate_to_csv,
    distance_error,
    records_to_csv,
    run_azimuth_only_baseline,
    run_exhaustive_baseline,
    run_experiment,
    run_proposed_trial,
    run_single_trial,
    sum_rate,
    transmit_power_metrics,
)
