"""Deterministic link-level packet-loss simulation for UAV ad-hoc networks.

The package covers the full pipeline: seeded topology generation,
free-space link budgets, packet-loss sweeps over power / frequency /
area / swarm size, logarithmic curve fitting with analytic inversion,
and a threshold-ladder adaptive transmission controller.
"""

from fanetsim.adaptation import (
    AdaptationPolicy,
    NonTerminationError,
    PowerRung,
    TraceEvent,
    TraceSample,
    TraceSummary,
    default_policy,
    run_adaptation,
    summarize_trace,
)
from fanetsim.curves import (
    CurveFamily,
    LossCurve,
    PacketSizePrediction,
    default_curve_family,
    evaluate_curve,
    fit_family_from_power_sweep,
    fit_log_curve,
    grid_oracle_predict,
    invert_curve,
    predict_packet_size,
    predict_with_oracle,
)
from fanetsim.link import (
    SPEED_OF_LIGHT_M_S,
    BerModel,
    LinkQuality,
    RadioParams,
    ber_from_snr,
    dbm_to_mw,
    friis_gain_linear,
    fspl_db,
    link_quality,
    mean_pair_loss_percent,
    mw_to_dbm,
    packet_loss_prob,
    pair_mean_losses_percent,
)
from fanetsim.rng import SplitMix64
from fanetsim.sweeps import (
    DEFAULT_AREA_AXIS_M,
    DEFAULT_COUNT_AXIS,
    DEFAULT_FREQUENCY_AXIS_HZ,
    DEFAULT_PACKET_SIZES,
    DEFAULT_POWER_AXIS_DBM,
    SweepAxis,
    SweepResult,
    SweepRow,
    SweepSpec,
    run_sweep,
)
from fanetsim.topology import (
    AreaSpec,
    Topology,
    distance,
    generate_topology,
    parse_topology,
    serialize_topology,
)

__version__ = "0.1.0"
