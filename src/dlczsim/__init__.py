"""Atom-photon entanglement toolkit: prediction, simulation and analysis.

The package covers the full chain of a write/read photon-pair experiment:

- :mod:`dlczsim.angular` computes exact angular-momentum branching ratios
  and the mixing angle eta of the entangled state they produce.
- :mod:`dlczsim.states` holds the finite-N checks of the collective
  spin-wave mode that stores the excitation.
- :mod:`dlczsim.predictor` turns the stored pair into measurable numbers:
  coincidence fringes, correlation coefficients E, the CHSH sum S and the
  concurrence.
- :mod:`dlczsim.simulator` is a seeded Monte Carlo that emits time-tagged
  detector click logs for configurable efficiencies and backgrounds.
- :mod:`dlczsim.analysis` parses logs, gates and counts clicks, and fits
  fringes and decay curves the way the measured data are treated.
- :mod:`dlczsim.cli` wires the above into the ``dlczsim`` command.
- :mod:`dlczsim.grammar` is the text grammar, the UTF-8 file reading and
  the ``ParseError`` every text input shares.
"""

from .analysis import (
    CoincidenceTable,
    DecayPoint,
    ExponentialFit,
    FitError,
    FringeFit,
    SettingCounts,
    chsh_from_log,
    compute_g_si,
    detection_efficiency,
    fit_exponential,
    fit_fringe,
    format_event_log,
    gate_and_count,
    parse_event_log,
    parse_event_log_text,
    write_event_log,
)
from .angular import (
    BranchingTable,
    HalfInt,
    LevelScheme,
    branching_table,
    cg,
    mixing_angle,
    mixing_cos_sq,
)
from .grammar import ParseError
from .predictor import (
    CANONICAL_ANGLES_DEG,
    CHSHResult,
    CountQuartet,
    FringeModel,
    MeasurementSetting,
    chsh_s,
    chsh_setting_table,
    coincidence_rate,
    concurrence,
    correlation_e,
    predict_ideal_e,
    predict_ideal_s,
)
from .simulator import (
    DEFAULT_ETA,
    EventLog,
    ExperimentConfig,
    decoherence_visibility,
    expected_g_si,
    load_config,
    load_settings,
    run_trials,
)
from .states import (
    EnsembleModel,
    excited_commutator_deviation,
    mode_vacuum_overlap,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # angular momentum
    "BranchingTable",
    "HalfInt",
    "LevelScheme",
    "branching_table",
    "cg",
    "mixing_angle",
    "mixing_cos_sq",
    # collective spin-wave mode
    "EnsembleModel",
    "excited_commutator_deviation",
    "mode_vacuum_overlap",
    # predictions
    "CANONICAL_ANGLES_DEG",
    "CHSHResult",
    "CountQuartet",
    "FringeModel",
    "MeasurementSetting",
    "chsh_s",
    "chsh_setting_table",
    "coincidence_rate",
    "concurrence",
    "correlation_e",
    "predict_ideal_e",
    "predict_ideal_s",
    # simulation
    "DEFAULT_ETA",
    "EventLog",
    "ExperimentConfig",
    "decoherence_visibility",
    "expected_g_si",
    "load_config",
    "load_settings",
    "run_trials",
    # analysis
    "CoincidenceTable",
    "DecayPoint",
    "ExponentialFit",
    "FitError",
    "FringeFit",
    "ParseError",
    "SettingCounts",
    "chsh_from_log",
    "compute_g_si",
    "detection_efficiency",
    "fit_exponential",
    "fit_fringe",
    "format_event_log",
    "gate_and_count",
    "parse_event_log",
    "parse_event_log_text",
    "write_event_log",
]
