"""Emotion-adaptive spherical vectors from VAD annotations.

Turns per-utterance (valence, arousal, dominance) triples into spherical
style/intensity vectors around optimized per-emotion centers, computes
objective emotion and prosody metrics, and renders style-by-intensity
analysis reports. See the CLI (`vadsphere --help`) for the file-based
workflow.
"""

from .analysis import (
    AnalysisCell,
    AnalysisReport,
    bin_intensity,
    build_report,
    range_rc,
    render_report,
)
from .centroid import SolverConfig, grid_search_centroid, objective, solve_centroid
from .geometry import (
    Centroid,
    StyleOctant,
    VadPoint,
    neutral_center,
    octant_codes,
    shift,
    to_cartesian,
    to_spherical,
)
from .manifest import (
    AudioBuffer,
    DatasetManifest,
    UtteranceRecord,
    parse_manifest,
    read_wav,
    serialize_manifest,
)
from .metrics import (
    eca,
    eecs,
    orthogonality_loss,
    pair_order_accuracy,
    svas,
)
from .pipeline import (
    EasvModel,
    EasvSet,
    IqrBounds,
    extract_easv_set,
    fit_easv_model,
    intensity_label_to_value,
    iqr_bounds,
    make_control_vector,
    normalize_radius,
)
from .prosody import (
    F0Config,
    F0Track,
    ProsodyStats,
    align_tracks,
    estimate_f0,
    f1_vuv,
    frame_energy,
    rmse_f0,
    rmse_period,
    utterance_prosody,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisCell",
    "AnalysisReport",
    "AudioBuffer",
    "Centroid",
    "DatasetManifest",
    "EasvModel",
    "EasvSet",
    "F0Config",
    "F0Track",
    "IqrBounds",
    "ProsodyStats",
    "SolverConfig",
    "StyleOctant",
    "UtteranceRecord",
    "VadPoint",
    "align_tracks",
    "bin_intensity",
    "build_report",
    "eca",
    "eecs",
    "estimate_f0",
    "extract_easv_set",
    "f1_vuv",
    "fit_easv_model",
    "frame_energy",
    "grid_search_centroid",
    "intensity_label_to_value",
    "iqr_bounds",
    "make_control_vector",
    "neutral_center",
    "normalize_radius",
    "objective",
    "octant_codes",
    "orthogonality_loss",
    "pair_order_accuracy",
    "parse_manifest",
    "range_rc",
    "read_wav",
    "render_report",
    "rmse_f0",
    "rmse_period",
    "serialize_manifest",
    "shift",
    "solve_centroid",
    "svas",
    "to_cartesian",
    "to_spherical",
    "utterance_prosody",
]
