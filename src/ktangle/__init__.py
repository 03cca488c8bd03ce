"""Global, K-way, and pair-restricted negativities, tangles, canonical
three-qubit forms, the GHZ+W family, and convex-roof negativities."""

from .config import NumericalError, ValidationError
from .core import (
    DensityOperator,
    LocalUnitary,
    PureState,
    SubsystemLayout,
    apply_local_unitary,
    haar_random_pure,
    outer,
    partial_trace,
    qubit_layout,
    trace_norm,
)
from .transpose import global_pt, kway_pt, pair_pt
from .negativity import NegativityReport, negativity_from_pt, negativity_report
from .tangle import TangleReport, one_tangle, three_tangle, wootters_tangle
from .canonical import (
    CanonicalForm3Q,
    CanonicalizationResult,
    build_canonical_state,
    canonical_closed_forms,
    canonicalize3,
    coherence_delta,
    ghz_rotation_profile,
    third_qubit_rotation,
)
from .ghzw import (
    GhzwParams,
    SweepRow,
    build_ghzw,
    ghzw_canonical_params,
    sweep_family,
    tau3_closed_form,
    tau3_minus_zero,
    x_parameter,
)
from .roof import Ensemble, RoofBudget, RoofResult, roof_negativity
from .statefile import ParseError, parse_state_file

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm3Q",
    "CanonicalizationResult",
    "DensityOperator",
    "Ensemble",
    "GhzwParams",
    "LocalUnitary",
    "NegativityReport",
    "NumericalError",
    "ParseError",
    "PureState",
    "RoofBudget",
    "RoofResult",
    "SubsystemLayout",
    "SweepRow",
    "TangleReport",
    "ValidationError",
    "apply_local_unitary",
    "build_canonical_state",
    "build_ghzw",
    "canonical_closed_forms",
    "canonicalize3",
    "coherence_delta",
    "ghz_rotation_profile",
    "ghzw_canonical_params",
    "global_pt",
    "haar_random_pure",
    "kway_pt",
    "negativity_from_pt",
    "negativity_report",
    "one_tangle",
    "outer",
    "pair_pt",
    "parse_state_file",
    "partial_trace",
    "qubit_layout",
    "roof_negativity",
    "sweep_family",
    "tau3_closed_form",
    "tau3_minus_zero",
    "third_qubit_rotation",
    "three_tangle",
    "trace_norm",
    "wootters_tangle",
    "x_parameter",
]
