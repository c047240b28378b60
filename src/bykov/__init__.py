"""Piecewise-linear heteroclinic-cycle model between two saddle-foci.

The package builds exact section-to-section hitting times for the flow,
diagnoses their asymptotic identities, certifies historic (two-limit)
behavior of time averages, constructs the adjusted time sequence, and
replays it on a second system to test topological conjugacy.
"""

from __future__ import annotations

from .adjusted import (
    AdjustedTimes,
    adjusted_sequence,
    backward_T0_family,
    shift_invariance_check,
)
from .birkhoff import (
    AverageSeries,
    Certificate,
    Observable,
    birkhoff_average,
    historic_certificate,
    observable_value,
    predicted_limits,
)
from .conjugacy import ConjugacyReport, RecoveredPoint, map_H, recover_point, verify_conjugacy
from .diagnostics import (
    DiagnosticSeries,
    corollary_ratios,
    estimate_invariants,
    lemma_diagnostics,
    perturbation_decay_slope,
    richardson_tail,
)
from .errors import (
    BykovError,
    ConstraintViolation,
    DegenerateInput,
    InsufficientData,
    InvalidTimes,
    InvariantMismatch,
    NonConvergent,
    OutOfSojourn,
    ParseError,
)
from .flow import CHARTS, FlowState, SectionPoint, flow_at, phi1, phi2, poincare, psi21, section_state
from .hitting import HittingSequence, generate_hitting_sequence, sojourn_fractions
from .params import (
    DerivedConstants,
    InvariantTuple,
    PerturbationSpec,
    SystemParams,
    derive_constants,
    invariant_tuple,
    matching_params,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedTimes",
    "AverageSeries",
    "BykovError",
    "CHARTS",
    "Certificate",
    "ConjugacyReport",
    "ConstraintViolation",
    "DegenerateInput",
    "DerivedConstants",
    "DiagnosticSeries",
    "FlowState",
    "HittingSequence",
    "InsufficientData",
    "InvalidTimes",
    "InvariantMismatch",
    "InvariantTuple",
    "NonConvergent",
    "Observable",
    "OutOfSojourn",
    "ParseError",
    "PerturbationSpec",
    "RecoveredPoint",
    "SectionPoint",
    "SystemParams",
    "adjusted_sequence",
    "backward_T0_family",
    "birkhoff_average",
    "corollary_ratios",
    "derive_constants",
    "estimate_invariants",
    "flow_at",
    "generate_hitting_sequence",
    "historic_certificate",
    "invariant_tuple",
    "lemma_diagnostics",
    "map_H",
    "matching_params",
    "observable_value",
    "perturbation_decay_slope",
    "phi1",
    "phi2",
    "poincare",
    "predicted_limits",
    "psi21",
    "recover_point",
    "richardson_tail",
    "section_state",
    "shift_invariance_check",
    "sojourn_fractions",
    "validate_params",
    "verify_conjugacy",
]
