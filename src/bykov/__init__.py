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
    shift_invariance_check,
)
from .birkhoff import (
    AverageSeries,
    Certificate,
    Observable,
    birkhoff_average,
    historic_certificate,
    predicted_limits,
)
from .conjugacy import ConjugacyReport, RecoveredPoint, recover_point, verify_conjugacy
from .diagnostics import (
    DiagnosticSeries,
    corollary_ratios,
    estimate_invariants,
    lemma_diagnostics,
    perturbation_decay_slope,
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
from .flow import SectionPoint, phi1, phi2, poincare, psi21
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
    "Certificate",
    "ConjugacyReport",
    "ConstraintViolation",
    "DegenerateInput",
    "DerivedConstants",
    "DiagnosticSeries",
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
    "birkhoff_average",
    "corollary_ratios",
    "derive_constants",
    "estimate_invariants",
    "generate_hitting_sequence",
    "historic_certificate",
    "invariant_tuple",
    "lemma_diagnostics",
    "matching_params",
    "perturbation_decay_slope",
    "phi1",
    "phi2",
    "poincare",
    "predicted_limits",
    "psi21",
    "recover_point",
    "shift_invariance_check",
    "sojourn_fractions",
    "validate_params",
    "verify_conjugacy",
]
