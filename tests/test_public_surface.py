"""The package's public names, and every name the benchmark and demos use.

The benchmark scripts are not edited together with the package, so a
name pruned from ``bykov`` that one of them still reads would only show
when the benchmark runs.  This reads the scripts as source text and
checks each name they take from the package against the package itself.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import bykov

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "benchmarks").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))

PUBLIC = [
    "AdjustedTimes", "AverageSeries", "BykovError", "Certificate", "ConjugacyReport",
    "ConstraintViolation", "DegenerateInput", "DerivedConstants", "DiagnosticSeries",
    "HittingSequence", "InsufficientData", "InvalidTimes", "InvariantMismatch",
    "InvariantTuple", "NonConvergent", "Observable", "OutOfSojourn", "ParseError",
    "PerturbationSpec", "RecoveredPoint", "SectionPoint", "SystemParams",
    "adjusted_sequence", "birkhoff_average", "corollary_ratios", "derive_constants",
    "estimate_invariants", "generate_hitting_sequence", "historic_certificate",
    "invariant_tuple", "lemma_diagnostics", "matching_params", "perturbation_decay_slope",
    "phi1", "phi2", "poincare", "predicted_limits", "psi21", "recover_point",
    "shift_invariance_check", "sojourn_fractions", "validate_params", "verify_conjugacy",
]


def _package_names(source: str) -> list[tuple[str, str]]:
    """``(module, name)`` for each name the source takes from ``bykov``.

    Covers ``from bykov[.module] import name`` and ``alias.name`` where
    ``alias`` is bound by ``import bykov [as alias]``.
    """
    tree = ast.parse(source)
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names if a.name == "bykov"
    }
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bykov":
            used += [(node.module, a.name) for a in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            used.append(("bykov", node.attr))
    return used


def test_public_names_are_pinned():
    assert sorted(bykov.__all__) == PUBLIC
    assert all(hasattr(bykov, name) for name in PUBLIC)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_uses_only_names_the_package_has(path):
    used = _package_names(path.read_text())
    missing = [
        f"{module}.{name}" for module, name in used
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} uses names bykov lacks: {missing}"


def test_the_benchmark_reads_the_package():
    # the check above is not vacuous: the workloads call into bykov by name
    used = _package_names((ROOT / "benchmarks" / "workloads.py").read_text())
    assert ("bykov", "birkhoff_average") in used
    assert ("bykov.acceptance", "ideal_closed_form_times") in used
