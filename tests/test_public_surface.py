"""The package's public names, and every name the benchmark, demos and README use.

The benchmark scripts are not edited together with the package, so a
name pruned from ``bykov`` that one of them still reads would only show
when the benchmark runs; the README's quickstart would only show when a
reader runs it.  This reads the scripts, and the README's ``python``
code blocks, as source text and checks each name they take from the
package against the package itself.  Last, the long-double format the
package reports, and its refusal to import where the format is narrower.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bykov

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = (sorted((ROOT / "benchmarks").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
           + [ROOT / "README.md"])

PUBLIC = [
    "AdjustedTimes", "AverageSeries", "BykovError", "Certificate", "ConjugacyReport",
    "ConstraintViolation", "DegenerateInput", "DiagnosticSeries",
    "HittingSequence", "InsufficientData", "InvalidTimes", "InvariantMismatch",
    "InvariantTuple", "NonConvergent", "Observable", "ParseError",
    "PerturbationSpec", "RecoveredPoint", "SectionPoint", "SystemParams",
    "adjusted_sequence", "birkhoff_average", "corollary_ratios", "derive_constants",
    "estimate_invariants", "generate_hitting_sequence", "historic_certificate",
    "invariant_tuple", "lemma_diagnostics", "matching_params", "perturbation_decay_slope",
    "poincare", "precision_info", "predicted_limits", "psi21", "recover_point",
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


def _source(path: Path) -> str:
    """A script's text, or the ``python`` code blocks of a Markdown file."""
    text = path.read_text()
    if path.suffix != ".md":
        return text
    return "\n".join(re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL))


def test_public_names_are_pinned():
    assert sorted(bykov.__all__) == PUBLIC
    assert all(hasattr(bykov, name) for name in PUBLIC)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_script_uses_only_names_the_package_has(path):
    used = _package_names(_source(path))
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
    # and the README's quickstart is read as code
    assert ("bykov", "verify_conjugacy") in _package_names(_source(ROOT / "README.md"))


def test_the_readme_quickstart_runs_without_a_warning():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-W", "error", "-c", _source(ROOT / "README.md")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "2.99573227" in run.stdout and "6.99004197" in run.stdout
    assert run.stdout.splitlines()[-1] == "True"


def test_precision_info_names_the_long_double_format():
    info = json.loads(json.dumps(bykov.precision_info()))
    assert info == {"longdouble_nmant": 63, "longdouble_eps": 2.0**-63, "numpy": np.__version__}


def test_a_long_double_narrower_than_80_bits_is_refused_at_import():
    # where np.longdouble is float64 (MSVC, Apple arm64) the digests cannot hold
    code = "import numpy; numpy.longdouble = numpy.float64; import bykov"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.rstrip().endswith(
        "ImportError: bykov needs np.longdouble in the x87 80-bit extended format "
        "(63 fraction bits) or wider; here it has 52 fraction bits, the IEEE binary64 "
        "format of float64"
    )
