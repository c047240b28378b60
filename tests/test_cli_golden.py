"""Byte-for-byte CLI output on the README config and three variants of it.

Every subcommand that writes a file is run on the README config, a
perturbed copy of it, a smooth-observable copy and a perturbed
smooth-observable copy, and each output file's sha256 is compared
against a recorded digest.  The README digests are the ones the
benchmark checks (``benchmarks/cli_digests.json``); the other three were
recorded from the same code, the smooth ones while it still integrated
node by node with scalar ``flow_at`` calls.  All of them hold for the
80-bit x86-64 ``longdouble`` only.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
from pathlib import Path

import pytest

from bykov.cli import main

README_CONFIG = {
    "params": {"C1": 2, "E1": 1, "omega1": 1, "C2": 3, "E2": 1.5, "omega2": 2, "a": 0.5},
    "params_g": {"C1": 4, "E1": 2, "omega1": 2.3333333333333335,
                 "C2": 6, "E2": 3, "omega2": 1, "a": 0.25},
    "seed": {"theta0": 1.0, "z0": 0.1},
    "n_pairs": 12,
}
PERTURBED_CONFIG = copy.deepcopy(README_CONFIG)
PERTURBED_CONFIG["params"]["perturbation"] = {"c1": 0.1, "c2": 0.1, "eps": 0.5}
SMOOTH_CONFIG = dict(
    README_CONFIG, observable={"kind": "smooth", "g_sigma1": 0.0, "g_sigma2": 1.0, "m": 2}
)
PERTURBED_SMOOTH_CONFIG = dict(PERTURBED_CONFIG, observable=SMOOTH_CONFIG["observable"])

OUTPUT_OF = {
    "simulate": "hitting.csv",
    "diagnostics": "diagnostics.csv",
    "birkhoff": "birkhoff.csv",
    "adjusted": "adjusted.csv",
    "conjugacy": "conjugacy.json",
}

README_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "benchmarks" / "cli_digests.json").read_text()
)
PERTURBED_DIGESTS = {
    "hitting.csv": "e0f580c1e87f3b37ed50a63d6982fa6ce7877a15498b72d6bacf68057de6cff2",
    "diagnostics.csv": "1937cf71ba41444beb47e6c4a305a624551e87a1746380c731338b9d8a2f1ef7",
    "birkhoff.csv": "8b1e4a90afb77c26fbaa31723b7f0834bed752f997024f2608dbce814be626d3",
    "adjusted.csv": "741442bc5a05f9e27ee8030aa960a614c48f97b4b19117d05f1f862b3973b04d",
    "conjugacy.json": "9955882645a9f53347a1a74ccfec78c908e32c11ef279ff40cdc9587cdd14dec",
}
# the observable only enters birkhoff.csv; every other file is the README one
SMOOTH_DIGESTS = dict(
    README_DIGESTS,
    **{"birkhoff.csv": "04e53ff6cfbb41b01e9e2efa3479359411820658c6981596a93073b89b61d691"},
)
PERTURBED_SMOOTH_DIGESTS = dict(
    PERTURBED_DIGESTS,
    **{"birkhoff.csv": "a6d9c3419edc84134fbc9258f872ac90be565e934e0f6ff5e67986d842927e5c"},
)

@pytest.mark.parametrize(
    "config, digests",
    [
        (README_CONFIG, README_DIGESTS),
        (PERTURBED_CONFIG, PERTURBED_DIGESTS),
        (SMOOTH_CONFIG, SMOOTH_DIGESTS),
        (PERTURBED_SMOOTH_CONFIG, PERTURBED_SMOOTH_DIGESTS),
    ],
    ids=["readme", "perturbed", "smooth", "perturbed_smooth"],
)
def test_cli_bytes_match_recorded_digests(tmp_path, config, digests):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    for sub, name in OUTPUT_OF.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([sub, "--config", str(cfg), "--out", str(out)])
        assert code == 0, sub
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digests[name], f"{name} changed"
