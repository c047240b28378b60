"""Each demo prints exactly what it printed when its digest was recorded.

The demos are run in-process with ``runpy`` and their stdout is compared
by sha256 against digests recorded from the same code, so a change that
moves any printed number, or any line of a table, fails here.  The
digests hold for the 80-bit x86-64 ``longdouble`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

DIGESTS = {
    "01_hitting_times.py": "dbc643c8a4a828bd6d7ecfcc3f4275c0470763840ef4a8eb7c23df7c22971c8a",
    "02_diagnostics.py": "5d9866ff6216d7d97b22d4e23712c51e3c1b8ce9019be06ca70d7380f6f3fef4",
    "03_historic_averages.py": "45af1fe7f63c173a45d0f02028aee087cbf05f8875fddb9faf1c00797b19a2cc",
    "04_adjusted_times.py": "cf40f85e04483213015c492fe79cf0b87184d09d4a31df994f2e6a5d1d9282d5",
    "05_conjugacy.py": "6eb22e792ad3676cd99cefaecbbf4a536fcef901e896eb7a693dd33893495d55",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_matches_recorded_digest(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert got == DIGESTS[name], f"{name} prints something else"
