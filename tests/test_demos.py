"""The ``demos/`` walkthroughs that README points to: each runs as a script
and prints the line it is there to show."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name, line", [
    ("envelope_vs_log_law.py",
     "effective log law fitted to the envelope: kappa = 0.4113, C = 5.3694"),
    ("synthetic_round_trip.py",
     "generated 44 samples, 40 kept after plateau removal"),
    ("reference_table_check.py", "50 rows recomputed"),
])
def test_demo_prints(name, line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert line in out.getvalue().splitlines()
