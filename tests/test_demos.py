"""Each demo runs to its last line against the current API."""
import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# demo -> the start of the last line it prints
LAST_LINES = {
    "demo_gap_probabilities": "n = 128: det =",
    "demo_hard_edge": "  |u_0.3(8.0)| =",
    "demo_monte_carlo": "(the k=0 row estimates",
    "demo_tracy_widom": "median-ish landmarks: F(-1.77; 1) =",
}


@pytest.mark.parametrize("name", sorted(LAST_LINES))
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert out.getvalue().strip().splitlines()[-1].startswith(LAST_LINES[name])
