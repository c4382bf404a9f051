"""``tools/scale_probe.py`` on the smallest grid, m = 12."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
STAGES = ["read", "transversal", "scale", "blocks", "patterns", "factor", "factor_v", "solve",
          "metrics"]
FIELDS = (["m", "n", "status", "its", "rho", "v_levels", "v0_levels", "candidate_mb"]
          + [f"{stage}_s" for stage in STAGES] + ["peak_rss_mb"])
# what varies from run to run on one machine
MEASURED = {"candidate_mb", "peak_rss_mb"} | {f"{stage}_s" for stage in STAGES}


def test_one_line_per_size_that_two_runs_repeat():
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    done = subprocess.run([sys.executable, str(REPO / "tools" / "scale_probe.py"), "--sizes", "12", "12"],
                          cwd=REPO, env=env, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    first, second = (dict(field.split("=") for field in line.split()) for line in lines)
    assert list(first) == FIELDS
    assert first["m"] == "12" and first["n"] == "144" and first["status"] == "converged"
    # block-upper V and V0 on a 12 x 12 grid couple their blocks
    assert int(first["v_levels"]) > 1 and int(first["v0_levels"]) > 1
    assert all(float(first[name]) >= 0 for name in MEASURED)
    assert {k: v for k, v in first.items() if k not in MEASURED} == {
        k: v for k, v in second.items() if k not in MEASURED}
