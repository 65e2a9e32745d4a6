"""Peak memory follows the chunk, not the trial.

The paper's Table 2 office trials run to half a million packets; the
largest, office5, holds about 530 MB of frames.  Its trace is built one
classifier chunk at a time, so the whole run's resident set stays far
below one trial's frames.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

# Runs the command as its only child and reports that child's peak RSS
# (RUSAGE_CHILDREN), so no earlier child of the test process counts.
_MEASURE = textwrap.dedent("""
    import json, resource, subprocess, sys
    done = subprocess.run(
        [sys.executable, "-m", "repro", *sys.argv[1:]],
        stdout=subprocess.DEVNULL,
    )
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"exit": done.returncode, "peak_mb": peak_kib / 1024}))
""")


@pytest.mark.slow
@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux"
)
def test_full_scale_table2_peaks_under_150_mb():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE, "table2", "--scale", "1.0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["exit"] == 0
    assert seen["peak_mb"] < 150
