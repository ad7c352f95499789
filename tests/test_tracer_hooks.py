"""The benchmark's tracer (perfbench/spans.py) wraps holonsim callables by
name: each module function, each agent kind's step, EventWriter.write and
the rest. A name it wraps that goes missing must fail here, in the test
suite, and not first in a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_tracer_installs_in_a_fresh_interpreter():
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
