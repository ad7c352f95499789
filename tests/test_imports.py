"""holonsim starts without the scipy.signal and scipy.fft packages.

scipy.signal's init imports scipy.stats, interpolate and optimize, and
scipy.fft's imports scipy.special, an array-API layer and numpy.f2py;
together they took most of `import holonsim.cli`. The program loads the
two compiled modules it calls, lfilter's kernel and pocketfft's
transforms, from their files (see audio_core) and designs its band-pass
itself, so neither a module under src/holonsim nor a run, an analysis or
a feature print may bring a scipy package back.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import yaml

SRC = Path(__file__).resolve().parent.parent / "src"

RUN_AND_REPORT = """
import sys
import holonsim.cli
from holonsim.environment import load_scenario, run_scenario
run_scenario(load_scenario(sys.argv[1]), sys.argv[2])
print("scipy.signal" in sys.modules)
"""


def test_a_band_noise_run_never_imports_scipy_signal(tmp_path):
    scenario = tmp_path / "scn.yaml"
    scenario.write_text(yaml.safe_dump({
        "seed": 3, "duration_s": 0.1,
        "sources": [{"kind": "band_noise", "position": [0.0, 1.0],
                     "band_hz": [300.0, 900.0]}],
        "agents": [{"kind": "composer"}]}))
    done = subprocess.run(
        [sys.executable, "-c", RUN_AND_REPORT, str(scenario),
         str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
    assert (tmp_path / "run" / "manifest.json").is_file()


RUN_ANALYZE_AND_PRINT = """
import sys
from pathlib import Path
import holonsim.cli
from holonsim.environment import load_scenario, run_scenario
from holonsim.telemetry import analyze_run
run_scenario(load_scenario(sys.argv[1]), sys.argv[2])
analyze_run(sys.argv[2])
wav = sorted(Path(sys.argv[2]).glob("*.wav"))[0]
assert holonsim.cli.main(["features", str(wav)]) == 0
print(" ".join(sorted(n for n in sys.modules if n.startswith("scipy"))))
print("numpy.f2py" in sys.modules)
"""


def test_a_run_analysis_and_feature_print_load_only_the_two_kernels(
        tmp_path):
    scenario = tmp_path / "scn.yaml"
    scenario.write_text(yaml.safe_dump({
        "seed": 5, "duration_s": 0.5, "monitors": [[0.0, 0.0]],
        "sources": [{"kind": "band_noise", "position": [0.0, 1.0],
                     "band_hz": [300.0, 900.0]}],
        "agents": [{"kind": "composer"}, {"kind": "collector"}]}))
    done = subprocess.run(
        [sys.executable, "-c", RUN_ANALYZE_AND_PRINT, str(scenario),
         str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names, f2py = done.stdout.splitlines()[-2:]
    assert names.split() == ["scipy.fft._pocketfft.pypocketfft",
                             "scipy.signal._sigtools"]
    assert f2py == "False"
    assert (tmp_path / "run" / "metrics.json").is_file()


def imported_modules(tree: ast.AST) -> set:
    """Every module an import statement in tree names, with each
    `from package import name` also as package.name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def test_no_module_imports_scipy_signal():
    for path in sorted((SRC / "holonsim").glob("*.py")):
        names = imported_modules(ast.parse(path.read_text()))
        assert not {n for n in names if n == "scipy.signal"
                    or n.startswith("scipy.signal.")}, path.name


def test_no_module_imports_any_scipy_module():
    for path in sorted((SRC / "holonsim").glob("*.py")):
        names = imported_modules(ast.parse(path.read_text()))
        assert not {n for n in names if n == "scipy"
                    or n.startswith("scipy.")}, path.name


def test_every_import_form_is_seen():
    tree = ast.parse("import scipy.signal\n"
                     "from scipy import signal\n"
                     "from scipy.signal import lfilter\n"
                     "from . import params\n")
    assert imported_modules(tree) == {"scipy.signal", "scipy",
                                      "scipy.signal.lfilter"}
