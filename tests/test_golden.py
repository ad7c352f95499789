"""Golden digests: short cuts of every preset scenario, one long cut of
niche_filling, plus one mixed scenario with all three kinds of agent and
audio logged, the same one without a noise floor, one of scripted sources
only and one whose channel rows interleave, must write byte-identical
artifacts and replay renders to those pinned in golden_digests.json, and
each replay must rebuild its run's occupation files byte for byte. The
mixed scenario's analysis (metrics and each monitor's spectrogram CSV and
PGM, about 1,000 frames each) is pinned too.

A change that moves these bytes on purpose re-pins the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md. Digests depend on the numpy build, so the
file records the numpy version it was made with and the test skips under
another one. It records the BLAS build and the OpenBLAS kernel set numpy
ran on too, and the failure message names both beside the running ones.
"""

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from holonsim.environment import (ReplayError, Scenario, load_run_events,
                                  load_scenario, replay_run, run_scenario)
from holonsim.rundir import RunDir
from holonsim.telemetry import analyze_run

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
GOLDEN = HERE / "golden_digests.json"
CUT_S = 3.0
# The composers' spectral memory carries a small change in what agents hear
# for tens of seconds before it moves an emission, far past CUT_S.
LONG_S = 60.0

# All three kinds at night with audio logged: short recording and capture
# caps let a collector keep a clip and answer a composer tone within the
# cut, so the log holds every kind of audio-carrying event.
MIXED = {
    "name": "golden_mixed",
    "seed": 11,
    "duration_s": 16.0,
    "night_window": [0.0, 1.0],
    "log_audio": True,
    "monitors": [[0.0, 0.0], [3.0, 1.0]],
    "agents": [
        {"kind": "composer", "count": 2, "params": {"slot_s": 1.0}},
        {"kind": "collector", "count": 2, "params": {"record_max_s": 1.5}},
        {"kind": "disruptor", "params": {"capture_max_s": 1.0}},
    ],
    "sources": [
        {"id": "gull", "kind": "chirp_train", "channel": "biophony",
         "position": [2.0, 2.0], "level_dbfs": -24.0, "start_s": 3.3,
         "chirp_s": 0.25, "period_s": 4.1, "count": 3},
        {"id": "hum", "kind": "tone", "channel": "anthrophony",
         "position": [-3.0, 0.0], "level_dbfs": -36.0, "freq_hz": 120.0},
    ],
}

# The mixed scenario without a noise floor: its bytes depend on nothing the
# noise model does, so a change to that model leaves them as they are.
QUIET = dict(MIXED, name="golden_quiet", noise_floor_dbfs=None)

# Scripted sources only: no agents and no monitors leave the occupation
# point as the bus's one listener, whose mixed row no artifact reads.
SOURCES = {
    "name": "golden_sources",
    "seed": 5,
    "duration_s": 3.0,
    "sources": [
        {"id": "hum", "kind": "tone", "channel": "anthrophony",
         "position": [1.0, 0.0], "level_dbfs": -30.0, "freq_hz": 440.0},
        {"id": "wind", "kind": "band_noise", "channel": "geophony",
         "position": [0.0, 2.0], "level_dbfs": -33.0,
         "band_hz": [300.0, 900.0], "start_s": 0.4, "stop_s": 2.2},
        {"id": "gull", "kind": "chirp_train", "channel": "biophony",
         "position": [-2.0, -1.0], "level_dbfs": -24.0, "start_s": 0.7,
         "chirp_s": 0.25, "period_s": 0.9, "count": 2},
    ],
}

# Channel rows that interleave: the anthrophony sub-mix at the occupation
# point reads bus rows 0 and 2 around the biophony chirps on row 1, so
# its rows are gathered, not read as one contiguous block.
INTERLEAVED = {
    "name": "golden_channels",
    "seed": 23,
    "duration_s": 3.0,
    "monitors": [[1.0, -1.0]],
    "agents": [{"kind": "composer"}, {"kind": "collector"}],
    "sources": [
        {"id": "hum", "kind": "tone", "channel": "anthrophony",
         "position": [1.5, 0.5], "level_dbfs": -30.0, "freq_hz": 310.0},
        {"id": "gull", "kind": "chirp_train", "channel": "biophony",
         "position": [-1.0, 2.0], "level_dbfs": -24.0, "start_s": 0.5,
         "chirp_s": 0.25, "period_s": 0.8, "count": 3},
        {"id": "engine", "kind": "band_noise", "channel": "anthrophony",
         "position": [0.0, -2.5], "level_dbfs": -33.0,
         "band_hz": [150.0, 600.0], "start_s": 0.3, "stop_s": 2.4},
    ],
}

REQUIRED_EVENTS = {"emission_start", "record_start", "capture_start",
                   "disrupt_start", "sample_decision", "playback_start"}


def cases(work: Path) -> dict:
    """Scenario name -> resolved Scenario, presets cut to CUT_S and
    golden_long to LONG_S."""
    out = {}
    for path in sorted(SCENARIOS.glob("*.yaml")):
        scn = load_scenario(path)
        scn.duration_s = min(scn.duration_s, CUT_S)
        out[path.stem] = scn
    scn = load_scenario(SCENARIOS / "niche_filling.yaml")
    scn.duration_s = LONG_S
    out["golden_long"] = scn
    for raw in (MIXED, QUIET, SOURCES, INTERLEAVED):
        path = work / f"{raw['name']}.yaml"
        path.write_text(yaml.safe_dump(raw))
        out[raw["name"]] = load_scenario(path)
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(scn: Scenario, run_dir: Path) -> tuple:
    """(artifact digests, event names) of one run and its replay."""
    run_scenario(scn, run_dir)
    out = {name: sha256(run_dir / name)
           for name in ["events.jsonl", "occupation.npy"]
           + [f"monitor_{m:02d}.wav" for m in range(len(scn.monitors))]}
    try:
        replay_run(run_dir)
    except ReplayError:
        if scn.log_audio:
            raise
    else:
        for m in range(len(scn.monitors)):
            name = f"replay/monitor_{m:02d}.wav"
            out[name] = sha256(run_dir / name)
        for name in ["occupation.npy", "occupation.json"]:
            assert sha256(run_dir / "replay" / name) == \
                sha256(run_dir / name), name
    if scn.name == MIXED["name"]:
        analyze_run(run_dir)
        for name in ["metrics.json", "metrics.csv"] + [
                f"monitor_{m:02d}_spectrogram.{ext}"
                for m in range(len(scn.monitors)) for ext in ("csv", "pgm")]:
            out[name] = sha256(run_dir / name)
    events = {e["event"] for e in load_run_events(RunDir(run_dir))}
    return out, events


def blas() -> dict:
    """Name and version of the BLAS numpy was built against."""
    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"name": info["name"], "version": info["version"]}


def blas_core() -> str | None:
    """The OpenBLAS kernel set numpy runs on here (e.g. SkylakeX), or None
    when numpy does not bundle scipy-openblas."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def test_runs_match_pinned_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests pinned with numpy {golden['numpy']}, "
                    f"running {np.__version__}")
    build = (f"BLAS pinned {golden['blas']} on core "
             f"{golden['blas_core']}, running {blas()} on core "
             f"{blas_core()}")
    seen = set()
    got = {}
    for name, scn in cases(tmp_path).items():
        got[name], events = digests(scn, tmp_path / name)
        seen |= events
    assert REQUIRED_EVENTS <= seen, sorted(REQUIRED_EVENTS - seen)
    assert sorted(got) == sorted(golden["runs"])
    for name in got:
        assert got[name] == golden["runs"][name], f"{name}; {build}"


def pin(work: Path):
    runs = {name: digests(scn, work / name)[0]
            for name, scn in cases(work).items()}
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "blas": blas(),
                                  "blas_core": blas_core(), "cut_s": CUT_S,
                                  "runs": runs},
                                 indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as work:
        pin(Path(work))
    print(f"pinned {GOLDEN}", file=sys.stderr)
