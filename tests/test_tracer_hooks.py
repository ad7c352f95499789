"""The benchmark's tracer (perfbench/spans.py) wraps holonsim callables by
name: each module function, each agent kind's step, EventWriter.write and
the rest. A name it wraps that goes missing must fail here, in the test
suite, and not first in a benchmark run. So must a name that is still
bound but that the program no longer calls through the wrapped module,
which would leave a layer of the benchmark silently at zero."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


def test_the_tracer_installs_in_a_fresh_interpreter():
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def traced_session(tmp_path, scenario_body: dict) -> dict:
    """Run perfbench/session.py with trace on over one scenario, in a fresh
    interpreter; returns its result."""
    scenario = tmp_path / "scn.yaml"
    scenario.write_text(yaml.safe_dump(scenario_body))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "src": str(ROOT / "src"), "scenario": str(scenario),
        "run_dir": str(tmp_path / "run"), "trace": True,
        "setup_only": False, "repeats": 1,
        "result": str(tmp_path / "result.json")}))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "session.py"), str(spec),
         str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert [(c["op"], c["ok"]) for c in result["calls"]] == [
        ("load_scenario", True), ("run_scenario", True),
        ("analyze_run", True), ("replay_run", True)]
    return result


def test_a_traced_session_times_the_run_directory_layers(tmp_path):
    layers = traced_session(tmp_path, {
        "name": "traced", "seed": 4, "duration_s": 2.0, "log_audio": True,
        "monitors": [[1.0, 0.0]],
        "agents": [{"kind": "composer", "position": [0.0, 0.0],
                    "params": {"slot_s": 0.5},
                    "energy": {"liveliness_per_s": 20.0}}]})["trace"]
    assert layers["agents.emissions"] > 0
    # its composer sings and its run is replayed, so notes are synthesized
    for layer in ("environment.replay_load_ms", "telemetry.load_events_ms",
                  "audio_core.write_wav_ms", "environment.finalize_ms",
                  "environment.occupation_ms", "agents.hearing_ms",
                  "agents.synth_tone_ms"):
        assert layers[layer] > 0, layer


def test_a_traced_session_times_the_recordings(tmp_path):
    # a chirp sets off the disruptor, whose capture closes within the run
    layers = traced_session(tmp_path, {
        "name": "recorded", "seed": 4, "duration_s": 2.0, "log_audio": True,
        "monitors": [[1.0, 0.0]],
        "agents": [{"kind": "disruptor", "position": [0.0, 0.0],
                    "params": {"capture_max_s": 0.2}}],
        "sources": [{"kind": "chirp_train", "channel": "biophony",
                     "position": [1.0, 0.0], "level_dbfs": -15.0,
                     "start_s": 0.5, "chirp_s": 0.3, "period_s": 1.0,
                     "count": 1}]})["trace"]
    assert layers["features.record_feed_ms"] > 0
    assert layers["features.recordings"] >= 1
    assert layers["dsp_transforms.transform_ms"] > 0
    # the train is asked only for the hops from start_s on: ticks 31 to 124
    assert layers["environment.source_hops"] == 94
    assert layers["environment.sources_ms"] > 0
