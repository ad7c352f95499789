"""Tests of the benchmark itself: seeded inputs, the tracer's bookkeeping,
and that every output check fails on a damaged output.

    PYTHONPATH=src python -m pytest -q perfbench

One traced three-second `dock` session is run once and shared; each
mutation test damages a copy of its run directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads

SEED = 5


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    work = tmp_path_factory.mktemp("dock")
    scenario_path = workloads.write_inputs("dock", SEED, work / "inputs",
                                           duration_s=3.0)
    result = run.run_session(work, scenario_path, 0, trace=True)
    scenario = json.loads(scenario_path.read_text())
    return result, work / "session0" / "run", scenario, scenario_path


@pytest.fixture
def run_copy(session, tmp_path):
    _, run_dir, scenario, _ = session
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    return copy, scenario


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.GENERATORS:
        first = workloads.write_inputs(workload, 7, tmp_path / "a").parent
        again = workloads.write_inputs(workload, 7, tmp_path / "b").parent
        other = workloads.write_inputs(workload, 8, tmp_path / "c").parent
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (again / name).read_bytes()
        assert any((first / name).read_bytes() != (other / name).read_bytes()
                   for name in names)
        shutil.rmtree(tmp_path / "a")
        shutil.rmtree(tmp_path / "b")
        shutil.rmtree(tmp_path / "c")


def test_runs_never_share_a_scenario_seed():
    for workload in workloads.GENERATORS:
        seeds = [s for run_seed in range(50)
                 for s in workloads.scenario_seeds(workload, run_seed)]
        assert len(seeds) == len(set(seeds))
    assert workloads.scenario_seeds("dock", 4) == [12, 13, 14]
    assert workloads.scenario_seeds("roster", 4) == [4]


def test_pristine_session_passes_every_check(session):
    result, run_dir, scenario, scenario_path = session
    checked = run.check_session(result, run_dir, scenario, scenario_path,
                                SEED, repeats=1)
    assert checked == [(op, []) for op in run.session_plan(1)]
    events = checks.load_events(run_dir)
    assert any(r["event"] == "emission_start" for r in events)


def test_layer_self_times_add_up_to_the_ticks(session):
    result, _, scenario, _ = session
    n_ticks = checks.expected_n_ticks(scenario["duration_s"])
    assert len(result["trace_tick_ns"]) == n_ticks
    assert result["trace_in_tick_self_ns"] == sum(result["trace_tick_ns"])
    layers = result["trace"]
    assert layers["agents.composer.steps"] == 5 * n_ticks
    assert layers["environment.source_hops"] == 5 * n_ticks
    assert layers["features.onset_updates"] == 5 * n_ticks


def test_flipped_wav_byte_is_caught(run_copy):
    run_dir, scenario = run_copy
    path = run_dir / "monitor_01.wav"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    errors = checks.check_run(run_dir, scenario, checks.load_events(run_dir))
    assert any("monitor_01.wav: sha256" in e for e in errors)


def test_out_of_range_sample_is_caught(run_copy):
    run_dir, _ = run_copy
    path = run_dir / "monitor_00.wav"
    data = bytearray(path.read_bytes())
    data[-4:] = np.array([1.5], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))
    n_ticks = len(data[44:]) // 4 // checks.FRAME_HOP
    assert any("outside [-1, 1]" in e for e in checks.check_wav(path, n_ticks))


def test_scaled_occupation_is_caught(run_copy):
    run_dir, scenario = run_copy
    path = run_dir / "occupation.npy"
    np.save(path, np.load(path) * 1.1)
    n_ticks = checks.expected_n_ticks(scenario["duration_s"])
    errors = checks.check_occupation(run_dir, scenario, n_ticks)
    assert errors and "geophony energy" in errors[0]


def test_altered_freq_is_caught(run_copy):
    run_dir, scenario = run_copy
    events = checks.load_events(run_dir)
    config_sha = checks.sha256(run_dir / "scenario_resolved.json")
    assert checks.check_events(events, scenario, config_sha) == []
    note = next(r for r in events if r["event"] == "emission_start")
    note["payload"]["freq_hz"] += 1e-6
    errors = checks.check_events(events, scenario, config_sha)
    assert any("is not the centre of band" in e for e in errors)


def test_log_damage_is_caught(run_copy):
    run_dir, scenario = run_copy
    events = checks.load_events(run_dir)
    config_sha = checks.sha256(run_dir / "scenario_resolved.json")
    assert checks.check_events(events, scenario, "0" * 64)
    assert checks.check_events(events[:-1], scenario, config_sha)
    summaries = [r for r in events if r["event"] != "summary"]
    assert checks.check_events(summaries, scenario, config_sha)
    events[1]["tick"] = 10 ** 6
    assert any("decrease" in e
               for e in checks.check_events(events, scenario, config_sha))


def test_stale_render_is_caught(run_copy):
    run_dir, scenario = run_copy
    shutil.copy(run_dir / "monitor_00.wav", run_dir / "monitor_03.wav")
    errors = checks.check_run(run_dir, scenario, checks.load_events(run_dir))
    assert any("on disk" in e for e in errors)


def test_spectrogram_damage_is_caught(run_copy, session):
    run_dir, scenario = run_copy
    events = checks.load_events(run_dir)
    assert checks.check_analysis(run_dir, scenario, events, SEED) == []
    csv = run_dir / "monitor_02_spectrogram.csv"
    lines = csv.read_text().splitlines(keepends=True)
    last = lines[-1].split(",")
    last[100] = repr(float(last[100]) * 1.001 + 1e-9)
    lines[-1] = ",".join(last)
    csv.write_text("".join(lines))
    errors = checks.check_analysis(run_dir, scenario, events, SEED)
    assert any("is not the rFFT of its frame" in e for e in errors)
    csv.write_text("".join(lines[:-1]))
    errors = checks.check_analysis(run_dir, scenario, events, SEED)
    assert any("frames" in e for e in errors)


def test_wrong_niche_spread_is_caught(run_copy):
    run_dir, scenario = run_copy
    path = run_dir / "metrics.json"
    metrics = json.loads(path.read_text())
    metrics["niche_spread"] += 1
    path.write_text(json.dumps(metrics))
    errors = checks.check_analysis(run_dir, scenario,
                                   checks.load_events(run_dir), SEED)
    assert any("niche_spread" in e for e in errors)


def test_replay_mismatch_is_caught(run_copy):
    run_dir, scenario = run_copy
    ok = {"ok": True}
    assert checks.check_replay(run_dir, scenario, ok) == []
    path = run_dir / "replay" / "monitor_00.wav"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x80
    path.write_bytes(bytes(data))
    assert checks.check_replay(run_dir, scenario, ok)
    no_audio = dict(scenario, log_audio=False)
    assert checks.check_replay(run_dir, no_audio, ok)
    refused = {"ok": False, "error": "ReplayError: log has pcm_omitted"}
    assert checks.check_replay(run_dir, no_audio, refused) == []


def test_benchmark_alone_exits_nonzero(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dock", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
