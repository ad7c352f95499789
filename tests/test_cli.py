"""Exit codes, flag handling, and output of the command line tool."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import holonsim
from holonsim import agents
from holonsim.audio_core import write_wav
from holonsim.cli import main, parse_duration
from holonsim.environment import ScenarioError, load_run_events
from holonsim.rundir import RunDir

from synth import silence, sine


def write_scenario(tmp_path, body, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(body))
    return str(path)


def composer_scenario(tmp_path, **overrides):
    body = {"seed": 5, "duration_s": 8.0, "monitors": [[1.0, 0.0]],
            "agents": [{"kind": "composer", "position": [0.0, 0.0]}]}
    body.update(overrides)
    return write_scenario(tmp_path, body)


# --- duration parsing ---------------------------------------------------------

def test_parse_duration_forms():
    assert parse_duration("90") == 90.0
    assert parse_duration("90s") == 90.0
    assert parse_duration("2m") == 120.0
    assert parse_duration(" 1.5M ") == 90.0


@pytest.mark.parametrize("bad", ["abc", "-4", "0", "4h", "inf", "nan",
                                 "1e400"])
def test_parse_duration_rejects(bad):
    with pytest.raises(ScenarioError):
        parse_duration(bad)


def test_run_refuses_a_duration_that_is_not_finite(tmp_path, capsys):
    scn = composer_scenario(tmp_path)
    assert main(["run", "--scenario", scn, "--duration", "inf",
                 "--out", str(tmp_path / "out")]) == 2
    assert "duration must be a positive, finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # refused at load


def test_run_refuses_a_duration_of_infinitely_many_samples(tmp_path, capsys):
    # finite seconds, but more samples than a float counts
    scn = composer_scenario(tmp_path)
    assert main(["run", "--scenario", scn, "--duration", "1e305",
                 "--out", str(tmp_path / "out")]) == 2
    assert "duration must be a positive, finite number of seconds with a " \
        "finite count of samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", [None, "33554.432"])
def test_run_refuses_renders_that_would_not_fit_a_wav(tmp_path, capsys,
                                                      override):
    # at load, or after --duration lengthens a scenario that loaded
    scn = composer_scenario(tmp_path, duration_s=(
        40000.0 if override is None else 8.0))
    flags = [] if override is None else ["--duration", override]
    assert main(["run", "--scenario", scn, *flags,
                 "--out", str(tmp_path / "out")]) == 2
    assert ("duration_s must give at most 2097151 ticks"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


# --- run -----------------------------------------------------------------------

def test_run_exits_zero_and_writes_artifacts(tmp_path, capsys):
    scn = composer_scenario(tmp_path)
    rc = main(["run", "--scenario", scn, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    assert "run complete" in capsys.readouterr().out


def test_run_same_seed_gives_identical_manifests(tmp_path):
    scn = composer_scenario(tmp_path)
    assert main(["run", "--scenario", scn, "--seed", "7",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--scenario", scn, "--seed", "7",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "manifest.json").read_bytes()
    b = (tmp_path / "b" / "manifest.json").read_bytes()
    assert a == b


def test_run_refuses_overwrite_without_force(tmp_path, capsys):
    scn = composer_scenario(tmp_path, duration_s=1.0)
    out = str(tmp_path / "out")
    assert main(["run", "--scenario", scn, "--out", out]) == 0
    assert main(["run", "--scenario", scn, "--out", out]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["run", "--scenario", scn, "--out", out, "--force"]) == 0


@pytest.mark.parametrize("files", [
    {"todo.txt": "keep me"},
    # a project whose manifest.json is not a run's
    {"manifest.json": '{"name": "app", "version": 3}',
     "main.py": "print('keep me')"}])
def test_run_refuses_a_directory_that_holds_no_run(tmp_path, capsys, files):
    scn = composer_scenario(tmp_path, duration_s=1.0)
    out = tmp_path / "notes"
    out.mkdir()
    for name, text in files.items():
        (out / name).write_text(text)
    for force in ([], ["--force"]):
        assert main(["run", "--scenario", scn, "--out", str(out)]
                    + force) == 2
        assert str(out) in capsys.readouterr().err
    assert {p.name: p.read_text() for p in out.iterdir()} == files


def test_failed_run_leaves_no_output_directory(tmp_path, monkeypatch,
                                               capsys):
    step = agents.ComposerAgent.step

    def failing_step(self, hearing, clock):
        if clock.tick == 5:
            raise RuntimeError("step fault")
        return step(self, hearing, clock)

    monkeypatch.setattr(agents.ComposerAgent, "step", failing_step)
    scn = composer_scenario(tmp_path, duration_s=1.0)
    assert main(["run", "--scenario", scn, "--out",
                 str(tmp_path / "out" / "run")]) == 3
    assert "step fault" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rel", ["file", "file/sub"])
def test_run_out_that_cannot_be_a_directory_exits_two(tmp_path, capsys, rel):
    scn = composer_scenario(tmp_path, duration_s=1.0)
    (tmp_path / "file").write_text("not a directory")
    out = tmp_path / rel
    assert main(["run", "--scenario", scn, "--out", str(out)]) == 2
    assert f"cannot create output directory {out}" in capsys.readouterr().err


def test_run_missing_wav_names_the_path(tmp_path, capsys):
    scn = write_scenario(tmp_path, {
        "seed": 1, "duration_s": 2.0,
        "sources": [{"kind": "wav", "path": "birdcall.wav",
                     "position": [0, 0], "channel": "biophony"}]})
    rc = main(["run", "--scenario", scn, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "birdcall.wav" in capsys.readouterr().err


def test_run_builds_only_the_chirps_that_can_sound(tmp_path):
    # four calls start within the one second; phases for all 10**12 would
    # take 931 TiB
    def run(count):
        scn = write_scenario(tmp_path, {
            "seed": 3, "duration_s": 1.0, "monitors": [[1.0, 0.0]],
            "sources": [{"kind": "chirp_train", "position": [0.0, 0.0],
                         "channel": "biophony", "start_s": 0.1,
                         "chirp_s": 0.1, "period_s": 0.25,
                         "count": count}]}, name=f"{count}.yaml")
        out = tmp_path / str(count)
        assert main(["run", "--scenario", scn, "--out", str(out)]) == 0
        return [(out / name).read_bytes()
                for name in ("monitor_00.wav", "occupation.npy")]

    assert run(10 ** 12) == run(4)


def test_run_duration_override_on_empty_roster(tmp_path):
    scn = write_scenario(tmp_path, {"seed": 2, "duration_s": 600.0})
    out = tmp_path / "out"
    rc = main(["run", "--scenario", scn, "--duration", "10s",
               "--out", str(out)])
    assert rc == 0
    events = load_run_events(RunDir(out))
    assert {e["kind"] for e in events} == {"scheduler", "clock"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_ticks"] == 625  # 10 s of 16 ms ticks


def test_run_defaults_out_to_runs_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scn = write_scenario(tmp_path, {"seed": 3, "duration_s": 1.0,
                                    "name": "tiny"})
    assert main(["run", "--scenario", scn]) == 0
    assert (tmp_path / "runs" / "tiny" / "manifest.json").exists()


def test_run_bad_scenario_key_exits_two(tmp_path, capsys):
    scn = write_scenario(tmp_path, {"seed": 1, "duration_s": 1.0,
                                    "gravity": 9.8})
    assert main(["run", "--scenario", scn,
                 "--out", str(tmp_path / "out")]) == 2
    assert "gravity" in capsys.readouterr().err


def test_run_negative_seed_override_exits_two(tmp_path, capsys):
    scn = write_scenario(tmp_path, {"seed": 1, "duration_s": 1.0})
    assert main(["run", "--scenario", scn, "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == 2
    assert "--seed" in capsys.readouterr().err


def test_run_bad_agent_param_exits_two(tmp_path, capsys):
    scn = write_scenario(tmp_path, {
        "seed": 1, "duration_s": 1.0,
        "agents": [{"kind": "composer", "params": {"volume": 11}}]})
    assert main(["run", "--scenario", scn,
                 "--out", str(tmp_path / "out")]) == 2
    assert ("agents[0]: params: unknown key 'volume'"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()  # refused at load


# --- features --------------------------------------------------------------------

def test_features_of_steady_sine(tmp_path, capsys):
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine(440.0, duration_s=1.0, amp=0.5))
    assert main(["features", str(wav)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["dynamic_range_db", "zero_crossing_rate",
                            "mfcc"]
    assert abs(report["dynamic_range_db"]) < 0.5
    assert abs(report["zero_crossing_rate"] - 880.0) < 5.0
    assert len(report["mfcc"]) == 13


def test_features_of_silence(tmp_path, capsys):
    wav = tmp_path / "hush.wav"
    write_wav(wav, silence(0.5))
    assert main(["features", str(wav)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["zero_crossing_rate"] == 0.0


def test_features_output_is_stable(tmp_path, capsys):
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine(1234.0, duration_s=0.5, amp=0.3))
    main(["features", str(wav)])
    first = capsys.readouterr().out
    main(["features", str(wav)])
    assert capsys.readouterr().out == first


def test_features_unreadable_file_exits_two(tmp_path, capsys):
    assert main(["features", str(tmp_path / "ghost.wav")]) == 2
    assert "ghost.wav" in capsys.readouterr().err
    # a regular file where the path needs a directory
    (tmp_path / "afile").write_text("")
    assert main(["features", str(tmp_path / "afile" / "x.wav")]) == 2
    err = capsys.readouterr().err
    assert "afile/x.wav" in err and "Not a directory" in err


def test_features_of_a_wav_with_no_samples_exits_two(tmp_path, capsys):
    wav = tmp_path / "empty.wav"
    write_wav(wav, np.zeros(0))
    assert main(["features", str(wav)]) == 2
    err = capsys.readouterr().err
    assert "empty.wav" in err and "no samples" in err


def test_features_garbage_file_exits_two(tmp_path):
    bad = tmp_path / "noise.wav"
    bad.write_bytes(b"this is not audio")
    assert main(["features", str(bad)]) == 2


# --- analyze and replay ---------------------------------------------------------

def finished_run(tmp_path, **overrides):
    scn = composer_scenario(tmp_path, **overrides)
    out = tmp_path / "run"
    assert main(["run", "--scenario", scn, "--out", str(out)]) == 0
    return out


def test_analyze_prints_metrics(tmp_path, capsys):
    out = finished_run(tmp_path)
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overlap_ratio:" in text
    assert "niche_spread:" in text
    assert "switch_events:" in text
    assert (out / "metrics.json").exists()
    assert (out / "monitor_00_spectrogram.pgm").exists()


def test_analyze_reads_only_the_renders_the_manifest_names(tmp_path):
    out = finished_run(tmp_path, duration_s=1.0,
                       monitors=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    # a one-monitor run over it replaces the run whole
    scn = composer_scenario(tmp_path, duration_s=1.0)
    assert main(["run", "--scenario", scn, "--out", str(out),
                 "--force"]) == 0
    assert not (out / "monitor_02.wav").exists()
    assert sorted(p.name for p in out.glob("monitor_*")) == ["monitor_00.wav"]
    assert main(["analyze", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert [n for n in metrics["artifacts"] if n.startswith("monitor_")] \
        == ["monitor_00_spectrogram.csv", "monitor_00_spectrogram.pgm"]
    assert not list(out.glob("monitor_0[12]_spectrogram.*"))


def test_force_replaces_a_run_whole(tmp_path):
    out = finished_run(tmp_path, duration_s=1.0,
                       monitors=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert main(["analyze", str(out)]) == 0
    assert main(["replay", str(out)]) == 0
    scn = composer_scenario(tmp_path, duration_s=1.0)
    assert main(["run", "--scenario", scn, "--out", str(out),
                 "--force"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir()) == \
        sorted([*manifest["artifacts"], "manifest.json"])
    assert sorted(p.name for p in out.glob("monitor_*")) == ["monitor_00.wav"]
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["run"]


def test_force_replaces_the_run_it_is_started_in(tmp_path, monkeypatch):
    out = finished_run(tmp_path, duration_s=1.0,
                       monitors=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    scn = composer_scenario(tmp_path, duration_s=1.0)
    monkeypatch.chdir(out)
    assert main(["run", "--scenario", scn, "--out", ".", "--force"]) == 0
    assert sorted(p.name for p in out.glob("monitor_*")) == ["monitor_00.wav"]
    assert main(["replay", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["run"]


def flip_a_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name", ["events.jsonl", "occupation.npy",
                                  "scenario_resolved.json", "monitor_02.wav"])
def test_analyze_names_a_tampered_artifact(tmp_path, capsys, name):
    out = finished_run(tmp_path, duration_s=1.0,
                       monitors=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    flip_a_byte(out / name)
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 3
    assert name in capsys.readouterr().err
    # nothing is written from a run that is refused
    assert not list(out.glob("metrics.*"))
    assert not list(out.glob("*_spectrogram.*"))


@pytest.mark.parametrize("name", ["events.jsonl", "scenario_resolved.json"])
def test_replay_names_a_tampered_input(tmp_path, capsys, name):
    out = finished_run(tmp_path, duration_s=1.0)
    flip_a_byte(out / name)
    capsys.readouterr()
    assert main(["replay", str(out)]) == 3
    assert name in capsys.readouterr().err
    assert not (out / "replay").exists()


def test_analyze_empty_roster_reports_na(tmp_path, capsys):
    scn = write_scenario(tmp_path, {"seed": 4, "duration_s": 2.0})
    out = tmp_path / "run"
    main(["run", "--scenario", scn, "--out", str(out)])
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 0
    assert "overlap_ratio: n/a" in capsys.readouterr().out


def test_analyze_corrupt_manifest_exits_three(tmp_path, capsys):
    out = finished_run(tmp_path, duration_s=1.0)
    (out / "manifest.json").write_text("{ not json")
    assert main(["analyze", str(out)]) == 3
    assert "manifest" in capsys.readouterr().err


def test_analyze_missing_run_exits_three(tmp_path):
    assert main(["analyze", str(tmp_path / "nowhere")]) == 3


def test_replay_verifies_checksums(tmp_path, capsys):
    out = finished_run(tmp_path)
    capsys.readouterr()
    assert main(["replay", str(out)]) == 0
    assert "matches" in capsys.readouterr().out
    assert (out / "replay" / "monitor_00.wav").exists()


def test_replay_detects_divergence(tmp_path, capsys):
    out = finished_run(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["artifacts"]["monitor_00.wav"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["replay", str(out)]) == 3
    assert "diverged" in capsys.readouterr().err


def test_replay_without_logged_audio_exits_three(tmp_path, capsys):
    scn = write_scenario(tmp_path, {
        "seed": 7, "duration_s": 12.0, "log_audio": False,
        "monitors": [[1.0, 0.0]],
        "agents": [{"kind": "disruptor", "position": [-2.0, 0.0]}],
        "sources": [{"kind": "tone", "position": [3.0, 3.0],
                     "channel": "anthrophony", "level_dbfs": -25.0,
                     "freq_hz": 1000.0, "start_s": 4.0, "stop_s": 5.0}]})
    out = tmp_path / "run"
    assert main(["run", "--scenario", scn, "--out", str(out)]) == 0
    events = load_run_events(RunDir(out))
    assert any(e["event"] == "disrupt_start" for e in events)
    assert main(["replay", str(out)]) == 3
    assert "pcm_omitted" in capsys.readouterr().err


@pytest.mark.parametrize("kind, cap, start", [
    ("collector", "record_max_s", "record_start"),
    ("disruptor", "capture_max_s", "capture_start")])
def test_a_recording_cap_longer_than_the_run_runs_to_the_end(
        tmp_path, kind, cap, start):
    # the listener hears the noise floor start at tick 1 and records to the
    # end of the run: its buffer is what the run can feed, not the cap
    scn = write_scenario(tmp_path, {
        "seed": 5, "duration_s": 2.0, "monitors": [[1.0, 0.0]],
        "agents": [{"kind": kind, "position": [0.0, 0.0],
                    "params": {cap: 1.0e9}}]})
    out = tmp_path / "run"
    assert main(["run", "--scenario", scn, "--out", str(out)]) == 0
    assert [e["tick"] for e in load_run_events(RunDir(out))
            if e["event"] == start] == [1]
    assert main(["analyze", str(out)]) == 0
    assert main(["replay", str(out)]) == 0


# --- console script ------------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# What a generated console script does: load the entry point and exit with
# the code its callable returns, with sys.argv holding the script's argv.
RUN_ENTRY_POINT = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
sys.argv[:3] = [name]
sys.exit(EntryPoint(name, value, "console_scripts").load()())
"""


def tone_wav(tmp_path):
    wav = tmp_path / "tone.wav"
    write_wav(wav, sine(440.0, duration_s=0.2, amp=0.5))
    return wav


def test_console_script_is_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert "holonsim" in scripts, "no holonsim entry in [project.scripts]"
    # The subprocess imports the same copy of the package as this test.
    import_dir = str(Path(holonsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [import_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ENTRY_POINT, "holonsim",
         scripts["holonsim"], "features", str(tone_wav(tmp_path))],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["zero_crossing_rate"] > 800.0


@pytest.mark.skipif(shutil.which("holonsim") is None,
                    reason="holonsim console script not on PATH "
                           "(package not installed)")
def test_installed_console_script_on_path(tmp_path):
    exe = shutil.which("holonsim")
    proc = subprocess.run([exe, "features", str(tone_wav(tmp_path))],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["zero_crossing_rate"] > 800.0
