"""The run directory: staged writes, the manifest, and verified reads."""

import json
import os

import pytest

from holonsim import agents
from holonsim.cli import main
from holonsim.environment import (AgentSpec, ReplayError, Scenario,
                                  replay_run, run_scenario)
from holonsim.rundir import (EVENTS_FILE, FORMAT, MANIFEST_FILE, RunDir,
                             RunDirError, file_sha256, holds_run,
                             load_run_events)
from holonsim.telemetry import analyze_run


def tiny(n_monitors: int) -> Scenario:
    return Scenario(name="tiny", seed=3, duration_s=1.0,
                    monitors=[(1.0, float(m)) for m in range(n_monitors)],
                    agents=[AgentSpec("composer_000", "composer",
                                      (0.0, 0.0))])


def flip_a_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


class Halt(BaseException):
    """Not an Exception, as a benchmark's setup probe raises."""


def raise_at_tick_5(monkeypatch, exc_type):
    step = agents.ComposerAgent.step

    def failing_step(self, hearing, clock):
        if clock.tick == 5:
            raise exc_type(f"tick {clock.tick}")
        return step(self, hearing, clock)

    monkeypatch.setattr(agents.ComposerAgent, "step", failing_step)


@pytest.mark.parametrize("name", [
    "events.jsonl", "scenario_resolved.json", "occupation.npy",
    "occupation.json", "monitor_00.wav"])
def test_a_tampered_artifact_is_refused_by_name(tmp_path, name):
    run_scenario(tiny(1), tmp_path / "run")
    flip_a_byte(tmp_path / "run" / name)
    with pytest.raises(RunDirError, match=name):
        RunDir(tmp_path / "run").verified(name)


def test_a_missing_artifact_is_named(tmp_path):
    run_scenario(tiny(1), tmp_path / "run")
    (tmp_path / "run" / "events.jsonl").unlink()
    with pytest.raises(RunDirError, match="events.jsonl"):
        load_run_events(RunDir(tmp_path / "run"))


def test_blank_lines_in_a_verified_log_are_skipped(tmp_path):
    run_scenario(tiny(1), tmp_path / "run")
    want = load_run_events(RunDir(tmp_path / "run"))
    log = tmp_path / "run" / EVENTS_FILE
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("\n" + "".join(line + " \t\n" for line in lines)
                   + "\r\n  ")
    path = tmp_path / "run" / MANIFEST_FILE
    manifest = json.loads(path.read_text())
    manifest["artifacts"][EVENTS_FILE] = file_sha256(log)
    path.write_text(json.dumps(manifest))
    assert load_run_events(RunDir(tmp_path / "run")) == want


@pytest.mark.parametrize("edit", [
    {"format": 1}, {"artifacts": {"../elsewhere.wav": "0" * 64}},
    {"n_ticks": "62"}, {"extra": True}])
def test_an_unrecognised_manifest_is_refused(tmp_path, edit):
    run_scenario(tiny(1), tmp_path / "run")
    path = tmp_path / "run" / MANIFEST_FILE
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **edit)))
    with pytest.raises(RunDirError, match="manifest"):
        analyze_run(tmp_path / "run")
    with pytest.raises(RunDirError, match="manifest"):
        replay_run(tmp_path / "run")


def test_a_run_of_an_older_format_is_refused_by_its_format(tmp_path,
                                                          capsys):
    run_scenario(tiny(1), tmp_path / "run")
    path = tmp_path / "run" / MANIFEST_FILE
    path.write_text(json.dumps(dict(json.loads(path.read_text()), format=1)))
    message = (f"{path} was written in format 1; this holonsim reads "
               f"format {FORMAT}; re-run the scenario")
    with pytest.raises(RunDirError) as caught:
        RunDir(tmp_path / "run")
    assert str(caught.value) == message
    for command in ("analyze", "replay"):
        assert main([command, str(tmp_path / "run")]) == 3
        assert message in capsys.readouterr().err
    # it is still a run, which a new run may replace
    assert holds_run(tmp_path / "run")
    run_scenario(tiny(1), tmp_path / "run")
    assert RunDir(tmp_path / "run").manifest["format"] == FORMAT


def test_an_interrupted_run_leaves_no_directory(tmp_path, monkeypatch):
    raise_at_tick_5(monkeypatch, Halt)
    with pytest.raises(Halt):
        run_scenario(tiny(1), tmp_path / "run")
    assert not list(tmp_path.iterdir())


def test_a_failed_run_removes_the_parents_it_made(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    out = tmp_path / "a" / "b" / "c" / "run"
    raise_at_tick_5(monkeypatch, RuntimeError)
    with pytest.raises(RuntimeError):
        run_scenario(tiny(1), out)
    assert [p.name for p in tmp_path.iterdir()] == ["a"]
    assert not list((tmp_path / "a").iterdir())
    monkeypatch.undo()
    run_scenario(tiny(1), out)
    assert RunDir(out).monitors == ["monitor_00.wav"]


def test_replay_names_the_render_that_diverged(tmp_path):
    run_scenario(tiny(2), tmp_path / "run")
    path = tmp_path / "run" / MANIFEST_FILE
    manifest = json.loads(path.read_text())
    manifest["artifacts"]["monitor_00.wav"] = "0" * 64
    path.write_text(json.dumps(manifest))
    with pytest.raises(ReplayError, match="monitor_00.wav") as caught:
        replay_run(tmp_path / "run")
    assert "monitor_01.wav" not in str(caught.value)


def test_a_failed_rerun_keeps_the_completed_run(tmp_path, monkeypatch):
    run_scenario(tiny(2), tmp_path / "run")
    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    raise_at_tick_5(monkeypatch, RuntimeError)
    with pytest.raises(RuntimeError):
        run_scenario(tiny(1), tmp_path / "run")
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
    assert {p.name: p.read_bytes()
            for p in (tmp_path / "run").iterdir()} == before


# a directory of notes, and a project whose manifest.json is not a run's
NOT_RUNS = [{"todo.txt": "keep me"},
            {MANIFEST_FILE: '{"name": "app", "version": 3}',
             "main.py": "print('keep me')"}]


@pytest.mark.parametrize("files", NOT_RUNS)
def test_a_directory_that_holds_no_run_is_refused(tmp_path, files):
    out = tmp_path / "notes"
    out.mkdir()
    for name, text in files.items():
        (out / name).write_text(text)
    with pytest.raises(RunDirError, match="notes"):
        run_scenario(tiny(1), out)
    assert {p.name: p.read_text() for p in out.iterdir()} == files
    assert [p.name for p in tmp_path.iterdir()] == ["notes"]


def test_an_interrupted_swap_keeps_the_completed_run(tmp_path, monkeypatch):
    run_scenario(tiny(2), tmp_path / "run")
    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    replace = os.replace

    def halt_on_the_new_run(src, dst):
        if os.path.basename(src) == ".run.partial":
            raise Halt("interrupted")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", halt_on_the_new_run)
    with pytest.raises(Halt):
        run_scenario(tiny(1), tmp_path / "run")
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
    assert {p.name: p.read_bytes()
            for p in (tmp_path / "run").iterdir()} == before


def test_an_empty_directory_takes_a_run(tmp_path):
    (tmp_path / "run").mkdir()
    run_scenario(tiny(1), tmp_path / "run")
    assert RunDir(tmp_path / "run").monitors == ["monitor_00.wav"]


@pytest.mark.parametrize("stale", [".run.partial", ".run.old"])
def test_a_killed_runs_leftovers_are_cleared(tmp_path, stale):
    stale = tmp_path / stale
    stale.mkdir()
    (stale / "monitor_07.wav").write_bytes(b"left by a killed run")
    run_scenario(tiny(1), tmp_path / "run")
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
