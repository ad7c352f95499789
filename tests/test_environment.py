"""World tests: scenario loading, propagation, mixing, and replay."""

import hashlib
import json
import threading

import numpy as np
import pytest
import yaml

from holonsim import agents, environment
from holonsim.audio_core import read_wav, write_wav
from holonsim.environment import (AgentSpec, ReplayError, Scenario,
                                  ScenarioError, SourceSpec, build_gains,
                                  distance_gain, load_run_events,
                                  load_scenario, replay_run, run_scenario)
from holonsim.params import FRAME_HOP, SAMPLE_RATE

from synth import sine


def write_yaml(tmp_path, body: dict, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(body))
    return path


def base_yaml(**overrides) -> dict:
    body = {"seed": 123, "duration_s": 4.0}
    body.update(overrides)
    return body


def named(events, name):
    return [e for e in events if e["event"] == name]


# --- propagation -------------------------------------------------------------

def test_distance_gain_analytic():
    assert distance_gain(0.0) == 1.0
    assert distance_gain(2.0) == 0.5
    assert distance_gain(6.0) == 0.25


def test_gain_matrix_from_positions():
    g = build_gains([(0.0, 0.0), (0.0, 2.0)], [(0.0, 0.0), (2.0, 0.0)])
    assert g.shape == (2, 2)
    assert g[0, 0] == 1.0
    assert g[0, 1] == 0.5
    assert g[1, 0] == 0.5
    assert g[1, 1] == pytest.approx(1.0 / (1.0 + np.sqrt(2.0)))


def test_noise_floor_rms(tmp_path):
    scn = Scenario(name="n", seed=5, duration_s=10.0,
                   monitors=[(0.0, 0.0)])
    run_scenario(scn, tmp_path / "run")
    samples, _ = read_wav(tmp_path / "run" / "monitor_00.wav")
    rms_db = 20.0 * np.log10(np.sqrt(np.mean(np.square(samples))))
    assert abs(rms_db - (-60.0)) < 1.0


def test_two_equidistant_sources_add_linearly(tmp_path):
    def tone(sid, pos):
        return SourceSpec(sid, "tone", pos, "anthrophony",
                          level_dbfs=-30.0, freq_hz=1000.0)

    single = Scenario(name="s1", seed=1, duration_s=2.0,
                      noise_floor_dbfs=None, monitors=[(0.0, 0.0)],
                      sources=[tone("a", (3.0, 0.0))])
    pair = Scenario(name="s2", seed=1, duration_s=2.0,
                    noise_floor_dbfs=None, monitors=[(0.0, 0.0)],
                    sources=[tone("a", (3.0, 0.0)), tone("b", (-3.0, 0.0))])
    run_scenario(single, tmp_path / "one")
    run_scenario(pair, tmp_path / "two")
    one, _ = read_wav(tmp_path / "one" / "monitor_00.wav")
    two, _ = read_wav(tmp_path / "two" / "monitor_00.wav")
    assert np.allclose(two, 2.0 * one, atol=1e-7)
    expected_rms = distance_gain(3.0) * 10.0 ** (-30.0 / 20.0)
    assert np.sqrt(np.mean(np.square(one))) == pytest.approx(
        expected_rms, rel=0.02)


def test_emission_becomes_audible_next_tick(tmp_path):
    scn = Scenario(name="lat", seed=3, duration_s=12.0,
                   noise_floor_dbfs=None, monitors=[(0.0, 0.0)],
                   agents=[AgentSpec("composer_000", "composer",
                                     (0.0, 0.0))])
    run_scenario(scn, tmp_path / "run")
    events = load_run_events(tmp_path / "run")
    starts = named(events, "emission_start")
    assert starts, "composer never sang in a silent field"
    t0 = starts[0]["tick"]
    samples, _ = read_wav(tmp_path / "run" / "monitor_00.wav")
    first_audible = (t0 + 1) * FRAME_HOP
    assert not samples[:first_audible].any()
    assert samples[first_audible:first_audible + FRAME_HOP].any()


def test_wav_source_plays_file_verbatim(tmp_path):
    pcm = sine(500.0, duration_s=0.5, amp=0.4, rate=16000)
    wav_path = tmp_path / "call.wav"
    write_wav(wav_path, pcm, sample_rate=16000)
    body = base_yaml(
        duration_s=1.0,
        noise_floor_dbfs=None,
        monitors=[[1.0, 2.0]],
        sources=[{"kind": "wav", "path": "call.wav",
                  "position": [1.0, 2.0], "channel": "biophony"}],
    )
    scn = load_scenario(write_yaml(tmp_path, body))
    run_scenario(scn, tmp_path / "run")
    rendered, _ = read_wav(tmp_path / "run" / "monitor_00.wav",
                           target_rate=None)
    expected, _ = read_wav(wav_path)  # package's own resampling path
    n = len(expected)
    assert np.array_equal(rendered[:n], expected.astype(np.float32))
    assert not rendered[n:].any()


def test_tone_window_is_sample_accurate(tmp_path):
    scn = Scenario(name="w", seed=9, duration_s=1.0,
                   noise_floor_dbfs=None, monitors=[(0.0, 0.0)],
                   sources=[SourceSpec("t", "tone", (0.0, 0.0),
                                       "anthrophony", level_dbfs=-20.0,
                                       freq_hz=2000.0, start_s=0.25,
                                       stop_s=0.5)])
    run_scenario(scn, tmp_path / "run")
    samples, _ = read_wav(tmp_path / "run" / "monitor_00.wav")
    start = int(0.25 * SAMPLE_RATE)
    stop = int(0.5 * SAMPLE_RATE)
    assert not samples[:start].any()
    assert np.abs(samples[start:stop]).max() > 0.05
    assert not samples[stop:].any()


# --- scripted source spectra ----------------------------------------------------

def test_band_noise_energy_stays_in_band(tmp_path):
    scn = Scenario(name="bn", seed=21, duration_s=4.0,
                   noise_floor_dbfs=None, monitors=[(0.0, 0.0)],
                   sources=[SourceSpec("n", "band_noise", (0.0, 0.0),
                                       "anthrophony", level_dbfs=-20.0,
                                       band_hz=(2000.0, 4000.0))])
    run_scenario(scn, tmp_path / "run")
    samples, _ = read_wav(tmp_path / "run" / "monitor_00.wav")
    spectrum = np.abs(np.fft.rfft(samples))
    freqs = np.fft.rfftfreq(len(samples), d=1.0 / SAMPLE_RATE)
    in_band = np.sum(spectrum[(freqs >= 1800) & (freqs <= 4400)] ** 2)
    out_band = np.sum(spectrum[(freqs < 1000) | (freqs > 8000)] ** 2)
    assert in_band > 50.0 * out_band
    rms_db = 20.0 * np.log10(np.sqrt(np.mean(np.square(samples))))
    assert abs(rms_db - (-20.0)) < 1.5


def test_chirp_train_fires_on_schedule(tmp_path):
    scn = Scenario(name="ct", seed=2, duration_s=8.0,
                   noise_floor_dbfs=None, monitors=[(0.0, 0.0)],
                   sources=[SourceSpec("c", "chirp_train", (0.0, 0.0),
                                       "biophony", level_dbfs=-15.0,
                                       start_s=1.0, chirp_s=0.5,
                                       period_s=3.0, count=2)])
    run_scenario(scn, tmp_path / "run")
    samples, _ = read_wav(tmp_path / "run" / "monitor_00.wav")

    def seg_rms(lo_s, hi_s):
        seg = samples[int(lo_s * SAMPLE_RATE):int(hi_s * SAMPLE_RATE)]
        return np.sqrt(np.mean(np.square(seg)))

    assert seg_rms(0.0, 1.0) == 0.0
    assert seg_rms(1.0, 1.5) == pytest.approx(10 ** (-15 / 20), rel=0.25)
    assert seg_rms(2.0, 3.5) == 0.0
    assert seg_rms(4.0, 4.5) > 0.05
    assert seg_rms(5.0, 8.0) == 0.0


# --- occupation attribution ------------------------------------------------------

def test_occupation_channels_attribute_sources(tmp_path):
    scn = Scenario(name="occ", seed=17, duration_s=4.0,
                   sources=[SourceSpec("t", "tone", (1.0, 0.0),
                                       "anthrophony", level_dbfs=-20.0,
                                       freq_hz=1000.0)])
    run_scenario(scn, tmp_path / "run")
    occ = np.load(tmp_path / "run" / "occupation.npy")
    meta = json.loads((tmp_path / "run" / "occupation.json").read_text())
    channels = meta["channels"]
    assert occ.shape[0] == 4 and occ.shape[2] == 128

    anthro = occ[channels.index("anthrophony")]
    geo = occ[channels.index("geophony")]
    bio = occ[channels.index("biophony")]
    cyber = occ[channels.index("cyberphony")]

    assert not bio.any() and not cyber.any()
    assert geo.sum() > 0.0  # the noise floor lands in geophony

    from holonsim.audio_core import default_filterbank
    centers = default_filterbank().band_centers_hz
    peak_band = int(np.argmax(anthro.sum(axis=0)))
    assert abs(centers[peak_band] - 1000.0) < 150.0
    # tone energy dwarfs the noise floor in its band
    assert anthro.sum() > 100.0 * geo.sum()


def test_occupation_without_noise_is_zero_when_silent(tmp_path):
    scn = Scenario(name="quiet", seed=8, duration_s=2.0,
                   noise_floor_dbfs=None)
    run_scenario(scn, tmp_path / "run")
    occ = np.load(tmp_path / "run" / "occupation.npy")
    assert occ.shape == (4, 3, 128)  # 125 ticks in 62-tick windows
    assert not occ.any()


# --- determinism and replay -------------------------------------------------------

def full_scenario(seed=7, log_audio=True):
    return Scenario(
        name="mix", seed=seed, duration_s=12.0,
        monitors=[(1.0, 0.0)], log_audio=log_audio,
        agents=[AgentSpec("composer_000", "composer", (0.0, 0.0)),
                AgentSpec("collector_000", "collector", (2.0, 0.0)),
                AgentSpec("disruptor_000", "disruptor", (-2.0, 0.0))],
        sources=[SourceSpec("t", "tone", (3.0, 3.0), "anthrophony",
                            level_dbfs=-25.0, freq_hz=1000.0,
                            start_s=4.0, stop_s=5.0)],
    )


def test_same_seed_reproduces_run_byte_for_byte(tmp_path):
    s1 = run_scenario(full_scenario(), tmp_path / "a")
    s2 = run_scenario(full_scenario(), tmp_path / "b")
    assert s1.artifacts == s2.artifacts
    assert (tmp_path / "a" / "events.jsonl").read_bytes() == \
        (tmp_path / "b" / "events.jsonl").read_bytes()


def test_different_seed_diverges(tmp_path):
    s1 = run_scenario(full_scenario(seed=7), tmp_path / "a")
    s2 = run_scenario(full_scenario(seed=8), tmp_path / "b")
    assert s1.artifacts["monitor_00.wav"] != s2.artifacts["monitor_00.wav"]


def test_replay_reproduces_renders(tmp_path):
    summary = run_scenario(full_scenario(), tmp_path / "run")
    events = load_run_events(tmp_path / "run")
    # the scenario must exercise all three emission kinds for this
    # replay check to mean anything
    assert named(events, "emission_start")
    assert named(events, "disrupt_start")
    replayed = replay_run(tmp_path / "run")
    assert replayed["monitor_00.wav"] == summary.artifacts["monitor_00.wav"]


def test_replay_without_logged_audio_refuses(tmp_path):
    run_scenario(full_scenario(log_audio=False), tmp_path / "run")
    with pytest.raises(ReplayError, match="pcm_omitted"):
        replay_run(tmp_path / "run")


def test_replay_refuses_before_synthesizing(tmp_path, monkeypatch):
    run_scenario(full_scenario(log_audio=False), tmp_path / "run")
    events = load_run_events(tmp_path / "run")
    first_omitted = min(e["tick"] for e in events
                        if e["payload"].get("pcm_omitted"))
    # composer notes logged before the first omitted clip would be synthesized
    assert any(e["tick"] < first_omitted
               for e in named(events, "emission_start"))
    calls = []
    monkeypatch.setattr(environment, "synth_tone",
                        lambda *args: calls.append(args))
    with pytest.raises(ReplayError, match="pcm_omitted"):
        replay_run(tmp_path / "run")
    assert calls == []


def test_replay_of_composers_needs_no_logged_audio(tmp_path):
    scn = Scenario(name="c", seed=3, duration_s=6.0, monitors=[(1.0, 0.0)],
                   log_audio=False,
                   agents=[AgentSpec("composer_000", "composer", (0.0, 0.0))])
    summary = run_scenario(scn, tmp_path / "run")
    assert named(load_run_events(tmp_path / "run"), "emission_start")
    replayed = replay_run(tmp_path / "run")
    assert replayed["monitor_00.wav"] == summary.artifacts["monitor_00.wav"]


# --- bus noise ----------------------------------------------------------------

BLOCK = environment.BLOCK_TICKS


@pytest.mark.parametrize("noise", [True, False], ids=["noise", "no_noise"])
@pytest.mark.parametrize("n_ticks", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                     3 * BLOCK + 5])
def test_bus_noise_matches_per_tick_draws(noise, n_ticks):
    child = np.random.SeedSequence(99).spawn(3)[0]
    reference = np.random.default_rng(child)
    before = threading.active_count()
    with environment.BusNoise(np.random.default_rng(child) if noise
                              else None, 5, n_ticks) as bus_noise:
        # one worker, and only when there is noise to draw
        assert threading.active_count() - before == int(noise and n_ticks > 0)
        for tick in range(n_ticks):
            got = bus_noise.next_tick()
            if noise:
                want = reference.standard_normal((5, FRAME_HOP))
                assert np.array_equal(got, want), f"tick {tick}"
            else:
                assert got is None
    assert threading.active_count() == before


class StepFault(Exception):
    pass


def test_run_stops_its_noise_thread_on_every_way_out(tmp_path, monkeypatch):
    before = threading.active_count()
    run_scenario(full_scenario(), tmp_path / "whole")
    assert threading.active_count() == before

    step = agents.ComposerAgent.step

    def failing_step(self, hearing, clock):
        if clock.tick == 5:
            raise StepFault(f"tick {clock.tick}")
        return step(self, hearing, clock)

    monkeypatch.setattr(agents.ComposerAgent, "step", failing_step)
    with pytest.raises(StepFault, match="tick 5"):
        run_scenario(full_scenario(), tmp_path / "failed")
    assert threading.active_count() == before


class ClockStop(BaseException):
    pass


def test_base_exception_stops_the_noise_thread(tmp_path, monkeypatch):
    # a probe that times a run's set-up stops it with a BaseException from
    # the clock's constructor, after the noise thread has started
    run_scenario(full_scenario(), tmp_path / "run")
    before = threading.active_count()

    def stop(*args, **kwargs):
        raise ClockStop

    monkeypatch.setattr(environment, "SimClock", stop)
    with pytest.raises(ClockStop):
        run_scenario(full_scenario(), tmp_path / "stopped")
    assert threading.active_count() == before
    monkeypatch.setattr(environment.ToneSource, "hop", stop)
    with pytest.raises(ClockStop):
        replay_run(tmp_path / "run")
    assert threading.active_count() == before


def test_manifest_checksums_match_files(tmp_path):
    summary = run_scenario(full_scenario(), tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["format"] == 1
    assert manifest["n_ticks"] == summary.n_ticks
    for name, sha in manifest["artifacts"].items():
        digest = hashlib.sha256(
            (tmp_path / "run" / name).read_bytes()).hexdigest()
        assert digest == sha, name


def test_empty_roster_logs_only_scheduler_records(tmp_path):
    scn = Scenario(name="empty", seed=1, duration_s=1.0,
                   noise_floor_dbfs=None)
    run_scenario(scn, tmp_path / "run")
    events = load_run_events(tmp_path / "run")
    assert [e["event"] for e in events] == ["boot", "phase", "end"]


def test_event_log_is_json_lines_with_fixed_fields(tmp_path):
    run_scenario(full_scenario(), tmp_path / "run")
    with open(tmp_path / "run" / "events.jsonl") as fh:
        for line in fh:
            record = json.loads(line)
            assert set(record) == {"tick", "agent_id", "kind", "event",
                                   "payload"}
            assert isinstance(record["tick"], int)


# --- scenario loading ----------------------------------------------------------

def test_load_yaml_with_defaults(tmp_path):
    body = base_yaml(agents=[{"kind": "composer", "count": 2}])
    scn = load_scenario(write_yaml(tmp_path, body))
    assert scn.name == "scn"
    assert scn.seed == 123
    assert scn.day_length_s == 240.0
    assert scn.night_window == (0.5, 1.0)
    assert scn.noise_floor_dbfs == -60.0
    assert len(scn.agents) == 2
    assert [a.agent_id for a in scn.agents] == ["composer_000",
                                                "composer_001"]


def test_roster_expansion_positions_and_offsets(tmp_path):
    body = base_yaml(agents=[{"kind": "composer", "count": 3},
                             {"kind": "collector", "count": 2}])
    scn = load_scenario(write_yaml(tmp_path, body))
    assert len(scn.agents) == 5
    radii = [np.hypot(*a.position) for a in scn.agents]
    assert np.allclose(radii, 4.0, atol=1e-5)
    assert len({a.position for a in scn.agents}) == 5
    offsets = [a.slot_offset_ticks for a in scn.agents
               if a.kind == "composer"]
    assert offsets == [0, 83, 166]  # thirds of the 250-tick slot


def test_resolved_scenario_round_trips(tmp_path):
    body = base_yaml(
        name="round",
        night_window=[0.25, 0.75],
        monitors=[[1.0, 1.0]],
        agents=[{"kind": "composer", "position": [0, 0],
                 "preferred_band": 64, "battery_wh": 2.5,
                 "params": {"slot_s": 2.0}, "energy": {"harvest_peak_w": 1.0}},
                {"kind": "disruptor", "count": 2}],
        sources=[{"kind": "band_noise", "position": [5, 5],
                  "channel": "anthrophony", "band_hz": [200, 600]}],
    )
    scn = load_scenario(write_yaml(tmp_path, body))
    again = Scenario.from_dict(scn.to_dict())
    assert again.to_dict() == scn.to_dict()


@pytest.mark.parametrize("mutate,message", [
    (lambda b: b.pop("seed"), "seed"),
    (lambda b: b.pop("duration_s"), "duration_s"),
    (lambda b: b.update(seed="abc"), "integer"),
    (lambda b: b.update(velocity=3), "velocity"),
    (lambda b: b.update(night_window=[0.2, 1.4]), "night_window"),
    (lambda b: b.update(day_length_s=0), "day_length_s"),
])
def test_scenario_errors_name_the_key(tmp_path, mutate, message):
    body = base_yaml()
    mutate(body)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(write_yaml(tmp_path, body))


@pytest.mark.parametrize("source,message", [
    ({"kind": "whale", "position": [0, 0]}, "source kind"),
    ({"kind": "tone", "position": [0, 0]}, "freq_hz"),
    ({"kind": "tone", "position": [0, 0], "freq_hz": 99999.0},
     "freq_hz out of range"),
    ({"kind": "band_noise", "position": [0, 0], "band_hz": [600, 200]},
     "band_hz"),
    ({"kind": "wav", "position": [0, 0], "path": "nope.wav"}, "not found"),
    ({"kind": "tone", "position": [0, 0], "freq_hz": 440.0,
      "channel": "cyberphony"}, "reserved"),
    ({"kind": "tone", "position": [0, 0], "freq_hz": 440.0,
      "wobble": 1}, "wobble"),
    ({"kind": "chirp_train", "position": [0, 0], "chirp_s": 2.0,
      "period_s": 1.0, "count": 3}, "chirp_s"),
])
def test_source_errors_name_the_key(tmp_path, source, message):
    body = base_yaml(sources=[source])
    with pytest.raises(ScenarioError, match=message):
        load_scenario(write_yaml(tmp_path, body))


@pytest.mark.parametrize("agent,message", [
    ({"kind": "oracle"}, "agent kind"),
    ({"kind": "composer", "count": 2, "position": [0, 0]}, "single"),
    ({"kind": "composer", "count": 0}, "count"),
    ({"kind": "composer", "flavour": "lemon"}, "flavour"),
    ({"kind": "composer", "preferred_band": 200}, "preferred_band"),
])
def test_agent_errors_name_the_key(tmp_path, agent, message):
    body = base_yaml(agents=[agent])
    with pytest.raises(ScenarioError, match=message):
        load_scenario(write_yaml(tmp_path, body))


def test_bad_agent_params_key_is_reported(tmp_path):
    body = base_yaml(agents=[{"kind": "composer",
                              "params": {"slot_speed": 2.0}}])
    scn = load_scenario(write_yaml(tmp_path, body))
    with pytest.raises(ScenarioError, match="composer_000"):
        run_scenario(scn, tmp_path / "run")


def test_missing_scenario_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "ghost.yaml")
