"""World tests: scenario loading, propagation, mixing, and replay."""

import gc
import hashlib
import json
import math
import threading
import warnings
from dataclasses import fields

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holonsim import agents, environment
from holonsim.audio_core import read_wav, write_wav
from holonsim.environment import (AgentSpec, ReplayError, Scenario,
                                  ScenarioError, SourceSpec, build_gains,
                                  distance_gain, load_run_events,
                                  load_scenario, replay_run, run_scenario)
from holonsim.params import FRAME_HOP, SAMPLE_RATE

import test_golden as golden
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


def audible_ticks(start):
    """First and last tick at which a logged emission is mixed."""
    payload = start["payload"]
    n = payload.get("n_samples", payload.get("out_samples"))
    return start["tick"] + 1, start["tick"] + -(-n // FRAME_HOP)


# Cuts of the golden mixed night scenario. Its first composer note is logged
# on tick 0 and the collectors' first playbacks on tick 92; clips started at
# ticks 0, 31 and 92 are still playing at tick 149; the first note's last
# hop is mixed on tick 188; a disruptor's clip is logged on tick 400.
@pytest.mark.parametrize("n_ticks,edge", [
    (1, "logged"), (93, "logged"), (150, "playing"), (189, "last_hop"),
    (401, "logged")])
def test_replay_equals_run_at_the_edges_of_the_schedule(tmp_path, n_ticks,
                                                        edge):
    mixed = write_yaml(tmp_path, golden.MIXED)
    scn = load_scenario(mixed)
    scn.duration_s = n_ticks * FRAME_HOP / SAMPLE_RATE
    summary = run_scenario(scn, tmp_path / "run")
    assert summary.n_ticks == n_ticks
    starts = [e for e in load_run_events(tmp_path / "run")
              if e["event"] in ("emission_start", "playback_start",
                                "disrupt_start")]
    last = n_ticks - 1
    spans = [audible_ticks(start) for start in starts]
    if edge == "logged":
        assert any(start["tick"] == last for start in starts)
    elif edge == "playing":
        assert any(first <= last < end for first, end in spans)
    else:
        assert any(end == last for _, end in spans)
    replayed = replay_run(tmp_path / "run")
    assert sorted(replayed) == ["monitor_00.wav", "monitor_01.wav"]
    for name, digest in replayed.items():
        assert digest == summary.artifacts[name], name


# --- active-set mixing ---------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_listeners=st.integers(2, 132), n_sources=st.integers(0, 2),
       share=st.sampled_from(["none", "one", "some", "all"]),
       seed=st.integers(0, 2**32 - 1))
def test_active_rows_mix_as_the_full_product(n_listeners, n_sources, share,
                                             seed):
    rng = np.random.default_rng(seed)
    n_agents = int(rng.integers(1, min(n_listeners - 1, 130) + 1))
    n_monitors = n_listeners - 1 - n_agents

    def place(n):
        return [tuple(p) for p in rng.uniform(-8.0, 8.0, (n, 2))]

    scn = Scenario(
        name="active", seed=seed, duration_s=4 * FRAME_HOP / SAMPLE_RATE,
        noise_floor_dbfs=None, monitors=place(n_monitors),
        agents=[AgentSpec(f"composer_{j:03d}", "composer", pos)
                for j, pos in enumerate(place(n_agents))],
        sources=[SourceSpec(f"s{i}", "tone", pos, "anthrophony",
                            level_dbfs=-40.0, freq_hz=300.0 + 200.0 * i)
                 for i, pos in enumerate(place(n_sources))])
    size = {"none": 0, "one": 1, "all": n_agents}.get(
        share, int(rng.integers(0, n_agents + 1)))
    with environment.Bus(scn, None, [rng] * n_sources) as bus:
        gains_t = np.ascontiguousarray(bus.gains.T)
        for tick in range(scn.n_ticks):
            # a fresh active set each tick; hops small enough not to clip
            active = set(rng.choice(n_agents, size, replace=False))
            for j in range(n_agents):
                bus.emit(j, 1e-3 * rng.standard_normal(FRAME_HOP)
                         if j in active else None)
            assert sum(bus.active) == size
            bus.mix(tick)
            assert np.array_equal(bus.mixed, gains_t @ bus.hops), tick


def test_active_rows_are_the_rows_that_sound(tmp_path, monkeypatch):
    checked = []

    class CheckedBus(environment.Bus):
        def check(self):
            sounding = np.any(self.agent_rows != 0.0, axis=1)
            assert self.active == sounding.tolist(), len(checked)
            checked.append(sum(self.active))

        def mix(self, tick):
            self.check()   # the rows the ticks before wrote
            return super().mix(tick)

        def __exit__(self, *exc):
            self.check()
            super().__exit__(*exc)

    monkeypatch.setattr(environment, "Bus", CheckedBus)
    scn = load_scenario(write_yaml(tmp_path, golden.MIXED))
    run_scenario(scn, tmp_path / "run")
    replay_run(tmp_path / "run")
    # once per tick and at the end, in run and replay; rows did sound
    assert len(checked) == 2 * (scn.n_ticks + 1)
    assert max(checked) > 0


# --- bus noise ----------------------------------------------------------------

BLOCK = environment.BLOCK_TICKS


@pytest.mark.parametrize("noise", [True, False], ids=["noise", "no_noise"])
@pytest.mark.parametrize("n_ticks", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                     3 * BLOCK + 5])
def test_bus_noise_matches_per_tick_draws(noise, n_ticks):
    child = np.random.SeedSequence(99).spawn(3)[0]
    reference = np.random.default_rng(child)
    rms = 10.0 ** (-60.0 / 20.0)
    before = threading.active_count()
    with environment.BusNoise(np.random.default_rng(child),
                              rms if noise else None, 5,
                              n_ticks) as bus_noise:
        # one worker, and only when there is noise to draw
        assert threading.active_count() - before == int(noise and n_ticks > 0)
        for tick in range(n_ticks):
            got = bus_noise.next_tick()
            if noise:
                want = rms * reference.standard_normal((5, FRAME_HOP))
                assert np.array_equal(got, want), f"tick {tick}"
            else:
                assert got is None
    assert threading.active_count() == before


class StepFault(Exception):
    pass


def fail_composers_at_tick_5(monkeypatch):
    step = agents.ComposerAgent.step

    def failing_step(self, hearing, clock):
        if clock.tick == 5:
            raise StepFault(f"tick {clock.tick}")
        return step(self, hearing, clock)

    monkeypatch.setattr(agents.ComposerAgent, "step", failing_step)


def test_run_stops_its_noise_thread_on_every_way_out(tmp_path, monkeypatch):
    before = threading.active_count()
    run_scenario(full_scenario(), tmp_path / "whole")
    assert threading.active_count() == before

    fail_composers_at_tick_5(monkeypatch)
    with pytest.raises(StepFault, match="tick 5"):
        run_scenario(full_scenario(), tmp_path / "failed")
    assert threading.active_count() == before


def test_failed_run_closes_its_event_log(tmp_path, monkeypatch):
    fail_composers_at_tick_5(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            run_scenario(full_scenario(), tmp_path / "failed")
        except StepFault:
            pass   # leaving the handler drops the frames that held the log
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert (tmp_path / "failed" / "events.jsonl").read_text().count("\n")


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
    assert [a.id for a in scn.agents] == ["composer_000", "composer_001"]


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
                {"kind": "disruptor", "count": 2},
                {"kind": "collector", "params": {}}],
        sources=[{"kind": "band_noise", "position": [5, 5],
                  "channel": "anthrophony", "band_hz": [200, 600]},
                 {"kind": "chirp_train", "position": [0, 3], "chirp_s": 0.5,
                  "period_s": 1.0, "count": 2, "stop_s": 1.7}],
        noise_floor_dbfs=None,
    )
    scn = load_scenario(write_yaml(tmp_path, body))
    again = Scenario.from_dict(scn.to_dict())
    assert again.to_dict() == scn.to_dict()

    # through JSON text, the way replay reads scenario_resolved.json
    text = json.dumps(scn.to_dict(), sort_keys=True, indent=2)
    rebuilt = Scenario.from_dict(json.loads(text))
    assert json.dumps(rebuilt.to_dict(), sort_keys=True, indent=2) == text
    resolved = json.loads(text)
    assert resolved["noise_floor_dbfs"] is None
    assert set(resolved["sources"][1]) == {
        "id", "kind", "position", "channel", "level_dbfs", "start_s",
        "stop_s", "chirp_s", "period_s", "count", "gain"}
    assert set(resolved["agents"][3]) == {"id", "kind", "position",
                                          "slot_offset_ticks"}


@pytest.mark.parametrize("mutate,message", [
    (lambda b: b.pop("seed"), "seed"),
    (lambda b: b.pop("duration_s"), "duration_s"),
    (lambda b: b.update(seed="abc"), "integer"),
    (lambda b: b.update(velocity=3), "velocity"),
    (lambda b: b.update(night_window=[0.2, 1.4]), "night_window"),
    (lambda b: b.update(day_length_s=0), "day_length_s"),
    (lambda b: b.update(seed=-1), "seed must not be negative"),
    (lambda b: b.update(duration_s=float("inf")),
     "duration_s must be a finite number"),
    (lambda b: b.update(layout_radius_m="abc"), "layout_radius_m"),
    (lambda b: b.update(monitors=5), "monitors"),
    (lambda b: b.update(monitors=[[1.0, "x"]]), "monitors.0. must be a pair"),
    (lambda b: b.update(agents=7), "agents"),
    (lambda b: b.update(noise_floor_dbfs="loud"),
     "noise_floor_dbfs must be a finite number"),
    (lambda b: b.update(noise_floor_dbfs=10000.0),
     "noise_floor_dbfs must be at most 0"),
    (lambda b: b.update(log_audio="no"), "log_audio"),
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
    ({"kind": "chirp_train", "position": [0, 0], "chirp_s": 0.5,
      "period_s": 1.0, "count": -1}, "count"),
    ({"kind": "tone", "position": [0, 0], "freq_hz": 440.0,
      "level_dbfs": "x"}, "level_dbfs must be a finite number"),
    ({"kind": "tone", "position": [0, 0], "freq_hz": 440.0,
      "level_dbfs": 10000.0}, "level_dbfs must be at most 0"),
    ({"kind": ["tone"], "position": [0, 0]}, "kind"),
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
    ({"kind": "composer", "preferred_band": True}, "preferred_band"),
    ({"kind": "composer", "slot_offset_ticks": "x"}, "slot_offset_ticks"),
    ({"kind": "composer", "params": 5}, "params"),
    ({"kind": "composer", "params": {"slot_s": "x"}}, "params.slot_s"),
    ({"kind": "collector", "params": {"tone_frames": "x"}},
     "params.tone_frames must be an integer"),
    ({"kind": "collector", "params": {"max_items": 1.5}},
     "params.max_items must be an integer"),
    ({"kind": "composer", "energy": {"battery_max_wh": 0}},
     "energy.battery_max_wh must be positive"),
    ({"kind": "composer", "params": {"long_half_life_s": 0}},
     "params.long_half_life_s must be positive"),
    ({"kind": "composer", "params": {"short_half_life_s": 0}},
     "params.short_half_life_s must be positive"),
    ({"kind": "composer", "params": {"range_full_db": 0}},
     "params.range_full_db must be positive"),
    ({"kind": "composer", "params": {"occupancy_percentile": 150}},
     "params.occupancy_percentile"),
    ({"kind": "composer", "params": {"note_min_s": -1}}, "params.note_min_s"),
    ({"kind": "composer", "params": {"note_max_s": -1}}, "params.note_max_s"),
    ({"kind": "composer", "params": {"note_max_s": 1.0e+308}},
     "params.note_max_s must be a finite count of samples"),
    ({"kind": "composer", "params": {"attack_slow_s": -1.0e+308}},
     "params.attack_slow_s must be a finite count of samples"),
    ({"kind": "collector", "params": {"record_max_s": 0}},
     "params.record_max_s must be at least one sample"),
    ({"kind": "disruptor", "params": {"capture_max_s": -1}},
     "params.capture_max_s must be at least one sample"),
    ({"kind": "collector", "params": {"record_max_s": 1.0e-5}},
     "params.record_max_s must be at least one sample"),
    ({"kind": "composer", "params": {"slot_s": 1.0e+308}},
     "params.slot_s must be a finite count of ticks"),
    ({"kind": "composer", "slot_offset_ticks": 3,
      "params": {"slot_s": 1.0e+308}}, "params.slot_s"),
    ({"kind": "collector", "params": {"accepted_blue_s": 1.0e+308}},
     "params.accepted_blue_s"),
    ({"kind": "collector", "params": {"playback_refractory_s": -1.0e+308}},
     "params.playback_refractory_s"),
    ({"kind": "disruptor", "params": {"slot_s": 2.0}},
     "params: unknown key 'slot_s'"),
    ({"kind": "composer", "energy": {"battery_max_wh": True}},
     "energy.battery_max_wh must be a finite number"),
])
def test_agent_errors_name_the_key(tmp_path, agent, message):
    body = base_yaml(agents=[agent])
    with pytest.raises(ScenarioError, match=r"agents\[0\]: ") as info:
        load_scenario(write_yaml(tmp_path, body))
    assert message in str(info.value)


def test_bad_agent_params_key_is_reported(tmp_path):
    body = base_yaml(agents=[{"kind": "composer",
                              "params": {"slot_speed": 2.0}}])
    with pytest.raises(ScenarioError,
                       match="agents.0.: params: unknown key 'slot_speed'"):
        load_scenario(write_yaml(tmp_path, body))


def test_composer_slot_offsets_stay_inside_the_grid(tmp_path):
    # 0.344 s is 21.5 ticks, where two ways of rounding to ticks part
    body = base_yaml(agents=[{"kind": "composer", "count": 30,
                              "params": {"slot_s": 0.344}}])
    scn = load_scenario(write_yaml(tmp_path, body))
    for spec in scn.agents:
        agent = agents.ComposerAgent(spec, np.random.default_rng(0))
        assert spec.slot_offset_ticks < agent.slot_ticks


def test_a_one_sample_recording_cap_runs(tmp_path):
    # the smallest accepted cap: half a sample or less rounds to none
    cap_s = 0.5 / SAMPLE_RATE
    body = base_yaml(duration_s=2.0, agents=[
        {"kind": "collector", "params": {"record_max_s": cap_s}}])
    with pytest.raises(ScenarioError, match="record_max_s"):
        load_scenario(write_yaml(tmp_path, body))
    cap_s = math.nextafter(cap_s, 1.0)
    body["agents"] = [{"kind": "collector", "params": {"record_max_s": cap_s}},
                      {"kind": "disruptor", "params": {"capture_max_s": cap_s}}]
    run_scenario(load_scenario(write_yaml(tmp_path, body)), tmp_path / "run")
    events = load_run_events(tmp_path / "run")
    ends = named(events, "record_end") + named(events, "capture_end")
    assert {e["kind"] for e in ends} == {"collector", "disruptor"}
    assert {e["payload"]["duration_s"] for e in ends} == {1 / SAMPLE_RATE}


def test_missing_scenario_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "ghost.yaml")


def test_malformed_yaml_is_a_scenario_error(tmp_path):
    path = tmp_path / "scn.yaml"
    path.write_text("seed: [1\n")
    with pytest.raises(ScenarioError, match="YAML"):
        load_scenario(path)


FUZZ_SCENARIO = base_yaml(
    monitors=[[1.0, 0.0]],
    agents=[{"kind": "composer", "position": [0, 0], "preferred_band": 10,
             "battery_wh": 1.0, "slot_offset_ticks": 3,
             "params": {"slot_s": 2.0}, "energy": {"harvest_peak_w": 1.0}},
            {"kind": "collector", "count": 2, "params": {}, "energy": {}},
            {"kind": "disruptor", "params": {}, "energy": {}}],
    sources=[{"id": "t", "kind": "tone", "position": [1, 1],
              "freq_hz": 440.0, "start_s": 0.5, "stop_s": 2.0},
             {"kind": "band_noise", "position": [2, 1],
              "band_hz": [200, 600]},
             {"kind": "chirp_train", "position": [0, 2], "chirp_s": 0.1,
              "period_s": 0.3, "count": 3},
             {"kind": "wav", "position": [0, -2], "path": "w.wav"}])
FUZZ_KEYS = (
    [(key,) for key in sorted(environment._TOP_KEYS)]
    + [("sources", i, key) for i in range(4)
       for key in sorted(environment._SOURCE_KEYS)]
    + [("agents", i, key) for i in range(3)
       for key in sorted(environment._AGENT_KEYS)]
    + [("agents", i, part, f.name)
       for i, kind in enumerate(["composer", "collector", "disruptor"])
       for part, model in [("params", agents.AGENT_KINDS[kind].Params),
                           ("energy", agents.EnergyModel)]
       for f in fields(model)])
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(FUZZ_KEYS), value=ANY_VALUE)
def test_a_bad_value_fails_at_load_or_not_at_all(tmp_path, path, value):
    write_wav(tmp_path / "w.wav", np.zeros(800, dtype=np.float32))
    body = json.loads(json.dumps(FUZZ_SCENARIO))
    target = body
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        scn = load_scenario(write_yaml(tmp_path, body))
    except ScenarioError:
        return
    json.dumps(scn.to_dict(), allow_nan=False)
    agents.Hearing([agents.AGENT_KINDS[spec.kind](spec, None)
                    for spec in scn.agents])
