"""World tests: scenario loading, propagation, mixing, and replay."""

import base64
import gc
import hashlib
import json
import math
import shutil
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holonsim import agents, environment
from holonsim.audio_core import (WAV_MAX_SAMPLES, default_filterbank,
                                 read_wav, write_wav)
from holonsim.environment import (AgentSpec, ReplayError, Scenario,
                                  ScenarioError, SourceSpec, build_gains,
                                  load_run_events, load_scenario, replay_run,
                                  run_scenario)
from holonsim.params import FRAME_HOP, SAMPLE_RATE
from holonsim.rundir import EVENTS_FILE, RunDir, RunWriter

import oracles
import test_golden as golden
from synth import sine, wav_bytes, write_pcm16_wav


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
    distances = [0.0, 2.0, 6.0]
    g = build_gains([(0.0, 0.0)], [(d, 0.0) for d in distances])
    assert g.tolist() == [[1.0, 0.5, 0.25]]
    assert g.tolist() == [[oracles.oracle_distance_gain(d)
                           for d in distances]]


def test_gain_matrix_from_positions():
    g = build_gains([(0.0, 0.0), (0.0, 2.0)], [(0.0, 0.0), (2.0, 0.0)])
    assert g.shape == (2, 2)
    assert g[0, 0] == 1.0
    assert g[0, 1] == 0.5
    assert g[1, 0] == 0.5
    assert g[1, 1] == pytest.approx(1.0 / (1.0 + np.sqrt(2.0)))
    # no sources or no listeners: an empty matrix of the right shape
    assert build_gains([], [(0.0, 0.0)]).shape == (0, 1)
    assert build_gains([(0.0, 0.0)] * 3, []).shape == (3, 0)


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
    expected_rms = oracles.oracle_distance_gain(3.0) * 10.0 ** (-30.0 / 20.0)
    assert np.sqrt(np.mean(np.square(one))) == pytest.approx(
        expected_rms, rel=0.02)


def test_emission_becomes_audible_next_tick(tmp_path):
    scn = Scenario(name="lat", seed=3, duration_s=12.0,
                   noise_floor_dbfs=None, monitors=[(0.0, 0.0)],
                   agents=[AgentSpec("composer_000", "composer",
                                     (0.0, 0.0))])
    run_scenario(scn, tmp_path / "run")
    events = load_run_events(RunDir(tmp_path / "run"))
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
    write_pcm16_wav(wav_path, pcm, rate=16000)
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


# Each kind's own keys for the window test. The window opens and closes
# mid-hop, the chirp call that starts at 0.45 s spans stop_s and the one at
# 0.65 s starts after it, and the WAV outlasts the window.
WINDOW_START_S, WINDOW_STOP_S = 0.2503, 0.4997
WINDOWED_KINDS = {
    "tone": {"freq_hz": 2000.0},
    "band_noise": {"band_hz": (1000.0, 3000.0)},
    "chirp_train": {"chirp_s": 0.1, "period_s": 0.2, "count": 3},
    "wav": {"path": "long.wav"},
}


@pytest.mark.parametrize("kind", WINDOWED_KINDS)
def test_source_window_is_sample_accurate(tmp_path, kind):
    write_pcm16_wav(tmp_path / "long.wav",
                    sine(700.0, amp=0.5, phase=1.0))

    def render(name, **window):
        spec = SourceSpec("s", kind, (0.0, 0.0), "anthrophony",
                          level_dbfs=-20.0, start_s=WINDOW_START_S,
                          **window, **WINDOWED_KINDS[kind])
        if kind == "wav":
            spec.path = str(tmp_path / spec.path)
        run_scenario(Scenario(name=name, seed=9, duration_s=1.0,
                              noise_floor_dbfs=None, monitors=[(0.0, 0.0)],
                              sources=[spec]), tmp_path / name)
        return read_wav(tmp_path / name / "monitor_00.wav",
                        target_rate=None)[0]

    samples = render("w", stop_s=WINDOW_STOP_S)
    start = round(WINDOW_START_S * SAMPLE_RATE)
    stop = round(WINDOW_STOP_S * SAMPLE_RATE)
    assert start % FRAME_HOP and stop % FRAME_HOP  # both mid-hop
    assert not samples[:start].any()
    assert not samples[stop:].any()
    assert samples[start] != 0.0 and samples[stop - 1] != 0.0
    # the window cuts the source's signal and changes none of it
    open_ended = render("open")
    assert np.array_equal(samples[start:stop], open_ended[start:stop])
    if kind == "band_noise":
        # the one source's stream: the seed's second child, after the bus
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(2)[1])
        ticks = oracles.oracle_band_noise_ticks(
            rng, WINDOWED_KINDS[kind]["band_hz"], -20.0, start, stop,
            len(samples) // FRAME_HOP)
        expected = np.zeros_like(ticks)
        expected[start:stop] = ticks[start:stop]
        assert np.array_equal(samples, expected.astype(np.float32))


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


def test_chirp_train_of_calls_shorter_than_a_sample_is_silent(tmp_path):
    # chirp_s and period_s both round to 0 samples at 32 kHz
    body = base_yaml(duration_s=1.0, noise_floor_dbfs=None,
                     monitors=[[0.0, 0.0]],
                     sources=[{"kind": "chirp_train", "position": [0, 0],
                               "chirp_s": 1.0e-5, "period_s": 1.2e-5,
                               "count": 5}])
    run_scenario(load_scenario(write_yaml(tmp_path, body)), tmp_path / "run")
    samples, _ = read_wav(tmp_path / "run" / "monitor_00.wav")
    assert len(samples) and not samples.any()


def test_chirp_train_with_calls_shorter_than_a_hop_equals_its_oracle(tmp_path):
    # in samples: start 100, calls 200 long every 300, so several start in
    # one hop and some span a hop edge; stop 9500 cuts the 32nd call
    start, width, period, stop = 100, 200, 300, 9500
    spec = SourceSpec("c", "chirp_train", (0.0, 0.0), "biophony",
                      level_dbfs=-20.0, start_s=start / SAMPLE_RATE,
                      stop_s=stop / SAMPLE_RATE, chirp_s=width / SAMPLE_RATE,
                      period_s=period / SAMPLE_RATE, count=100)
    run_scenario(Scenario(name="ct", seed=5, duration_s=0.5,
                          noise_floor_dbfs=None, monitors=[(0.0, 0.0)],
                          sources=[spec]), tmp_path / "run")
    samples, _ = read_wav(tmp_path / "run" / "monitor_00.wav",
                          target_rate=None)
    # the one source's stream: the seed's second child, after the bus
    rng = np.random.default_rng(np.random.SeedSequence(5).spawn(2)[1])
    expected = oracles.oracle_chirp_train(
        rng, default_filterbank().band_centers_hz, -20.0, start, period,
        width, -(-(stop - start) // period), len(samples))
    expected[stop:] = 0.0
    assert np.array_equal(samples, expected.astype(np.float32))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(start=st.integers(0, 3 * FRAME_HOP), width=st.integers(1, 2000),
       period=st.integers(1, 2500), count=st.integers(1, 12),
       level=st.floats(-60.0, 0.0))
def test_each_chirp_hop_has_the_oracles_bytes(start, width, period, count,
                                              level):
    stop, n_ticks = start + 6 * FRAME_HOP, 12
    spec = SourceSpec("c", "chirp_train", (0.0, 0.0), "biophony",
                      level_dbfs=level, chirp_s=width / SAMPLE_RATE,
                      period_s=period / SAMPLE_RATE, count=count)
    source = environment.ChirpTrainSource(
        spec, np.random.default_rng(3), start, stop)
    # its calls' phases are the rows of one (calls, bands) draw
    freqs = default_filterbank().band_centers_hz
    calls = min(count, -(-(stop - start) // period))
    phases = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi,
                                              (calls, len(freqs)))
    amp = 10.0 ** (level / 20.0) * np.sqrt(2.0 / len(freqs))
    for tick in range(n_ticks):
        i0 = tick * FRAME_HOP
        want = np.zeros(FRAME_HOP)
        for k in range(calls):
            lo = start + k * period
            idx = np.arange(max(i0, lo), min(i0 + FRAME_HOP, lo + width))
            if len(idx):
                want[idx - i0] += oracles.oracle_chirp_partials(
                    freqs, amp, phases[k], idx)
        assert source.hop(tick).tobytes() == want.tobytes(), tick


def test_a_long_dense_chirp_train_holds_only_the_sounding_calls():
    default_filterbank()  # built once per process, not by the source
    spec = SourceSpec("c", "chirp_train", (0.0, 0.0), "biophony",
                      level_dbfs=-20.0, chirp_s=0.0005, period_s=0.001,
                      count=10**6)
    tracemalloc.start()
    try:
        source = environment.ChirpTrainSource(
            spec, np.random.default_rng(0), 0, 60 * SAMPLE_RATE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 60,000 calls of 128 phases would be 61.4 MB drawn up front
    assert source.calls == 60_000
    assert peak < 1 << 20
    for tick in range(200):
        source.hop(tick)
        # the calls that start in a hop, and the one sounding into it
        assert len(source.phases) <= FRAME_HOP // 32 + 1


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
    events = load_run_events(RunDir(tmp_path / "run"))
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
    events = load_run_events(RunDir(tmp_path / "run"))
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
    assert named(load_run_events(RunDir(tmp_path / "run")), "emission_start")
    replayed = replay_run(tmp_path / "run")
    assert replayed["monitor_00.wav"] == summary.artifacts["monitor_00.wav"]


def test_replay_of_kept_clips_needs_no_logged_audio(tmp_path):
    # a collector keeps clips by day and plays none back
    day = {k: v for k, v in golden.MIXED.items() if k != "night_window"}
    scn = load_scenario(write_yaml(tmp_path, dict(
        day, duration_s=8.0, log_audio=False,
        agents=[{"kind": "collector", "params": {"record_max_s": 1.5}}])))
    summary = run_scenario(scn, tmp_path / "run")
    events = load_run_events(RunDir(tmp_path / "run"))
    assert any(e["payload"].get("pcm_omitted")
               for e in named(events, "sample_decision"))
    assert not named(events, "playback_start")
    replayed = replay_run(tmp_path / "run")
    for name, digest in replayed.items():
        assert digest == summary.artifacts[name], name


def test_replay_of_a_playback_without_logged_audio_refuses(tmp_path):
    collectors = [a for a in golden.MIXED["agents"]
                  if a["kind"] != "disruptor"]
    scn = load_scenario(write_yaml(tmp_path, dict(
        golden.MIXED, duration_s=4.0, log_audio=False, agents=collectors)))
    run_scenario(scn, tmp_path / "run")
    events = load_run_events(RunDir(tmp_path / "run"))
    assert named(events, "playback_start")
    assert not named(events, "disrupt_start")
    with pytest.raises(ReplayError, match="pcm_omitted"):
        replay_run(tmp_path / "run")


@pytest.fixture(scope="module")
def mixed_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("mixed")
    run_scenario(load_scenario(write_yaml(work, golden.MIXED)), work / "run")
    return work / "run"


def test_each_clip_is_logged_once(mixed_run):
    clips = [e["payload"]["pcm_b64"]
             for e in load_run_events(RunDir(mixed_run))
             if "pcm_b64" in e["payload"]]
    assert clips
    assert len(set(clips)) == len(clips)


def test_a_playback_names_the_decision_that_kept_its_clip(mixed_run):
    events = load_run_events(RunDir(mixed_run))
    playbacks = named(events, "playback_start")
    assert playbacks
    for playback in playbacks:
        payload = playback["payload"]
        assert "pcm_b64" not in payload
        [kept] = [e for e in named(events, "sample_decision")
                  if e["agent_id"] == playback["agent_id"]
                  and e["payload"]["captured_at"] == payload["captured_at"]]
        pcm = np.frombuffer(base64.b64decode(kept["payload"]["pcm_b64"]),
                            dtype=np.float32)
        assert len(pcm) == payload["n_samples"]


def test_a_playback_of_no_logged_sample_is_refused(mixed_run, tmp_path):
    run = RunDir(mixed_run)
    events = load_run_events(run)
    playback = named(events, "playback_start")[-1]
    playback["payload"]["captured_at"] = -1
    # a log with a matching sha256 in its manifest
    with RunWriter(tmp_path / "run", run.manifest["name"],
                   run.manifest["seed"], run.manifest["n_ticks"]) as writer:
        for name in run.manifest["artifacts"]:
            shutil.copy(mixed_run / name, writer.path(name))
        writer.path(EVENTS_FILE).write_text("".join(
            json.dumps(e, separators=(",", ":")) + "\n" for e in events))
    with pytest.raises(ReplayError, match=f"tick {playback['tick']} by "
                       f"{playback['agent_id']} names no logged sample"):
        replay_run(tmp_path / "run")


def audible_ticks(start):
    """First and last tick at which a logged emission is mixed."""
    payload = start["payload"]
    n = payload.get("n_samples", payload.get("out_samples"))
    return start["tick"] + 1, start["tick"] + -(-n // FRAME_HOP)


# Cuts of the golden mixed night scenario. Its first composer note is logged
# on tick 0 and the collectors' first playbacks on tick 92; clips started at
# ticks 0, 31 and 92 are still playing at tick 149; the first note's last
# hop is mixed on tick 188; a disruptor's clip is logged on tick 398.
@pytest.mark.parametrize("n_ticks,edge", [
    (1, "logged"), (93, "logged"), (150, "playing"), (189, "last_hop"),
    (399, "logged")])
def test_replay_equals_run_at_the_edges_of_the_schedule(tmp_path, n_ticks,
                                                        edge):
    mixed = write_yaml(tmp_path, golden.MIXED)
    scn = load_scenario(mixed)
    scn.duration_s = n_ticks * FRAME_HOP / SAMPLE_RATE
    summary = run_scenario(scn, tmp_path / "run")
    assert summary.n_ticks == n_ticks
    starts = [e for e in load_run_events(RunDir(tmp_path / "run"))
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
    assert sorted(replayed) == ["monitor_00.wav", "monitor_01.wav",
                                "occupation.json", "occupation.npy"]
    for name, digest in replayed.items():
        assert digest == summary.artifacts[name], name


def test_replay_names_an_occupation_that_diverges(tmp_path, monkeypatch):
    run_scenario(load_scenario(write_yaml(tmp_path, dict(
        golden.MIXED, duration_s=2.0))), tmp_path / "run")
    # replay bins the same ticks into half-second windows
    monkeypatch.setattr(environment, "OCCUPATION_WINDOW_TICKS", 31)
    with pytest.raises(ReplayError) as err:
        replay_run(tmp_path / "run")
    assert str(err.value).endswith(": occupation.json, occupation.npy")


# --- active-set mixing ---------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_listeners=st.integers(2, 132), n_sources=st.integers(0, 2),
       share=st.sampled_from(["none", "one", "some", "all"]),
       noise=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_active_rows_mix_as_the_full_product(n_listeners, n_sources, share,
                                             noise, seed):
    rng = np.random.default_rng(seed)
    n_agents = int(rng.integers(1, min(n_listeners - 1, 130) + 1))
    n_monitors = n_listeners - 1 - n_agents

    def place(n):
        return [tuple(p) for p in rng.uniform(-8.0, 8.0, (n, 2))]

    scn = Scenario(
        name="active", seed=seed, duration_s=4 * FRAME_HOP / SAMPLE_RATE,
        noise_floor_dbfs=-60.0 if noise else None, monitors=place(n_monitors),
        agents=[AgentSpec(f"composer_{j:03d}", "composer", pos)
                for j, pos in enumerate(place(n_agents))],
        sources=[SourceSpec(f"s{i}", "tone", pos, "anthrophony",
                            level_dbfs=-40.0, freq_hz=300.0 + 200.0 * i)
                 for i, pos in enumerate(place(n_sources))])
    size = {"none": 0, "one": 1, "all": n_agents}.get(
        share, int(rng.integers(0, n_agents + 1)))
    queues = [agents.EmissionQueue() for _ in range(n_agents)]
    bus = environment.Bus(scn, rng, [rng] * n_sources)
    assert len(bus.noise_rows) == (environment.NOISE_ROWS if noise else 0)
    gains_t = np.ascontiguousarray(bus.gains.T)
    for tick in range(scn.n_ticks):
        # a fresh active set each tick, of one-hop clips small enough not
        # to clip
        for j in sorted(rng.choice(n_agents, size, replace=False)):
            queues[j].start(1e-3 * rng.standard_normal(FRAME_HOP))
        assert sum(bus.deal(queues)) == size
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
            super().mix(tick)

        def write_renders(self, out_dir):
            self.check()
            return super().write_renders(out_dir)

    monkeypatch.setattr(environment, "Bus", CheckedBus)
    scn = load_scenario(write_yaml(tmp_path, golden.MIXED))
    run_scenario(scn, tmp_path / "run")
    replay_run(tmp_path / "run")
    # once per tick and at the end, in run and replay; rows did sound
    assert len(checked) == 2 * (scn.n_ticks + 1)
    assert max(checked) > 0


def test_a_silent_hop_is_sent_but_leaves_its_row_inactive():
    scn = Scenario(name="silent", seed=1, duration_s=1.0,
                   noise_floor_dbfs=None,
                   agents=[AgentSpec(f"composer_{j:03d}", "composer",
                                     (float(j), 0.0)) for j in range(3)])
    queues = [agents.EmissionQueue() for _ in range(3)]
    # a clip that opens on zeros, and an empty one dealt as one padded hop
    queues[0].start(np.concatenate([np.zeros(FRAME_HOP), np.ones(FRAME_HOP)]))
    queues[1].start(np.zeros(0))
    assert queues[1].ending
    bus = environment.Bus(scn, None, [])
    assert bus.deal(queues).tolist() == [True, True, False]
    assert bus.active == [False, False, False]
    assert not bus.agent_rows.any()
    assert not queues[1].active
    assert bus.deal(queues).tolist() == [True, False, False]
    assert bus.active == [True, False, False]
    assert bus.deal(queues).tolist() == [False, False, False]
    assert bus.active == [False, False, False]
    assert not bus.agent_rows.any()


def test_an_empty_note_is_charged_vetoed_and_ends_on_its_tick(
        tmp_path, monkeypatch):
    dealt, echo = [], []

    class SpyBus(environment.Bus):
        def deal(self, queues):
            sent = super().deal(queues)
            dealt.append(bool(sent[0]))
            assert self.active == [False]  # the empty hop never sounds
            return sent

    class SpyHearing(agents.Hearing):
        def listen(self, *args):
            super().listen(*args)
            echo.append(bool(self.echo[0]))

    monkeypatch.setattr(environment, "Bus", SpyBus)
    monkeypatch.setattr(environment, "Hearing", SpyHearing)
    body = base_yaml(night_window=[0.0, 1.0], noise_floor_dbfs=None, agents=[
        {"kind": "composer",
         "params": {"note_min_s": 0, "note_max_s": 0, "slot_s": 0.5},
         "energy": {"harvest_peak_w": 0.0, "cost_idle_w": 0.0,
                    "cost_emit_w": 1.0, "liveliness_per_s": 50.0}}])
    run_scenario(load_scenario(write_yaml(tmp_path, body)), tmp_path / "run")
    events = load_run_events(RunDir(tmp_path / "run"))
    starts = [e["tick"] for e in named(events, "emission_start")]
    assert len(starts) > 1
    assert all(e["payload"]["n_samples"] == 0
               for e in named(events, "emission_start"))
    assert [e["tick"] for e in named(events, "emission_end")] == starts
    assert [t for t, sent in enumerate(dealt) if sent] == starts
    for t in starts:
        assert echo[t + 1:t + 3] == [True] * len(echo[t + 1:t + 3])
    dt_h = environment.TICK_SECONDS / 3600.0
    summary = named(events, "summary")[0]["payload"]
    assert summary["consumed_wh"] == pytest.approx(len(starts) * dt_h,
                                                   rel=1e-12)


# --- bus noise ----------------------------------------------------------------

@pytest.mark.parametrize("floor_dbfs", [-60.0, -12.5, 0.0])
def test_every_listener_weight_row_has_norm_rms(floor_dbfs):
    scn = Scenario(name="w", seed=4, duration_s=1.0,
                   noise_floor_dbfs=floor_dbfs,
                   monitors=[(1.0, 0.0), (0.0, 3.0)],
                   agents=[AgentSpec(f"composer_{j:03d}", "composer",
                                     (float(j), 1.0)) for j in range(5)],
                   sources=[SourceSpec("t", "tone", (2.0, 2.0),
                                       "anthrophony", freq_hz=440.0)])
    bus = environment.Bus(scn, np.random.default_rng(1),
                          [np.random.default_rng(2)])
    assert bus.noise_rows == range(1, 1 + environment.NOISE_ROWS)
    weights = bus.gains[bus.noise_rows]           # (rows, listeners)
    assert weights.shape == (environment.NOISE_ROWS, 5 + 1 + 2)
    norms = np.sqrt(np.sum(np.square(weights), axis=0))
    rms = 10.0 ** (floor_dbfs / 20.0)
    assert np.allclose(norms, rms, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("noise", [True, False], ids=["noise", "no_noise"])
@pytest.mark.parametrize("n_ticks", [0, 1, 7, 8, 9, 29])
def test_bus_noise_matches_per_tick_draws(noise, n_ticks):
    # the weights, then one (NOISE_ROWS, FRAME_HOP) draw per tick, and no
    # other draw from the bus generator; without a floor, no draw at all
    child = np.random.SeedSequence(99).spawn(3)[0]
    reference = np.random.default_rng(child)
    floor_dbfs = -60.0
    rms = 10.0 ** (floor_dbfs / 20.0)
    scn = Scenario(name="n", seed=5, duration_s=n_ticks * FRAME_HOP
                   / SAMPLE_RATE,
                   noise_floor_dbfs=floor_dbfs if noise else None,
                   monitors=[(1.0, 0.0), (0.0, 2.0), (3.0, 3.0), (4.0, 1.0)])
    assert scn.n_ticks == n_ticks
    before = threading.active_count()
    bus = environment.Bus(scn, np.random.default_rng(child), [])
    assert threading.active_count() == before
    n_listeners = 1 + len(scn.monitors)
    if noise:
        weights = reference.standard_normal((n_listeners,
                                             environment.NOISE_ROWS))
        weights *= rms / np.linalg.norm(weights, axis=1, keepdims=True)
        assert np.array_equal(bus.gains[bus.noise_rows], weights.T)
    else:
        assert len(bus.noise_rows) == 0
    for tick in range(n_ticks):
        bus.mix(tick)
        got = bus.hops[bus.noise_rows]
        if noise:
            want = reference.standard_normal((environment.NOISE_ROWS,
                                              FRAME_HOP))
            assert np.array_equal(got, want), f"tick {tick}"
            assert np.allclose(bus.mixed, np.clip(weights @ want, -1, 1),
                               rtol=1e-12, atol=1e-15), f"tick {tick}"
        else:
            assert got.size == 0
            assert not bus.mixed.any(), f"tick {tick}"
    assert np.array_equal(bus._rng.standard_normal(4),
                          reference.standard_normal(4))
    assert threading.active_count() == before


def test_geophony_holds_the_white_noise_floor_energy(tmp_path):
    # sigma^2 * sum(w^2) per rFFT bin of a Hann-windowed frame of white
    # noise, summed through every Mel triangle; the first frame holds one
    # hop of noise after a hop of zeros
    floor_dbfs = -48.0
    scn = Scenario(name="geo", seed=19, duration_s=20.0,
                   noise_floor_dbfs=floor_dbfs, monitors=[(2.0, 0.0)],
                   agents=[AgentSpec("collector_000", "collector",
                                     (1.0, 1.0))])
    summary = run_scenario(scn, tmp_path / "run")
    occupation = np.load(tmp_path / "run" / "occupation.npy")
    w2 = [w * w for w in oracles.oracle_hann()]
    frames = (summary.n_ticks - 1) * sum(w2) + sum(w2[FRAME_HOP:])
    mel_total = sum(map(sum, oracles.oracle_mel_weights()))
    predicted = 10.0 ** (floor_dbfs / 10.0) * frames * mel_total
    geophony = float(occupation[environment.CHANNELS.index("geophony")].sum())
    assert geophony / predicted == pytest.approx(1.0, abs=0.03)


def test_run_and_replay_start_no_thread(tmp_path, monkeypatch):
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    run_scenario(full_scenario(), tmp_path / "run")
    replay_run(tmp_path / "run")
    assert started == []


def test_the_clock_is_built_once_the_world_exists_and_ends_each_tick(
        tmp_path, monkeypatch):
    # a benchmark session hooks environment.SimClock: its construction ends
    # the setup and each advance() a tick; within a tick the occupation's
    # FFT runs before the agents' high-pass, and their FFT after it
    calls = []

    def record(owner, name, label):
        method = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(label)
            return method(*args, **kwargs)
        monkeypatch.setattr(owner, name, recorded)

    class Clock(environment.SimClock):
        def __init__(self, *args):
            super().__init__(*args)
            calls.append("clock")

        def advance(self):
            super().advance()
            calls.append("advance")

    monkeypatch.setattr(environment, "SimClock", Clock)
    record(environment.Bus, "__init__", "bus")
    record(environment.Hearing, "__init__", "hearing")
    for kind, cls in agents.AGENT_KINDS.items():
        record(cls, "__init__", kind)
    record(environment.HighpassFilter, "process", "high-pass")
    record(environment, "fft_magnitude", "fft")
    scn = replace(full_scenario(), duration_s=1.0)
    run_scenario(scn, tmp_path / "run")
    start = calls.index("clock")
    assert sorted(calls[:start]) == sorted(
        ["bus", "hearing", "composer", "collector", "disruptor"])
    assert calls[start + 1:] == ["fft", "high-pass", "fft",
                                 "advance"] * scn.n_ticks
    calls.clear()
    replay_run(tmp_path / "run")
    assert calls == ["bus"] + ["fft"] * scn.n_ticks


class StepFault(Exception):
    pass


def fail_composers_at_tick_5(monkeypatch):
    step = agents.ComposerAgent.step

    def failing_step(self, hearing, clock):
        if clock.tick == 5:
            raise StepFault(f"tick {clock.tick}")
        return step(self, hearing, clock)

    monkeypatch.setattr(agents.ComposerAgent, "step", failing_step)


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
    # neither the run directory nor its staged copy is left
    assert not list(tmp_path.iterdir())


def test_manifest_checksums_match_files(tmp_path):
    summary = run_scenario(full_scenario(), tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["format"] == 2
    assert manifest["n_ticks"] == summary.n_ticks
    for name, sha in manifest["artifacts"].items():
        digest = hashlib.sha256(
            (tmp_path / "run" / name).read_bytes()).hexdigest()
        assert digest == sha, name


def test_empty_roster_logs_only_scheduler_records(tmp_path):
    scn = Scenario(name="empty", seed=1, duration_s=1.0,
                   noise_floor_dbfs=None)
    run_scenario(scn, tmp_path / "run")
    events = load_run_events(RunDir(tmp_path / "run"))
    assert [e["event"] for e in events] == ["boot", "phase", "end"]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1001])
@pytest.mark.parametrize("log_audio", [True, False])
def test_a_clip_record_is_the_json_of_its_whole_payload(tmp_path, n,
                                                        log_audio):
    pcm = np.random.default_rng(n).uniform(-1, 1, n).astype(np.float32)
    event = {"event": "disrupt_start", "transform": "ring_mod",
             "carrier_hz": 1234.5, "note": "a \"quoted\" \u00e9", "_pcm": pcm,
             "out_samples": n}
    with environment.EventWriter(tmp_path / "e.jsonl", log_audio) as writer:
        writer.write(7, "disruptor_000", "disruptor", event)
        writer.write(8, "disruptor_000", "disruptor",
                     {"event": "disrupt_end", "_pcm": None})
    payload = {k: v for k, v in event.items() if k not in ("event", "_pcm")}
    if log_audio:
        payload["pcm_b64"] = base64.b64encode(pcm.tobytes()).decode("ascii")
    else:
        payload["pcm_omitted"] = True
    want = [{"tick": 7, "agent_id": "disruptor_000", "kind": "disruptor",
             "event": "disrupt_start", "payload": payload},
            {"tick": 8, "agent_id": "disruptor_000", "kind": "disruptor",
             "event": "disrupt_end", "payload": {}}]
    assert (tmp_path / "e.jsonl").read_text() == "".join(
        json.dumps(r, separators=(",", ":")) + "\n" for r in want)


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
    (lambda b: b.update(duration_s=1.0e+305),
     "duration_s must be a positive, finite number of seconds with a "
     "finite count of samples"),
])
def test_scenario_errors_name_the_key(tmp_path, mutate, message):
    body = base_yaml()
    mutate(body)
    with pytest.raises(ScenarioError, match=message):
        load_scenario(write_yaml(tmp_path, body))


def test_a_run_whose_renders_would_not_fit_a_wav_is_refused_at_load(
        tmp_path):
    # write_wav's RIFF size is 36 + 4 bytes a sample in 32 bits: 2**21
    # ticks of 512 samples need 2**32 + 36
    assert 36 + 4 * WAV_MAX_SAMPLES < 2 ** 32 <= 36 + 4 * (WAV_MAX_SAMPLES + 1)
    longest = (WAV_MAX_SAMPLES // FRAME_HOP) * FRAME_HOP / SAMPLE_RATE
    body = base_yaml(duration_s=33554.432, monitors=[[1.0, 0.0]])
    with pytest.raises(ScenarioError, match="duration_s must give at most "
                       r"2097151 ticks \(33554.416 s\) in a run with monitors"):
        load_scenario(write_yaml(tmp_path, body))
    # loading sizes nothing: these scenarios are never run
    assert load_scenario(write_yaml(
        tmp_path, dict(body, duration_s=longest))).n_ticks == 2 ** 21 - 1
    assert load_scenario(write_yaml(
        tmp_path, dict(body, monitors=[]))).n_ticks == 2 ** 21


@pytest.mark.parametrize("source,message", [
    ({"kind": "whale", "position": [0, 0]}, "source kind"),
    ({"kind": "tone", "position": [0, 0]}, "freq_hz"),
    ({"kind": "tone", "position": [0, 0], "freq_hz": 99999.0},
     "freq_hz must be inside .0, 16000."),
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
    # a key of another source kind is refused, not dropped
    ({"kind": "tone", "position": [0, 0], "freq_hz": 440.0,
      "band_hz": [200, 600]}, "band_hz does not apply to a tone source"),
    ({"kind": "wav", "position": [0, 0], "path": "nope.wav",
      "freq_hz": 440.0}, "freq_hz does not apply to a wav source"),
    ({"kind": "band_noise", "position": [0, 0], "band_hz": [200, 600],
      "count": 2}, "count does not apply to a band_noise source"),
    ({"kind": "tone", "position": [0, 0], "freq_hz": 440.0, "gain": 2.0},
     "gain does not apply to a tone source"),
    ({"kind": "band_noise", "position": [0, 0], "band_hz": [200, 600],
      "gain": 2.0}, "gain does not apply to a band_noise source"),
    ({"kind": "chirp_train", "position": [0, 0], "chirp_s": 0.5,
      "period_s": 1.0, "count": 3, "gain": 2.0},
     "gain does not apply to a chirp_train source"),
    ({"kind": "chirp_train", "position": [0, 0], "chirp_s": 0.5,
      "period_s": 1.0, "count": 3, "path": "w.wav"},
     "path does not apply to a chirp_train source"),
    # a time of a source must give a finite count of samples
    ({"kind": "tone", "position": [0, 0], "freq_hz": 440.0,
      "start_s": 1.0e+305}, "start_s must be a finite count of samples"),
    ({"kind": "tone", "position": [0, 0], "freq_hz": 440.0,
      "stop_s": 1.0e+305}, "stop_s must be a finite count of samples"),
    ({"kind": "chirp_train", "position": [0, 0], "chirp_s": 0.5,
      "period_s": 1.0e+305, "count": 3},
     "period_s must be a finite count of samples"),
    ({"kind": "chirp_train", "position": [0, 0], "chirp_s": 1.0e+305,
      "period_s": 1.0e+305, "count": 3},
     "chirp_s must be a finite count of samples"),
    # a window that never sounds
    ({"kind": "tone", "position": [0, 0], "freq_hz": 440.0,
      "start_s": 2.0, "stop_s": 2.0},
     r"sources\[0\]: stop_s must be after start_s"),
    # the band-pass is designed on band_hz / 16000, where this low edge is 0
    ({"kind": "band_noise", "position": [0, 0], "band_hz": [1.0e-320, 600]},
     "band_hz must be .low, high. inside .0, 16000., also once divided"),
    # a wav plays at its file's level, so level_dbfs is refused, not dropped
    ({"kind": "wav", "position": [0, 0], "path": "nope.wav",
      "level_dbfs": -20.0},
     r"sources\[0\]: level_dbfs does not apply to a wav source"),
])
def test_source_errors_name_the_key(tmp_path, source, message):
    body = base_yaml(sources=[source])
    with pytest.raises(ScenarioError, match=message):
        load_scenario(write_yaml(tmp_path, body))


@pytest.mark.parametrize("content,message", [
    (b"RIFF", "too short"),
    (wav_bytes(rate=0), "sample rate 0"),
    (wav_bytes(payload=bytes(3)), "data chunk size 3"),
    (wav_bytes(with_data=False, fmt_held=4), "fmt chunk holds 4 bytes"),
])
def test_malformed_wav_source_fails_at_load(tmp_path, content, message):
    (tmp_path / "w.wav").write_bytes(content)
    body = base_yaml(sources=[{"kind": "wav", "position": [0, 0],
                               "path": "w.wav"}])
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_yaml(tmp_path, body))
    assert str(err.value).startswith("sources[0]: path: ")
    assert message in str(err.value)


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
    ({"kind": "composer", "params": {"amplitude": 1.0e+308}},
     "params.amplitude must be at most 3.4028234663852886e+38"),
    ({"kind": "composer", "params": {"amplitude": -1.0e+39}},
     "params.amplitude must be at most"),
    ({"kind": "collector", "params": {"record_max_s": "1e-5"}},
     "not '1e-5'; write it with a point, e.g. 1.0e-5"),
    ({"kind": "composer", "battery_wh": -5.0},
     "battery_wh must not be negative"),
    ({"kind": "composer", "energy": {"harvest_peak_w": -2.0}},
     "energy.harvest_peak_w must not be negative"),
    ({"kind": "composer", "energy": {"cost_idle_w": -0.1}},
     "energy.cost_idle_w must not be negative"),
    ({"kind": "composer", "energy": {"cost_listen_w": -0.1}},
     "energy.cost_listen_w must not be negative"),
    ({"kind": "composer", "energy": {"cost_emit_w": -1.0}},
     "energy.cost_emit_w must not be negative"),
    ({"kind": "collector", "params": {"max_items": 0}},
     "params.max_items must be positive"),
    ({"kind": "collector", "params": {"capacity_bytes": -5}},
     "params.capacity_bytes must be positive"),
    ({"kind": "collector", "params": {"tone_frames": -3}},
     "params.tone_frames must not be negative"),
    # a key only composers read is refused on another kind, not dropped
    ({"kind": "collector", "preferred_band": 5, "slot_offset_ticks": 7},
     "agents[0]: preferred_band does not apply to a collector"),
    ({"kind": "disruptor", "count": 2, "slot_offset_ticks": 7},
     "agents[0]: slot_offset_ticks does not apply to a disruptor"),
    ({"kind": "collector", "slot_offset_ticks": 0},
     "agents[0]: slot_offset_ticks does not apply to a collector"),
])
def test_agent_errors_name_the_key(tmp_path, agent, message):
    body = base_yaml(agents=[agent])
    with pytest.raises(ScenarioError, match=r"agents\[0\]: ") as info:
        load_scenario(write_yaml(tmp_path, body))
    assert message in str(info.value)


def test_every_range_rule_names_a_field():
    # a rule keyed by a misspelt name would never fire
    models = [Scenario, SourceSpec, AgentSpec, agents.EnergyModel,
              *(cls.Params for cls in agents.AGENT_KINDS.values())]
    names = {f.name for model in models for f in fields(model)}
    assert set(environment._FIELD_RANGES) - names == set()


def test_float32_maximum_amplitude_loads(tmp_path):
    top = float(np.finfo(np.float32).max)
    body = base_yaml(agents=[{"kind": "composer",
                              "params": {"amplitude": -top}}])
    scn = load_scenario(write_yaml(tmp_path, body))
    assert scn.agents[0].params["amplitude"] == -top


def test_float_hint_is_a_yaml_float():
    for text, hint in [("1e-5", "1.0e-5"), ("2E8", "2.0e+8"),
                       ("3.5e2", "3.5e+2"), ("7", "7.0")]:
        assert environment._float_hint(text).endswith(f"e.g. {hint}")
        assert isinstance(yaml.safe_load(hint), float)
    assert environment._float_hint("nan") == ""
    assert environment._float_hint("fast") == ""


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
    events = load_run_events(RunDir(tmp_path / "run"))
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
    [(key,) for key in sorted(f.name for f in fields(Scenario))]
    + [("sources", i, key) for i in range(4)
       for key in sorted(f.name for f in fields(SourceSpec))]
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
