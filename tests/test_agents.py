"""Agent behaviour: energy budget, spectral memory, and the three roles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import holonsim.agents as ag
import holonsim.dsp_transforms as dsp
import holonsim.features as ft
from holonsim.audio_core import SimClock, default_filterbank, fft_magnitude
from holonsim.environment import AgentSpec
from holonsim.params import (FRAME_HOP, FRAME_SIZE, N_MEL_BANDS, SAMPLE_RATE,
                             TICK_SECONDS)

import oracles
from synth import silence, sine, white_noise

BANK = default_filterbank()
NIGHT_ALWAYS = (0.0, 1.0)
DAY_ALWAYS = (1.0, 1.0)


def deal(agent, hearing, clock):
    """A tick's bookkeeping after the step, as a run does it: deal the
    agent's next hop, charge the ledger and set the echo veto from it."""
    hop = agent.queue.next_hop()
    sent = np.array([hop is not None])
    ag.energy_step(hearing, ag.daylight(clock), sent)
    hearing.veto_echo(sent, clock.tick)
    return hop


def drive(agent, pcm, *, night_window=DAY_ALWAYS, day_length_s=240.0):
    """Feed a pcm stream to one agent tick by tick, no feedback loop.

    The agent hears through a one-row Hearing and a float32 ring, as it
    would in a run. Returns (events_per_tick, hop_or_None_per_tick).
    """
    clock = SimClock(0, day_length_s, night_window)
    hearing = ag.Hearing([agent], len(pcm) // FRAME_HOP)
    ring = np.zeros(FRAME_SIZE, dtype=np.float32)
    all_events, out_hops = [], []
    for i in range(len(pcm) // FRAME_HOP):
        hop = pcm[i * FRAME_HOP:(i + 1) * FRAME_HOP]
        prev, ring = ring, np.concatenate([ring[FRAME_HOP:], hop],
                                          dtype=np.float32)
        mag = fft_magnitude(ring)
        mel = BANK.apply(mag)
        hearing.listen(ring[None], prev[None], mag[None], mel[None], clock)
        all_events.append(agent.step(hearing, clock))
        out_hops.append(deal(agent, hearing, clock))
        clock.advance()
    return all_events, out_hops


def named(all_events, name):
    return [(t, e) for t, evs in enumerate(all_events)
            for e in evs if e["event"] == name]


def make(cls, seed=0, battery=None, energy=None, preferred_band=None,
         **params):
    """An agent of class cls built from its AgentSpec, as a run builds it."""
    spec = AgentSpec(cls.kind, cls.kind, (0.0, 0.0), battery_wh=battery,
                     preferred_band=preferred_band, params=params,
                     energy=energy or {})
    return cls(spec, np.random.default_rng(seed))


def composer(seed=0, battery=None, energy=None, **kwargs):
    return make(ag.ComposerAgent, seed, battery, energy, **kwargs)


# --- energy -----------------------------------------------------------------

def test_harvest_arc_zero_at_night_peaks_midday():
    clock = SimClock(0, 240.0, (0.5, 1.0))
    assert ag.daylight(clock) == pytest.approx(0.0, abs=1e-9)
    clock.tick = int(60.0 / TICK_SECONDS)  # midday
    assert ag.daylight(clock) == pytest.approx(1.0, rel=1e-6)
    clock.tick = int(180.0 / TICK_SECONDS)  # deep night
    assert ag.daylight(clock) == 0.0


def test_energy_ledger_balances_with_clamping():
    agents = [composer(battery=0.0005, energy={
        "battery_max_wh": 0.0005, "harvest_peak_w": 2.0,
        "cost_idle_w": 0.5, "cost_emit_w": 1.0}), composer(battery=3.0)]
    hearing = ag.Hearing(agents, int(60.0 / TICK_SECONDS))
    clock = SimClock(0, 20.0, (0.5, 1.0))
    rng = np.random.default_rng(7)
    full = empty = 0
    for _ in range(int(60.0 / TICK_SECONDS)):
        sent = rng.random(2) < 0.3
        ag.energy_step(hearing, ag.daylight(clock), sent)
        clock.advance()
        assert np.all((0.0 <= hearing.battery_wh)
                      & (hearing.battery_wh <= hearing.battery_max_wh))
        full += hearing.battery_wh[0] == hearing.battery_max_wh[0]
        empty += hearing.battery_wh[0] == 0.0
    # both clamp paths must have triggered with the tiny pack
    assert full and empty


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_energy_step_matches_the_per_agent_ledger(data):
    n = data.draw(st.integers(1, 6), label="n")
    watts = st.floats(0.0, 50.0)
    energies = [{"battery_max_wh": data.draw(st.floats(1e-4, 0.01)),
                 "harvest_peak_w": data.draw(watts),
                 "cost_idle_w": data.draw(watts),
                 "cost_listen_w": data.draw(watts),
                 "cost_emit_w": data.draw(watts)} for _ in range(n)]
    agents = [composer(battery=data.draw(st.floats(0.0, 0.012)), energy=e)
              for e in energies]
    hearing = ag.Hearing(agents, 40)
    refs = [oracles.OracleLedger(a.energy, a.start_wh) for a in agents]
    # a short day, so the ticks cross day and night
    clock = SimClock(0, 20 * TICK_SECONDS, (0.5, 1.0))
    for sent in data.draw(st.lists(hnp.arrays(bool, n), min_size=1,
                                   max_size=40), label="sent"):
        sun = ag.daylight(clock)
        ag.energy_step(hearing, sun, sent)
        for ref, emitted in zip(refs, sent):
            ref.step(ref.model.harvest_peak_w * sun, bool(emitted))
        clock.advance()
        for name in ("battery_wh", "harvested_wh", "consumed_wh"):
            want = np.array([getattr(ref, name) for ref in refs])
            assert getattr(hearing, name).tobytes() == want.tobytes(), name


def test_liveliness_scales_with_battery_and_daytime():
    model = ag.EnergyModel(battery_max_wh=10.0, liveliness_per_s=0.5,
                           day_liveliness_scale=0.25)
    assert model.liveliness(10.0, is_night=True) == pytest.approx(0.5)
    assert model.liveliness(5.0, is_night=True) == pytest.approx(0.25)
    assert model.liveliness(0.0, is_night=True) == 0.0
    assert model.liveliness(20.0, is_night=True) == pytest.approx(0.5)
    assert model.liveliness(10.0, is_night=False) == pytest.approx(0.125)


# --- spectral memory ----------------------------------------------------------

def test_profile_half_life_semantics():
    prof = ag.SpectralProfile([2.0], [0.5])
    e = np.full(128, 4.0)
    for _ in range(int(round(2.0 / TICK_SECONDS))):  # one long half-life
        prof.update(e, True)
    assert prof.ema_energy[0, 0] == pytest.approx(2.0, rel=1e-9)
    # the short memory has had four of its half-lives by then
    assert prof.short_term_energy[0, 0] == pytest.approx(4.0 * (1 - 2.0 ** -4),
                                                      rel=1e-9)


def test_profile_range_follows_level_swings():
    prof = ag.SpectralProfile([1.0], [2.0])
    assert np.all(prof.ema_range_db == 0.0)
    loud, quiet = np.full(128, 1.0), np.full(128, 1e-4)
    prof.update(loud, True)
    assert np.all(prof.ema_range_db == 0.0)  # first frame seeds both followers
    block = int(round(0.5 / TICK_SECONDS))
    for _ in range(10):
        for _ in range(block):
            prof.update(loud, True)
        for _ in range(block):
            prof.update(quiet, True)
    # level swing is 40 dB; the slow-release followers keep most of it
    # (each half-second away from an extreme costs the pair ~12 dB)
    assert 20.0 <= prof.ema_range_db[0, 0] <= 40.0

    flat = ag.SpectralProfile([1.0], [2.0])
    for _ in range(500):
        flat.update(np.full(128, 0.01), True)
    assert np.all(flat.ema_range_db == 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_profile_matches_per_row_updates(data):
    n = data.draw(st.integers(1, 5), label="rows")
    ticks = data.draw(st.integers(1, 30), label="ticks")
    half_life = st.floats(0.02, 200.0)
    longs = data.draw(st.lists(half_life, min_size=n, max_size=n))
    shorts = data.draw(st.lists(half_life, min_size=n, max_size=n))
    energy = st.sampled_from([0.0, 1e-4, 1.0]) | st.floats(0.0, 1e3)
    frames = data.draw(hnp.arrays(float, (ticks, n, N_MEL_BANDS),
                                  elements=energy), label="frames")
    listening = data.draw(hnp.arrays(bool, (ticks, n)), label="listening")
    prof = ag.SpectralProfile(longs, shorts)
    refs = [oracles.OracleSpectralProfile(N_MEL_BANDS, lo, sh)
            for lo, sh in zip(longs, shorts)]
    for t in range(ticks):
        prof.update(frames[t], listening[t])
        for r, ref in enumerate(refs):
            if listening[t, r]:
                ref.update(frames[t, r])
            assert np.array_equal(prof.ema_energy[r], ref.ema)
            assert np.array_equal(prof.short_term_energy[r], ref.short)
            assert np.array_equal(prof.ema_range_db[r], ref.peak - ref.floor)


# --- tone synthesis and the emission queue ------------------------------------

def test_synth_tone_envelope_and_determinism():
    n, attack, decay = 32000, 1600, 3200
    y = ag.synth_tone(440.0, 0.5, n, attack, decay, SAMPLE_RATE, 0, n)
    assert y.dtype == np.float32 and len(y) == n
    assert y[0] == 0.0
    assert np.max(np.abs(y)) <= 0.5 + 1e-6
    assert np.max(np.abs(y[n // 2 - 200:n // 2 + 200])) == pytest.approx(
        0.5, rel=1e-3)
    assert np.max(np.abs(y[-50:])) < 0.02
    spec = np.abs(np.fft.rfft(y[8000:24000]))
    assert abs(np.argmax(spec) * SAMPLE_RATE / 16000 - 440.0) <= 2.0
    assert np.array_equal(y, ag.synth_tone(440.0, 0.5, n, attack, decay,
                                           SAMPLE_RATE, 0, n))


def test_hearing_hops_are_the_latest_hop():
    agent = collector()
    hearing = ag.Hearing([agent], 1)
    frames = np.arange(float(FRAME_SIZE))[None] / FRAME_SIZE
    mag = fft_magnitude(frames)
    hearing.listen(frames, np.zeros_like(frames), mag, BANK.apply(mag),
                   SimClock(0, 240.0, (0.5, 1.0)))
    assert np.array_equal(hearing.hops[0], frames[0, FRAME_HOP:])
    assert hearing.levels[0] == oracles.oracle_rms(frames[0, FRAME_HOP:])


def test_emission_queue_deals_hops_and_pads_the_tail():
    q = ag.EmissionQueue()
    pcm = (np.arange(1000) / 1000.0).astype(np.float32)
    q.start(pcm)
    assert q.active
    h1 = q.next_hop()
    assert np.array_equal(h1, pcm[:FRAME_HOP])
    h2 = q.next_hop()
    assert not q.active
    assert np.array_equal(h2[:488], pcm[FRAME_HOP:])
    assert np.all(h2[488:] == 0.0)
    assert q.next_hop() is None


BLOCK = ag.NOTE_BLOCK_HOPS * FRAME_HOP


@st.composite
def notes(draw):
    """A note's (n, attack, decay): lengths at 0, 1, under one hop, on
    block edges and at full note size; ramps at 0, distinct, and meeting
    as _start_note's rounding can make them, a = d = (n + 1) // 2."""
    n = draw(st.one_of(
        st.sampled_from([0, 1, 2, FRAME_HOP - 1, FRAME_HOP, FRAME_HOP + 1,
                         BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK,
                         2 * BLOCK + FRAME_HOP, 96000 - 1, 96000]),
        st.integers(0, 96000)), label="n")
    ramps = draw(st.sampled_from(["none", "distinct", "meeting"]),
                 label="ramps")
    if ramps == "none":
        return n, 0, 0
    if ramps == "meeting":
        return n, (n + 1) // 2, (n + 1) // 2
    half = st.integers(0, n // 2)
    return n, draw(half, label="attack"), draw(half, label="decay")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(note=notes(), freq=st.floats(80.0, 16000.0), amp=st.floats(0.0, 1.0))
def test_a_note_dealt_in_blocks_is_the_whole_note_hop_for_hop(note, freq,
                                                              amp):
    n, attack, decay = note
    calls = []

    def render(start, stop):
        calls.append((start, stop))
        return ag.synth_tone(freq, amp, n, attack, decay, SAMPLE_RATE,
                             start, stop)

    want = oracles.oracle_note(freq, amp, n, attack, decay)
    want = np.pad(want, (0, -(-max(n, 1) // FRAME_HOP) * FRAME_HOP - n))
    q = ag.EmissionQueue()
    q.sing(n, render)
    hops = []
    while q.active:
        ending = q.ending
        hops.append(q.next_hop())
        assert ending == (not q.active)
    assert q.next_hop() is None
    assert [h.dtype for h in hops] == [np.float32] * len(hops)
    for k, hop in enumerate(hops):
        assert hop.tobytes() == want[k * FRAME_HOP:(k + 1) * FRAME_HOP] \
            .tobytes(), k
    # one block per NOTE_BLOCK_HOPS hops, each synthesized as it is reached
    assert calls == [(lo, min(lo + BLOCK, n))
                     for lo in range(0, max(n, 1), BLOCK)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(note=notes(), freq=st.floats(80.0, 16000.0), amp=st.floats(0.0, 1.0),
       data=st.data())
def test_any_slice_of_a_note_is_that_slice_of_the_whole_note(note, freq, amp,
                                                              data):
    n, attack, decay = note
    start = data.draw(st.integers(0, n), label="start")
    stop = data.draw(st.integers(start, n), label="stop")
    got = ag.synth_tone(freq, amp, n, attack, decay, SAMPLE_RATE, start, stop)
    want = oracles.oracle_note(freq, amp, n, attack, decay)[start:stop]
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


# --- composer -------------------------------------------------------------------

def test_composer_sings_lowest_band_in_a_quiet_field():
    agent = composer(seed=1)
    events, hops = drive(agent, silence(30.0))
    starts = named(events, "emission_start")
    assert len(starts) >= 1
    t0, ev = starts[0]
    assert t0 % agent.slot_ticks == 0
    # empty memory ties resolve to the lowest band index
    assert ev["band"] == 0
    assert agent.preferred_band == 0
    assert ev["freq_hz"] == pytest.approx(BANK.band_centers_hz[0])
    assert ev["n_samples"] == 96000  # full battery: longest note

    n_hops = -(-ev["n_samples"] // FRAME_HOP)
    note_hops = hops[t0:t0 + n_hops]
    assert all(h is not None for h in note_hops)
    if t0 + n_hops < len(hops):
        assert hops[t0 + n_hops] is None
    clip = np.concatenate(note_hops)[:ev["n_samples"]]
    resynth = ag.synth_tone(ev["freq_hz"], ev["amp"], ev["n_samples"],
                            ev["attack_samples"], ev["decay_samples"],
                            SAMPLE_RATE, 0, ev["n_samples"])
    assert np.array_equal(clip, resynth)

    ends = named(events, "emission_end")
    assert ends[0][0] == t0 + n_hops - 1
    assert ends[0][1]["band"] == 0


def test_composer_trigger_ticks_nest_by_battery():
    # same seed, frozen batteries: the poorer composer's trigger ticks must
    # be a subset of the richer one's, because both consume the same
    # uniform draw at every slot boundary
    frozen = dict(harvest_peak_w=0.0, cost_idle_w=0.0, cost_emit_w=0.0)
    rich = composer(seed=5, battery=10.0, energy=frozen)
    poor = composer(seed=5, battery=2.0, energy=frozen)
    quiet = silence(120.0)
    rich_events, _ = drive(rich, quiet)
    poor_events, _ = drive(poor, quiet)
    rich_ticks = {t for t, _ in named(rich_events, "emission_start")}
    poor_ticks = {t for t, _ in named(poor_events, "emission_start")}
    assert poor_ticks <= rich_ticks
    assert len(poor_ticks) < len(rich_ticks)
    assert len(poor_ticks) >= 1


def test_composer_waits_out_broadband_cover():
    # a comb through every band over each slot boundary: nothing free to claim
    agent = composer(seed=2)
    slot = agent.slot_ticks * FRAME_HOP / SAMPLE_RATE
    n = int(round(1.0 * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    burst = 0.05 * np.sin(
        2.0 * np.pi * BANK.band_centers_hz[:, None] * t[None, :]).sum(axis=0)
    pcm = np.concatenate(
        [np.concatenate([burst, silence(slot - 1.0)]) for _ in range(15)])
    # bursts start at each boundary, so every trigger sees a covered field
    events, hops = drive(agent, pcm)
    assert named(events, "emission_start") == []
    assert all(h is None for h in hops)
    assert agent.preferred_band is None


def test_select_band_detours_around_banded_intrusion_then_returns():
    agent = composer(seed=3, preferred_band=64)
    ag.Hearing([agent], 1)  # gives the composer its row of spectral memory
    quiet = np.full(128, 1e-4)
    for _ in range(400):
        agent.profile.update(quiet, True)
    assert agent.select_band(quiet) == 64

    hot = quiet.copy()
    hot[60:69] = 50.0
    for _ in range(60):
        agent.profile.update(hot, True)
    choice = agent.select_band(hot)
    assert choice is not None
    assert not 60 <= choice <= 68
    assert agent.preferred_band == 64  # detours never overwrite home

    for _ in range(800):  # ~13 s of quiet lets the fast memory release
        agent.profile.update(quiet, True)
    assert agent.select_band(quiet) == 64


def test_select_band_refuses_broadband_instant_cover():
    agent = composer(seed=4, preferred_band=64)
    ag.Hearing([agent], 1)
    quiet = np.full(128, 1e-4)
    for _ in range(400):
        agent.profile.update(quiet, True)
    # memory still says quiet, but this very frame is loud everywhere
    assert agent.select_band(np.full(128, 50.0)) is None


def test_composer_profile_freezes_while_it_sings():
    agent = composer(seed=6)
    agent.queue.start(np.zeros(FRAME_HOP * 20, dtype=np.float32))
    hearing = ag.Hearing([agent], 30)
    loud = np.full((1, 128), 50.0)
    frames = np.zeros((1, FRAME_SIZE))
    mag = np.zeros((1, FRAME_SIZE // 2 + 1))
    clock = SimClock(0, 240.0, DAY_ALWAYS)
    seen = []
    for _ in range(30):
        hearing.listen(frames, frames, mag, loud, clock)
        agent.step(hearing, clock)
        deal(agent, hearing, clock)
        seen.append(float(agent.profile.short_term_energy[0, 0]))
        clock.advance()
    assert seen[0] > 0.0  # the pre-emission frame still counts
    # 20 hops of singing plus the two-tick echo veto: frozen through tick 21
    assert seen[1:22] == [seen[0]] * 21
    assert seen[22] > seen[0]


# --- collector --------------------------------------------------------------------

def collector(seed=0, battery=None, **params):
    return make(ag.CollectorAgent, seed, battery, **params)


def test_collector_records_one_burst_exactly():
    agent = collector(seed=3)
    rng = np.random.default_rng(21)
    pcm = np.concatenate([silence(1.024), white_noise(rng, 0.32, 0.4),
                          silence(3.0)])
    events, _ = drive(agent, pcm)

    starts = named(events, "record_start")
    assert [t for t, _ in starts] == [64]
    decisions = named(events, "sample_decision")
    assert len(decisions) == 1
    assert decisions[0][1]["verdict"] == "append"
    assert decisions[0][1]["collection_size"] == 1

    # two hops of preroll, twenty of burst, fifteen closing quiet hops
    sample = agent.collection.items[0]
    lo = 62 * FRAME_HOP
    assert len(sample.pcm) == 37 * FRAME_HOP
    assert np.array_equal(sample.pcm,
                          pcm[lo:lo + len(sample.pcm)].astype(np.float32))

    led_modes = [e["mode"] for _, e in named(events, "led")]
    assert led_modes[:3] == ["acquiring_red", "accepted_blue", "off"]


@pytest.mark.parametrize("kind, cap", [("collector", "record_max_s"),
                                       ("disruptor", "capture_max_s")])
def test_a_recording_capped_at_one_hop_ends_the_next_tick(kind, cap):
    # the two hops of pre-roll and the first hop fill a 0.048 s cap at
    # once; the sample that first hop completes is handed out one tick on
    agent = make(ag.AGENT_KINDS[kind], 3, **{cap: 0.048})
    rng = np.random.default_rng(21)
    pcm = np.concatenate([silence(1.024), white_noise(rng, 0.32, 0.4),
                          silence(1.0)])
    events, _ = drive(agent, pcm)
    start, end = (f"{'record' if kind == 'collector' else 'capture'}_{e}"
                  for e in ("start", "end"))
    starts = [t for t, _ in named(events, start)]
    assert starts[0] == 64
    assert [t for t, _ in named(events, end)] == [t + 1 for t in starts]
    assert all(e["duration_s"] == 3 * FRAME_HOP / SAMPLE_RATE
               for _, e in named(events, end))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hearing_counts_tone_runs_as_each_collector_did(data):
    kinds = data.draw(st.lists(st.sampled_from(sorted(ag.AGENT_KINDS)),
                               min_size=1, max_size=5), label="kinds")
    agents = [make(ag.AGENT_KINDS[k], **(
        {"flatness_max": data.draw(st.floats(0.0, 1.0))}
        if k == "collector" else {})) for k in kinds]
    n, ticks = len(agents), data.draw(st.integers(1, 30), label="ticks")
    # one loud band over a flat floor: the louder it is, the less flat the
    # frame; a silent band leaves the frame flat and its argmax at band 0
    bands = data.draw(hnp.arrays(int, (ticks, n), elements=st.integers(0, 3)),
                      label="bands")
    peaks = data.draw(hnp.arrays(float, (ticks, n),
                                 elements=st.floats(0.0, 1e9)), label="peaks")
    echo = data.draw(hnp.arrays(bool, (ticks, n)), label="echo")
    hearing = ag.Hearing(agents, ticks)
    trackers = {j: oracles.OracleToneTracker(a.params.flatness_max)
                for j, a in enumerate(agents) if a.kind == "collector"}
    frames = np.zeros((n, FRAME_SIZE), dtype=np.float32)
    spectra = np.zeros((n, FRAME_SIZE // 2 + 1), dtype=np.float32)
    for t in range(ticks):
        mels = np.ones((n, N_MEL_BANDS))
        mels[np.arange(n), bands[t]] += peaks[t]
        hearing.echo_until = np.where(echo[t], t, -1)
        hearing.listen(frames, frames, spectra, mels,
                       SimClock(t, 240.0, DAY_ALWAYS))
        flatness = ft.spectral_flatness(mels)
        for j, tracker in trackers.items():
            tracker.update(flatness[j], int(np.argmax(mels[j])), echo[t, j])
            assert (hearing.tone_run[j], hearing.tone_band[j]) == (
                tracker.run, tracker.band), (t, j)


KIND_PARAMS = {"composer": {}, "collector": {"record_max_s": 1.0},
               "disruptor": {"capture_max_s": 0.5}}


def seeded_hearing_input(n, ticks, seed):
    """Per-tick float32 frames (ticks, n, FRAME_SIZE) of each row's own
    stream of silences, noise bursts and sines, and a random echo mask."""
    rng = np.random.default_rng(seed)
    streams = []
    for _ in range(n):
        pcm = [silence(0.2)]
        while sum(map(len, pcm)) < (ticks + 1) * FRAME_HOP:
            amp, length = rng.uniform(0.05, 0.5), rng.uniform(0.1, 0.6)
            pcm += [white_noise(rng, length, amp) if rng.random() < 0.5
                    else sine(rng.uniform(200.0, 8000.0), length, amp),
                    silence(rng.uniform(0.2, 0.8))]
        streams.append(np.concatenate(pcm)[:(ticks + 1) * FRAME_HOP])
    pcm = np.stack(streams).astype(np.float32)
    frames = np.stack([pcm[:, t * FRAME_HOP:t * FRAME_HOP + FRAME_SIZE]
                       for t in range(ticks)])
    return frames, rng.random((ticks, n)) < 0.05


def hear_rows(kinds, frames, echo):
    """Listen through one Hearing of agents of these kinds; returns, per
    tick, what each agent's row holds after listen()."""
    agents = [make(ag.AGENT_KINDS[k], **KIND_PARAMS[k]) for k in kinds]
    hearing = ag.Hearing(agents, len(frames))
    prev = np.zeros_like(frames[0])
    ticks = []
    for t, now in enumerate(frames):
        spectra = fft_magnitude(now)
        hearing.echo_until = np.where(echo[t], t, -1)
        hearing.listen(now, prev, spectra, BANK.apply(spectra),
                       SimClock(t, 240.0, DAY_ALWAYS))
        prev = now
        rows = []
        for j, agent in enumerate(agents):
            sample = hearing.finished.get(j)
            row = [bool(hearing.fired[j]), bool(hearing.recording[j]),
                   int(hearing.tone_run[j]), int(hearing.tone_band[j]),
                   hearing.levels[j].tobytes(), sample and (
                       sample.captured_at, sample.pcm.tobytes())]
            if agent.kind == "composer":
                p, r = agent.profile, agent.profile_row
                row += [p.ema_energy[r].tobytes(),
                        p.short_term_energy[r].tobytes(),
                        p.ema_range_db[r].tobytes()]
            rows.append(row)
        ticks.append(rows)
    return ticks


def test_a_hearing_of_one_kind_gives_each_agent_its_row_in_a_mixed_one():
    # one kind alone leaves the other kinds' rows empty: a composer-only
    # Hearing has no listeners and no collectors, a disruptor-only one no
    # composers and no collectors, a collector-only one no composers
    kinds = ["collector", "composer", "disruptor", "collector", "disruptor",
             "composer"]
    frames, echo = seeded_hearing_input(len(kinds), 300, seed=25)
    mixed = hear_rows(kinds, frames, echo)
    for kind in ag.AGENT_KINDS:
        rows = [j for j, k in enumerate(kinds) if k == kind]
        alone = hear_rows([kind] * len(rows), frames[:, rows], echo[:, rows])
        for t, (got, want) in enumerate(zip(alone, mixed)):
            assert got == [want[j] for j in rows], (kind, t)
    # the input sets off each part of the listening
    flat = [row for tick in mixed for row in tick]
    assert sum(row[0] for row in flat) >= 10            # onsets
    assert sum(row[5] is not None for row in flat) >= 5  # finished samples
    assert max(row[2] for row in flat) >= 5             # tone runs


def test_a_hearing_of_no_agents_listens():
    hearing = ag.Hearing([], 3)
    frames = np.zeros((0, FRAME_SIZE), dtype=np.float32)
    spectra = fft_magnitude(frames)
    for t in range(3):
        hearing.listen(frames, frames, spectra, BANK.apply(spectra),
                       SimClock(t, 240.0, DAY_ALWAYS))
    assert hearing.finished == {} and not hearing.fired.size


def test_collector_rejects_the_same_burst_keeps_a_different_one():
    # hop-aligned layout makes both takes of the burst bit-identical,
    # which is the only way a candidate can fail to raise the spread of a
    # young collection
    agent = collector(seed=3)
    burst = white_noise(np.random.default_rng(22), 0.32, 0.4)
    other = sine(2000.0, 0.32, 0.4)
    pcm = np.concatenate([silence(1.024), burst, silence(2.048),
                          burst, silence(2.048), other, silence(2.048)])
    events, _ = drive(agent, pcm)
    verdicts = [e["verdict"] for _, e in named(events, "sample_decision")]
    assert verdicts == ["append", "reject", "append"]
    assert len(agent.collection) == 2


def test_collector_answers_a_night_tone_once_per_refractory():
    # a short recording cap frees the agent while the tone still sounds
    agent = collector(seed=9, record_max_s=1.0)
    pcm = np.concatenate([silence(1.024), sine(1000.0, 25.0, 0.3)])
    events, hops = drive(agent, pcm, night_window=NIGHT_ALWAYS)

    assert [t for t, _ in named(events, "record_start")] == [64]
    sample = agent.collection.items[0]
    assert len(sample.pcm) == 32000  # capped at exactly one second

    plays = named(events, "playback_start")
    assert len(plays) == 3
    gaps = np.diff([t for t, _ in plays])
    assert np.all(gaps >= 10.0 / TICK_SECONDS)
    for _, ev in plays:
        assert ev["sample_index"] == 0
        # the clip itself is logged once, by the decision that kept it
        assert "_pcm" not in ev
        assert ev["captured_at"] == sample.captured_at
        assert ev["n_samples"] == len(sample.pcm)

    t_play = plays[0][0]
    emitted = [h for h in hops[t_play:t_play + 63] if h is not None]
    assert len(emitted) == 63  # 32000 samples round up to 63 hops
    assert np.array_equal(np.concatenate(emitted)[:32000], sample.pcm)


def test_collector_stays_silent_by_day_and_while_recording():
    agent = collector(seed=9, record_max_s=1.0)
    pcm = np.concatenate([silence(1.024), sine(1000.0, 25.0, 0.3)])
    events, _ = drive(agent, pcm, night_window=DAY_ALWAYS)
    assert len(named(events, "record_start")) == 1  # recording is not gated
    assert named(events, "playback_start") == []

    # at night, nothing may play before the recording completes (the same
    # tick is fine: the session closes earlier in the step)
    agent2 = collector(seed=9, record_max_s=1.0)
    events2, _ = drive(agent2, pcm, night_window=NIGHT_ALWAYS)
    t_done = named(events2, "record_end")[0][0]
    t_play = named(events2, "playback_start")[0][0]
    assert t_play >= t_done


def test_collector_empty_collection_never_plays():
    agent = collector(seed=1)
    # sustained tone with a soft enough start not to matter: the point is
    # that with nothing collected there is nothing to say
    pcm = sine(500.0, 5.0, 0.001)
    events, _ = drive(agent, pcm, night_window=NIGHT_ALWAYS)
    assert named(events, "playback_start") == []


# --- disruptor -------------------------------------------------------------------

def disruptor(seed=0, battery=None, energy=None, **params):
    return make(ag.DisruptorAgent, seed, battery, energy, **params)


def test_disruptor_captures_transforms_and_reemits():
    agent = disruptor(seed=11)
    rng = np.random.default_rng(31)
    pcm = np.concatenate([silence(1.024), white_noise(rng, 0.4, 0.4),
                          silence(8.0)])
    events, hops = drive(agent, pcm)

    assert [t for t, _ in named(events, "capture_start")] == [64]
    cap = named(events, "capture_end")[0][1]
    assert cap["duration_s"] == pytest.approx(42 * FRAME_HOP / SAMPLE_RATE)

    t_d, ev = named(events, "disrupt_start")[0]
    captured = pcm[62 * FRAME_HOP:(62 + 42) * FRAME_HOP].astype(np.float32)
    assert ev["fm_index"] == dsp.FM_INDEX
    assert ev["transform"] in dsp.TRANSFORMS
    spec = dsp.TransformSpec(ev["transform"], ev["carrier_hz"])
    expected = dsp.apply_transform(captured, spec).astype(np.float32)
    assert ev["out_samples"] == len(expected)
    assert np.array_equal(ev["_pcm"], expected)

    n_hops = -(-len(expected) // FRAME_HOP)
    emitted = [h for h in hops[t_d:t_d + n_hops]]
    assert all(h is not None for h in emitted)
    assert np.array_equal(np.concatenate(emitted)[:len(expected)], expected)
    assert named(events, "disrupt_end")[0][0] == t_d + n_hops - 1
    modes = [e["mode"] for _, e in named(events, "led")]
    assert "acquiring_red" in modes and "emitting" in modes


def test_disruptor_capture_is_never_analyzed(monkeypatch):
    calls = []
    analyze = ft.analyze
    monkeypatch.setattr(ft, "analyze", lambda pcm: calls.append(pcm)
                        or analyze(pcm))
    rng = np.random.default_rng(31)
    pcm = np.concatenate([silence(1.024), white_noise(rng, 0.4, 0.4),
                          silence(2.0)])
    events, _ = drive(disruptor(seed=11), pcm)
    assert len(named(events, "disrupt_start")) == 1
    assert calls == []


def test_disruptor_capture_caps_at_five_seconds():
    agent = disruptor(seed=12)
    rng = np.random.default_rng(32)
    pcm = np.concatenate([silence(1.024), white_noise(rng, 7.0, 0.3),
                          silence(1.0)])
    events, _ = drive(agent, pcm)
    cap = named(events, "capture_end")[0][1]
    assert cap["duration_s"] == pytest.approx(5.0)


def test_disruptor_is_deterministic_for_a_seed():
    rng = np.random.default_rng(33)
    pcm = np.concatenate([silence(1.024), white_noise(rng, 0.5, 0.4),
                          silence(6.0)])

    def run():
        agent = disruptor(seed=17)
        events, hops = drive(agent, pcm)
        ev = named(events, "disrupt_start")[0][1]
        out = np.concatenate([h for h in hops if h is not None])
        return ev["transform"], ev["carrier_hz"], out.tobytes()

    assert run() == run()


def test_disruptor_skips_emission_below_battery_floor():
    agent = disruptor(seed=13, battery=0.005, energy={"harvest_peak_w": 0.0})
    rng = np.random.default_rng(34)
    pcm = np.concatenate([silence(1.024), white_noise(rng, 0.4, 0.4),
                          silence(4.0)])
    events, hops = drive(agent, pcm)
    assert len(named(events, "capture_end")) == 1
    assert len(named(events, "disrupt_skipped")) == 1
    assert named(events, "disrupt_start") == []
    assert all(h is None for h in hops)
