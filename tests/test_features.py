import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holonsim import audio_core as ac
from holonsim import features as ft
from holonsim.params import FRAME_HOP, FRAME_SIZE, N_MFCC, SAMPLE_RATE

import oracles
import synth


def hops(pcm):
    pcm = np.asarray(pcm, dtype=float)
    usable = len(pcm) - len(pcm) % FRAME_HOP
    return [pcm[i:i + FRAME_HOP] for i in range(0, usable, FRAME_HOP)]


def fake_sample(vector_values, n_samples=100, tick=0):
    vec = ft.AnalysisVector(float(vector_values[0]), float(vector_values[1]),
                            np.asarray(vector_values[2:], dtype=float))
    sample = ft.SoundSample(pcm=np.zeros(n_samples, dtype=np.float32),
                            captured_at=tick)
    sample.vector = vec   # fills the cache, so analyze never runs
    return sample


# --- scalar features ------------------------------------------------------

def test_dynamic_range_constant_tone_near_zero():
    assert ft.dynamic_range_db(synth.sine(440.0, 1.0)) == pytest.approx(
        0.0, abs=0.5)


def test_dynamic_range_alternating_blocks_is_20db():
    t = np.arange(FRAME_SIZE) / SAMPLE_RATE
    block = np.sin(2 * np.pi * 1000.0 * t)
    pcm = np.concatenate([block * (1.0 if i % 2 == 0 else 0.1)
                          for i in range(8)])
    assert ft.dynamic_range_db(pcm) == pytest.approx(20.0, abs=0.5)


def test_dynamic_range_silent_is_zero():
    assert ft.dynamic_range_db(np.zeros(8000)) == 0.0


def test_dynamic_range_floors_near_silence():
    loud = synth.sine(1000.0, 0.2, amp=1.0)
    faint = synth.sine(1000.0, 0.2, amp=1e-6)
    got = ft.dynamic_range_db(np.concatenate([loud, faint]))
    want = 20.0 * math.log10((1.0 / math.sqrt(2)) / 1e-5)
    assert got == pytest.approx(want, abs=0.5)


def test_zero_crossing_rate_100hz():
    assert ft.zero_crossing_rate(synth.sine(100.0, 1.0)) == pytest.approx(
        200.0, abs=2.0)


def test_zero_crossing_rate_alternating_signs():
    pcm = np.empty(SAMPLE_RATE)
    pcm[0::2] = 1.0
    pcm[1::2] = -1.0
    assert ft.zero_crossing_rate(pcm) == pytest.approx(SAMPLE_RATE - 1)


def test_zero_crossing_zero_counts_positive():
    assert ft.zero_crossing_rate(np.array([-1.0, 0.0, -1.0])) == pytest.approx(
        2 * SAMPLE_RATE / 3)
    assert ft.zero_crossing_rate(np.array([1.0, 0.0, 1.0])) == 0.0
    assert ft.zero_crossing_rate(np.zeros(100)) == 0.0


def test_mfcc_of_silence_is_constant_log_floor():
    got = ft.mfcc(np.zeros(FRAME_SIZE * 3))
    want_c0 = math.sqrt(128.0) * math.log(1e-10)
    assert got.shape == (N_MFCC,)
    assert got[0] == pytest.approx(want_c0, rel=1e-9)
    assert np.all(np.abs(got[1:]) < 1e-6)


def test_mfcc_matches_dense_oracles_single_frame():
    rng = np.random.default_rng(21)
    for _ in range(5):
        frame = rng.uniform(-1, 1, FRAME_SIZE)
        got = ft.mfcc(frame)
        mag = oracles.naive_dft_magnitude(frame)
        loge = np.log(oracles.oracle_mel_energies(mag) + 1e-10)
        want = oracles.oracle_dct2_ortho(loge)[:N_MFCC]
        assert np.allclose(got, want, rtol=1e-6, atol=1e-9)


def test_mfcc_averages_over_frames():
    rng = np.random.default_rng(22)
    pcm = rng.uniform(-1, 1, FRAME_SIZE + 2 * FRAME_HOP)
    per_frame = []
    for frame in ac.frames(pcm):
        mag = oracles.naive_dft_magnitude(frame)
        loge = np.log(oracles.oracle_mel_energies(mag) + 1e-10)
        per_frame.append(oracles.oracle_dct2_ortho(loge)[:N_MFCC])
    want = np.mean(per_frame, axis=0)
    assert np.allclose(ft.mfcc(pcm), want, rtol=1e-6, atol=1e-9)


def test_spectral_flatness_separates_tone_from_noise():
    rng = np.random.default_rng(9)
    bank = ac.default_filterbank()
    tone = synth.sine(bank.band_centers_hz[64], FRAME_SIZE / SAMPLE_RATE,
                      amp=0.5)
    noise = rng.standard_normal(FRAME_SIZE)
    flat_tone = ft.spectral_flatness(bank.apply(ac.fft_magnitude(tone)))
    flat_noise = ft.spectral_flatness(bank.apply(ac.fft_magnitude(noise)))
    assert flat_tone < 0.3 < flat_noise
    assert 0.0 <= flat_tone and flat_noise <= 1.0 + 1e-9


def test_analysis_vector_shape_and_determinism():
    rng = np.random.default_rng(33)
    pcm = rng.uniform(-1, 1, 4096).astype(np.float32)
    v1 = ft.analyze(pcm)
    v2 = ft.analyze(pcm)
    arr = v1.as_array()
    assert arr.shape == (15,)
    assert arr[0] == v1.dynamic_range_db
    assert arr[1] == v1.zero_crossing_rate
    assert np.array_equal(arr[2:], v1.mfcc)
    assert np.array_equal(v1.as_array(), v2.as_array())


def test_sample_vector_recomputable_from_stored_pcm():
    rng = np.random.default_rng(34)
    sample = ft.SoundSample(rng.uniform(-1, 1, 5000).astype(np.float32),
                            captured_at=7)
    again = ft.analyze(sample.pcm)
    assert np.array_equal(sample.vector.as_array(), again.as_array())


def test_sample_vector_is_analyzed_once_on_first_read(monkeypatch):
    calls = []
    analyze = ft.analyze
    monkeypatch.setattr(ft, "analyze", lambda pcm: calls.append(pcm)
                        or analyze(pcm))
    pcm = np.random.default_rng(35).uniform(-1, 1, 5000).astype(np.float32)
    sample = ft.SoundSample(pcm, captured_at=3)
    assert calls == []
    first = sample.vector
    assert sample.vector is first
    assert len(calls) == 1 and calls[0] is sample.pcm


# --- onset detection -------------------------------------------------------

def run_detector(pcm):
    det = ft.OnsetDetector(1)
    fired = []
    for i, frame in enumerate(ac.frames(pcm)):
        if det.update(ac.fft_magnitude(frame), True):
            fired.append(i)
    return fired


def test_spectral_flux_identical_spectra_is_zero():
    mag = np.abs(np.random.default_rng(1).standard_normal(513))
    assert ft.spectral_flux(mag, mag) == 0.0
    assert ft.spectral_flux(mag, None) == 0.0


def test_onset_fires_once_at_silence_to_noise_step():
    rng = np.random.default_rng(55)
    pcm = np.concatenate([synth.silence(1.0),
                          synth.white_noise(rng, 1.0, amp=0.5)])
    step_frame = SAMPLE_RATE // FRAME_HOP  # first frame index with noise
    fired = run_detector(pcm)
    near_step = [f for f in fired if step_frame - 1 <= f <= step_frame + 2]
    assert len(near_step) == 1
    assert all(f >= step_frame - 1 for f in fired)


def test_onset_steady_sine_quiet_after_attack():
    pcm = np.concatenate([synth.silence(0.5), synth.sine(1000.0, 10.0,
                                                         amp=0.5)])
    attack_frame = SAMPLE_RATE // 2 // FRAME_HOP
    fired = run_detector(pcm)
    assert len(fired) == 1
    assert attack_frame - 1 <= fired[0] <= attack_frame + 2


def test_onset_refractory_suppresses_close_second_burst():
    rng = np.random.default_rng(56)
    quiet = synth.silence(0.5)
    burst = synth.white_noise(rng, FRAME_HOP / SAMPLE_RATE, amp=0.8)
    gap_100ms = synth.silence(0.1 - FRAME_HOP / SAMPLE_RATE)
    far_gap = synth.silence(1.0)
    pcm = np.concatenate([quiet, burst, gap_100ms, burst, far_gap, burst,
                          synth.silence(0.2)])
    fired = run_detector(pcm)
    assert len(fired) == 2  # second burst inside the 150 ms refractory


def test_onset_detector_disarmed_keeps_history():
    # alternate between two spectra so every step has flux c, then check
    # that the threshold learned while disarmed suppresses the same flux
    lo = np.zeros(513)
    hi = np.full(513, 2.0)
    det = ft.OnsetDetector(1)
    for i in range(40):
        det.update(hi if i % 2 else lo, False)
    assert det.update(hi, True) is False
    fresh = ft.OnsetDetector(1)
    fresh.update(lo, True)
    assert fresh.update(hi, True) is True  # same step fires with no history


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_onsets_fire_like_independent_streams(data):
    # from the first tick on, through the fill of the window and past it
    n = data.draw(st.integers(1, 5), label="rows")
    ticks = data.draw(st.integers(1, ft.ONSET_WINDOW + 30), label="ticks")
    # a few repeated levels make equal fluxes, zero spreads and ties
    level = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 10.0)
    spectra = data.draw(hnp.arrays(float, (ticks, n, 6), elements=level),
                        label="spectra")
    armed = data.draw(hnp.arrays(bool, (ticks, n)), label="armed")
    det = ft.OnsetDetector(n)
    # the oracle's defaults are the detector's constants, written out
    refs = [oracles.OracleOnsetDetector() for _ in range(n)]
    # a second detector hears through one buffer rewritten in place each
    # tick, as the Hearing feeds it
    reused = ft.OnsetDetector(n)
    buffer = np.empty((n, 6))
    for t in range(ticks):
        any_fired = det.update(spectra[t], armed[t])
        buffer[...] = spectra[t]
        reused.update(buffer, armed[t])
        want = [ref.update(spectra[t, r], bool(armed[t, r]))
                for r, ref in enumerate(refs)]
        assert det.fired.tolist() == want, f"tick {t}"
        assert reused.fired.tolist() == want, f"tick {t}, reused buffer"
        assert any_fired is any(want)


# --- segmentation -----------------------------------------------------------

def record(stream, onset_tick=0, preroll=np.zeros(0)):
    """Feed hops to a RecordingSession until it or the stream ends."""
    session = ft.RecordingSession(onset_tick, preroll, ft.MAX_RECORD_S)
    for hop in stream:
        sample = session.feed(hop, oracles.oracle_rms(hop))
        if sample is not None:
            return sample
    return session.finish()


def test_segment_burst_then_silence_duration():
    rng = np.random.default_rng(60)
    pcm = np.concatenate([synth.white_noise(rng, 1.0, amp=0.5),
                          synth.silence(5.0)])
    sample = record(hops(pcm))
    # the quiet run, after the hop the burst ends in
    slack = (ft.STOP_RUN_HOPS + 1) * FRAME_HOP / SAMPLE_RATE
    assert 1.0 <= sample.duration_s <= 1.0 + slack + 1e-9


def test_segment_continuous_tone_caps_at_30s():
    tone = synth.sine(500.0, 60.0, amp=0.5)
    sample = record(hops(tone))
    assert sample.duration_s == pytest.approx(30.0)
    assert len(sample.pcm) == 30 * SAMPLE_RATE


def test_segment_cap_includes_preroll():
    preroll = np.zeros(2 * FRAME_HOP)
    tone = synth.sine(500.0, 31.0, amp=0.5)
    sample = record(hops(tone), preroll=preroll)
    assert len(sample.pcm) == 30 * SAMPLE_RATE


@pytest.mark.parametrize("cap", [1, 300, 2 * FRAME_HOP, 2 * FRAME_HOP + 1,
                                 5 * FRAME_HOP - 7, 5 * FRAME_HOP])
def test_segment_keeps_the_float32_stream_up_to_the_cap(cap):
    rng = np.random.default_rng(cap)
    preroll = rng.standard_normal(2 * FRAME_HOP)
    stream = [rng.standard_normal(FRAME_HOP) for _ in range(6)]
    session = ft.RecordingSession(3, preroll, cap / SAMPLE_RATE)
    sample = None
    for hop in stream:
        sample = session.feed(hop, 1.0)
        if sample is not None:
            break
    whole = np.concatenate([preroll] + stream).astype(np.float32)
    assert sample.pcm.dtype == np.float32
    assert sample.pcm.tobytes() == whole[:cap].tobytes()


def test_segment_subhop_burst_still_valid():
    burst = np.zeros(FRAME_HOP)
    burst[:100] = 0.9
    stream = [burst] + [np.zeros(FRAME_HOP)] * 40
    sample = record(stream)
    assert len(sample.pcm) >= FRAME_HOP
    assert sample.duration_s <= (1 + ft.STOP_RUN_HOPS + 2) * FRAME_HOP / SAMPLE_RATE


def test_segment_preroll_prepended():
    preroll = np.linspace(-0.5, 0.5, 2 * FRAME_HOP)
    loud = np.full(FRAME_HOP, 0.7)
    stream = [loud] + [np.zeros(FRAME_HOP)] * 30
    sample = record(stream, onset_tick=12, preroll=preroll)
    assert np.allclose(sample.pcm[:2 * FRAME_HOP],
                       preroll.astype(np.float32))
    assert sample.captured_at == 12


def test_segment_stream_ending_early_finishes():
    stream = [np.full(FRAME_HOP, 0.5)] * 3
    sample = record(stream)
    assert len(sample.pcm) == 3 * FRAME_HOP


# --- novelty ---------------------------------------------------------------

def oracle_add(state_vectors, state_bytes, candidate, cand_bytes,
               max_items, capacity):
    verdict, idx = oracles.oracle_novelty_decision(
        state_vectors, state_bytes, candidate, cand_bytes, max_items,
        capacity)
    if verdict == "append":
        state_vectors.append(list(candidate))
        state_bytes.append(cand_bytes)
    elif verdict == "replace":
        state_vectors[idx] = list(candidate)
        state_bytes[idx] = cand_bytes
    return verdict, idx


def test_first_sample_always_collected():
    coll = ft.SampleCollection(ft.DEFAULT_MAX_ITEMS,
                               ft.DEFAULT_CAPACITY_BYTES)
    decision = coll.add(fake_sample(np.zeros(15)))
    assert decision.verdict is ft.Verdict.APPEND
    assert len(coll) == 1


def test_identical_candidate_rejected():
    coll = ft.SampleCollection(ft.DEFAULT_MAX_ITEMS,
                               ft.DEFAULT_CAPACITY_BYTES)
    vec = np.arange(15.0)
    coll.add(fake_sample(vec))
    decision = coll.add(fake_sample(vec))
    assert decision.verdict is ft.Verdict.REJECT
    assert len(coll) == 1


def test_distinct_candidate_appended():
    coll = ft.SampleCollection(ft.DEFAULT_MAX_ITEMS,
                               ft.DEFAULT_CAPACITY_BYTES)
    coll.add(fake_sample(np.zeros(15)))
    decision = coll.add(fake_sample(np.ones(15)))
    assert decision.verdict is ft.Verdict.APPEND
    assert len(coll) == 2


def test_full_collection_replaces_nearest():
    rng = np.random.default_rng(77)
    coll = ft.SampleCollection(3, ft.DEFAULT_CAPACITY_BYTES)
    vectors = [rng.normal(size=15) for _ in range(3)]
    for v in vectors:
        coll.add(fake_sample(v))
    state = [list(v) for v in vectors]
    nbytes = [coll.items[i].nbytes for i in range(3)]
    candidate = rng.normal(size=15) * 4.0  # a far outlier
    want, want_idx = oracles.oracle_novelty_decision(
        state, nbytes, list(candidate), coll.items[0].nbytes, 3,
        coll.capacity_bytes)
    got = coll.add(fake_sample(candidate))
    assert got.verdict.value == want
    if want == "replace":
        assert got.replace_index == want_idx
        assert np.array_equal(coll.items[want_idx].vector.as_array(),
                              np.asarray(candidate))
    assert len(coll) == 3


def test_novelty_zero_spread_dimension_is_safe():
    coll = ft.SampleCollection(4, ft.DEFAULT_CAPACITY_BYTES)
    rng = np.random.default_rng(78)
    state, nbytes = [], []
    for _ in range(5):
        v = rng.normal(size=15)
        v[0] = 42.0  # constant dimension across every vector
        want, _ = oracle_add(state, nbytes, list(v), 400, 4,
                             coll.capacity_bytes)
        got = coll.add(fake_sample(v))
        assert got.verdict.value == want


def test_novelty_matches_bruteforce_oracle_randomized():
    rng = np.random.default_rng(123)
    for trial in range(40):
        max_items = int(rng.integers(2, 6))
        coll = ft.SampleCollection(max_items, ft.DEFAULT_CAPACITY_BYTES)
        state, nbytes = [], []
        for _ in range(int(rng.integers(3, 12))):
            v = rng.normal(size=15) * rng.uniform(0.5, 3.0)
            want, want_idx = oracle_add(state, nbytes, list(v), 400,
                                        max_items, coll.capacity_bytes)
            got = coll.add(fake_sample(v))
            assert got.verdict.value == want, f"trial {trial}"
            if want == "replace":
                assert got.replace_index == want_idx
            assert len(coll) == len(state)


def test_byte_budget_treated_as_full_and_never_exceeded():
    rng = np.random.default_rng(124)
    capacity = 4000
    coll = ft.SampleCollection(32, capacity)
    state, nbytes = [], []
    for _ in range(40):
        n = int(rng.integers(50, 700))  # float32: 200..2800 bytes
        v = rng.normal(size=15)
        want, want_idx = oracle_add(state, nbytes, list(v), 4 * n, 32,
                                    capacity)
        got = coll.add(fake_sample(v, n_samples=n))
        assert got.verdict.value == want
        assert coll.total_bytes <= capacity
        assert len(coll) <= 32
    assert any(len(s) > 0 for s in [state])  # something was collected
