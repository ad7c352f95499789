import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holonsim import dsp_transforms as dt
from holonsim.params import SAMPLE_RATE

import oracles
import synth


def dominant_hz(pcm, skip_dc=False):
    mag = np.abs(np.fft.rfft(pcm))
    if skip_dc:
        mag[:3] = 0.0
    return np.argmax(mag) * SAMPLE_RATE / len(pcm)


def test_pitch_up_doubles_frequency_and_halves_length():
    x = synth.sine(440.0, 1.0, amp=0.8)
    y = dt.pitch_shift_octave(x, +1)
    assert abs(len(y) - len(x) / 2) <= 1
    assert dominant_hz(y) == pytest.approx(880.0, rel=0.02)


def test_pitch_down_halves_frequency_and_doubles_length():
    x = synth.sine(440.0, 1.0, amp=0.8)
    y = dt.pitch_shift_octave(x, -1)
    assert abs(len(y) - 2 * len(x)) <= 1
    assert dominant_hz(y) == pytest.approx(220.0, rel=0.02)


def test_pitch_shift_handles_tiny_input():
    assert len(dt.pitch_shift_octave(np.zeros(0), +1)) == 0
    assert len(dt.pitch_shift_octave(np.ones(1), +1)) == 1
    assert len(dt.pitch_shift_octave(np.ones(1), -1)) == 1


def test_ring_mod_sidebands_at_sum_and_difference():
    x = synth.sine(440.0, 1.0)
    y = dt.ring_mod(x, 100.0)
    mag = np.abs(np.fft.rfft(y))  # 1 Hz bins over a 1 s signal
    order = np.argsort(mag)[::-1][:2]
    peaks = sorted(order.tolist())
    assert abs(peaks[0] - 340) <= 1
    assert abs(peaks[1] - 540) <= 1


def test_ring_mod_of_dc_is_pure_carrier():
    y = dt.ring_mod(np.ones(SAMPLE_RATE), 250.0)
    assert dominant_hz(y) == pytest.approx(250.0, abs=1.0)


def test_ring_mod_self_product_gives_dc_and_double():
    x = synth.sine(300.0, 1.0)
    y = dt.ring_mod(x, 300.0)
    mag = np.abs(np.fft.rfft(y))
    assert mag[600] > 0.3 * len(y) / 2 or mag[0] > 0.3 * len(y) / 2
    top_two = sorted(np.argsort(mag)[::-1][:2].tolist())
    assert top_two[0] <= 1 and abs(top_two[1] - 600) <= 1


def test_freq_mod_zero_input_is_bare_carrier():
    y = dt.freq_mod(np.zeros(SAMPLE_RATE), 431.0)
    assert dominant_hz(y) == pytest.approx(431.0, abs=1.0)


def test_freq_mod_dc_input_offsets_carrier_by_index():
    y = dt.freq_mod(np.full(SAMPLE_RATE, 8.0), 100.0)
    assert dominant_hz(y) == pytest.approx(100.0 + 8.0 * dt.FM_INDEX, abs=1.0)


def test_freq_mod_output_rms_is_sine_rms():
    rng = np.random.default_rng(8)
    for x in (synth.sine(440.0, 0.5), rng.uniform(-1, 1, SAMPLE_RATE // 2),
              np.zeros(SAMPLE_RATE // 2)):
        y = dt.freq_mod(x, 200.0)
        assert np.sqrt(np.mean(y ** 2)) == pytest.approx(1 / np.sqrt(2),
                                                         rel=0.01)


def test_random_spec_deterministic_and_in_range():
    rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
    seq1 = [dt.random_spec(rng1) for _ in range(20)]
    seq2 = [dt.random_spec(rng2) for _ in range(20)]
    assert seq1 == seq2
    # the disruptors' draws rest on the order of TRANSFORMS and on drawing
    # a carrier only where one applies
    assert [(s.kind, s.carrier_hz) for s in seq1[:12]] == [
        ("freq_mod", 280.09739876646273), ("ring_mod", 1954.863040844638),
        ("ring_mod", 1253.9760807905564), ("pitch_up", 0.0),
        ("pitch_down", 0.0), ("pitch_down", 0.0),
        ("freq_mod", 128.5375172648128), ("ring_mod", 1756.107020956547),
        ("pitch_up", 0.0), ("freq_mod", 455.9967858721948),
        ("pitch_up", 0.0), ("pitch_down", 0.0)]
    kinds = {s.kind for s in seq1}
    assert len(kinds) >= 3  # all four show up over 20 draws, usually
    for s in seq1:
        if s.kind == "freq_mod":
            assert 50.0 <= s.carrier_hz <= 500.0
        elif s.kind == "ring_mod":
            assert 100.0 <= s.carrier_hz <= 2000.0
        else:
            assert s.carrier_hz == 0.0


def test_apply_transform_dispatch():
    x = synth.sine(440.0, 0.25)
    for kind, factor in [("pitch_up", 0.5), ("pitch_down", 2.0),
                         ("freq_mod", 1.0), ("ring_mod", 1.0)]:
        spec = dt.TransformSpec(kind, carrier_hz=150.0)
        y = dt.apply_transform(x, spec)
        assert abs(len(y) - factor * len(x)) <= 1


ORACLES = {
    "pitch_up": lambda pcm, _: oracles.oracle_pitch_shift_octave(pcm, +1),
    "pitch_down": lambda pcm, _: oracles.oracle_pitch_shift_octave(pcm, -1),
    "freq_mod": lambda pcm, c: oracles.oracle_freq_mod(pcm, c, dt.FM_INDEX),
    "ring_mod": oracles.oracle_ring_mod,
}

# captures as the Hearing records them: finite float32 in [-1, 1], at
# lengths 0, 1 and 2, odd and even
captures = hnp.arrays(
    np.float32,
    st.one_of(st.sampled_from([0, 1, 2, 3, 4, 511, 512]),
              st.integers(0, 5000)),
    elements=st.floats(-1.0, 1.0, width=32))


@pytest.mark.parametrize("kind", list(dt.TRANSFORMS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(pcm=captures, carrier=st.floats(50.0, 2000.0))
def test_each_transform_has_its_oracles_bytes(kind, pcm, carrier):
    before = pcm.tobytes()
    got = dt.apply_transform(pcm, dt.TransformSpec(kind, carrier))
    want = ORACLES[kind](pcm, carrier)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert pcm.tobytes() == before  # the capture is not written to
