import struct

import numpy as np
import pytest

from holonsim import audio_core as ac
from holonsim.params import FRAME_HOP, FRAME_SIZE, SAMPLE_RATE

import oracles
import synth


# --- framing and window -------------------------------------------------

def test_hann_window_shape_and_ends():
    w = ac.hann_window()
    assert len(w) == FRAME_SIZE
    assert w[0] == 0.0
    assert w[1] == pytest.approx(w[-1])  # periodic form
    assert np.max(w) <= 1.0


def test_frames_shape_and_stride():
    pcm = np.arange(4096.0)
    got = ac.frames(pcm)
    assert got.shape == (7, FRAME_SIZE)
    assert got[0][0] == 0.0
    assert got[1][0] == FRAME_HOP
    assert got[-1][-1] == 4095.0


def test_frames_short_signal_is_single_frame():
    pcm = np.ones(300)
    got = ac.frames(pcm)
    assert got.shape == (1, 300)


# --- FFT magnitude ------------------------------------------------------

def test_sine_at_bin_frequency_peaks_at_that_bin():
    freq = 32 * SAMPLE_RATE / FRAME_SIZE
    frame = synth.sine(freq, FRAME_SIZE / SAMPLE_RATE)
    mag = ac.fft_magnitude(frame)
    assert mag.shape == (FRAME_SIZE // 2 + 1,)
    assert int(np.argmax(mag)) == 32


def test_fft_magnitude_matches_naive_dft():
    rng = np.random.default_rng(101)
    for _ in range(20):
        frame = rng.uniform(-1, 1, FRAME_SIZE)
        got = ac.fft_magnitude(frame)
        want = oracles.naive_dft_magnitude(frame)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-9)


def test_fft_magnitude_parseval():
    rng = np.random.default_rng(7)
    frame = rng.uniform(-1, 1, FRAME_SIZE)
    windowed = frame * ac.hann_window()
    mag = ac.fft_magnitude(frame)
    # one-sided spectrum: interior bins appear twice in the full DFT
    spec_energy = mag[0] ** 2 + mag[-1] ** 2 + 2.0 * np.sum(mag[1:-1] ** 2)
    time_energy = FRAME_SIZE * np.sum(windowed ** 2)
    assert spec_energy == pytest.approx(time_energy, rel=1e-6)


def test_fft_magnitude_rejects_wrong_length():
    with pytest.raises(ValueError):
        ac.fft_magnitude(np.zeros(1000))


def test_fft_magnitude_batched_matches_single():
    rng = np.random.default_rng(3)
    batch = rng.uniform(-1, 1, (4, FRAME_SIZE))
    got = ac.fft_magnitude(batch)
    for i in range(4):
        assert np.allclose(got[i], ac.fft_magnitude(batch[i]))


# --- Mel filterbank -----------------------------------------------------

def test_mel_band_centers_increasing_and_in_range():
    bank = ac.default_filterbank()
    centers = bank.band_centers_hz
    assert len(centers) == 128
    assert np.all(np.diff(centers) > 0)
    assert centers[0] > 80.0
    assert centers[-1] < 16000.0


def test_mel_triangles_overlap_half_band():
    bank = ac.MelFilterbank()
    # triangle b spans (center[b-1], center[b+1]); adjacent rows share
    # support exactly between their centers
    assert np.allclose(bank.band_edges_hz[1:-1], bank.band_centers_hz)
    bin_hz = np.arange(FRAME_SIZE // 2 + 1) * SAMPLE_RATE / FRAME_SIZE
    for b in (0, 40, 100, 126):
        shared = (bank.weights[b] > 0) & (bank.weights[b + 1] > 0)
        inside = (bin_hz > bank.band_centers_hz[b]) & \
                 (bin_hz < bank.band_centers_hz[b + 1])
        assert np.array_equal(shared, inside)


def test_mel_every_band_has_support():
    bank = ac.default_filterbank()
    assert np.all(bank.weights.sum(axis=1) > 0)


def test_sine_at_band_center_wins_that_band():
    bank = ac.default_filterbank()
    freq = bank.band_centers_hz[64]
    mag = ac.fft_magnitude(synth.sine(freq, FRAME_SIZE / SAMPLE_RATE))
    assert int(np.argmax(bank.apply(mag))) == 64


def test_fft_and_mel_into_out_match_fresh_arrays():
    rng = np.random.default_rng(13)
    bank = ac.default_filterbank()
    mags = np.empty((5, FRAME_SIZE // 2 + 1))
    mels = np.empty((5, bank.n_bands))
    for _ in range(3):  # the same out arrays and work arrays every call
        frames = rng.standard_normal((5, FRAME_SIZE))
        assert ac.fft_magnitude(frames, out=mags) is mags
        assert np.array_equal(mags, ac.fft_magnitude(frames))
        assert bank.apply(mags, out=mels) is mels
        assert np.array_equal(mels, bank.apply(mags))


def test_mel_energies_match_dense_oracle():
    rng = np.random.default_rng(42)
    bank = ac.default_filterbank()
    for _ in range(10):
        mag = rng.uniform(0, 2, FRAME_SIZE // 2 + 1)
        got = bank.apply(mag)
        want = oracles.oracle_mel_energies(mag)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-12)


def test_mel_energies_nonnegative():
    rng = np.random.default_rng(5)
    mag = rng.uniform(0, 1, FRAME_SIZE // 2 + 1)
    assert np.all(ac.default_filterbank().apply(mag) >= 0)


# --- high-pass ----------------------------------------------------------

def test_highpass_coeffs_match_reference_design():
    from scipy.signal import butter
    b, a = ac.butter_highpass_coeffs(80.0, 32000)
    b_ref, a_ref = butter(2, 80.0, btype="highpass", fs=32000)
    assert np.allclose(b, b_ref, atol=1e-12)
    assert np.allclose(a, a_ref, atol=1e-12)


def test_highpass_kills_dc_within_a_second():
    out = ac.highpass(np.ones(SAMPLE_RATE))
    tail = out[-SAMPLE_RATE // 10:]
    assert np.sqrt(np.mean(tail ** 2)) < 0.01


def test_highpass_passes_1khz_within_half_db():
    x = synth.sine(1000.0, 1.0)
    y = ac.highpass(x)
    # skip the filter transient
    rms_in = np.sqrt(np.mean(x[8000:] ** 2))
    rms_out = np.sqrt(np.mean(y[8000:] ** 2))
    assert abs(20 * np.log10(rms_out / rms_in)) < 0.5


def test_highpass_streaming_equals_one_shot():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 3 * SAMPLE_RATE)
    want = ac.highpass(x)
    filt = ac.HighpassFilter()
    chunks = []
    pos = 0
    while pos < len(x):
        step = int(rng.integers(1, 2048))
        chunks.append(filt.process(x[pos:pos + step]))
        pos += step
    got = np.concatenate(chunks)
    assert np.max(np.abs(got - want)) < 1e-9


def test_highpass_batched_channels_match_individual():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, (3, 4096))
    batched = ac.HighpassFilter(channels=3)
    got = np.concatenate(
        [batched.process(x[:, i:i + 512]) for i in range(0, 4096, 512)],
        axis=1)
    for ch in range(3):
        assert np.max(np.abs(got[ch] - ac.highpass(x[ch]))) < 1e-9


def test_highpass_single_channel_takes_a_one_row_block():
    x = np.random.default_rng(14).uniform(-1, 1, 4096)
    flat, rowed = ac.HighpassFilter(), ac.HighpassFilter()
    for i in range(0, 4096, 512):
        want = flat.process(x[i:i + 512])
        got = rowed.process(x[None, i:i + 512])
        assert want.shape == (512,) and got.shape == (1, 512)
        assert np.array_equal(got[0], want)


def test_highpass_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        ac.butter_highpass_coeffs(20000.0, 32000)


# --- resampling -----------------------------------------------------------

def test_resample_identity_same_rate():
    x = np.arange(100.0)
    assert np.array_equal(ac.resample_linear(x, 32000, 32000), x)


def test_resample_length_rounds():
    x = np.zeros(44100)
    y = ac.resample_linear(x, 44100, 32000)
    assert abs(len(y) - 32000) <= 1


def test_resample_preserves_tone_frequency():
    x = synth.sine(440.0, 1.0, rate=48000)
    y = ac.resample_linear(x, 48000, 32000)
    mag = ac.fft_magnitude(y[:FRAME_SIZE])
    peak_hz = np.argmax(mag) * SAMPLE_RATE / FRAME_SIZE
    assert peak_hz == pytest.approx(440.0, abs=SAMPLE_RATE / FRAME_SIZE)


# --- WAV I/O --------------------------------------------------------------

def test_wav_pcm16_round_trip(tmp_path):
    x = synth.sine(440.0, 1.0, amp=0.8)
    path = tmp_path / "tone.wav"
    ac.write_wav(path, x)
    got, rate = ac.read_wav(path, target_rate=None)
    assert rate == SAMPLE_RATE
    assert len(got) == len(x)
    assert np.max(np.abs(got - x)) <= 1.0 / 32768.0


def test_wav_float32_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 32000)
    path = tmp_path / "noise.wav"
    ac.write_wav(path, x, subtype="float32")
    got, _ = ac.read_wav(path, target_rate=None)
    assert np.max(np.abs(got - x)) < 1e-7


def test_wav_read_resamples_to_global_rate(tmp_path):
    x = synth.sine(440.0, 1.0, rate=44100)
    path = tmp_path / "hi.wav"
    ac.write_wav(path, x, sample_rate=44100)
    got, rate = ac.read_wav(path)
    assert rate == 44100
    assert abs(len(got) - round(len(x) * 32000 / 44100)) <= 1


def test_wav_stereo_downmixes_to_mean(tmp_path):
    left = np.full(1000, 0.5)
    right = np.full(1000, -0.1)
    inter = np.empty(2000)
    inter[0::2] = left
    inter[1::2] = right
    payload = np.round(np.clip(inter, -1, 1) * 32767).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 2, 32000, 32000 * 4, 4, 16, b"data", len(payload))
    path = tmp_path / "stereo.wav"
    path.write_bytes(header + payload)
    got, _ = ac.read_wav(path, target_rate=None)
    assert len(got) == 1000
    assert np.allclose(got, 0.2, atol=1e-3)


def _wav_bytes(format_code=1, channels=1, rate=32000, bits=16,
               magic=b"RIFF", form=b"WAVE", with_fmt=True, with_data=True):
    payload = b"\x00\x00" * 10
    chunks = b""
    if with_fmt:
        chunks += struct.pack("<4sIHHIIHH", b"fmt ", 16, format_code,
                              channels, rate, rate * 2, 2, bits)
    if with_data:
        chunks += struct.pack("<4sI", b"data", len(payload)) + payload
    return magic + struct.pack("<I", 4 + len(chunks)) + form + chunks


@pytest.mark.parametrize("kwargs,needle", [
    (dict(magic=b"JUNK"), "RIFF magic"),
    (dict(form=b"AIFF"), "form type"),
    (dict(with_fmt=False), "missing fmt chunk"),
    (dict(with_data=False), "missing data chunk"),
    (dict(format_code=85), "format code 85"),
    (dict(bits=24), "bit depth 24"),
    (dict(format_code=3, bits=64), "bit depth 64"),
])
def test_wav_malformed_names_offending_field(tmp_path, kwargs, needle):
    path = tmp_path / "bad.wav"
    path.write_bytes(_wav_bytes(**kwargs))
    with pytest.raises(ac.WavFormatError) as err:
        ac.read_wav(path)
    assert needle in str(err.value)


def test_wav_truncated_file_rejected(tmp_path):
    path = tmp_path / "tiny.wav"
    path.write_bytes(b"RIFF")
    with pytest.raises(ac.WavFormatError):
        ac.read_wav(path)


# --- clock ----------------------------------------------------------------

def test_clock_tick_to_seconds():
    clock = ac.SimClock(tick=125)
    assert clock.time_s == pytest.approx(125 * FRAME_HOP / SAMPLE_RATE)


def test_clock_day_fraction_and_night():
    clock = ac.SimClock(day_length_s=100.0)
    clock.tick = int(25.0 / (FRAME_HOP / SAMPLE_RATE))
    assert clock.day_fraction == pytest.approx(0.25, abs=1e-3)
    assert not clock.is_night
    clock.tick = int(75.0 / (FRAME_HOP / SAMPLE_RATE))
    assert clock.is_night


def test_clock_night_window_wraps():
    clock = ac.SimClock(day_length_s=100.0, night_window=(0.75, 0.25))
    step = FRAME_HOP / SAMPLE_RATE
    clock.tick = int(80.0 / step)
    assert clock.is_night
    clock.tick = int(10.0 / step)
    assert clock.is_night
    clock.tick = int(50.0 / step)
    assert not clock.is_night
