import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dct, rfft
from scipy.signal import butter, lfilter

from holonsim import audio_core as ac
from holonsim import environment, features
from holonsim.params import (FRAME_HOP, FRAME_SIZE, HIGHPASS_HZ, LOG_FLOOR,
                             N_MFCC, NYQUIST, SAMPLE_RATE)

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


def test_fft_magnitude_float64_bytes_equal_numpy_rfft():
    # the occupation, the MFCCs and the spectrograms take float64 frames:
    # their bytes stay those of np.fft
    rng = np.random.default_rng(17)
    hann = ac.hann_window()
    for shape in [(FRAME_SIZE,), (1, FRAME_SIZE), (4, FRAME_SIZE),
                  (80, FRAME_SIZE), (130, FRAME_SIZE), (937, FRAME_SIZE)]:
        frames = rng.uniform(-1, 1, shape)
        got = ac.fft_magnitude(frames)
        want = np.abs(np.fft.rfft(frames * hann, axis=-1))
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), shape


def test_fft_magnitude_float32_matches_naive_dft():
    # agents hear float32 rings, and their spectra stay float32
    rng = np.random.default_rng(102)
    frames = rng.uniform(-1, 1, (8, FRAME_SIZE)).astype(np.float32)
    got = ac.fft_magnitude(frames)
    assert got.dtype == np.float32
    for frame, mag in zip(frames, got):
        want = oracles.naive_dft_magnitude(frame.astype(float))
        assert np.max(np.abs(mag - want)) <= 1e-5 * np.max(want)


# scipy.fft is the reference for the two pocketfft calls: holonsim passes
# the arguments that scipy.fft.rfft and scipy.fft.dct pass

@pytest.mark.parametrize("shape", [(FRAME_SIZE,), (0, FRAME_SIZE),
                                   (1, FRAME_SIZE), (2, FRAME_SIZE),
                                   (10, FRAME_SIZE), (80, FRAME_SIZE),
                                   (130, FRAME_SIZE)])
def test_fft_magnitude_float32_bytes_equal_scipy_rfft(shape):
    rng = np.random.default_rng(len(shape) + shape[0])
    frames = rng.uniform(-1, 1, shape).astype(np.float32)
    got = ac.fft_magnitude(frames)
    want = np.abs(rfft(frames * ac._HANN32, axis=-1))
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def scipy_mfcc(pcm):
    """features.mfcc written with scipy.fft's rfft and dct."""
    pcm = np.asarray(pcm, dtype=float)
    if len(pcm) < FRAME_SIZE:
        pcm = np.pad(pcm, (0, FRAME_SIZE - len(pcm)))
    mags = np.abs(rfft(ac.frames(pcm) * ac.hann_window(), axis=-1))
    energies = ac.default_filterbank().apply(mags)
    coeffs = dct(np.log(energies + LOG_FLOOR), type=2, norm="ortho", axis=-1)
    return np.mean(coeffs[:, :N_MFCC], axis=0)


@pytest.mark.parametrize("n", [1, FRAME_SIZE // 3, FRAME_SIZE,
                               FRAME_SIZE + FRAME_HOP + 7, 20 * FRAME_SIZE])
def test_mfcc_bytes_equal_scipy_dct(n):
    pcm = np.random.default_rng(n).uniform(-1, 1, n)
    got = features.mfcc(pcm)
    want = scipy_mfcc(pcm)
    assert got.dtype == want.dtype and got.shape == (N_MFCC,)
    assert got.tobytes() == want.tobytes()


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


def test_mel_energies_match_dense_oracle():
    rng = np.random.default_rng(42)
    bank = ac.default_filterbank()
    for _ in range(10):
        mag = rng.uniform(0, 2, FRAME_SIZE // 2 + 1)
        got = bank.apply(mag)
        want = oracles.oracle_mel_energies(mag)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-12)


def test_mel_energies_float32_match_dense_oracle():
    rng = np.random.default_rng(43)
    bank = ac.default_filterbank()
    mags = rng.uniform(0, 2, (6, FRAME_SIZE // 2 + 1)).astype(np.float32)
    got = bank.apply(mags)
    assert got.dtype == np.float32
    for mag, energies in zip(mags, got):
        want = oracles.oracle_mel_energies(mag)
        assert np.max(np.abs(energies - want)) <= 1e-5 * np.max(want)


def test_mel_energies_nonnegative():
    rng = np.random.default_rng(5)
    mag = rng.uniform(0, 1, FRAME_SIZE // 2 + 1)
    assert np.all(ac.default_filterbank().apply(mag) >= 0)


# --- high-pass ----------------------------------------------------------

def test_highpass_coeffs_match_reference_design():
    from scipy.signal import butter
    b, a = ac.butter_highpass_coeffs()
    b_ref, a_ref = butter(2, HIGHPASS_HZ, btype="highpass", fs=SAMPLE_RATE)
    assert np.allclose(b, b_ref, atol=1e-12)
    assert np.allclose(a, a_ref, atol=1e-12)


def test_highpass_kills_dc_within_a_second():
    out = ac.HighpassFilter(1).process(np.ones((1, SAMPLE_RATE)))
    tail = out[0, -SAMPLE_RATE // 10:]
    assert np.sqrt(np.mean(tail ** 2)) < 0.01


def test_highpass_passes_1khz_within_half_db():
    x = synth.sine(1000.0, 1.0)
    y = ac.HighpassFilter(1).process(x[None])[0]
    # skip the filter transient
    rms_in = np.sqrt(np.mean(x[8000:] ** 2))
    rms_out = np.sqrt(np.mean(y[8000:] ** 2))
    assert abs(20 * np.log10(rms_out / rms_in)) < 0.5


def test_highpass_streaming_equals_one_shot():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 3 * SAMPLE_RATE)
    want = oracles.oracle_highpass(x)
    filt = ac.HighpassFilter(1)
    chunks = []
    pos = 0
    while pos < len(x):
        step = int(rng.integers(1, 2048))
        chunks.append(filt.process(x[None, pos:pos + step])[0])
        pos += step
    got = np.concatenate(chunks)
    assert np.max(np.abs(got - want)) < 1e-9


def test_highpass_batched_channels_match_individual():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, (3, 4096))
    batched = ac.HighpassFilter(3)
    got = np.concatenate(
        [batched.process(x[:, i:i + 512]) for i in range(0, 4096, 512)],
        axis=1)
    for ch in range(3):
        want = oracles.oracle_highpass(x[ch])
        assert np.max(np.abs(got[ch] - want)) < 1e-9


# --- the compiled scipy modules -----------------------------------------

@pytest.mark.parametrize("name", ["fft._pocketfft.pypocketfft",
                                  "signal._sigtools"])
def test_loader_names_the_file_a_scipy_dir_lacks(tmp_path, name):
    *package, module = name.split(".")
    with pytest.raises(ImportError) as raised:
        ac._load_scipy_kernel(tmp_path, name)
    message = str(raised.value)
    assert str(tmp_path.joinpath(*package)) in message
    assert f"{module}.so" in message and f"scipy.{name}" in message


# --- the lfilter kernel and the band-pass design --------------------------
# scipy.signal is the independent reference here: holonsim calls its
# compiled kernel without the package, and designs the band-pass itself.

@pytest.mark.parametrize("shape", [(0, 512), (1, 512), (130, 512)])
def test_kernel_equals_lfilter_with_state_in_bytes(shape):
    rng = np.random.default_rng(shape[0])
    b, a = ac.butter_highpass_coeffs()
    x = rng.standard_normal(shape)
    zi = rng.standard_normal((shape[0], 2))
    y, zf = ac.linear_filter(b, a, x, -1, zi)
    y_ref, zf_ref = lfilter(b, a, x, axis=-1, zi=zi)
    assert y.tobytes() == y_ref.tobytes() and y.dtype == y_ref.dtype
    assert zf.tobytes() == zf_ref.tobytes() and zf.shape == zf_ref.shape


def test_kernel_equals_lfilter_on_one_channel_in_bytes():
    rng = np.random.default_rng(4)
    b, a = ac.butter_bandpass_coeffs(300.0, 900.0)
    x = rng.standard_normal(SAMPLE_RATE)
    zi = rng.standard_normal(4)
    assert (ac.linear_filter(b, a, x, -1).tobytes()
            == lfilter(b, a, x).tobytes())
    y, zf = ac.linear_filter(b, a, x, -1, zi)
    y_ref, zf_ref = lfilter(b, a, x, zi=zi)
    assert y.tobytes() == y_ref.tobytes()
    assert zf.tobytes() == zf_ref.tobytes()


def test_highpass_process_equals_lfilter_in_bytes():
    rng = np.random.default_rng(13)
    filt = ac.HighpassFilter(130)
    state = np.zeros((130, 2))
    for _ in range(3):
        block = rng.standard_normal((130, FRAME_HOP))
        want, state = lfilter(filt.b, filt.a, block, axis=-1, zi=state)
        assert filt.process(block).tobytes() == want.tobytes()


BAND_RULE, BAND_OK = environment._FIELD_RANGES["band_hz"]
EDGE = st.floats(0.0, float(NYQUIST), exclude_min=True, exclude_max=True)


@settings(max_examples=500, deadline=None)
@given(st.tuples(EDGE, EDGE).filter(lambda v: v[0] < v[1]))
@example((5e-324, 100.0))  # the low edge rounds to 0 Hz / Nyquist
@example((1000.0, float(np.nextafter(1000.0, 2000.0))))
@example((100.0, float(np.nextafter(NYQUIST, 0.0))))
@example((200.0, 600.0))
def test_bandpass_coeffs_equal_scipy_butter_in_bytes(band):
    # every band the scenario rule accepts designs as scipy designs it,
    # and every band it refuses is one scipy cannot design
    if not BAND_OK(band):
        with pytest.raises(ValueError):
            butter(2, list(band), btype="bandpass", fs=SAMPLE_RATE)
        return
    b_ref, a_ref = butter(2, list(band), btype="bandpass", fs=SAMPLE_RATE)
    b, a = ac.butter_bandpass_coeffs(*band)
    assert (b.dtype, a.dtype) == (b_ref.dtype, a_ref.dtype)
    assert b.tobytes() == b_ref.tobytes()
    assert a.tobytes() == a_ref.tobytes()


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
    synth.write_pcm16_wav(path, x)
    got, rate = ac.read_wav(path, target_rate=None)
    assert rate == SAMPLE_RATE
    assert len(got) == len(x)
    assert np.max(np.abs(got - x)) <= 1.0 / 32768.0


def test_wav_float32_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 32000)
    path = tmp_path / "noise.wav"
    ac.write_wav(path, x)
    # IEEE float (format code 3), mono, 32-bit, at the simulator's rate
    assert struct.unpack_from("<HHIIHH", path.read_bytes(), 20) == (
        3, 1, SAMPLE_RATE, 4 * SAMPLE_RATE, 4, 32)
    got, rate = ac.read_wav(path, target_rate=None)
    assert rate == SAMPLE_RATE
    assert np.array_equal(got, x.astype(np.float32))


def test_wav_read_resamples_to_global_rate(tmp_path):
    x = synth.sine(440.0, 1.0, rate=44100)
    path = tmp_path / "hi.wav"
    synth.write_pcm16_wav(path, x, rate=44100)
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


@pytest.mark.parametrize("kwargs,needle", [
    (dict(magic=b"JUNK"), "RIFF magic"),
    (dict(form=b"AIFF"), "form type"),
    (dict(with_fmt=False), "missing fmt chunk"),
    (dict(with_data=False), "missing data chunk"),
    (dict(format_code=85), "format code 85"),
    (dict(bits=24), "bit depth 24"),
    (dict(format_code=3, bits=64), "bit depth 64"),
    (dict(rate=0), "sample rate 0"),
    (dict(payload=b"\x00" * 3), "data chunk size 3"),
    (dict(with_data=False, fmt_held=4), "fmt chunk holds 4 bytes"),
])
def test_wav_malformed_names_offending_field(tmp_path, kwargs, needle):
    path = tmp_path / "bad.wav"
    path.write_bytes(synth.wav_bytes(**kwargs))
    with pytest.raises(ac.WavFormatError) as err:
        ac.read_wav(path)
    assert needle in str(err.value)


def test_wav_read_holds_its_data_chunk_once(tmp_path):
    # the file's bytes (0.5x) beside the float64 samples (1x); a copy of
    # the data chunk on top would make 2.0x
    path = tmp_path / "long.wav"
    ac.write_wav(path, np.zeros(60 * SAMPLE_RATE, dtype=np.float32))
    tracemalloc.start()
    try:
        samples, _ = ac.read_wav(path, target_rate=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.dtype == np.float64 and len(samples) == 60 * SAMPLE_RATE
    assert peak <= 1.6 * samples.nbytes


def test_wav_truncated_file_rejected(tmp_path):
    path = tmp_path / "tiny.wav"
    path.write_bytes(b"RIFF")
    with pytest.raises(ac.WavFormatError):
        ac.read_wav(path)


# --- clock ----------------------------------------------------------------

def test_clock_tick_to_seconds():
    clock = ac.SimClock(125, 240.0, (0.5, 1.0))
    assert clock.time_s == pytest.approx(125 * FRAME_HOP / SAMPLE_RATE)


def test_clock_day_fraction_and_night():
    clock = ac.SimClock(0, 100.0, (0.5, 1.0))
    clock.tick = int(25.0 / (FRAME_HOP / SAMPLE_RATE))
    assert clock.day_fraction == pytest.approx(0.25, abs=1e-3)
    assert not clock.is_night
    clock.tick = int(75.0 / (FRAME_HOP / SAMPLE_RATE))
    assert clock.is_night


def test_clock_night_window_wraps():
    clock = ac.SimClock(0, 100.0, (0.75, 0.25))
    step = FRAME_HOP / SAMPLE_RATE
    clock.tick = int(80.0 / step)
    assert clock.is_night
    clock.tick = int(10.0 / step)
    assert clock.is_night
    clock.tick = int(50.0 / step)
    assert not clock.is_night
