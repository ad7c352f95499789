"""Shared DSP primitives: framing, windowed FFT, Mel filterbank, input
high-pass, WAV round trip and the simulation clock.

Everything downstream (feature extraction, agent hearing, telemetry)
goes through the functions here so the whole simulator analyses sound
the same way.
"""

import struct
import threading
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .params import (
    FRAME_HOP,
    FRAME_SIZE,
    HIGHPASS_HZ,
    MEL_FMAX_HZ,
    MEL_FMIN_HZ,
    N_MEL_BANDS,
    SAMPLE_RATE,
    TICK_SECONDS,
)

BUTTERWORTH_Q = 1.0 / np.sqrt(2.0)


class WavFormatError(ValueError):
    """A WAV file could not be parsed; the message names the bad field."""


@dataclass
class SimClock:
    """Simulation time. One tick is one hop, FRAME_HOP / SAMPLE_RATE seconds.

    day_length_s is the full diurnal period; night_window is the half-open
    day_fraction interval treated as night (default: second half of the day).
    """

    tick: int = 0
    day_length_s: float = 240.0
    night_window: tuple = (0.5, 1.0)

    @property
    def time_s(self) -> float:
        return self.tick * TICK_SECONDS

    @property
    def day_fraction(self) -> float:
        return (self.time_s % self.day_length_s) / self.day_length_s

    @property
    def is_night(self) -> bool:
        lo, hi = self.night_window
        frac = self.day_fraction
        if lo <= hi:
            return lo <= frac < hi
        return frac >= lo or frac < hi  # window wraps midnight

    def advance(self):
        self.tick += 1


def hann_window(n: int = FRAME_SIZE) -> np.ndarray:
    """Periodic Hann window."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


_HANN = hann_window(FRAME_SIZE)
_scratch = threading.local()


def _work(name: str, shape: tuple, dtype=float) -> np.ndarray:
    """This thread's work array for one step of an out= call.

    Kept per shape, so a caller that analyses the same shapes every tick
    reuses the same memory instead of allocating it each time. The
    scheduler uses two shapes (occupation channels and agent rings); older
    shapes are dropped beyond that.
    """
    arrays = _scratch.__dict__.setdefault(name, {})
    if shape not in arrays:
        if len(arrays) == 2:
            del arrays[next(iter(arrays))]
        arrays[shape] = np.empty(shape, dtype=dtype)
    return arrays[shape]


def fft_magnitude(samples: np.ndarray, out: np.ndarray | None = None):
    """Hann-windowed rFFT magnitude of one frame (or a batch of frames).

    Input shape (..., FRAME_SIZE); output shape (..., FRAME_SIZE // 2 + 1),
    written into out when it is given, with the windowed frames and the
    complex spectrum in this thread's work arrays.
    """
    if samples.shape[-1] != FRAME_SIZE:
        raise ValueError(
            f"frame length {samples.shape[-1]} != FRAME_SIZE {FRAME_SIZE}")
    windowed = spectrum = None
    if out is not None:
        windowed = _work("windowed", samples.shape)
        spectrum = _work("spectrum", out.shape, complex)
    # nested, so a fresh windowed copy is freed before the magnitudes
    spectrum = np.fft.rfft(np.multiply(samples, _HANN, out=windowed),
                           axis=-1, out=spectrum)
    return np.abs(spectrum, out=out)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


class MelFilterbank:
    """Triangular Mel filterbank over the rFFT bins.

    n_bands triangles with edges evenly spaced on the Mel scale between
    fmin and fmax; each triangle's falling half is its right neighbour's
    rising half.  Band energy is the weighted sum of squared magnitudes.
    """

    def __init__(self, n_bands: int = N_MEL_BANDS, fmin_hz: float = MEL_FMIN_HZ,
                 fmax_hz: float = MEL_FMAX_HZ, sample_rate: int = SAMPLE_RATE,
                 frame_size: int = FRAME_SIZE):
        edges_hz = mel_to_hz(
            np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_bands + 2))
        bin_hz = np.arange(frame_size // 2 + 1) * sample_rate / frame_size
        weights = np.zeros((n_bands, frame_size // 2 + 1))
        for b in range(n_bands):
            left, center, right = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
            rising = (bin_hz - left) / (center - left)
            falling = (right - bin_hz) / (right - center)
            weights[b] = np.clip(np.minimum(rising, falling), 0.0, None)
        self.n_bands = n_bands
        self.weights = weights
        self.band_edges_hz = edges_hz
        self.band_centers_hz = edges_hz[1:-1].copy()

    def apply(self, magnitude: np.ndarray, out: np.ndarray | None = None):
        """Band energies for one magnitude spectrum or a batch.

        Input (..., n_bins) -> output (..., n_bands), written into out
        when it is given, with the power in this thread's work array.
        """
        power = None if out is None else _work("power", magnitude.shape)
        power = np.square(magnitude, out=power)
        return np.matmul(power, self.weights.T, out=out)


_DEFAULT_BANK = None


def default_filterbank() -> MelFilterbank:
    global _DEFAULT_BANK
    if _DEFAULT_BANK is None:
        _DEFAULT_BANK = MelFilterbank()
    return _DEFAULT_BANK


def butter_highpass_coeffs(cutoff_hz: float = HIGHPASS_HZ,
                           sample_rate: int = SAMPLE_RATE):
    """Biquad coefficients for a second-order Butterworth high-pass.

    Bilinear transform of the analog prototype at Q = 1/sqrt(2); returns
    (b, a) with a[0] normalised to 1.
    """
    if not 0.0 < cutoff_hz < sample_rate / 2.0:
        raise ValueError(f"cutoff {cutoff_hz} Hz outside (0, Nyquist)")
    w0 = 2.0 * np.pi * cutoff_hz / sample_rate
    cosw = np.cos(w0)
    alpha = np.sin(w0) / (2.0 * BUTTERWORTH_Q)
    b = np.array([(1 + cosw) / 2.0, -(1 + cosw), (1 + cosw) / 2.0])
    a = np.array([1 + alpha, -2.0 * cosw, 1 - alpha])
    return b / a[0], a / a[0]


class HighpassFilter:
    """Streaming high-pass with per-channel filter state.

    process() accepts a (channels, n) batch, or a 1-D block when
    channels == 1, and preserves state across calls, so chunked filtering
    equals filtering the concatenated signal.
    """

    def __init__(self, cutoff_hz: float = HIGHPASS_HZ,
                 sample_rate: int = SAMPLE_RATE, channels: int = 1):
        self.b, self.a = butter_highpass_coeffs(cutoff_hz, sample_rate)
        self.channels = channels
        self.reset()

    def reset(self):
        self._zi = np.zeros((self.channels, 2))

    def process(self, block: np.ndarray) -> np.ndarray:
        y, self._zi = lfilter(self.b, self.a,
                              np.reshape(block, (self.channels, -1)),
                              axis=-1, zi=self._zi)
        return y.reshape(np.shape(block))


def highpass(samples: np.ndarray, cutoff_hz: float = HIGHPASS_HZ,
             sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """One-shot high-pass of a whole signal from zero state."""
    b, a = butter_highpass_coeffs(cutoff_hz, sample_rate)
    return lfilter(b, a, samples)


def frames(pcm: np.ndarray) -> np.ndarray:
    """Full FRAME_SIZE windows at FRAME_HOP steps, shape (n_frames, FRAME_SIZE).

    A signal shorter than one frame yields a single frame holding the
    whole signal; a trailing partial window is dropped.
    """
    pcm = np.asarray(pcm)
    if len(pcm) <= FRAME_SIZE:
        return pcm[None, :]
    view = np.lib.stride_tricks.sliding_window_view(pcm, FRAME_SIZE)
    return view[::FRAME_HOP]


def resample_linear(samples: np.ndarray, source_rate: int,
                    target_rate: int) -> np.ndarray:
    """Linear-interpolation resampling."""
    if source_rate == target_rate or len(samples) == 0:
        return np.asarray(samples, dtype=float)
    n_out = int(round(len(samples) * target_rate / source_rate))
    positions = np.arange(n_out) * (source_rate / target_rate)
    return np.interp(positions, np.arange(len(samples)), samples)


# --- WAV I/O -----------------------------------------------------------
# Hand-rolled RIFF so parse failures can name the exact offending field;
# only the two codecs we emit are accepted (16-bit PCM, 32-bit float).

_FMT_PCM = 1
_FMT_FLOAT = 3


def read_wav(path, target_rate: int | None = SAMPLE_RATE):
    """Read a mono or multichannel WAV; returns (samples, source_rate).

    Multichannel audio is averaged down to mono.  Unless target_rate is
    None the samples come back linearly resampled to it (the simulator's
    global rate by default); source_rate always reports the file's own
    rate.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise WavFormatError(f"{path}: file too short for a RIFF header")
    if data[0:4] != b"RIFF":
        raise WavFormatError(
            f"{path}: bad RIFF magic {data[0:4]!r} (expected b'RIFF')")
    if data[8:12] != b"WAVE":
        raise WavFormatError(
            f"{path}: bad RIFF form type {data[8:12]!r} (expected b'WAVE')")

    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise WavFormatError(
                    f"{path}: fmt chunk size {chunk_size} < 16")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            raw = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if raw is None:
        raise WavFormatError(f"{path}: missing data chunk")

    format_code, channels, source_rate, _byte_rate, _block_align, bits = fmt
    if channels < 1:
        raise WavFormatError(f"{path}: channel count {channels} < 1")
    if format_code == _FMT_PCM:
        if bits != 16:
            raise WavFormatError(
                f"{path}: unsupported PCM bit depth {bits} (expected 16)")
        samples = np.frombuffer(raw, dtype="<i2").astype(float) / 32767.0
    elif format_code == _FMT_FLOAT:
        if bits != 32:
            raise WavFormatError(
                f"{path}: unsupported float bit depth {bits} (expected 32)")
        samples = np.frombuffer(raw, dtype="<f4").astype(float)
    else:
        raise WavFormatError(
            f"{path}: unsupported format code {format_code} "
            f"(expected 1=PCM or 3=IEEE float)")

    if channels > 1:
        usable = len(samples) - len(samples) % channels
        samples = samples[:usable].reshape(-1, channels).mean(axis=1)
    if target_rate is not None:
        samples = resample_linear(samples, source_rate, target_rate)
    return samples, source_rate


def write_wav(path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE,
              subtype: str = "pcm16"):
    """Write mono samples in [-1, 1] as little-endian WAV.

    subtype 'pcm16' quantises to 16-bit PCM; 'float32' keeps IEEE floats.
    """
    samples = np.asarray(samples, dtype=float)
    if subtype == "pcm16":
        clipped = np.clip(samples, -1.0, 1.0)
        payload = np.round(clipped * 32767.0).astype("<i2").tobytes()
        format_code, bits = _FMT_PCM, 16
    elif subtype == "float32":
        payload = samples.astype("<f4").tobytes()
        format_code, bits = _FMT_FLOAT, 32
    else:
        raise ValueError(f"unknown WAV subtype {subtype!r}")

    block_align = bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, format_code, 1, sample_rate,
        sample_rate * block_align, block_align, bits,
        b"data", len(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        if len(payload) & 1:
            fh.write(b"\x00")
