"""Shared DSP primitives: framing, windowed FFT, Mel filterbank, input
high-pass, WAV round trip and the simulation clock.

Everything downstream (feature extraction, agent hearing, telemetry)
goes through the functions here so the whole simulator analyses sound
the same way.
"""

import importlib.machinery
import importlib.util
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def _load_scipy_kernel(scipy_dir: Path, name: str):
    """The compiled module scipy.<name>, loaded from its file under
    scipy_dir without importing any scipy package above it.

    The packages cost most of the start-up: scipy.signal's init loads
    scipy.stats, interpolate and optimize, and scipy.fft's loads
    scipy.special and an array-API layer. holonsim only calls two
    compiled modules, with the arguments scipy's own wrappers pass. The
    module is entered in sys.modules under its own name, so a later
    import of its package reuses it.
    """
    stem = scipy_dir.joinpath(*name.split("."))
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for suffix in suffixes:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(f"scipy.{name}",
                                                          path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no compiled scipy.{name} in {stem.parent}: looked for "
                      + ", ".join(stem.name + s for s in suffixes))


_SCIPY_DIR = Path(
    importlib.util.find_spec("scipy").submodule_search_locations[0])
# the transforms behind scipy.fft's rfft and dct
pocketfft = _load_scipy_kernel(_SCIPY_DIR, "fft._pocketfft.pypocketfft")
# For the 3-tap denominators used here, lfilter(b, a, x, axis[, zi]) only
# calls this kernel with the same arguments:
# linear_filter(b, a, x, axis) -> y, and (b, a, x, axis, zi) -> (y, zf)
linear_filter = _load_scipy_kernel(_SCIPY_DIR,
                                   "signal._sigtools")._linear_filter


class WavFormatError(ValueError):
    """A WAV file could not be parsed; the message names the bad field."""


@dataclass
class SimClock:
    """Simulation time. One tick is one hop, FRAME_HOP / SAMPLE_RATE seconds.

    day_length_s is the full diurnal period; night_window is the half-open
    day_fraction interval treated as night.
    """

    tick: int
    day_length_s: float
    night_window: tuple

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


def hann_window() -> np.ndarray:
    """Periodic Hann window of FRAME_SIZE samples."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_SIZE) / FRAME_SIZE)


_HANN = hann_window()
_HANN32 = _HANN.astype(np.float32)


def fft_magnitude(samples: np.ndarray) -> np.ndarray:
    """Hann-windowed rFFT magnitude of one frame (or a batch of frames).

    Input shape (..., FRAME_SIZE); output shape (..., FRAME_SIZE // 2 + 1),
    float32 for float32 input and float64 otherwise.
    """
    if samples.shape[-1] != FRAME_SIZE:
        raise ValueError(
            f"frame length {samples.shape[-1]} != FRAME_SIZE {FRAME_SIZE}")
    hann = _HANN32 if samples.dtype == np.float32 else _HANN
    # scipy.fft.rfft(x, axis=-1): pocketfft keeps float32 in single
    # precision and gives np.fft's bytes in float64. np.fft's float32
    # bytes differ and it is about twice as slow on the 130-agent batch.
    # Nested, so the windowed copy is freed before the magnitudes.
    return np.abs(pocketfft.r2c(samples * hann, (-1,), True, 0, None, 1))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


class MelFilterbank:
    """Triangular Mel filterbank over the rFFT bins.

    N_MEL_BANDS triangles with edges evenly spaced on the Mel scale between
    MEL_FMIN_HZ and MEL_FMAX_HZ; each triangle's falling half is its right
    neighbour's rising half.  Band energy is the weighted sum of squared
    magnitudes.
    """

    def __init__(self):
        edges_hz = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN_HZ),
                                         hz_to_mel(MEL_FMAX_HZ),
                                         N_MEL_BANDS + 2))
        bin_hz = np.arange(FRAME_SIZE // 2 + 1) * SAMPLE_RATE / FRAME_SIZE
        weights = np.zeros((N_MEL_BANDS, FRAME_SIZE // 2 + 1))
        for b in range(N_MEL_BANDS):
            left, center, right = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
            rising = (bin_hz - left) / (center - left)
            falling = (right - bin_hz) / (right - center)
            weights[b] = np.clip(np.minimum(rising, falling), 0.0, None)
        self.weights = weights
        self._weights32 = np.ascontiguousarray(weights.T, dtype=np.float32)
        self.band_centers_hz = edges_hz[1:-1].copy()

    def apply(self, magnitude: np.ndarray) -> np.ndarray:
        """Band energies for one magnitude spectrum or a batch.

        Input (..., n_bins) -> output (..., n_bands), in float32 for
        float32 magnitudes.
        """
        if magnitude.dtype == np.float32:
            return np.square(magnitude) @ self._weights32
        # the strided weights.T view: a contiguous copy takes another
        # BLAS path and moves the last bit
        return np.square(magnitude) @ self.weights.T


_DEFAULT_BANK = None


def default_filterbank() -> MelFilterbank:
    global _DEFAULT_BANK
    if _DEFAULT_BANK is None:
        _DEFAULT_BANK = MelFilterbank()
    return _DEFAULT_BANK


def butter_highpass_coeffs():
    """Biquad coefficients for a second-order Butterworth high-pass at
    HIGHPASS_HZ.

    Bilinear transform of the analog prototype at Q = 1/sqrt(2); returns
    (b, a) with a[0] normalised to 1.
    """
    w0 = 2.0 * np.pi * HIGHPASS_HZ / SAMPLE_RATE
    cosw = np.cos(w0)
    alpha = np.sin(w0) / (2.0 * BUTTERWORTH_Q)
    b = np.array([(1 + cosw) / 2.0, -(1 + cosw), (1 + cosw) / 2.0])
    a = np.array([1 + alpha, -2.0 * cosw, 1 - alpha])
    return b / a[0], a / a[0]


def _poly(roots):
    """Polynomial coefficients from complex roots, as scipy.signal's
    zpk2tf expands them: one convolution per root, then the real part
    when the roots come in conjugate pairs."""
    coeffs = np.ones((1,), dtype=roots.dtype)
    one = np.ones_like(roots[0])
    for root in roots:
        coeffs = np.convolve(coeffs, np.stack((one, -root)), mode="full")
    if np.all(np.sort(np.imag(roots)) == np.sort(np.imag(np.conj(roots)))):
        coeffs = np.real(coeffs).copy()
    return coeffs


def butter_bandpass_coeffs(lo_hz, hi_hz):
    """(b, a) of a second-order Butterworth band-pass from lo_hz to hi_hz.

    scipy.signal.butter(2, [lo_hz, hi_hz], "bandpass", fs=SAMPLE_RATE)
    step for step, in its dtypes and order of operations, so the bytes
    are the same: the analog prototype (buttap), pre-warped band edges,
    the shift to the band (lp2bp_zpk), the bilinear transform
    (bilinear_zpk) and the expansion into polynomials (zpk2tf).
    """
    p = -np.exp(1j * np.pi * np.arange(-1, 2, 2, dtype=np.float64) / 4)
    wn = np.asarray([lo_hz, hi_hz], dtype=np.float64) / (SAMPLE_RATE / 2)
    warped = 4.0 * np.tan(np.pi * wn / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # the low-pass poles scaled to the bandwidth and shifted to +-wo; the
    # two zeros go to the origin
    p_lp = p * bw / 2
    p_bp = np.concatenate((p_lp + np.sqrt(p_lp**2 - wo**2),
                           p_lp - np.sqrt(p_lp**2 - wo**2)))
    z_bp = np.zeros(2, dtype=np.complex128)
    # bilinear transform at fs = 2; the zeros at infinity go to Nyquist
    z_z = np.concatenate(((4.0 + z_bp) / (4.0 - z_bp), -np.ones(2)))
    p_z = (4.0 + p_bp) / (4.0 - p_bp)
    k_z = bw**2 * np.real(np.prod(4.0 - z_bp) / np.prod(4.0 - p_bp))
    return k_z * _poly(z_z), _poly(p_z)


class HighpassFilter:
    """Streaming high-pass with per-channel filter state.

    process() takes a (channels, n) block and preserves state across
    calls, so chunked filtering equals filtering the concatenated signal.
    """

    def __init__(self, channels: int):
        self.b, self.a = butter_highpass_coeffs()
        self._zi = np.zeros((channels, 2))

    def process(self, block: np.ndarray) -> np.ndarray:
        y, self._zi = linear_filter(self.b, self.a, block, -1, self._zi)
        return y


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
# two codecs are read (16-bit PCM, 32-bit float), and renders are written
# as 32-bit float.

_FMT_PCM = 1
_FMT_FLOAT = 3
# the most samples write_wav can write: its RIFF size, 36 header bytes
# plus 4 bytes a sample, is a 32-bit field
WAV_MAX_SAMPLES = (2 ** 32 - 1 - 36) // 4


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
    view = memoryview(data)  # chunk bodies are views: no second copy
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise WavFormatError(
                    f"{path}: fmt chunk size {chunk_size} < 16")
            if len(body) < 16:
                raise WavFormatError(
                    f"{path}: fmt chunk holds {len(body)} bytes, "
                    f"declares {chunk_size}")
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
    if source_rate < 1:
        raise WavFormatError(f"{path}: sample rate {source_rate} < 1")
    if format_code == _FMT_PCM:
        if bits != 16:
            raise WavFormatError(
                f"{path}: unsupported PCM bit depth {bits} (expected 16)")
        dtype = "<i2"
    elif format_code == _FMT_FLOAT:
        if bits != 32:
            raise WavFormatError(
                f"{path}: unsupported float bit depth {bits} (expected 32)")
        dtype = "<f4"
    else:
        raise WavFormatError(
            f"{path}: unsupported format code {format_code} "
            f"(expected 1=PCM or 3=IEEE float)")
    if len(raw) % (bits // 8):
        raise WavFormatError(
            f"{path}: data chunk size {len(raw)} is not a whole number "
            f"of {bits // 8}-byte samples")
    samples = np.frombuffer(raw, dtype=dtype).astype(float)
    if format_code == _FMT_PCM:
        samples /= 32767.0

    if channels > 1:
        usable = len(samples) - len(samples) % channels
        samples = samples[:usable].reshape(-1, channels).mean(axis=1)
    if target_rate is not None:
        samples = resample_linear(samples, source_rate, target_rate)
    return samples, source_rate


def write_wav(path, samples: np.ndarray):
    """Write mono samples as a little-endian 32-bit float WAV at
    SAMPLE_RATE."""
    payload = np.asarray(samples, dtype="<f4").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, _FMT_FLOAT, 1, SAMPLE_RATE, SAMPLE_RATE * 4, 4, 32,
        b"data", len(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
