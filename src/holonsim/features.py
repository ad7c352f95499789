"""Listening: onset detection, recording segmentation, per-sound analysis
vectors and the diversity rule deciding which recordings are worth keeping.

A recording is kept when adding it increases the spread (per-dimension
standard deviation, after z-score normalisation) of the collection's
analysis vectors; once the collection is full the nearest existing member
is the one considered for replacement.
"""

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.fft import dct

from . import audio_core as ac
from .params import (
    FRAME_HOP,
    FRAME_SIZE,
    LOG_FLOOR,
    N_MFCC,
    RMS_FLOOR,
    SAMPLE_RATE,
    TICK_SECONDS,
)

MAX_RECORD_S = 30.0          # hard cap on a single recording
STOP_DROP_DB = 18.0          # end-of-sound: this far below peak RMS...
STOP_RUN_HOPS = 15           # ...for this many consecutive hops
PREROLL_HOPS = 2

DEFAULT_MAX_ITEMS = 32
DEFAULT_CAPACITY_BYTES = 8 * 1024 * 1024


def rms(samples: np.ndarray) -> float:
    if len(samples) == 0:
        return 0.0
    return float(np.sqrt(np.mean(np.square(samples))))


def frame_rms(pcm: np.ndarray) -> np.ndarray:
    """RMS of each full analysis frame of pcm."""
    return np.sqrt(np.mean(np.square(ac.frames(pcm)), axis=1))


def dynamic_range_db(pcm: np.ndarray) -> float:
    """Loudest over quietest non-silent frame, in dB.

    The quietest frame RMS is floored at RMS_FLOOR so digital near-silence
    cannot produce an unbounded range; an all-silent signal reports 0.
    """
    levels = frame_rms(pcm)
    peak = float(np.max(levels))
    if peak == 0.0:
        return 0.0
    nonzero = levels[levels > 0.0]
    quietest = max(float(np.min(nonzero)), RMS_FLOOR)
    return float(20.0 * np.log10(peak / quietest))


def zero_crossing_rate(pcm: np.ndarray, sample_rate: int = SAMPLE_RATE) -> float:
    """Sign changes per second; zero samples count as positive."""
    if len(pcm) < 2:
        return 0.0
    signs = np.where(np.asarray(pcm) >= 0.0, 1, -1)
    crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return crossings * sample_rate / len(pcm)


def mfcc(pcm: np.ndarray) -> np.ndarray:
    """First N_MFCC cepstral coefficients, averaged over frames.

    Per frame: orthonormal DCT-II of log(Mel band energies + LOG_FLOOR).
    Signals shorter than one frame are zero-padded to FRAME_SIZE.
    """
    pcm = np.asarray(pcm, dtype=float)
    if len(pcm) < FRAME_SIZE:
        pcm = np.pad(pcm, (0, FRAME_SIZE - len(pcm)))
    windows = ac.frames(pcm)
    bank = ac.default_filterbank()
    energies = bank.apply(ac.fft_magnitude(windows))
    coeffs = dct(np.log(energies + LOG_FLOOR), type=2, norm="ortho", axis=-1)
    return np.mean(coeffs[:, :N_MFCC], axis=0)


def spectral_flatness(energies: np.ndarray):
    """Geometric over arithmetic mean; near 0 for a tone, near 1 for noise.

    Taken along the last axis, so a stack of spectra gives one per row.
    """
    energies = np.asarray(energies, dtype=float)
    geo = np.exp(np.mean(np.log(energies + LOG_FLOOR), axis=-1))
    return geo / (np.mean(energies, axis=-1) + LOG_FLOOR)


@dataclass
class AnalysisVector:
    """Fixed 15-dimension fingerprint of one recording."""

    dynamic_range_db: float
    zero_crossing_rate: float
    mfcc: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.concatenate(
            ([self.dynamic_range_db, self.zero_crossing_rate], self.mfcc))


def analyze(pcm: np.ndarray, sample_rate: int = SAMPLE_RATE) -> AnalysisVector:
    """Deterministic analysis vector; same pcm always gives the same bits."""
    return AnalysisVector(
        dynamic_range_db=dynamic_range_db(pcm),
        zero_crossing_rate=zero_crossing_rate(pcm, sample_rate),
        mfcc=mfcc(pcm))


@dataclass
class SoundSample:
    """One segmented recording with its analysis vector."""

    pcm: np.ndarray          # float32, the stored form
    vector: AnalysisVector
    captured_at: int         # tick of the triggering onset
    source_label: str | None = None

    @property
    def duration_s(self) -> float:
        return len(self.pcm) / SAMPLE_RATE

    @property
    def nbytes(self) -> int:
        return self.pcm.nbytes


def make_sample(pcm: np.ndarray, captured_at: int,
                source_label: str | None = None) -> SoundSample:
    stored = np.asarray(pcm, dtype=np.float32)
    return SoundSample(pcm=stored, vector=analyze(stored),
                       captured_at=captured_at, source_label=source_label)


# --- onset detection ----------------------------------------------------

def spectral_flux(current: np.ndarray, previous: np.ndarray | None,
                  out: np.ndarray | None = None):
    """Sum of per-bin magnitude increases since the previous frame.

    Sums along the last axis, so a stack of frames gives one flux per row.
    out, shaped like current, takes the per-bin increases when given.
    """
    if previous is None:
        return 0.0
    rise = np.subtract(current, previous, out=out)
    return np.sum(np.maximum(rise, 0.0, out=rise), axis=-1)


class OnsetDetector:
    """Adaptive spectral-flux onset detectors for n streams at once.

    A row fires when its flux exceeds mean + k * std of its trailing
    window of flux values, then holds off for a refractory period.  Every
    row updates on every call, armed or not, so the flux history keeps
    moving while a caller is disarmed (e.g. busy recording) and the
    threshold never goes stale; all rows therefore share one fill count.
    The history is an (n, window) ring shifted left each update, so each
    row reads oldest first, exactly as a per-stream queue would. The
    previous spectra are copied into a buffer the detector owns, so a
    caller may pass the same array, rewritten in place, every tick.
    flux_floor guards against firing on float rounding noise in an
    otherwise static spectrum; it sits far below the flux of any audible
    change.
    """

    def __init__(self, n: int = 1, k: float = 2.0, window: int = 43,
                 refractory_s: float = 0.15, flux_floor: float = 1e-6):
        if window < 8:
            raise ValueError(f"threshold window {window} < 8 frames")
        self.n = n
        self.k = k
        self.flux_floor = flux_floor
        self.window = window
        self.refractory_ticks = max(1, int(round(refractory_s / TICK_SECONDS)))
        self._prev = self._rise = None
        self._history = np.zeros((n, window))
        self._filled = 0
        self._cooldown = np.zeros(n, dtype=int)
        self.fired = np.zeros(n, dtype=bool)

    def update(self, magnitudes: np.ndarray, armed=True) -> bool:
        """Step every row with its new spectrum; armed is per row or shared.

        Returns whether any row fired; `fired` holds the per-row result.
        """
        mags = np.asarray(magnitudes, dtype=float).reshape(self.n, -1)
        if self._prev is None:
            flux = spectral_flux(mags, None)
            self._prev, self._rise = mags.copy(), np.empty_like(mags)
        else:
            flux = spectral_flux(mags, self._prev, out=self._rise)
            np.copyto(self._prev, mags)
        if self._filled:
            hist = self._history[:, self.window - self._filled:]
            threshold = np.mean(hist, axis=1) + self.k * np.std(hist, axis=1)
        else:
            threshold = 0.0
        self.fired = (np.asarray(armed, dtype=bool) & (self._cooldown == 0)
                      & (flux > np.maximum(threshold, self.flux_floor)))
        self._history[:, :-1] = self._history[:, 1:]
        self._history[:, -1] = flux
        self._filled = min(self._filled + 1, self.window)
        np.maximum(self._cooldown - 1, 0, out=self._cooldown)
        self._cooldown[self.fired] = self.refractory_ticks
        return bool(self.fired.any())


# --- recording segmentation ----------------------------------------------

class RecordingSession:
    """Accumulates hops after an onset until the sound dies away.

    Stops after STOP_RUN_HOPS consecutive hops more than STOP_DROP_DB
    below the recording's peak hop RMS, or at the MAX_RECORD_S cap
    (pre-roll counts toward the cap, so total duration never exceeds it).
    """

    def __init__(self, onset_tick: int, preroll: np.ndarray | None = None,
                 source_label: str | None = None, max_s: float = MAX_RECORD_S,
                 stop_drop_db: float = STOP_DROP_DB,
                 stop_run_hops: int = STOP_RUN_HOPS):
        self.onset_tick = onset_tick
        self.source_label = source_label
        self._cap = int(round(max_s * SAMPLE_RATE))
        self._drop = 10.0 ** (-stop_drop_db / 20.0)
        self._run_limit = stop_run_hops
        # blocks are kept in the stored sample's float32, half the memory of
        # the hops' float64 and the same values once the sample is made
        self._blocks = []
        self._count = 0
        if preroll is not None and len(preroll):
            # copy: callers may hand us views into a live ring buffer
            self._blocks.append(np.array(preroll, dtype=np.float32))
            self._count = len(preroll)
        self._peak = 0.0
        self._quiet_run = 0

    def feed(self, hop: np.ndarray, level: float) -> SoundSample | None:
        """Add one hop and its RMS level; returns the finished sample once
        the sound ends."""
        self._blocks.append(np.array(hop, dtype=np.float32))
        self._count += len(hop)
        self._peak = max(self._peak, level)
        if self._peak > 0.0 and level < self._peak * self._drop:
            self._quiet_run += 1
        else:
            self._quiet_run = 0
        if self._count >= self._cap or self._quiet_run >= self._run_limit:
            return self.finish()
        return None

    def finish(self) -> SoundSample:
        pcm = np.concatenate(self._blocks) if self._blocks else np.zeros(1)
        return make_sample(pcm[:self._cap], self.onset_tick,
                           self.source_label)


def segment_recording(hops, onset_tick: int = 0,
                      preroll: np.ndarray | None = None,
                      **kwargs) -> SoundSample:
    """Run a RecordingSession over an iterable of hops."""
    session = RecordingSession(onset_tick, preroll=preroll, **kwargs)
    for hop in hops:
        sample = session.feed(hop, rms(hop))
        if sample is not None:
            return sample
    return session.finish()


# --- novelty decision -----------------------------------------------------

class Verdict(Enum):
    APPEND = "append"
    REPLACE = "replace"
    REJECT = "reject"


@dataclass(frozen=True)
class AcceptDecision:
    verdict: Verdict
    replace_index: int | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict is not Verdict.REJECT


def _normalize(vectors: np.ndarray) -> np.ndarray:
    """Z-score per dimension; zero-spread dimensions normalise to zero."""
    mean = vectors.mean(axis=0)
    std = vectors.std(axis=0)
    safe = np.where(std > 0.0, std, 1.0)
    return np.where(std > 0.0, (vectors - mean) / safe, 0.0)


def novelty_score(normalized: np.ndarray) -> float:
    """Total spread of a vector set: sum of per-dimension population stds."""
    return float(np.sum(normalized.std(axis=0)))


def novelty_accept(collection: "SampleCollection",
                   candidate: SoundSample) -> AcceptDecision:
    """Decide whether the candidate makes the collection more diverse.

    Normalisation statistics include the candidate.  An empty collection
    always accepts; a non-full one appends iff the score strictly rises;
    a full one (by count or byte budget) may swap out the candidate's
    nearest member, again only for a strict score rise.
    """
    members = collection.items
    if not members:
        if candidate.nbytes > collection.capacity_bytes:
            return AcceptDecision(Verdict.REJECT)
        return AcceptDecision(Verdict.APPEND)

    vectors = np.array([m.vector.as_array() for m in members]
                       + [candidate.vector.as_array()])
    normed = _normalize(vectors)
    base = novelty_score(normed[:-1])
    full = (len(members) >= collection.max_items
            or collection.total_bytes + candidate.nbytes
            > collection.capacity_bytes)

    if not full:
        if novelty_score(normed) > base:
            return AcceptDecision(Verdict.APPEND)
        return AcceptDecision(Verdict.REJECT)

    distances = np.linalg.norm(normed[:-1] - normed[-1], axis=1)
    nearest = int(np.argmin(distances))  # first minimum = lowest index
    swapped = np.vstack([np.delete(normed[:-1], nearest, axis=0),
                         normed[-1]])
    fits = (collection.total_bytes - members[nearest].nbytes
            + candidate.nbytes <= collection.capacity_bytes)
    if fits and novelty_score(swapped) > base:
        return AcceptDecision(Verdict.REPLACE, nearest)
    return AcceptDecision(Verdict.REJECT)


class SampleCollection:
    """Bounded set of kept recordings (item count and total pcm bytes)."""

    def __init__(self, max_items: int = DEFAULT_MAX_ITEMS,
                 capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        self.max_items = max_items
        self.capacity_bytes = capacity_bytes
        self.items: list[SoundSample] = []

    def __len__(self):
        return len(self.items)

    @property
    def total_bytes(self) -> int:
        return sum(item.nbytes for item in self.items)

    def add(self, candidate: SoundSample) -> AcceptDecision:
        decision = novelty_accept(self, candidate)
        if decision.verdict is Verdict.APPEND:
            self.items.append(candidate)
        elif decision.verdict is Verdict.REPLACE:
            self.items[decision.replace_index] = candidate
        return decision

    def save_dir(self, path):
        """Write items as WAV files plus a JSON index of their metadata."""
        import os
        os.makedirs(path, exist_ok=True)
        index = []
        for i, item in enumerate(self.items):
            name = f"sample_{i:03d}.wav"
            ac.write_wav(os.path.join(path, name), item.pcm,
                         subtype="float32")
            index.append({
                "file": name,
                "captured_at": item.captured_at,
                "source_label": item.source_label,
                "duration_s": item.duration_s,
                "vector": {
                    "dynamic_range_db": item.vector.dynamic_range_db,
                    "zero_crossing_rate": item.vector.zero_crossing_rate,
                    "mfcc": [float(c) for c in item.vector.mfcc],
                },
            })
        with open(os.path.join(path, "index.json"), "w") as fh:
            json.dump(index, fh, indent=2)
