"""Listening: onset detection, recording segmentation, per-sound analysis
vectors and the diversity rule deciding which recordings are worth keeping.

A recording is kept when adding it increases the spread (per-dimension
standard deviation, after z-score normalisation) of the collection's
analysis vectors; once the collection is full the nearest existing member
is the one considered for replacement.

The MFCCs in an analysis vector take their orthonormal DCT-II from
pocketfft's compiled module, loaded by audio_core, with the arguments
scipy.fft.dct passes; scipy.fft itself is never imported.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

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
_STOP_DROP = 10.0 ** (-STOP_DROP_DB / 20.0)  # as an RMS ratio

ONSET_K = 2.0                # fire above mean + ONSET_K * std of...
ONSET_WINDOW = 43            # ...this many trailing flux values
ONSET_REFRACTORY_S = 0.15
FLUX_FLOOR = 1e-6

DEFAULT_MAX_ITEMS = 32
DEFAULT_CAPACITY_BYTES = 8 * 1024 * 1024


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


def zero_crossing_rate(pcm: np.ndarray) -> float:
    """Sign changes per second; zero samples count as positive."""
    if len(pcm) < 2:
        return 0.0
    signs = np.where(np.asarray(pcm) >= 0.0, 1, -1)
    crossings = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return crossings * SAMPLE_RATE / len(pcm)


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
    # scipy.fft.dct(x, type=2, norm="ortho", axis=-1)
    coeffs = ac.pocketfft.dct(np.log(energies + LOG_FLOOR), 2, (-1,), 1, None,
                              1, None)
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


def analyze(pcm: np.ndarray) -> AnalysisVector:
    """Deterministic analysis vector; same pcm always gives the same bits."""
    return AnalysisVector(
        dynamic_range_db=dynamic_range_db(pcm),
        zero_crossing_rate=zero_crossing_rate(pcm),
        mfcc=mfcc(pcm))


@dataclass
class SoundSample:
    """One segmented recording; its analysis vector is computed when it is
    first read, so a sample nobody judges is never analyzed."""

    pcm: np.ndarray          # float32, the stored form
    captured_at: int         # tick of the triggering onset

    @cached_property
    def vector(self) -> AnalysisVector:
        return analyze(self.pcm)

    @property
    def duration_s(self) -> float:
        return len(self.pcm) / SAMPLE_RATE

    @property
    def nbytes(self) -> int:
        return self.pcm.nbytes


# --- onset detection ----------------------------------------------------

def spectral_flux(current: np.ndarray, previous: np.ndarray | None):
    """Sum of per-bin magnitude increases since the previous frame.

    Sums along the last axis, so a stack of frames gives one flux per row.
    """
    if previous is None:
        return 0.0
    return np.sum(np.maximum(current - previous, 0.0), axis=-1)


class OnsetDetector:
    """Adaptive spectral-flux onset detectors for n streams at once.

    A row fires when its flux exceeds mean + ONSET_K * std of its trailing
    ONSET_WINDOW flux values, then holds off for ONSET_REFRACTORY_S.  Every
    row updates on every call, armed or not, so the flux history keeps
    moving while a caller is disarmed (e.g. busy recording) and the
    threshold never goes stale; all rows therefore share one fill count.
    The history is an (n, ONSET_WINDOW) ring shifted left each update, so each
    row reads oldest first, exactly as a per-stream queue would. The
    previous spectra are a copy the detector owns, so a caller may pass
    the same array, rewritten in place, every tick.
    FLUX_FLOOR guards against firing on float rounding noise in an
    otherwise static spectrum; it sits far below the flux of any audible
    change.
    """

    refractory_ticks = max(1, int(round(ONSET_REFRACTORY_S / TICK_SECONDS)))

    def __init__(self, n: int):
        self._prev = None
        self._history = np.zeros((n, ONSET_WINDOW))
        self._filled = 0
        self._cooldown = np.zeros(n, dtype=int)
        self.fired = np.zeros(n, dtype=bool)

    def update(self, magnitudes: np.ndarray, armed) -> bool:
        """Step every row with its new spectrum; armed is per row or shared.

        Returns whether any row fired; `fired` holds the per-row result.
        """
        mags = np.array(magnitudes, dtype=float, ndmin=2)   # a copy
        flux = spectral_flux(mags, self._prev)
        self._prev = mags
        if self._filled:
            hist = self._history[:, ONSET_WINDOW - self._filled:]
            threshold = np.mean(hist, axis=1) + ONSET_K * np.std(hist, axis=1)
        else:
            threshold = 0.0
        self.fired = (np.asarray(armed, dtype=bool) & (self._cooldown == 0)
                      & (flux > np.maximum(threshold, FLUX_FLOOR)))
        self._history[:, :-1] = self._history[:, 1:]
        self._history[:, -1] = flux
        self._filled = min(self._filled + 1, ONSET_WINDOW)
        np.maximum(self._cooldown - 1, 0, out=self._cooldown)
        self._cooldown[self.fired] = self.refractory_ticks
        return bool(self.fired.any())


# --- recording segmentation ----------------------------------------------

class RecordingSession:
    """Accumulates hops after an onset until the sound dies away.

    Stops after STOP_RUN_HOPS consecutive hops more than STOP_DROP_DB
    below the recording's peak hop RMS, or at the max_s cap
    (pre-roll counts toward the cap, so total duration never exceeds it).
    hops_left is the number of hops the run can still feed it.
    """

    def __init__(self, onset_tick: int, preroll: np.ndarray, max_s: float,
                 hops_left: int):
        self.onset_tick = onset_tick
        self._cap = int(round(max_s * SAMPLE_RATE))
        # one buffer in the float32 of the agents' rings and the stored
        # sample, no longer than the cap or than what the run can still
        # feed; pages are touched as written
        self._pcm = np.empty(min(self._cap,
                                 len(preroll) + hops_left * FRAME_HOP),
                             dtype=np.float32)
        self._count = 0
        self._append(preroll)
        self._peak = 0.0
        self._quiet_run = 0

    def _append(self, x: np.ndarray):
        start = self._count
        self._count = end = start + len(x)
        if end <= self._cap:
            self._pcm[start:end] = x
        elif start < self._cap:
            self._pcm[start:] = x[:self._cap - start]

    def feed(self, hop: np.ndarray, level: float) -> SoundSample | None:
        """Add one hop and its RMS level; returns the finished sample once
        the sound ends."""
        self._append(hop)
        self._peak = max(self._peak, level)
        if self._peak > 0.0 and level < self._peak * _STOP_DROP:
            self._quiet_run += 1
        else:
            self._quiet_run = 0
        if self._count >= self._cap or self._quiet_run >= STOP_RUN_HOPS:
            return self.finish()
        return None

    def finish(self) -> SoundSample:
        # copy: the kept sample should not hold the whole capped buffer
        return SoundSample(self._pcm[:min(self._count, self._cap)].copy(),
                           self.onset_tick)


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

    def __init__(self, max_items: int, capacity_bytes: int):
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
