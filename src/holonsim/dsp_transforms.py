"""Transformations applied to captured sound before re-emission.

Four ways to mangle a clip: shift it up or down an octave (resampling,
so duration changes too), frequency-modulate a carrier with it, or ring-
modulate it against a carrier.  Carriers are drawn per capture from the
owning agent's random stream.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import SAMPLE_RATE

FREQ_MOD_CARRIER_HZ = (50.0, 500.0)
RING_MOD_CARRIER_HZ = (100.0, 2000.0)
FM_INDEX = 5.0               # Hz of deviation per unit of input


class TransformKind(Enum):
    PITCH_UP = "pitch_up"
    PITCH_DOWN = "pitch_down"
    FREQ_MOD = "freq_mod"
    RING_MOD = "ring_mod"


@dataclass(frozen=True)
class TransformSpec:
    kind: TransformKind
    carrier_hz: float = 0.0


def random_spec(rng: np.random.Generator) -> TransformSpec:
    """Draw a transform uniformly, with its carrier where one applies."""
    kind = list(TransformKind)[int(rng.integers(len(TransformKind)))]
    if kind is TransformKind.FREQ_MOD:
        return TransformSpec(kind, float(rng.uniform(*FREQ_MOD_CARRIER_HZ)))
    if kind is TransformKind.RING_MOD:
        return TransformSpec(kind, float(rng.uniform(*RING_MOD_CARRIER_HZ)))
    return TransformSpec(kind)


def pitch_shift_octave(pcm: np.ndarray, direction: int) -> np.ndarray:
    """Shift one octave by resampled playback; +1 up (half the length,
    read at double speed), -1 down (double the length, read at half speed).
    Plain linear interpolation, artifacts and all.
    """
    pcm = np.asarray(pcm, dtype=float)
    n = len(pcm)
    if n == 0:
        return pcm.copy()
    if direction > 0:
        positions = np.arange((n - 1) // 2 + 1) * 2.0
    else:
        positions = np.arange(2 * n - 1) * 0.5
    return np.interp(positions, np.arange(n), pcm)


def ring_mod(pcm: np.ndarray, carrier_hz: float) -> np.ndarray:
    """Multiply by a carrier sine: y[i] = x[i] * sin(2 pi c i / fs)."""
    pcm = np.asarray(pcm, dtype=float)
    i = np.arange(len(pcm))
    return pcm * np.sin(2.0 * np.pi * carrier_hz * i / SAMPLE_RATE)


def freq_mod(pcm: np.ndarray, carrier_hz: float) -> np.ndarray:
    """Use the input as a frequency deviation around a carrier.

    phase[i] = phase[i-1] + 2 pi (carrier_hz + FM_INDEX * x[i]) / fs,
    output sin(phase); a zero input therefore gives the bare carrier.
    """
    pcm = np.asarray(pcm, dtype=float)
    increments = 2.0 * np.pi * (carrier_hz + FM_INDEX * pcm) / SAMPLE_RATE
    return np.sin(np.cumsum(increments))


def apply_transform(pcm: np.ndarray, spec: TransformSpec) -> np.ndarray:
    if spec.kind is TransformKind.PITCH_UP:
        return pitch_shift_octave(pcm, +1)
    if spec.kind is TransformKind.PITCH_DOWN:
        return pitch_shift_octave(pcm, -1)
    if spec.kind is TransformKind.FREQ_MOD:
        return freq_mod(pcm, spec.carrier_hz)
    if spec.kind is TransformKind.RING_MOD:
        return ring_mod(pcm, spec.carrier_hz)
    raise ValueError(f"unknown transform {spec.kind!r}")
