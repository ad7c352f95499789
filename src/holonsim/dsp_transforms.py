"""Transformations applied to captured sound before re-emission.

Four ways to mangle a clip: shift it up or down an octave (resampling,
so duration changes too), frequency-modulate a carrier with it, or ring-
modulate it against a carrier.  Carriers are drawn per capture from the
owning agent's random stream.  TRANSFORMS declares each kind once.
"""

from dataclasses import dataclass

import numpy as np

from .params import SAMPLE_RATE

FM_INDEX = 5.0               # Hz of deviation per unit of input


@dataclass(frozen=True)
class TransformSpec:
    kind: str                # a key of TRANSFORMS
    carrier_hz: float = 0.0


def pitch_shift_octave(pcm: np.ndarray, direction: int) -> np.ndarray:
    """Shift one octave by resampled playback; +1 up (half the length,
    read at double speed), -1 down (double the length, read at half speed).
    Plain linear interpolation, artifacts and all.

    Up reads every other sample; down reads each sample and the midpoint
    after it, (x[j+1] - x[j]) * 0.5 + x[j], which is what np.interp gives
    at those positions, bit for bit.
    """
    if direction > 0:
        return np.array(pcm[::2], dtype=float)
    out = np.empty(max(2 * len(pcm) - 1, 0))
    out[::2] = pcm
    mid, left = out[1::2], out[:-2:2]
    np.subtract(out[2::2], left, out=mid)
    mid *= 0.5
    mid += left
    return out


def ring_mod(pcm: np.ndarray, carrier_hz: float) -> np.ndarray:
    """Multiply by a carrier sine: y[i] = x[i] * sin(2 pi c i / fs)."""
    out = np.arange(len(pcm), dtype=float)
    out *= 2.0 * np.pi * carrier_hz
    out /= SAMPLE_RATE
    np.sin(out, out=out)
    out *= pcm
    return out


def freq_mod(pcm: np.ndarray, carrier_hz: float) -> np.ndarray:
    """Use the input as a frequency deviation around a carrier.

    phase[i] = phase[i-1] + 2 pi (carrier_hz + FM_INDEX * x[i]) / fs,
    output sin(phase); a zero input therefore gives the bare carrier.
    """
    out = np.array(pcm, dtype=float)
    out *= FM_INDEX
    out += carrier_hz
    out *= 2.0 * np.pi
    out /= SAMPLE_RATE
    np.cumsum(out, out=out)
    np.sin(out, out=out)
    return out


# Each transform kind, in the order random_spec draws them: its function of
# (pcm, carrier_hz), and the range its carrier is drawn from (None: none).
TRANSFORMS = {
    "pitch_up": (lambda pcm, _: pitch_shift_octave(pcm, +1), None),
    "pitch_down": (lambda pcm, _: pitch_shift_octave(pcm, -1), None),
    "freq_mod": (freq_mod, (50.0, 500.0)),
    "ring_mod": (ring_mod, (100.0, 2000.0)),
}


def random_spec(rng: np.random.Generator) -> TransformSpec:
    """Draw a transform uniformly, with its carrier where one applies."""
    kind = list(TRANSFORMS)[int(rng.integers(len(TRANSFORMS)))]
    carrier = TRANSFORMS[kind][1]
    if carrier is None:
        return TransformSpec(kind)
    return TransformSpec(kind, float(rng.uniform(*carrier)))


def apply_transform(pcm: np.ndarray, spec: TransformSpec) -> np.ndarray:
    return TRANSFORMS[spec.kind][0](pcm, spec.carrier_hz)
