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
