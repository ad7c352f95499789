"""Tiny signal builders shared by the test modules."""

import struct
import wave

import numpy as np

from holonsim.params import SAMPLE_RATE


def sine(freq_hz, duration_s=1.0, amp=1.0, rate=SAMPLE_RATE, phase=0.0):
    t = np.arange(int(round(duration_s * rate))) / rate
    return amp * np.sin(2.0 * np.pi * freq_hz * t + phase)


def white_noise(rng, duration_s=1.0, amp=1.0, rate=SAMPLE_RATE):
    return amp * rng.standard_normal(int(round(duration_s * rate)))


def silence(duration_s, rate=SAMPLE_RATE):
    return np.zeros(int(round(duration_s * rate)))


def wav_bytes(format_code=1, channels=1, rate=SAMPLE_RATE, bits=16,
              magic=b"RIFF", form=b"WAVE", with_fmt=True, with_data=True,
              payload=b"\x00\x00" * 10, fmt_held=16):
    """A RIFF file built field by field, so a test can make any one bad.

    fmt_held is how many of the fmt chunk's 16 declared bytes it holds.
    """
    chunks = b""
    if with_fmt:
        chunks += struct.pack("<4sIHHIIHH", b"fmt ", 16, format_code,
                              channels, rate, rate * 2, 2, bits)[:8 + fmt_held]
    if with_data:
        chunks += struct.pack("<4sI", b"data", len(payload)) + payload
    return magic + struct.pack("<I", 4 + len(chunks)) + form + chunks


def write_pcm16_wav(path, samples, rate=SAMPLE_RATE):
    """Mono samples in [-1, 1] as a 16-bit PCM WAV, written by the stdlib."""
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())
