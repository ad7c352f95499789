"""Seeded inputs for the two benchmark workloads.

Each workload is a scenario file (JSON, which the program's YAML loader
reads as-is) plus, for `dock`, the WAV it plays. Everything is a pure
function of the seed, so one seed always yields byte-identical files.

`roster` is the exhibition roster of scenarios/full_roster.yaml: 130
agents, no scripted sources, no audio in the log. Per-agent work
dominates every tick; sources, the log and the post-run tools idle.

`dock` is the opposite: ten agents under a busy sky of five sources of
all four kinds, three monitors and audio in the log. The per-agent loop
is small; sources, bus mix, occupation analysis, audio-carrying event
writes, finalize, spectrograms and replay carry the work.
"""

import json
import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 32000

# Simulated length of one session: at least 1000 ticks, so that a 99th
# percentile over ticks has ten ticks beyond it.
DURATION_S = {"roster": 16.0, "dock": 40.0}

# Distinct scenario seeds per benchmark run. On `dock` each collector
# either plays its 30 s clip back at dusk or records again, and every clip
# played back adds 5 MB of base64 to the log, so one seed's artifacts weigh
# 48 or 53 MB. Averaging three scenarios per run narrows that step to a
# third.
SCENARIOS_PER_RUN = {"roster": 1, "dock": 3}


def scenario_seeds(workload: str, seed: int) -> list:
    """The scenario seeds of one run: n·seed to n·seed + n − 1."""
    n = SCENARIOS_PER_RUN[workload]
    return [seed * n + i for i in range(n)]


def roster(seed: int, duration_s: float) -> dict:
    return {
        "name": "roster",
        "seed": seed,
        "duration_s": duration_s,
        "log_audio": False,
        "layout_radius_m": 8.0,
        "monitors": [[0.0, 0.0]],
        "agents": [
            {"kind": "composer", "count": 50},
            {"kind": "collector", "count": 50},
            {"kind": "disruptor", "count": 30},
        ],
    }


def dock(seed: int, duration_s: float) -> dict:
    """The dock soundscape; the seed jitters levels and timings a little."""
    rng = np.random.default_rng([seed, 1])

    def jitter(value, spread):
        return round(float(value + rng.uniform(-spread, spread)), 3)

    gull_period = jitter(3.0, 0.3)
    return {
        "name": "dock",
        "seed": seed,
        "duration_s": duration_s,
        # one day per run: dusk falls halfway, so collectors play back
        "day_length_s": duration_s,
        "log_audio": True,
        "layout_radius_m": 4.0,
        "monitors": [[0.0, 0.0], [-5.0, 2.0], [5.0, -2.0]],
        "agents": [
            {"kind": "composer", "count": 5},
            {"kind": "collector", "count": 3},
            {"kind": "disruptor", "count": 2},
        ],
        # No source uses the geophony channel: it then holds the bus noise
        # floor alone, whose energy the output checks predict exactly.
        "sources": [
            {"id": "machinery", "kind": "band_noise",
             "channel": "anthrophony", "position": [-6.0, 1.0],
             "level_dbfs": jitter(-22.0, 1.0), "band_hz": [200.0, 600.0]},
            {"id": "boat", "kind": "band_noise", "channel": "anthrophony",
             "position": [5.0, -4.0], "level_dbfs": jitter(-24.0, 1.0),
             "band_hz": [2000.0, 4000.0],
             "start_s": jitter(0.2 * duration_s, 1.0),
             "stop_s": jitter(0.6 * duration_s, 1.0)},
            {"id": "gulls", "kind": "chirp_train", "channel": "biophony",
             "position": [3.0, 5.0], "level_dbfs": jitter(-28.0, 1.0),
             "start_s": jitter(1.0, 0.5), "chirp_s": jitter(0.25, 0.05),
             "period_s": gull_period,
             "count": int((duration_s - 2.0) // gull_period)},
            {"id": "hum", "kind": "tone", "channel": "anthrophony",
             "position": [-2.0, -6.0], "level_dbfs": jitter(-34.0, 1.0),
             "freq_hz": jitter(120.0, 5.0)},
            {"id": "water", "kind": "wav", "channel": "biophony",
             "position": [0.0, -7.0], "path": "water.wav", "gain": 1.0},
        ],
    }


def water_pcm16(seed: int, duration_s: float) -> bytes:
    """Lapping water: low-passed noise under a slow swell, at -30 dBFS."""
    rng = np.random.default_rng([seed, 2])
    n = int(round(duration_s * SAMPLE_RATE))
    # shape white noise in the frequency domain: a soft roll-off above 1 kHz
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    noise = np.fft.irfft(spectrum / np.sqrt(1.0 + (freqs / 1000.0) ** 4), n)
    t = np.arange(n) / SAMPLE_RATE
    swell_hz = rng.uniform(0.15, 0.3)
    swell = 0.6 + 0.4 * np.sin(2.0 * np.pi * swell_hz * t
                                + rng.uniform(0.0, 2.0 * np.pi))
    pcm = noise * swell
    pcm *= 10.0 ** (-30.0 / 20.0) / np.sqrt(np.mean(pcm ** 2))
    return np.round(np.clip(pcm, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()


GENERATORS = {"roster": roster, "dock": dock}


def write_inputs(workload: str, seed: int, out_dir: Path,
                 duration_s: float | None = None) -> Path:
    """Write the workload's input files; returns the scenario path."""
    duration_s = duration_s or DURATION_S[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = GENERATORS[workload](seed, duration_s)
    path = out_dir / f"{workload}.yaml"
    path.write_text(json.dumps(scenario, indent=2, sort_keys=True))
    if workload == "dock":
        with wave.open(str(out_dir / "water.wav"), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(SAMPLE_RATE)
            fh.writeframes(water_pcm16(seed, duration_s))
    return path
