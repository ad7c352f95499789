"""Post-run analysis: spectrograms and frequency-occupation metrics.

Everything here is a pure function of a finished run's artifacts, so
re-running an analysis is idempotent and two analyses of the same run
agree bit for bit.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .agents import ComposerParams
from .audio_core import fft_magnitude, frames, read_wav
from .environment import (MANIFEST_FILE, OCCUPATION_META, OCCUPATION_NPY,
                          load_run_events)
from .params import FRAME_HOP, FRAME_SIZE, SAMPLE_RATE

DB_FLOOR = -120.0
BIN_HZ = SAMPLE_RATE / FRAME_SIZE


def spectrogram_grid(samples: np.ndarray) -> np.ndarray:
    """STFT magnitudes with the simulator's framing, (n_frames, n_bins)."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) < FRAME_SIZE:
        samples = np.pad(samples, (0, FRAME_SIZE - len(samples)))
    return fft_magnitude(frames(samples))


def save_spectrogram_csv(path, grid: np.ndarray):
    """Magnitude grid as RFC-4180 CSV: one row per frame, time first."""
    n_frames, n_bins = grid.shape
    header = "time_s," + ",".join(f"hz_{k * BIN_HZ:.2f}"
                                  for k in range(n_bins))
    times = np.arange(n_frames) * FRAME_HOP / SAMPLE_RATE
    np.savetxt(path, np.column_stack([times, grid]), fmt="%.6g",
               delimiter=",", header=header, comments="")


def save_spectrogram_pgm(path, grid: np.ndarray, db_floor: float = DB_FLOOR):
    """Log-scaled greyscale PGM (P5); image row r is frequency bin r."""
    db = 20.0 * np.log10(grid + 10.0 ** (db_floor / 20.0))
    lo = db.min()
    hi = db.max()
    if hi - lo < 1e-9:
        img = np.zeros(grid.shape, dtype=np.uint8)
    else:
        img = np.round((db - lo) / (hi - lo) * 255.0).astype(np.uint8)
    img = img.T  # (n_bins, n_frames): rows are frequency, ascending
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def save_spectrogram(wav_path, csv_path=None, pgm_path=None) -> np.ndarray:
    samples, _ = read_wav(wav_path, target_rate=None)
    grid = spectrogram_grid(samples)
    if csv_path is not None:
        save_spectrogram_csv(csv_path, grid)
    if pgm_path is not None:
        save_spectrogram_pgm(pgm_path, grid)
    return grid


def band_occupancy_threshold(mean_band_energy: np.ndarray,
                             floor: float = ComposerParams.occupancy_floor,
                             percentile: float =
                             ComposerParams.occupancy_percentile) -> float:
    """The composers' collision threshold, applied to bus-truth energies.

    Using the same formula the agents act on keeps the metrics honest:
    a band the metric calls occupied is one a composer would avoid.
    """
    return max(floor, float(np.percentile(mean_band_energy, percentile)))


def occupation_metrics(events: list, occupation: np.ndarray, meta: dict,
                       n_ticks: int) -> dict:
    """Niche metrics from the event log and the bus-truth energy matrix.

    overlap_ratio: fraction of composer emission windows whose band also
    carried non-cyberphony energy above the occupancy threshold (None
    when no composer emitted). niche_spread: distinct bands composers
    used. switch_events: preferred-band departures plus returns summed
    over composers.
    """
    channels = list(meta["channels"])
    window_ticks = int(meta["window_ticks"])
    non_cyber = [i for i, c in enumerate(channels) if c != "cyberphony"]
    energy = occupation[non_cyber].sum(axis=0)  # (n_windows, n_bands)
    n_windows = energy.shape[0]

    # per-frame scale so the threshold matches what composers see
    frames_per = np.full(n_windows, window_ticks, dtype=float)
    if n_windows:
        frames_per[-1] = n_ticks - window_ticks * (n_windows - 1)
    mean_energy = energy / np.maximum(frames_per[:, None], 1.0)
    thresholds = np.array([band_occupancy_threshold(mean_energy[w])
                           for w in range(n_windows)])

    partial = not events or events[-1].get("event") != "end"
    total_windows = 0
    overlapped = 0
    bands_used = set()
    composers = {}
    for record in events:
        if record.get("event") != "emission_start":
            continue
        payload = record["payload"]
        band = payload["band"]
        tick = record["tick"]
        n_hops = -(-payload["n_samples"] // FRAME_HOP)
        bands_used.add(band)
        # audible from tick+1 for n_hops hops
        w_lo = (tick + 1) // window_ticks
        w_hi = min((tick + n_hops) // window_ticks, n_windows - 1)
        for w in range(w_lo, w_hi + 1):
            total_windows += 1
            if mean_energy[w, band] >= thresholds[w]:
                overlapped += 1
        info = composers.setdefault(record["agent_id"], {
            "preferred_band": payload.get("preferred_band"),
            "bands": [], "departures": 0, "returns": 0})
        info["bands"].append(band)
        info["preferred_band"] = payload.get("preferred_band")

    switch_events = 0
    for info in composers.values():
        preferred = info["preferred_band"]
        at_home = True  # composers begin on their preferred band
        for band in info["bands"]:
            if at_home and band != preferred:
                info["departures"] += 1
                at_home = False
            elif not at_home and band == preferred:
                info["returns"] += 1
                at_home = True
        info["bands"] = sorted(set(info["bands"]))
        switch_events += info["departures"] + info["returns"]

    return {
        "overlap_ratio": (overlapped / total_windows if total_windows
                          else None),
        "niche_spread": len(bands_used),
        "switch_events": switch_events,
        "emission_windows": total_windows,
        "composers": composers,
        "partial_data": partial,
    }


def _metrics_csv_lines(metrics: dict) -> str:
    lines = ["metric,value"]
    for key in ("overlap_ratio", "niche_spread", "switch_events",
                "emission_windows", "partial_data"):
        value = metrics[key]
        if value is None:
            value = "n/a"
        elif isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{key},{value}")
    for agent_id, info in sorted(metrics["composers"].items()):
        lines.append(f"{agent_id}.departures,{info['departures']}")
        lines.append(f"{agent_id}.returns,{info['returns']}")
    return "\n".join(lines) + "\n"


def analyze_run(run_dir):
    """Metrics JSON/CSV plus a spectrogram pair per monitor render.

    Spectrograms render on one worker per monitor, up to the CPU count.
    Returns the metrics dict with a list of written artifact names under
    "artifacts".
    """
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / MANIFEST_FILE).read_text())
    events = load_run_events(run_dir)
    occupation = np.load(run_dir / OCCUPATION_NPY)
    meta = json.loads((run_dir / OCCUPATION_META).read_text())

    metrics = occupation_metrics(events, occupation, meta,
                                 manifest["n_ticks"])
    written = ["metrics.json", "metrics.csv"]

    # the manifest's renders, not whatever an earlier run left beside them
    monitors = sorted(name for name in manifest["artifacts"]
                      if name.startswith("monitor_"))

    def render(name):
        stem = name[:-len(".wav")]
        save_spectrogram(run_dir / name,
                         csv_path=run_dir / f"{stem}_spectrogram.csv",
                         pgm_path=run_dir / f"{stem}_spectrogram.pgm")
        return [f"{stem}_spectrogram.csv", f"{stem}_spectrogram.pgm"]

    if monitors:
        workers = min(len(monitors), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for names in pool.map(render, monitors):
                written.extend(names)

    metrics = dict(metrics, artifacts=sorted(written))
    (run_dir / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True))
    (run_dir / "metrics.csv").write_text(_metrics_csv_lines(metrics))
    return metrics
