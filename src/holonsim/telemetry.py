"""Post-run analysis: spectrograms and frequency-occupation metrics.

Everything here is a pure function of a finished run's artifacts, so
re-running an analysis is idempotent and two analyses of the same run
agree bit for bit.
"""

import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .agents import ComposerParams, occupancy_threshold
from .audio_core import fft_magnitude, frames, read_wav
from .params import FRAME_HOP, FRAME_SIZE, SAMPLE_RATE
from .rundir import OCCUPATION_META, OCCUPATION_NPY, RunDir, load_run_events

DB_FLOOR = -120.0
BIN_HZ = SAMPLE_RATE / FRAME_SIZE
# Frames per chunk of every pass over a render (the STFT, the PGM's two
# passes and the CSV text), so only the grid grows with the run; small, as
# each CSV worker formats a chunk of its own at once.
CSV_CHUNK_ROWS = 64
# Threads formatting a CSV's chunks. A fixed count, not one per CPU, so the
# CSV's working set is the same on every host: each worker holds one
# chunk's temporaries (about 2.4 MB).
CSV_WORKERS = 2


def _chunks(n_rows: int) -> list:
    """Slices of CSV_CHUNK_ROWS rows, in order, covering n_rows rows."""
    return [slice(start, start + CSV_CHUNK_ROWS)
            for start in range(0, n_rows, CSV_CHUNK_ROWS)]


def spectrogram_grid(samples: np.ndarray) -> np.ndarray:
    """STFT magnitudes with the simulator's framing, (n_frames, n_bins)."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) < FRAME_SIZE:
        samples = np.pad(samples, (0, FRAME_SIZE - len(samples)))
    windows = frames(samples)
    grid = np.empty((len(windows), FRAME_SIZE // 2 + 1))
    for rows in _chunks(len(windows)):
        grid[rows] = fft_magnitude(windows[rows])
    return grid


# --- "%.6g" text from array ops -------------------------------------------
# A value v > 0 is written from e = floor(log10 v) and its six significant
# digits D = rint(v * 10**(5 - e)), 10**5 <= D < 10**6. "%g" writes fixed
# notation for -4 <= e <= 5 and d.ddddde±XX otherwise, with trailing
# fraction zeros (and a bare point) dropped. Each value gets a slot of
# _SLOT bytes, separator last; the bytes a value does not use stay _PAD and
# are dropped before writing. A row holding any other value is written by
# CPython's own "%.6g" (_FALLBACK): negatives and -0.0, inf and NaN, values
# outside [1e-300, 1e300], values within a few ulp of a power of ten (where
# log10 can miss e by one), and values whose seventh digit is a near-tie.

_SLOT = 13                # "d.ddddde-ddd" and its separator
_PAD = 0
_ZERO, _EXP, _FALLBACK = 0, 11, 12   # classes; 1 to 10 are fixed, e + 5
_POW10_LOW = -295
# 10**k correctly rounded, for every k that 5 - e can take
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_LOW, 306)])
# the product v * 10**(5 - e) is off by at most a few ulp (< 1e-9 below
# 10**6), so rint gives the correctly rounded digits away from half
_TIE_MARGIN = 1e-6
_LEAD_BELOW_ONE = np.frombuffer(b"0.000", dtype=np.uint8)


def _classify(v: np.ndarray):
    """(class, e, D) of each value; D and e are meaningful only for the
    fixed and exponent classes."""
    fast = (v >= 1e-300) & (v <= 1e300)
    safe = np.where(fast, v, 1.0)
    e = np.floor(np.log10(safe)).astype(np.int64)
    m = safe * _POW10[5 - e - _POW10_LOW]
    fast &= (m >= 1e5) & (m < 1e6)   # e was right
    fast &= np.abs(m - np.floor(m) - 0.5) >= _TIE_MARGIN
    digits = np.rint(m).astype(np.int32)
    carry = digits == 10 ** 6     # 999999.5 and up round to 1.00000e(e+1)
    digits[carry] = 10 ** 5
    e += carry
    cls = np.where((e >= -4) & (e <= 5), e + 5, _EXP).astype(np.int8)
    cls[~fast] = _FALLBACK
    cls[(v == 0) & ~np.signbit(v)] = _ZERO
    return cls, e, digits


def _fill_slots(slots: np.ndarray, cls: np.ndarray, e: np.ndarray,
                digits: np.ndarray):
    """Write each value's text into its slot; all three arrays are sorted
    by class, so each class is one block of rows."""
    ends = np.cumsum(np.bincount(cls, minlength=_FALLBACK + 1))
    # raw[s] is the character of digit s (most significant first); frac
    # drops the trailing zeros, which "%g" omits after a point
    raw = np.empty((6, cls.size), dtype=np.uint8)
    q = digits
    for s in range(5, -1, -1):
        q, raw[s] = np.divmod(q, 10)
    raw += ord("0")
    frac = raw.copy()
    keep = np.zeros(cls.size, dtype=bool)
    for s in range(5, 0, -1):
        keep |= frac[s] != ord("0")
        frac[s] *= keep

    def point(s, lo, hi):
        """"." before digit s where that digit is kept, else a pad."""
        return np.where(frac[s, lo:hi] != _PAD, ord("."), _PAD)

    slots[:ends[_ZERO], 0] = ord("0")
    for c in range(1, _EXP):
        lo, hi = ends[c - 1], ends[c]
        if lo == hi:
            continue
        x = c - 5
        block = slots[lo:hi]
        if x >= 0:    # "ddd.ddd": integer digits always, then the fraction
            block[:, :x + 1] = raw[:x + 1, lo:hi].T
            if x < 5:
                block[:, x + 1] = point(x + 1, lo, hi)
                block[:, x + 2:7] = frac[x + 1:, lo:hi].T
        else:         # "0.000dddddd"
            block[:, :-x + 1] = _LEAD_BELOW_ONE[:-x + 1]
            block[:, -x + 1:-x + 7] = frac[:, lo:hi].T
    lo, hi = ends[_EXP - 1], ends[_EXP]
    if lo < hi:
        block = slots[lo:hi]
        x = e[lo:hi]
        a = np.abs(x)
        wide = a >= 100
        block[:, 0] = raw[0, lo:hi]
        block[:, 1] = point(1, lo, hi)
        block[:, 2:7] = frac[1:, lo:hi].T
        block[:, 7] = ord("e")
        block[:, 8] = np.where(x < 0, ord("-"), ord("+"))
        block[:, 9] = np.where(wide, a // 100, a // 10 % 10) + ord("0")
        block[:, 10] = np.where(wide, a // 10 % 10, a % 10) + ord("0")
        block[:, 11] = np.where(wide, a % 10 + ord("0"), _PAD)


def format_csv_rows(values: np.ndarray) -> bytes:
    """A 2-D float array as the bytes np.savetxt(fmt="%.6g", delimiter=",")
    writes for it: values joined by ",", each row ended by a newline."""
    values = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    if values.size == 0:
        return b"\n" * n_rows
    cls, e, digits = _classify(values.ravel())
    order = np.argsort(cls, kind="stable")
    slots = np.zeros((cls.size, _SLOT), dtype=np.uint8)
    _fill_slots(slots, cls[order], e[order], digits[order])
    out = np.empty_like(slots)
    out.view(f"V{_SLOT}")[order] = slots.view(f"V{_SLOT}")
    out = out.reshape(n_rows, n_cols, _SLOT)
    out[:, :, -1] = ord(",")
    out[:, -1, -1] = ord("\n")
    text = out[out != _PAD].tobytes()
    fallback = (cls == _FALLBACK).reshape(n_rows, n_cols).any(axis=1)
    if not fallback.any():
        return text
    lines = text.split(b"\n")
    for r in np.flatnonzero(fallback):
        lines[r] = ",".join("%.6g" % x for x in values[r].tolist()).encode()
    return b"\n".join(lines)


def save_spectrogram_csv(path, grid: np.ndarray):
    """Magnitude grid as RFC-4180 CSV: one row per frame, time first.

    The text is np.savetxt's with fmt="%.6g". CSV_WORKERS threads format
    CSV_CHUNK_ROWS rows at a time, and the chunks are written in order.
    A chunk is queued only as an earlier one is written, so at most one
    more chunk than there are workers is in flight and finished texts
    cannot pile up behind a slow write.
    """
    n_frames, n_bins = grid.shape
    header = "time_s," + ",".join(f"hz_{k * BIN_HZ:.2f}"
                                  for k in range(n_bins))
    times = np.arange(n_frames) * FRAME_HOP / SAMPLE_RATE

    def text(rows):
        return format_csv_rows(np.column_stack([times[rows], grid[rows]]))

    with open(path, "wb") as fh, ThreadPoolExecutor(CSV_WORKERS) as pool:
        fh.write(header.encode("ascii") + b"\n")
        ahead = deque()
        for rows in _chunks(n_frames):
            ahead.append(pool.submit(text, rows))
            if len(ahead) > CSV_WORKERS:
                fh.write(ahead.popleft().result())
        for future in ahead:
            fh.write(future.result())


def save_spectrogram_pgm(path, grid: np.ndarray):
    """Log-scaled greyscale PGM (P5), floored at DB_FLOOR; image row r is
    frequency bin r.

    Two passes of CSV_CHUNK_ROWS frames at a time: the first finds the
    grid's dB range, the second scales each chunk into the image.
    """
    def db(rows):
        return 20.0 * np.log10(grid[rows] + 10.0 ** (DB_FLOOR / 20.0))

    chunks = _chunks(len(grid))
    lo, hi = np.inf, -np.inf
    for rows in chunks:
        chunk = db(rows)
        lo, hi = min(lo, chunk.min()), max(hi, chunk.max())
    # (n_bins, n_frames): rows are frequency, ascending; a flat grid
    # (silence) stays black
    img = np.zeros(grid.shape[::-1], dtype=np.uint8)
    if hi - lo >= 1e-9:
        for rows in chunks:
            img[:, rows] = np.round((db(rows) - lo) / (hi - lo) * 255.0).T
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(img)


def save_spectrogram(wav_path, csv_path, pgm_path) -> np.ndarray:
    # the float64 samples go once the grid is made
    grid = spectrogram_grid(read_wav(wav_path, target_rate=None)[0])
    save_spectrogram_csv(csv_path, grid)
    save_spectrogram_pgm(pgm_path, grid)
    return grid


def band_occupancy_threshold(mean_band_energy: np.ndarray) -> float:
    """The composers' collision threshold at their default parameters,
    applied to bus-truth energies.

    Using the same formula the agents act on keeps the metrics honest:
    a band the metric calls occupied is one a composer would avoid.
    """
    return occupancy_threshold(mean_band_energy,
                               ComposerParams.occupancy_percentile,
                               ComposerParams.occupancy_floor)


def occupation_metrics(events: list, occupation: np.ndarray, meta: dict,
                       n_ticks: int) -> dict:
    """Niche metrics from the event log and the bus-truth energy matrix.

    overlap_ratio: fraction of composer emission windows whose band also
    carried non-cyberphony energy above the occupancy threshold, counting
    only the ticks a note sounds in the run (None when none did).
    niche_spread: distinct bands composers logged a note in.
    switch_events: preferred-band departures plus returns summed over
    composers.
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
        # audible from tick+1 for n_hops hops, up to the run's last tick
        first, last = tick + 1, min(tick + n_hops, n_ticks - 1)
        if first <= last:
            for w in range(first // window_ticks, last // window_ticks + 1):
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

    The renders are analyzed one after another on the calling thread, so
    one render's samples and grid are alive at a time; only the CSV text
    is formatted on several threads (save_spectrogram_csv). Returns the
    metrics dict with a list of written artifact names under "artifacts".
    Every input's checksum is checked against the manifest before
    anything is written.
    """
    run = RunDir(run_dir)
    events = load_run_events(run)
    occupation = np.load(run.verified(OCCUPATION_NPY))
    meta = json.loads(run.verified(OCCUPATION_META).read_text())
    renders = [run.verified(name) for name in run.monitors]

    metrics = occupation_metrics(events, occupation, meta,
                                 run.manifest["n_ticks"])
    del events  # the parsed log, mostly base64 clips; no render reads it
    written = ["metrics.json", "metrics.csv"]

    def output(name):
        # a new file: one truncated in place can be flushed to disk on
        # close (ext4's auto_da_alloc), and a hard link keeps the old bytes
        (run.path / name).unlink(missing_ok=True)
        return run.path / name

    for path in renders:
        names = [f"{path.stem}_spectrogram.{ext}" for ext in ("csv", "pgm")]
        save_spectrogram(path, *map(output, names))
        written.extend(names)

    metrics = dict(metrics, artifacts=sorted(written))
    output("metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True))
    output("metrics.csv").write_text(_metrics_csv_lines(metrics))
    return metrics
