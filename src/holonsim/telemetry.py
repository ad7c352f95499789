"""Post-run analysis: spectrograms and frequency-occupation metrics.

Everything here is a pure function of a finished run's artifacts, so
re-running an analysis is idempotent and two analyses of the same run
agree bit for bit.
"""

import json

import numpy as np

from .agents import ComposerParams, occupancy_threshold
from .audio_core import fft_magnitude, frames, read_wav
from .params import FRAME_HOP, FRAME_SIZE, SAMPLE_RATE
from .rundir import OCCUPATION_META, OCCUPATION_NPY, RunDir, load_run_events

DB_FLOOR = -120.0
BIN_HZ = SAMPLE_RATE / FRAME_SIZE
# Frames per chunk of every pass over a render (the STFT, the PGM's two
# passes and the CSV text), so only the grid grows with the run
CSV_CHUNK_ROWS = 64


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
# fraction zeros (and a bare point) dropped. Each value's text goes into a
# slot of two little-endian uint64 words, separator in its last byte; the
# bytes between the pieces of a text stay zero and are deleted before
# writing. A row holding any other value is written by CPython's own
# "%.6g" (_FALLBACK): negatives and -0.0, inf and NaN, values outside
# [1e-300, 1e300], values within a few ulp of a power of ten (where log10
# can miss e by one), values whose seventh digit is a near-tie, and values
# whose six digits round up to 10**6.

# classes: 0 to 3 are fixed notation below one (e + 4), 5 to 10 fixed
# notation from one up (e + 5)
_ZERO, _EXP, _FALLBACK = 4, 11, 12
_E_LOW = -300             # the least e of a value in [1e-300, 1e300]
_E_RANGE = range(_E_LOW, 301)
_CLASS = np.array([e + 4 if -4 <= e < 0 else e + 5 if 0 <= e <= 5 else _EXP
                   for e in _E_RANGE], dtype=np.int8)
# 10**(5 - e), correctly rounded
_SCALE = np.array([float(f"1e{5 - e}") for e in _E_RANGE])
# the product v * 10**(5 - e) is off by at most a few ulp (< 1e-9 below
# 10**6), so rint gives the correctly rounded digits away from half
_TIE_MARGIN = 1e-6
# k's three digits in the low bytes of a word, first digit lowest, and the
# same up to k's last nonzero digit, for 0 <= k < 1000
_DIGITS = np.array([int.from_bytes(b"%03d" % k, "little")
                    for k in range(1000)], dtype=np.uint64)
_SIGNIFICANT = np.array([int.from_bytes((b"%03d" % k).rstrip(b"0"),
                                        "little")
                         for k in range(1000)], dtype=np.uint64)
_SIX_ZEROS = int.from_bytes(b"000000", "little")
_COMMA, _NEWLINE = ord(",") << 56, ord("\n") << 56
# each class's slot before its digits go in: "0." and -e - 1 zeros below
# one, "0" for zero; then the separator
_START = np.array([[int.from_bytes(b"0.000"[:5 - c] if c < _ZERO
                                   else b"0" if c == _ZERO else b"",
                                   "little"), _COMMA]
                   for c in range(_FALLBACK + 1)], dtype=np.uint64)


def _classify(v: np.ndarray):
    """(class, e, D) of each value; D is 0 for a zero or a fallback, and e
    is meaningful only for the fixed and exponent classes."""
    fast = (v >= 1e-300) & (v <= 1e300)
    m = np.where(fast, v, 1.0)
    e = np.floor(np.log10(m)).astype(np.int32)
    m *= np.take(_SCALE, e - _E_LOW)
    digits = np.rint(m)
    fast &= (digits >= 1e5) & (digits < 1e6)   # e was right, and no carry
    m -= digits
    fast &= np.abs(m) <= 0.5 - _TIE_MARGIN
    slow = ~fast
    digits[slow] = 0
    cls = np.take(_CLASS, e - _E_LOW)
    cls[slow] = _FALLBACK
    cls[v.view(np.uint64) == 0] = _ZERO     # +0.0; -0.0 has its sign bit
    return cls, e, digits.astype(np.int32)


def _slots_from_one(cls, e, significant):
    """The slots of fixed values from one up and of exponent values: the
    integer digits (one for an exponent), a point and the fraction's
    significant digits if there are any, and "e±XX"."""
    x = np.where(cls < _EXP, cls - 5, 0)
    point = (8 * x + 8).astype(np.uint64)
    fraction = significant >> point
    # an integer digit dropped as a trailing zero is a "0" again
    integer = (significant | _SIX_ZEROS) & (1 << point) - 1
    slots = np.empty((len(cls), 2), dtype=np.uint64)
    slots[:, 0] = (integer | fraction << point + 8
                   | np.where(fraction != 0, np.uint64(ord(".")) << point, 0))
    slots[:, 1] = _COMMA
    exp = cls == _EXP
    power = e[exp]
    a = np.abs(power)
    slots[exp, 1] |= (ord("e") | np.where(power < 0, np.uint64(ord("-") << 8),
                                          np.uint64(ord("+") << 8))
                      | np.where(a < 100, _DIGITS[a] >> 8, _DIGITS[a]) << 16)
    return slots


def format_csv_rows(values: np.ndarray) -> bytes:
    """A 2-D float array as the bytes np.savetxt(fmt="%.6g", delimiter=",")
    writes for it: values joined by ",", each row ended by a newline."""
    values = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    if values.size == 0:
        return b"\n" * n_rows
    cls, e, digits = _classify(values.ravel())
    hi = digits // 1000
    lo = digits - hi * 1000
    # the six digits less their trailing zeros; none for D = 0
    significant = np.take(_DIGITS, hi) | np.take(_SIGNIFICANT, lo) << 24
    ends = lo == 0
    significant[ends] = np.take(_SIGNIFICANT, hi[ends])
    # every slot as a zero or a value below one, then the others over it
    slots = np.take(_START, cls, axis=0).astype("<u8", copy=False)
    slots[:, 1] |= significant
    rest = np.flatnonzero(cls > _ZERO)
    slots[rest] = _slots_from_one(cls[rest], e[rest], significant[rest])
    slots.reshape(n_rows, n_cols, 2)[:, -1, 1] ^= _COMMA ^ _NEWLINE
    # freed before the text is made: the allocator returns a call's peak
    # to the system, and the fresh pages of the next call's peak cost about
    # as much as its arithmetic
    del e, digits, hi, lo, significant, ends, rest
    text = slots.tobytes().translate(None, b"\0")
    fallback = (cls == _FALLBACK).reshape(n_rows, n_cols).any(axis=1)
    if not fallback.any():
        return text
    lines = text.split(b"\n")
    for r in np.flatnonzero(fallback):
        lines[r] = ",".join("%.6g" % x for x in values[r].tolist()).encode()
    return b"\n".join(lines)


def save_spectrogram_csv(path, grid: np.ndarray):
    """Magnitude grid as RFC-4180 CSV: one row per frame, time first.

    The text is np.savetxt's with fmt="%.6g", formatted and written
    CSV_CHUNK_ROWS rows at a time, so the text of one chunk is alive at
    a time.
    """
    n_frames, n_bins = grid.shape
    header = "time_s," + ",".join(f"hz_{k * BIN_HZ:.2f}"
                                  for k in range(n_bins))
    times = np.arange(n_frames) * FRAME_HOP / SAMPLE_RATE
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        for rows in _chunks(n_frames):
            fh.write(format_csv_rows(
                np.column_stack([times[rows], grid[rows]])))


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


def occupation_metrics(events: list, occupation: np.ndarray, meta: dict,
                       n_ticks: int) -> dict:
    """Niche metrics from the event log and the bus-truth energy matrix.

    overlap_ratio: fraction of composer emission windows whose band also
    carried non-cyberphony energy above the occupancy threshold, counting
    only the ticks a note sounds in the run (None when none did).
    niche_spread: distinct bands composers logged a note in.
    switch_events: preferred-band departures plus returns summed over
    composers.

    A band is occupied in a window when its mean per-frame energy reaches
    the composers' threshold at their default parameters over that
    window's bands: a band the metric calls occupied is one a composer
    would avoid.
    """
    channels = list(meta["channels"])
    window_ticks = int(meta["window_ticks"])
    non_cyber = [i for i, c in enumerate(channels) if c != "cyberphony"]
    energy = occupation[non_cyber].sum(axis=0)  # (n_windows, n_bands)

    # per-frame scale so the threshold matches what composers see; the
    # last window, if there is one, holds the rest of the run's ticks
    frames_per = np.full(len(energy), window_ticks, dtype=float)
    frames_per[-1:] = n_ticks - window_ticks * (len(energy) - 1)
    mean_energy = energy / np.maximum(frames_per[:, None], 1.0)
    occupied = mean_energy >= occupancy_threshold(
        mean_energy, ComposerParams.occupancy_percentile,
        ComposerParams.occupancy_floor)[:, None]

    hits = []  # for each window a note sounds in: was its band occupied
    composers = {}
    for record in events:
        if record.get("event") != "emission_start":
            continue
        payload = record["payload"]
        band = payload["band"]
        tick = record["tick"]
        n_hops = -(-payload["n_samples"] // FRAME_HOP)
        # audible from tick+1 for n_hops hops, up to the run's last tick
        first, last = tick + 1, min(tick + n_hops, n_ticks - 1)
        if first <= last:
            windows = range(first // window_ticks, last // window_ticks + 1)
            hits += occupied[windows, band].tolist()
        info = composers.setdefault(record["agent_id"], {
            "preferred_band": payload.get("preferred_band"),
            "bands": [], "departures": 0, "returns": 0})
        info["bands"].append(band)
        info["preferred_band"] = payload.get("preferred_band")

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

    return {
        "overlap_ratio": sum(hits) / len(hits) if hits else None,
        "niche_spread": len(set().union(
            *(info["bands"] for info in composers.values()))),
        "switch_events": sum(info["departures"] + info["returns"]
                             for info in composers.values()),
        "emission_windows": len(hits),
        "composers": composers,
        "partial_data": not events or events[-1].get("event") != "end",
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

    The renders are analyzed one after another on the calling thread,
    which starts no other, so one render's samples and grid are alive at
    a time. Returns the metrics dict with a list of written artifact
    names under "artifacts".
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
