"""Spectrogram rendering and occupation metrics."""

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holonsim import telemetry
from holonsim.audio_core import fft_magnitude, frames, write_wav
from holonsim.environment import (AgentSpec, CHANNELS, Scenario, SourceSpec,
                                  run_scenario)
from holonsim.params import FRAME_HOP, FRAME_SIZE, SAMPLE_RATE
from holonsim.telemetry import (BIN_HZ, CSV_CHUNK_ROWS, DB_FLOOR, analyze_run,
                                band_occupancy_threshold, format_csv_rows,
                                occupation_metrics,
                                save_spectrogram, save_spectrogram_csv,
                                save_spectrogram_pgm, spectrogram_grid)

from synth import silence, sine


def read_pgm(path):
    data = path.read_bytes()
    assert data.startswith(b"P5\n")
    header, rest = data.split(b"255\n", 1)
    dims = header.decode().split("\n")[1].split()
    width, height = int(dims[0]), int(dims[1])
    img = np.frombuffer(rest, dtype=np.uint8).reshape(height, width)
    return img


# --- spectrogram ----------------------------------------------------------------

def test_tone_makes_single_ridge():
    grid = spectrogram_grid(sine(1000.0, duration_s=1.0, amp=0.5))
    assert grid.shape[1] == 513
    ridge = np.argmax(grid, axis=1)
    assert (ridge == 32).all()  # 1000 Hz / 31.25 Hz per bin


def test_silence_renders_uniform_minimum_image(tmp_path):
    grid = spectrogram_grid(silence(1.0))
    path = tmp_path / "quiet.pgm"
    save_spectrogram_pgm(path, grid)
    img = read_pgm(path)
    assert (img == 0).all()


def test_pgm_rows_are_frequency_ascending(tmp_path):
    grid = spectrogram_grid(sine(4000.0, duration_s=0.5, amp=0.5))
    path = tmp_path / "tone.pgm"
    save_spectrogram_pgm(path, grid)
    img = read_pgm(path)
    assert img.shape == (513, grid.shape[0])
    brightest_row = int(np.argmax(img.mean(axis=1)))
    assert brightest_row == 128  # 4000 Hz / 31.25


def test_csv_grid_round_trips(tmp_path):
    grid = spectrogram_grid(sine(500.0, duration_s=0.2, amp=0.3))
    path = tmp_path / "grid.csv"
    save_spectrogram_csv(path, grid)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "time_s"
    assert header[1] == "hz_0.00"
    assert header[2] == "hz_31.25"
    assert len(header) == 514
    body = np.loadtxt(path, delimiter=",", skiprows=1)
    assert body.shape == (grid.shape[0], 514)
    assert body[1, 0] == pytest.approx(FRAME_HOP / SAMPLE_RATE)
    assert np.allclose(body[:, 1:], grid, rtol=1e-4, atol=1e-7)


def test_save_spectrogram_from_wav(tmp_path):
    wav = tmp_path / "in.wav"
    write_wav(wav, sine(2000.0, duration_s=0.5, amp=0.4))
    grid = save_spectrogram(wav, tmp_path / "out.csv", tmp_path / "out.pgm")
    assert (tmp_path / "out.csv").exists()
    assert (tmp_path / "out.pgm").exists()
    assert int(np.argmax(grid.sum(axis=0))) == 64  # 2000 Hz bin


# Frame counts either side of a chunk edge (the fourth) and past several;
# 0 is a signal shorter than one frame.
CHUNK_EDGE_FRAMES = [0, 1, 4 * CSV_CHUNK_ROWS - 1, 4 * CSV_CHUNK_ROWS,
                     4 * CSV_CHUNK_ROWS + 1, 8 * CSV_CHUNK_ROWS + 3]


def rising_noise(n_frames):
    """Noise that grows louder frame by frame, so the grid's dB minimum
    and maximum lie in its first and last chunks."""
    n = FRAME_SIZE + (n_frames - 1) * FRAME_HOP if n_frames else 700
    rng = np.random.default_rng(n_frames)
    return rng.normal(size=n) * np.geomspace(1e-4, 1.0, n)


def one_shot_pgm(grid):
    """The PGM as one formula over the whole dB grid."""
    db = 20.0 * np.log10(grid + 10.0 ** (DB_FLOOR / 20.0))
    lo = db.min()
    hi = db.max()
    if hi - lo < 1e-9:
        img = np.zeros(grid.shape, dtype=np.uint8)
    else:
        img = np.round((db - lo) / (hi - lo) * 255.0).astype(np.uint8)
    img = img.T
    return (f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
            + img.tobytes())


@pytest.mark.parametrize("n_frames", CHUNK_EDGE_FRAMES)
def test_chunked_grid_equals_one_shot_stft(n_frames):
    x = rising_noise(n_frames)
    whole = np.pad(x, (0, max(0, FRAME_SIZE - len(x))))
    grid = spectrogram_grid(x)
    assert grid.shape == (max(n_frames, 1), FRAME_SIZE // 2 + 1)
    assert grid.tobytes() == fft_magnitude(frames(whole)).tobytes()


@pytest.mark.parametrize("quiet", [False, True], ids=["noise", "silence"])
@pytest.mark.parametrize("n_frames", CHUNK_EDGE_FRAMES)
def test_two_pass_pgm_equals_one_shot_formula(tmp_path, n_frames, quiet):
    x = rising_noise(n_frames)
    grid = spectrogram_grid(np.zeros_like(x) if quiet else x)
    save_spectrogram_pgm(tmp_path / "grid.pgm", grid)
    assert (tmp_path / "grid.pgm").read_bytes() == one_shot_pgm(grid)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_render_temporaries_are_chunks_of_the_grid(tmp_path):
    x = rising_noise(60 * SAMPLE_RATE // FRAME_HOP - 1)
    grid = spectrogram_grid(x)
    # the grid itself, plus one chunk's windowed frames and spectrum
    assert traced_peak(spectrogram_grid, x) <= 1.5 * grid.nbytes
    # the uint8 image (an eighth of the grid), plus one chunk's dB rows
    assert (traced_peak(save_spectrogram_pgm, tmp_path / "grid.pgm", grid)
            <= 0.5 * grid.nbytes)


# --- CSV text ---------------------------------------------------------------------

def percent_g_rows(values):
    """The reference text: CPython's "%.6g" of every value, row by row."""
    return "".join(",".join("%.6g" % v for v in row) + "\n"
                   for row in values.tolist()).encode()


def savetxt_csv(path, grid):
    """save_spectrogram_csv as np.savetxt writes it."""
    header = "time_s," + ",".join(f"hz_{k * BIN_HZ:.2f}"
                                  for k in range(grid.shape[1]))
    times = np.arange(grid.shape[0]) * FRAME_HOP / SAMPLE_RATE
    np.savetxt(path, np.column_stack([times, grid]), fmt="%.6g",
               delimiter=",", header=header, comments="")


POWERS_OF_TEN = [float(f"1e{k}") for k in range(-324, 309)]


def near_powers_of_ten():
    """Powers of ten and their neighbours one ulp away, where log10 can
    miss the decimal exponent."""
    p = st.sampled_from(POWERS_OF_TEN)
    return st.one_of(p, p.map(lambda x: np.nextafter(x, 0.0)),
                     p.map(lambda x: np.nextafter(x, np.inf)))


def halfway_values():
    """x.xxxxx5 times a power of ten: the seventh digit sits on a tie, or
    as near one as float64 gets."""
    return st.builds(lambda d, k: float(f"{d}5e{k}"),
                     st.integers(100000, 999999), st.integers(-310, 300))


VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                             allow_subnormal=True),
                   near_powers_of_ten(), halfway_values(),
                   st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300,
                                    999999.5, 0.0001, 0.00001]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6),
                                        st.integers(1, 9)),
                  elements=st.one_of(VALUES, VALUES.map(lambda x: -x))))
def test_csv_rows_match_percent_g(values):
    assert format_csv_rows(values) == percent_g_rows(values)


# either side of a chunk edge, and many more chunks than the workers that
# format them
@pytest.mark.parametrize("n_rows", [0, 1, 4 * CSV_CHUNK_ROWS - 1,
                                    4 * CSV_CHUNK_ROWS,
                                    4 * CSV_CHUNK_ROWS + 1,
                                    9 * CSV_CHUNK_ROWS + 3])
def test_csv_equals_savetxt(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    # every layout: zeros, fixed notation and exponents of both signs
    grid = np.abs(rng.normal(size=(n_rows, 40))) ** rng.uniform(0, 12, 40)
    grid[:, ::7] = 0.0
    grid[:, 1] *= 1e7
    save_spectrogram_csv(tmp_path / "kernel.csv", grid)
    savetxt_csv(tmp_path / "savetxt.csv", grid)
    assert ((tmp_path / "kernel.csv").read_bytes()
            == (tmp_path / "savetxt.csv").read_bytes())


def test_csv_of_a_spectrogram_equals_savetxt(tmp_path):
    rng = np.random.default_rng(9)
    pcm = (sine(1500.0, duration_s=10.0, amp=0.4)
           + rng.normal(0.0, 0.01, 10 * SAMPLE_RATE))
    grid = spectrogram_grid(pcm)
    assert grid.shape[0] > 2 * CSV_CHUNK_ROWS
    save_spectrogram_csv(tmp_path / "kernel.csv", grid)
    savetxt_csv(tmp_path / "savetxt.csv", grid)
    assert ((tmp_path / "kernel.csv").read_bytes()
            == (tmp_path / "savetxt.csv").read_bytes())


def test_csv_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(10)
    peaks = []
    for n_rows in (1024, 4096):
        grid = np.abs(rng.normal(size=(n_rows, 513)))
        tracemalloc.start()
        try:
            save_spectrogram_csv(tmp_path / "grid.csv", grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a chunk's working set per worker; the 4096-row grid alone is 17 MB
    # and its text 18 MB
    assert max(peaks) < 16e6
    assert peaks[1] < 1.1 * peaks[0]


def test_csv_memory_does_not_grow_with_the_cpu_count(tmp_path, monkeypatch):
    # CSV_WORKERS chunks at once, about 5 MB; a worker per CPU would hold
    # about 30 MB at 16 CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    grid = np.abs(np.random.default_rng(11).normal(size=(1024, 513)))
    assert traced_peak(save_spectrogram_csv, tmp_path / "grid.csv",
                       grid) < 8e6


# --- occupation metrics -----------------------------------------------------------

META = {"channels": list(CHANNELS), "window_ticks": 62}


def emission(tick, agent_id, band, preferred, n_samples=16000):
    return {"tick": tick, "agent_id": agent_id, "kind": "composer",
            "event": "emission_start",
            "payload": {"band": band, "preferred_band": preferred,
                        "n_samples": n_samples}}


END = {"tick": 999, "agent_id": None, "kind": "scheduler", "event": "end",
       "payload": {}}


def blank_occupation(n_windows=4):
    return np.zeros((4, n_windows, 128))


def test_threshold_floor_dominates_quiet_field():
    assert band_occupancy_threshold(np.zeros(128)) == 0.5
    hot = np.full(128, 40.0)
    assert band_occupancy_threshold(hot) == 40.0


def test_quiet_run_has_zero_overlap():
    events = [emission(10, "composer_000", 5, 5), END]
    metrics = occupation_metrics(events, blank_occupation(), META,
                                 n_ticks=200)
    assert metrics["overlap_ratio"] == 0.0
    assert metrics["niche_spread"] == 1
    assert metrics["switch_events"] == 0
    assert metrics["partial_data"] is False


def test_emission_into_hot_band_counts_as_overlap():
    occ = blank_occupation()
    anthro = list(CHANNELS).index("anthrophony")
    occ[anthro, :, 5] = 62.0 * 10.0  # mean per-frame energy 10
    events = [emission(10, "composer_000", 5, 5), END]
    metrics = occupation_metrics(events, occ, META, n_ticks=200)
    assert metrics["overlap_ratio"] == 1.0


def test_own_cyberphony_energy_does_not_count():
    occ = blank_occupation()
    cyber = list(CHANNELS).index("cyberphony")
    occ[cyber, :, 5] = 62.0 * 100.0
    events = [emission(10, "composer_000", 5, 5), END]
    metrics = occupation_metrics(events, occ, META, n_ticks=200)
    assert metrics["overlap_ratio"] == 0.0


def test_switch_counting_matches_script():
    events = [
        emission(0, "a", 64, 64), emission(250, "a", 64, 64),
        emission(500, "a", 30, 64), emission(750, "a", 30, 64),
        emission(1000, "a", 64, 64),
        emission(0, "b", 30, 40), emission(600, "b", 40, 40),
        END,
    ]
    metrics = occupation_metrics(events, blank_occupation(20), META,
                                 n_ticks=1240)
    a = metrics["composers"]["a"]
    b = metrics["composers"]["b"]
    assert (a["departures"], a["returns"]) == (1, 1)
    assert (b["departures"], b["returns"]) == (1, 1)
    assert metrics["switch_events"] == 4
    assert metrics["niche_spread"] == 3  # bands 64, 30, 40
    assert a["bands"] == [30, 64]


def test_truncated_log_is_flagged_partial():
    events = [emission(10, "a", 5, 5)]  # no end record
    metrics = occupation_metrics(events, blank_occupation(), META,
                                 n_ticks=200)
    assert metrics["partial_data"] is True


def test_no_emissions_yields_not_applicable():
    metrics = occupation_metrics([END], blank_occupation(), META,
                                 n_ticks=200)
    assert metrics["overlap_ratio"] is None
    assert metrics["niche_spread"] == 0
    assert metrics["switch_events"] == 0


def test_a_note_started_at_the_last_tick_is_not_counted():
    # heard from tick 100 on, after the run; window 1 holds ticks 62 to 99
    occ = blank_occupation(2)
    occ[list(CHANNELS).index("anthrophony"), 1, 5] = 1e9
    events = [emission(99, "a", 5, 5), END]
    metrics = occupation_metrics(events, occ, META, n_ticks=100)
    assert metrics["emission_windows"] == 0
    assert metrics["overlap_ratio"] is None
    assert metrics["niche_spread"] == 1  # the logged band still counts
    # one tick earlier, the note sounds at tick 99 alone
    events = [emission(98, "a", 5, 5), END]
    metrics = occupation_metrics(events, occ, META, n_ticks=100)
    assert metrics["emission_windows"] == 1
    assert metrics["overlap_ratio"] == 1.0


def test_metrics_are_idempotent():
    events = [emission(10, "a", 5, 5), emission(400, "a", 7, 5), END]
    occ = blank_occupation(8)
    occ[0, :, 5] = 100.0
    m1 = occupation_metrics(events, occ, META, n_ticks=496)
    m2 = occupation_metrics(events, occ, META, n_ticks=496)
    assert m1 == m2


# --- analyze_run ------------------------------------------------------------------

def quiet_composer_run(tmp_path, **overrides):
    kw = dict(name="analyzed", seed=11, duration_s=12.0,
              monitors=[(1.0, 1.0)],
              agents=[AgentSpec("composer_000", "composer", (0.0, 0.0))],
              sources=[SourceSpec("t", "tone", (4.0, 0.0), "anthrophony",
                                  level_dbfs=-25.0, freq_hz=500.0)])
    kw.update(overrides)
    scn = Scenario(**kw)
    out = tmp_path / "run"
    run_scenario(scn, out)
    return out


def test_analyze_run_writes_all_artifacts(tmp_path):
    out = quiet_composer_run(tmp_path)
    metrics = analyze_run(out)
    assert (out / "metrics.json").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "monitor_00_spectrogram.csv").exists()
    assert (out / "monitor_00_spectrogram.pgm").exists()
    saved = json.loads((out / "metrics.json").read_text())
    for key in ("overlap_ratio", "niche_spread", "switch_events"):
        assert saved[key] == metrics[key]
    csv_text = (out / "metrics.csv").read_text()
    assert csv_text.startswith("metric,value\n")
    assert "overlap_ratio," in csv_text


def test_analyze_quiet_run_metrics(tmp_path):
    out = quiet_composer_run(tmp_path, sources=[])
    metrics = analyze_run(out)
    assert metrics["niche_spread"] >= 1
    assert metrics["overlap_ratio"] == 0.0
    assert metrics["partial_data"] is False


def test_analyze_empty_roster_reports_not_applicable(tmp_path):
    scn = Scenario(name="none", seed=3, duration_s=2.0)
    run_scenario(scn, tmp_path / "run")
    metrics = analyze_run(tmp_path / "run")
    assert metrics["overlap_ratio"] is None
    assert "overlap_ratio,n/a" in (tmp_path / "run" / "metrics.csv").read_text()


def test_analyze_is_deterministic(tmp_path):
    out = quiet_composer_run(tmp_path)
    analyze_run(out)
    first = (out / "metrics.json").read_bytes()
    analyze_run(out)
    assert (out / "metrics.json").read_bytes() == first


def test_analyze_replaces_its_outputs_and_leaves_their_links(tmp_path):
    # each output is written as a new file, never truncated in place, so a
    # hard link to the old file keeps the old bytes
    out = quiet_composer_run(tmp_path)
    analyze_run(out)
    names = ["metrics.json", "metrics.csv", "monitor_00_spectrogram.csv",
             "monitor_00_spectrogram.pgm"]
    fresh = {name: (out / name).read_bytes() for name in names}
    for name in names:
        (out / name).write_bytes(b"old")
        os.link(out / name, tmp_path / name)
    analyze_run(out)
    for name in names:
        assert (out / name).read_bytes() == fresh[name], name
        assert (tmp_path / name).read_bytes() == b"old", name
        assert (out / name).stat().st_nlink == 1, name


def test_metrics_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    out = quiet_composer_run(tmp_path, monitors=[(1.0, 1.0), (-1.0, 0.0)])
    written = []
    for cpus in (1, 8):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(telemetry, "CSV_WORKERS", cpus)
        analyze_run(out)
        written.append({path.name: path.read_bytes() for pattern in (
            "metrics.json", "*_spectrogram.csv", "*_spectrogram.pgm")
            for path in out.glob(pattern)})
    assert len(written[0]) == 5
    assert written[0] == written[1]


def test_renders_are_analyzed_one_at_a_time(tmp_path, monkeypatch):
    # tracemalloc sees every thread, so renders analyzed at once would add
    # up; one after another, three renders peak about where one does. Two
    # CPUs, so that renders spread over the CPUs would overlap here.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    peaks = []
    for monitors in ([(1.0, 1.0)], [(1.0, 1.0), (-1.0, 0.0), (0.0, 2.0)]):
        where = tmp_path / f"monitors_{len(monitors)}"
        where.mkdir()
        out = quiet_composer_run(where, duration_s=30.0, monitors=monitors)
        peaks.append(traced_peak(analyze_run, out))
    assert peaks[1] <= 1.5 * peaks[0]
