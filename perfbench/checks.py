"""Output checks for one finished session, computed apart from the program.

Nothing here imports holonsim. Expected values come from the generated
scenario, from the file formats, or from the method itself (the Mel
formula, the noise-floor energy, an rFFT of the rendered audio).
Each check function returns a list of failure messages, empty when the
output is right; the caller charges them to the operation that wrote the
output.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 32000
FRAME_SIZE = 1024
FRAME_HOP = 512
N_BINS = FRAME_SIZE // 2 + 1
N_MEL_BANDS = 128
MEL_FMIN_HZ = 80.0
MEL_FMAX_HZ = SAMPLE_RATE / 2.0
OCCUPATION_WINDOW_TICKS = 62
CHANNELS = ["biophony", "geophony", "anthrophony", "cyberphony"]
GEOPHONY_TOLERANCE = 0.03     # relative; the sum spans >= 625 noisy frames
CSV_RTOL = 2e-5               # the CSV keeps six significant digits
KINDS = ("composer", "collector", "disruptor")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def expected_n_ticks(duration_s: float) -> int:
    return int(round(duration_s * SAMPLE_RATE)) // FRAME_HOP


def monitor_names(scenario: dict) -> list:
    return [f"monitor_{m:02d}.wav" for m in range(len(scenario["monitors"]))]


def agent_ids(scenario: dict) -> list:
    ids = []
    for kind in KINDS:
        count = sum(a["count"] for a in scenario["agents"]
                    if a["kind"] == kind)
        ids += [f"{kind}_{i:03d}" for i in range(count)]
    return ids


def hann(n: int = FRAME_SIZE) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def mel_edges_hz() -> np.ndarray:
    mel = 2595.0 * np.log10(1.0 + np.array([MEL_FMIN_HZ, MEL_FMAX_HZ]) / 700.0)
    points = np.linspace(mel[0], mel[1], N_MEL_BANDS + 2)
    return 700.0 * (10.0 ** (points / 2595.0) - 1.0)


def mel_weight_total() -> float:
    """Sum of every triangular Mel weight over the rFFT bins."""
    edges = mel_edges_hz()
    bins = np.arange(N_BINS) * SAMPLE_RATE / FRAME_SIZE
    total = 0.0
    for b in range(N_MEL_BANDS):
        left, centre, right = edges[b], edges[b + 1], edges[b + 2]
        tri = np.minimum((bins - left) / (centre - left),
                         (right - bins) / (right - centre))
        total += float(np.clip(tri, 0.0, None).sum())
    return total


def read_float_wav(path: Path):
    """(format code, channels, rate, bits, samples) of a float32 WAV."""
    data = path.read_bytes()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError(f"{path.name}: not a RIFF/WAVE file")
    fmt, raw, pos = None, None, 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        if chunk_id == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", data, pos + 8)
        elif chunk_id == b"data":
            raw = data[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    if fmt is None or raw is None:
        raise ValueError(f"{path.name}: missing fmt or data chunk")
    code, channels, rate, _, _, bits = fmt
    return code, channels, rate, bits, np.frombuffer(raw, dtype="<f4")


def load_events(run_dir: Path) -> list:
    """The event log, without its audio payloads (replay checks those)."""
    events = []
    with open(run_dir / "events.jsonl") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                record.get("payload", {}).pop("pcm_b64", None)
                events.append(record)
    return events


def check_resolved(run_dir: Path, scenario: dict, scenario_path: Path) -> list:
    """The program resolved the generated scenario as written."""
    errors = []
    try:
        resolved = json.loads((run_dir / "scenario_resolved.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"scenario_resolved.json unreadable: {exc}"]
    for key in ("seed", "duration_s", "log_audio", "monitors"):
        if resolved.get(key) != scenario.get(key):
            errors.append(f"resolved {key} {resolved.get(key)!r} != "
                          f"{scenario.get(key)!r}")
    ids = [a["id"] for a in resolved.get("agents", [])]
    if sorted(ids) != sorted(agent_ids(scenario)):
        errors.append("resolved agent ids differ from the generated roster")
    radius = scenario["layout_radius_m"]
    for agent in resolved.get("agents", []):
        if abs(float(np.hypot(*agent["position"])) - radius) > 1e-4:
            errors.append(f"{agent['id']} is off the {radius} m ring")
            break
    want = [(s["id"], s["kind"]) for s in scenario.get("sources", [])]
    got = [(s["id"], s["kind"]) for s in resolved.get("sources", [])]
    if got != want:
        errors.append(f"resolved sources {got} != {want}")
    for source in resolved.get("sources", []):
        if source["kind"] == "wav":
            expected = str((scenario_path.parent / "water.wav").resolve())
            if source.get("path") != expected:
                errors.append(f"wav path {source.get('path')} != {expected}")
    return errors


def check_run(run_dir: Path, scenario: dict, events: list) -> list:
    """Manifest, log, renders and occupation of a finished run."""
    errors = []
    n_ticks = expected_n_ticks(scenario["duration_s"])
    monitors = monitor_names(scenario)
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]

    expected = {"events.jsonl", "scenario_resolved.json", "occupation.npy",
                "occupation.json", *monitors}
    artifacts = manifest.get("artifacts", {})
    if set(artifacts) != expected:
        errors.append(f"manifest artifacts {sorted(artifacts)} != "
                      f"{sorted(expected)}")
    on_disk = {p.name for p in run_dir.glob("monitor_*.wav")}
    if on_disk != set(monitors):
        errors.append(f"monitor WAVs on disk {sorted(on_disk)} != {monitors}")
    for name, digest in artifacts.items():
        path = run_dir / name
        if not path.is_file():
            errors.append(f"{name} listed in the manifest but missing")
        elif sha256(path) != digest:
            errors.append(f"{name}: sha256 differs from the manifest")
    if manifest.get("n_ticks") != n_ticks:
        errors.append(f"manifest n_ticks {manifest.get('n_ticks')} != "
                      f"{n_ticks}")

    config_sha = sha256(run_dir / "scenario_resolved.json")
    if manifest.get("config_sha256") != config_sha:
        errors.append("manifest config_sha256 is not the resolved "
                      "scenario's sha256")
    errors += check_events(events, scenario, config_sha)
    for name in monitors:
        errors += check_wav(run_dir / name, n_ticks)
    errors += check_occupation(run_dir, scenario, n_ticks)
    return errors


def check_events(events: list, scenario: dict, config_sha: str) -> list:
    errors = []
    if not events or events[0].get("event") != "boot":
        errors.append("log does not start with a boot event")
    elif events[0]["payload"].get("config_sha256") != config_sha:
        errors.append("boot config_sha256 != sha256(scenario_resolved.json)")
    if not events or events[-1].get("event") != "end":
        errors.append("log does not end with an end event")
    summaries = sorted(r["agent_id"] for r in events
                       if r.get("event") == "summary")
    if summaries != sorted(agent_ids(scenario)):
        errors.append(f"{len(summaries)} summary events for "
                      f"{len(agent_ids(scenario))} agents")
    ticks = np.array([r["tick"] for r in events])
    if len(ticks) > 1 and np.any(np.diff(ticks) < 0):
        errors.append("event ticks decrease")
    centres = mel_edges_hz()[1:-1]
    for record in events:
        if (record.get("event") == "emission_start"
                and record.get("kind") == "composer"):
            payload = record["payload"]
            band = payload["band"]
            if not (0 <= band < N_MEL_BANDS
                    and np.isclose(payload["freq_hz"], centres[band],
                                   rtol=1e-12, atol=0.0)):
                errors.append(f"tick {record['tick']} {record['agent_id']}: "
                              f"freq_hz {payload['freq_hz']} is not the "
                              f"centre of band {band}")
                break
    return errors


def check_wav(path: Path, n_ticks: int) -> list:
    try:
        code, channels, rate, bits, samples = read_float_wav(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    errors = []
    if (code, channels, rate, bits) != (3, 1, SAMPLE_RATE, 32):
        errors.append(f"{path.name}: format {(code, channels, rate, bits)} "
                      "is not mono float32 at 32 kHz")
    if len(samples) != n_ticks * FRAME_HOP:
        errors.append(f"{path.name}: {len(samples)} samples != "
                      f"{n_ticks} ticks x {FRAME_HOP}")
    if not np.all(np.isfinite(samples)) or np.any(np.abs(samples) > 1.0):
        errors.append(f"{path.name}: samples outside [-1, 1]")
    return errors


def geophony_expected(scenario: dict, n_ticks: int) -> float:
    """Expected Mel energy of the noise floor summed over the run.

    White noise of deviation sigma gives E|X_k|^2 = sigma^2 sum(w^2) in
    every rFFT bin of a w-windowed frame; the first frame holds only one
    hop of noise after a hop of zeros.
    """
    sigma = 10.0 ** (scenario.get("noise_floor_dbfs", -60.0) / 20.0)
    w2 = hann() ** 2
    frames_energy = (n_ticks - 1) * w2.sum() + w2[FRAME_HOP:].sum()
    return sigma ** 2 * frames_energy * mel_weight_total()


def check_occupation(run_dir: Path, scenario: dict, n_ticks: int) -> list:
    try:
        occupation = np.load(run_dir / "occupation.npy")
        meta = json.loads((run_dir / "occupation.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"occupation unreadable: {exc}"]
    n_windows = -(-n_ticks // OCCUPATION_WINDOW_TICKS)
    if occupation.shape != (len(CHANNELS), n_windows, N_MEL_BANDS):
        return [f"occupation shape {occupation.shape} != "
                f"{(len(CHANNELS), n_windows, N_MEL_BANDS)}"]
    if meta.get("channels") != CHANNELS:
        return [f"occupation channels {meta.get('channels')} != {CHANNELS}"]
    ratio = (float(occupation[CHANNELS.index("geophony")].sum())
             / geophony_expected(scenario, n_ticks))
    if abs(ratio - 1.0) > GEOPHONY_TOLERANCE:
        return [f"geophony energy is {ratio:.4f} x the noise-floor "
                "prediction"]
    return []


def check_analysis(run_dir: Path, scenario: dict, events: list,
                   seed: int) -> list:
    """metrics.json against the log, spectrograms against the WAVs."""
    errors = []
    try:
        metrics = json.loads((run_dir / "metrics.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"analysis unreadable: {exc}"]
    bands = {r["payload"]["band"] for r in events
             if r.get("event") == "emission_start"}
    if metrics.get("niche_spread") != len(bands):
        errors.append(f"niche_spread {metrics.get('niche_spread')} != "
                      f"{len(bands)} distinct emission bands in the log")
    n_ticks = expected_n_ticks(scenario["duration_s"])
    rng = np.random.default_rng([seed, 3])
    for name in monitor_names(scenario):
        stem = name[:-len(".wav")]
        errors += check_spectrogram_csv(
            run_dir / f"{stem}_spectrogram.csv", run_dir / name, n_ticks, rng)
        errors += check_pgm(run_dir / f"{stem}_spectrogram.pgm", n_ticks)
    return errors


def check_spectrogram_csv(csv_path: Path, wav_path: Path, n_ticks: int,
                          rng) -> list:
    n_frames = n_ticks - 1  # full windows of n_ticks hops
    rows = set(rng.choice(n_frames, size=4, replace=False).tolist())
    rows.add(n_frames - 1)
    try:
        samples = read_float_wav(wav_path)[4].astype(float)
        picked = {}
        n_lines = 0
        with open(csv_path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            for i, line in enumerate(fh):
                n_lines += 1
                if i in rows:
                    picked[i] = np.array(line.split(","), dtype=float)
    except (OSError, ValueError) as exc:
        return [f"{csv_path.name}: {exc}"]
    if len(header) != 1 + N_BINS or header[0] != "time_s":
        return [f"{csv_path.name}: header has {len(header)} columns, "
                f"not time_s + {N_BINS} bins"]
    if n_lines != n_frames:
        return [f"{csv_path.name}: {n_lines} frames != {n_frames}"]
    window = hann()
    for i, values in sorted(picked.items()):
        frame = samples[i * FRAME_HOP:i * FRAME_HOP + FRAME_SIZE]
        expected = np.abs(np.fft.rfft(frame * window))
        if (len(values) != 1 + N_BINS
                or not np.isclose(values[0], i * FRAME_HOP / SAMPLE_RATE,
                                  rtol=CSV_RTOL)
                or not np.allclose(values[1:], expected, rtol=CSV_RTOL,
                                   atol=1e-12)):
            return [f"{csv_path.name}: row {i} is not the rFFT of its frame"]
    return []


def check_pgm(path: Path, n_ticks: int) -> list:
    try:
        with open(path, "rb") as fh:
            head = [fh.readline() for _ in range(3)]
    except OSError as exc:
        return [str(exc)]
    if head != [b"P5\n", f"{n_ticks - 1} {N_BINS}\n".encode(), b"255\n"]:
        return [f"{path.name}: header {head} is not a {n_ticks - 1}x{N_BINS} "
                "P5 image"]
    return []


def check_replay(run_dir: Path, scenario: dict, op: dict) -> list:
    """A run with audio replays byte for byte; one without is refused."""
    if not scenario["log_audio"]:
        error = op.get("error") or ""
        if op.get("ok") or not (error.startswith("ReplayError")
                                and "pcm_omitted" in error):
            return ["replay of a log without audio was not refused with "
                    f"ReplayError (got: {error or 'success'})"]
        return []
    if not op.get("ok"):
        return [f"replay raised {op.get('error')}"]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    errors = []
    for name in monitor_names(scenario):
        path = run_dir / "replay" / name
        if not path.is_file() or sha256(path) != manifest["artifacts"][name]:
            errors.append(f"replay/{name} differs from the original render")
    return errors
