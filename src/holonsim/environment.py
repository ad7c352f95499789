"""The shared acoustic world: sources, propagation, and the scheduler.

Everything audible lives on one bus. Scripted sources and agent
emission ports are rows of a gain matrix, listener microphones are
columns, and each tick mixes one hop of audio for every listener at
once. Agent emissions registered at tick t become audible at t+1, which
keeps the update order well defined no matter how stepping is executed.

A run directory holds everything needed to reproduce the run bit for
bit: the resolved scenario, the JSON-lines event log, occupation
matrices, rendered monitor WAVs, and a manifest of checksums.
replay_run() rebuilds the renders from the log alone and must produce
byte-identical files.
"""

import base64
import hashlib
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml
from scipy.signal import butter, lfilter

from .agents import (AGENT_KINDS, CollectorParams, ComposerParams,
                     DisruptorParams, EnergyModel, Hearing, energy_step,
                     synth_tone)
from .audio_core import (HighpassFilter, SimClock, default_filterbank,
                         fft_magnitude, read_wav, write_wav)
from .params import FRAME_HOP, FRAME_SIZE, N_MEL_BANDS, NYQUIST, SAMPLE_RATE

CHANNELS = ("biophony", "geophony", "anthrophony", "cyberphony")
D_REF_M = 2.0
DEFAULT_NOISE_FLOOR_DBFS = -60.0
OCCUPATION_WINDOW_TICKS = 62  # one second of hops, rounded down
BLOCK_TICKS = 8  # ticks of bus noise drawn per fill on the noise thread

EVENTS_FILE = "events.jsonl"
SCENARIO_FILE = "scenario_resolved.json"
MANIFEST_FILE = "manifest.json"
OCCUPATION_NPY = "occupation.npy"
OCCUPATION_META = "occupation.json"


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the key."""


class ReplayError(ValueError):
    """The event log cannot reproduce the run (e.g. audio not logged)."""


def distance_gain(d_m: float, d_ref_m: float = D_REF_M) -> float:
    """Propagation attenuation: 1 at the source, 1/2 at d_ref."""
    return 1.0 / (1.0 + d_m / d_ref_m)


# --- scenario ---------------------------------------------------------------

@dataclass
class SourceSpec:
    source_id: str
    kind: str                    # tone | band_noise | chirp_train | wav
    position: tuple
    channel: str
    level_dbfs: float = -30.0
    start_s: float = 0.0
    stop_s: float | None = None
    band_hz: tuple | None = None
    freq_hz: float | None = None
    chirp_s: float | None = None
    period_s: float | None = None
    count: int | None = None
    path: str | None = None
    gain: float = 1.0

    def to_dict(self) -> dict:
        d = {"id": self.source_id, "kind": self.kind,
             "position": list(self.position), "channel": self.channel,
             "level_dbfs": self.level_dbfs, "start_s": self.start_s,
             "gain": self.gain}
        for key in ("stop_s", "freq_hz", "chirp_s", "period_s", "count",
                    "path"):
            if getattr(self, key) is not None:
                d[key] = getattr(self, key)
        if self.band_hz is not None:
            d["band_hz"] = list(self.band_hz)
        return d


@dataclass
class AgentSpec:
    agent_id: str
    kind: str
    position: tuple
    battery_wh: float | None = None
    preferred_band: int | None = None
    slot_offset_ticks: int = 0
    params: dict = field(default_factory=dict)
    energy: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"id": self.agent_id, "kind": self.kind,
             "position": list(self.position),
             "slot_offset_ticks": self.slot_offset_ticks}
        if self.battery_wh is not None:
            d["battery_wh"] = self.battery_wh
        if self.preferred_band is not None:
            d["preferred_band"] = self.preferred_band
        if self.params:
            d["params"] = dict(self.params)
        if self.energy:
            d["energy"] = dict(self.energy)
        return d


@dataclass
class Scenario:
    name: str
    seed: int
    duration_s: float
    day_length_s: float = 240.0
    night_window: tuple = (0.5, 1.0)
    noise_floor_dbfs: float | None = DEFAULT_NOISE_FLOOR_DBFS
    log_audio: bool = True
    layout_radius_m: float = 4.0
    occupation_position: tuple = (0.0, 0.0)
    monitors: list = field(default_factory=list)
    agents: list = field(default_factory=list)
    sources: list = field(default_factory=list)

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration_s * SAMPLE_RATE)) // FRAME_HOP

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "day_length_s": self.day_length_s,
            "night_window": list(self.night_window),
            "noise_floor_dbfs": self.noise_floor_dbfs,
            "log_audio": self.log_audio,
            "layout_radius_m": self.layout_radius_m,
            "occupation_position": list(self.occupation_position),
            "monitors": [list(m) for m in self.monitors],
            "agents": [a.to_dict() for a in self.agents],
            "sources": [s.to_dict() for s in self.sources],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        agents = [AgentSpec(a["id"], a["kind"], tuple(a["position"]),
                            a.get("battery_wh"), a.get("preferred_band"),
                            a.get("slot_offset_ticks", 0),
                            a.get("params", {}), a.get("energy", {}))
                  for a in raw.get("agents", [])]
        sources = [SourceSpec(s["id"], s["kind"], tuple(s["position"]),
                              s["channel"], s.get("level_dbfs", -30.0),
                              s.get("start_s", 0.0), s.get("stop_s"),
                              tuple(s["band_hz"]) if "band_hz" in s else None,
                              s.get("freq_hz"), s.get("chirp_s"),
                              s.get("period_s"), s.get("count"),
                              s.get("path"), s.get("gain", 1.0))
                   for s in raw.get("sources", [])]
        return cls(raw["name"], raw["seed"], raw["duration_s"],
                   raw.get("day_length_s", 240.0),
                   tuple(raw.get("night_window", (0.5, 1.0))),
                   raw.get("noise_floor_dbfs"),
                   raw.get("log_audio", True),
                   raw.get("layout_radius_m", 4.0),
                   tuple(raw.get("occupation_position", (0.0, 0.0))),
                   [tuple(m) for m in raw.get("monitors", [])],
                   agents, sources)


_TOP_KEYS = {"name", "seed", "duration_s", "day_length_s", "night_window",
             "noise_floor_dbfs", "log_audio", "layout_radius_m",
             "occupation_position", "monitors", "agents", "sources"}
_AGENT_KEYS = {"kind", "count", "position", "battery_wh", "preferred_band",
               "slot_offset_ticks", "params", "energy"}
_SOURCE_KEYS = {"id", "kind", "position", "channel", "level_dbfs", "start_s",
                "stop_s", "band_hz", "freq_hz", "chirp_s", "period_s",
                "count", "path", "gain"}
_SOURCE_KINDS = {"tone", "band_noise", "chirp_train", "wav"}


def _require(raw: dict, key: str, context: str):
    if key not in raw or raw[key] is None:
        raise ScenarioError(f"{context}: missing required key {key!r}")
    return raw[key]


def _position(value, context: str) -> tuple:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) for v in value)):
        raise ScenarioError(f"{context}: position must be [x, y] meters")
    return (float(value[0]), float(value[1]))


def load_scenario(path) -> Scenario:
    """Read and validate a YAML scenario file into a resolved Scenario.

    Resolution expands roster counts into individual agents, assigns
    ids, ring-layout positions, and composer slot offsets, so the result
    is a complete description of the run.
    """
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    raw = yaml.safe_load(path.read_text())
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    return _scenario_from_raw(raw, path.parent, default_name=path.stem)


def _scenario_from_raw(raw: dict, base_dir: Path, default_name: str):
    for key in raw:
        if key not in _TOP_KEYS:
            raise ScenarioError(f"unknown scenario key {key!r}")
    seed = _require(raw, "seed", "scenario")
    if not isinstance(seed, int):
        raise ScenarioError("scenario: seed must be an integer")
    duration = _require(raw, "duration_s", "scenario")
    if not isinstance(duration, (int, float)) or duration <= 0:
        raise ScenarioError("scenario: duration_s must be positive")

    day_length = raw.get("day_length_s", 240.0)
    if not isinstance(day_length, (int, float)) or day_length <= 0:
        raise ScenarioError("scenario: day_length_s must be positive")

    night = tuple(raw.get("night_window", (0.5, 1.0)))
    if len(night) != 2 or not all(0.0 <= v <= 1.0 for v in night):
        raise ScenarioError("scenario: night_window must be two day "
                            "fractions in [0, 1]")

    scn = Scenario(
        name=str(raw.get("name", default_name)),
        seed=seed,
        duration_s=float(duration),
        day_length_s=float(day_length),
        night_window=(float(night[0]), float(night[1])),
        noise_floor_dbfs=raw.get("noise_floor_dbfs",
                                 DEFAULT_NOISE_FLOOR_DBFS),
        log_audio=bool(raw.get("log_audio", True)),
        layout_radius_m=float(raw.get("layout_radius_m", 4.0)),
        occupation_position=_position(
            raw.get("occupation_position", (0.0, 0.0)),
            "occupation_position"),
        monitors=[_position(m, f"monitors[{i}]")
                  for i, m in enumerate(raw.get("monitors", []))],
    )
    scn.sources = [_source_from_raw(s, i, base_dir)
                   for i, s in enumerate(raw.get("sources", []))]
    scn.agents = _roster_from_raw(raw.get("agents", []), scn.layout_radius_m)
    return scn


def _source_from_raw(raw: dict, index: int, base_dir: Path) -> SourceSpec:
    context = f"sources[{index}]"
    if not isinstance(raw, dict):
        raise ScenarioError(f"{context}: must be a mapping")
    for key in raw:
        if key not in _SOURCE_KEYS:
            raise ScenarioError(f"{context}: unknown key {key!r}")
    kind = _require(raw, "kind", context)
    if kind not in _SOURCE_KINDS:
        raise ScenarioError(
            f"{context}: unknown source kind {kind!r} "
            f"(expected one of {sorted(_SOURCE_KINDS)})")
    channel = raw.get("channel", "anthrophony")
    if channel not in CHANNELS or channel == "cyberphony":
        raise ScenarioError(
            f"{context}: channel must be biophony, geophony or anthrophony "
            "(cyberphony is reserved for agents)")
    spec = SourceSpec(
        source_id=str(raw.get("id", f"{kind}_{index:02d}")),
        kind=kind,
        position=_position(_require(raw, "position", context), context),
        channel=channel,
        level_dbfs=float(raw.get("level_dbfs", -30.0)),
        start_s=float(raw.get("start_s", 0.0)),
        stop_s=None if raw.get("stop_s") is None else float(raw["stop_s"]),
        gain=float(raw.get("gain", 1.0)),
    )
    if kind == "tone":
        spec.freq_hz = float(_require(raw, "freq_hz", context))
        if not 0.0 < spec.freq_hz < NYQUIST:
            raise ScenarioError(f"{context}: freq_hz out of range")
    elif kind == "band_noise":
        band = _require(raw, "band_hz", context)
        if (not isinstance(band, (list, tuple)) or len(band) != 2
                or not 0.0 < float(band[0]) < float(band[1]) < NYQUIST):
            raise ScenarioError(
                f"{context}: band_hz must be [low, high] inside "
                f"(0, {NYQUIST})")
        spec.band_hz = (float(band[0]), float(band[1]))
    elif kind == "chirp_train":
        spec.chirp_s = float(_require(raw, "chirp_s", context))
        spec.period_s = float(_require(raw, "period_s", context))
        spec.count = int(_require(raw, "count", context))
        if spec.chirp_s <= 0 or spec.period_s < spec.chirp_s:
            raise ScenarioError(
                f"{context}: need 0 < chirp_s <= period_s")
    elif kind == "wav":
        rel = _require(raw, "path", context)
        resolved = (base_dir / rel).resolve()
        if not resolved.is_file():
            raise ScenarioError(f"{context}: wav file not found: {resolved}")
        spec.path = str(resolved)
    return spec


def _roster_from_raw(entries: list, radius_m: float) -> list:
    expanded = []
    for i, raw in enumerate(entries):
        context = f"agents[{i}]"
        if not isinstance(raw, dict):
            raise ScenarioError(f"{context}: must be a mapping")
        for key in raw:
            if key not in _AGENT_KEYS:
                raise ScenarioError(f"{context}: unknown key {key!r}")
        kind = _require(raw, "kind", context)
        if kind not in AGENT_KINDS:
            raise ScenarioError(
                f"{context}: unknown agent kind {kind!r} "
                f"(expected one of {sorted(AGENT_KINDS)})")
        count = int(raw.get("count", 1))
        if count < 1:
            raise ScenarioError(f"{context}: count must be >= 1")
        if "position" in raw and count != 1:
            raise ScenarioError(
                f"{context}: give position only for single agents")
        band = raw.get("preferred_band")
        if band is not None and (not isinstance(band, int)
                                 or not 0 <= band < N_MEL_BANDS):
            raise ScenarioError(
                f"{context}: preferred_band must be a Mel band index in "
                f"[0, {N_MEL_BANDS})")
        for _ in range(count):
            expanded.append((kind, raw))

    counters = dict.fromkeys(AGENT_KINDS, 0)
    total = len(expanded)
    specs = []
    for j, (kind, raw) in enumerate(expanded):
        idx = counters[kind]
        counters[kind] += 1
        if "position" in raw:
            pos = _position(raw["position"], f"agents ({kind}_{idx:03d})")
        else:
            # even spacing around a circle keeps everyone in earshot
            angle = 2.0 * np.pi * j / max(total, 1)
            pos = (round(radius_m * float(np.cos(angle)), 6),
                   round(radius_m * float(np.sin(angle)), 6))
        specs.append(AgentSpec(
            agent_id=f"{kind}_{idx:03d}",
            kind=kind,
            position=pos,
            battery_wh=raw.get("battery_wh"),
            preferred_band=raw.get("preferred_band"),
            slot_offset_ticks=int(raw.get("slot_offset_ticks", 0)),
            params=dict(raw.get("params", {})),
            energy=dict(raw.get("energy", {})),
        ))

    # stagger composer decision grids so first claims do not pile up
    composers = [s for s in specs if s.kind == "composer"]
    for i, spec in enumerate(composers):
        if spec.slot_offset_ticks == 0:
            slot_s = spec.params.get("slot_s", ComposerParams.slot_s)
            slot_ticks = max(1, int(round(slot_s * SAMPLE_RATE / FRAME_HOP)))
            spec.slot_offset_ticks = (i * slot_ticks) // len(composers)
    return specs


# --- scripted sources ----------------------------------------------------------

def _window_samples(spec: SourceSpec, n_ticks: int):
    start = int(round(spec.start_s * SAMPLE_RATE))
    stop = (n_ticks * FRAME_HOP if spec.stop_s is None
            else int(round(spec.stop_s * SAMPLE_RATE)))
    return start, stop


class ToneSource:
    """Steady sinusoid, sample-accurate start/stop, RMS at level_dbfs."""

    def __init__(self, spec: SourceSpec, rng, n_ticks: int):
        self.spec = spec
        self.amp = 10.0 ** (spec.level_dbfs / 20.0) * np.sqrt(2.0)
        self.start, self.stop = _window_samples(spec, n_ticks)

    def hop(self, tick: int) -> np.ndarray:
        i0 = tick * FRAME_HOP
        if i0 + FRAME_HOP <= self.start or i0 >= self.stop:
            return np.zeros(FRAME_HOP)
        idx = np.arange(i0, i0 + FRAME_HOP)
        y = self.amp * np.sin(2.0 * np.pi * self.spec.freq_hz * idx
                              / SAMPLE_RATE)
        return np.where((idx >= self.start) & (idx < self.stop), y, 0.0)


class BandNoiseSource:
    """Streaming band-limited Gaussian noise.

    The in-band RMS is calibrated to level_dbfs by filtering a one
    second probe from the same generator at construction, so the
    calibration is part of the deterministic stream.
    """

    def __init__(self, spec: SourceSpec, rng, n_ticks: int):
        self.spec = spec
        self.rng = rng
        lo, hi = spec.band_hz
        self.b, self.a = butter(2, [lo, hi], btype="bandpass",
                                fs=SAMPLE_RATE)
        probe = rng.standard_normal(SAMPLE_RATE)
        probe_out = lfilter(self.b, self.a, probe)
        measured = float(np.sqrt(np.mean(np.square(probe_out))))
        target = 10.0 ** (spec.level_dbfs / 20.0)
        self.scale = target / measured if measured > 0 else 0.0
        self.zi = np.zeros(max(len(self.a), len(self.b)) - 1)
        start, stop = _window_samples(spec, n_ticks)
        self.start_tick = start // FRAME_HOP
        self.stop_tick = -(-stop // FRAME_HOP)

    def hop(self, tick: int) -> np.ndarray:
        if not self.start_tick <= tick < self.stop_tick:
            return np.zeros(FRAME_HOP)
        x = self.rng.standard_normal(FRAME_HOP)
        y, self.zi = lfilter(self.b, self.a, x, zi=self.zi)
        return y * self.scale


class ChirpTrainSource:
    """A train of broadband calls built as a stack of band-center sines.

    Every Mel band receives a deterministic partial, so the call covers
    the whole analysis range at a predictable per-band level (Gaussian
    noise would leave random bands underpowered frame to frame).
    """

    def __init__(self, spec: SourceSpec, rng, n_ticks: int):
        self.spec = spec
        self.freqs = default_filterbank().band_centers_hz.copy()
        n = len(self.freqs)
        self.amp = 10.0 ** (spec.level_dbfs / 20.0) * np.sqrt(2.0 / n)
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=(spec.count, n))
        start = int(round(spec.start_s * SAMPLE_RATE))
        period = int(round(spec.period_s * SAMPLE_RATE))
        width = int(round(spec.chirp_s * SAMPLE_RATE))
        self.windows = [(start + k * period, start + k * period + width)
                        for k in range(spec.count)]

    def hop(self, tick: int) -> np.ndarray:
        i0 = tick * FRAME_HOP
        out = np.zeros(FRAME_HOP)
        for k, (lo, hi) in enumerate(self.windows):
            if i0 + FRAME_HOP <= lo or i0 >= hi:
                continue
            idx = np.arange(max(i0, lo), min(i0 + FRAME_HOP, hi))
            t = idx / SAMPLE_RATE
            partials = np.sin(2.0 * np.pi * self.freqs[:, None] * t[None, :]
                              + self.phases[k][:, None])
            out[idx - i0] += self.amp * partials.sum(axis=0)
        return out


class WavSource:
    """Plays a WAV file (resampled to the bus rate) from start_s."""

    def __init__(self, spec: SourceSpec, rng, n_ticks: int):
        self.spec = spec
        samples, _ = read_wav(spec.path)
        self.samples = samples * spec.gain
        self.start = int(round(spec.start_s * SAMPLE_RATE))

    def hop(self, tick: int) -> np.ndarray:
        i0 = tick * FRAME_HOP - self.start
        out = np.zeros(FRAME_HOP)
        lo = max(i0, 0)
        hi = min(i0 + FRAME_HOP, len(self.samples))
        if lo < hi:
            out[lo - i0:hi - i0] = self.samples[lo:hi]
        return out


_SOURCE_BUILDERS = {
    "tone": ToneSource,
    "band_noise": BandNoiseSource,
    "chirp_train": ChirpTrainSource,
    "wav": WavSource,
}


# --- the bus -------------------------------------------------------------------

def build_gains(source_positions, listener_positions) -> np.ndarray:
    """(n_sources, n_listeners) linear gain matrix from pair distances."""
    if not source_positions or not listener_positions:
        return np.zeros((len(source_positions), len(listener_positions)))
    src = np.asarray(source_positions, dtype=float)
    lst = np.asarray(listener_positions, dtype=float)
    d = np.sqrt(np.sum((src[:, None, :] - lst[None, :, :]) ** 2, axis=2))
    return 1.0 / (1.0 + d / D_REF_M)


class BusNoise:
    """The bus noise floor, drawn ahead of the ticks on one worker thread.

    next_tick() returns the tick's unit normals, shape (n_listeners,
    FRAME_HOP): the values one rng.standard_normal((n_listeners,
    FRAME_HOP)) call per tick would give. The worker fills blocks of
    BLOCK_TICKS ticks into two buffers in turn, so it draws one block while
    the ticks read the other. It alone touches rng, so the values do not
    depend on how the threads interleave. With rng None (no noise floor)
    every tick gets None, and with no ticks either no thread starts.
    Leaving the with block stops the worker, however it is left.
    """

    def __init__(self, rng, n_listeners: int, n_ticks: int):
        self._pool = None
        self._fills = deque()        # (future, block, ticks) in draw order
        self._block, self._ticks, self._next = None, 0, 0
        if rng is None or n_ticks == 0:
            return
        self._rng = rng
        self._unfilled = n_ticks
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="bus-noise")
        for _ in range(2):
            self._fill(np.empty((BLOCK_TICKS, n_listeners, FRAME_HOP)))

    def _fill(self, block: np.ndarray):
        n = min(BLOCK_TICKS, self._unfilled)
        if n:
            self._unfilled -= n
            future = self._pool.submit(self._rng.standard_normal,
                                       out=block[:n])
            self._fills.append((future, block, n))

    def next_tick(self) -> np.ndarray | None:
        if self._pool is None:
            return None
        if self._next == self._ticks:
            if self._block is not None:
                self._fill(self._block)  # the ticks are done with it
            future, self._block, self._ticks = self._fills.popleft()
            future.result()
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None


def _np_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


class EventWriter:
    """JSON-lines event log with optional embedded emission audio."""

    def __init__(self, path, log_audio: bool):
        self.path = Path(path)
        self.log_audio = log_audio
        self.count = 0
        self._fh = open(self.path, "w")

    def write(self, tick: int, agent_id, kind: str, event: dict):
        payload = {}
        for key, value in event.items():
            if key == "event" or key.startswith("_"):
                continue
            payload[key] = value
        pcm = event.get("_pcm")
        if pcm is not None:
            if self.log_audio:
                raw = np.asarray(pcm, dtype=np.float32).tobytes()
                payload["pcm_b64"] = base64.b64encode(raw).decode("ascii")
            else:
                payload["pcm_omitted"] = True
        record = {"tick": tick, "agent_id": agent_id, "kind": kind,
                  "event": event["event"], "payload": payload}
        self._fh.write(json.dumps(record, separators=(",", ":"),
                                  default=_np_default))
        self._fh.write("\n")
        self.count += 1

    def close(self):
        self._fh.close()


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunSummary:
    out_dir: Path
    n_ticks: int
    n_events: int
    artifacts: dict
    agent_summaries: dict


def _build_agents(scn: Scenario, rngs):
    param_types = {"composer": ComposerParams, "collector": CollectorParams,
                   "disruptor": DisruptorParams}
    agents = []
    for spec, rng in zip(scn.agents, rngs):
        cls = AGENT_KINDS[spec.kind]
        try:
            energy = EnergyModel(**spec.energy)
            params = param_types[spec.kind](**spec.params)
        except TypeError as exc:
            raise ScenarioError(
                f"agent {spec.agent_id}: bad params/energy key ({exc})")
        kwargs = {"params": params}
        if spec.kind == "composer":
            kwargs["preferred_band"] = spec.preferred_band
            kwargs["slot_offset_ticks"] = spec.slot_offset_ticks
        agents.append(cls(spec.agent_id, spec.position, rng,
                          energy=energy, battery_wh=spec.battery_wh,
                          **kwargs))
    return agents


def _build_sources(scn: Scenario, rngs):
    return [_SOURCE_BUILDERS[spec.kind](spec, rng, scn.n_ticks)
            for spec, rng in zip(scn.sources, rngs)]


def _spawn_rngs(scn: Scenario):
    """Bus first, then sources, then agents: a fixed spawn order keeps
    every stream stable when unrelated knobs (e.g. insolation) change."""
    children = np.random.SeedSequence(scn.seed).spawn(
        1 + len(scn.sources) + len(scn.agents))
    bus_rng = np.random.default_rng(children[0])
    n_src = len(scn.sources)
    source_rngs = [np.random.default_rng(c) for c in children[1:1 + n_src]]
    agent_rngs = [np.random.default_rng(c) for c in children[1 + n_src:]]
    return bus_rng, source_rngs, agent_rngs


def run_scenario(scn: Scenario, out_dir) -> RunSummary:
    """Run a resolved scenario and write the full artifact set.

    Artifacts: events.jsonl, scenario_resolved.json, occupation.npy +
    occupation.json, monitor_XX.wav per monitor, manifest.json with
    sha256 checksums of everything else.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    bus_rng, source_rngs, agent_rngs = _spawn_rngs(scn)
    sources = _build_sources(scn, source_rngs)
    agents = _build_agents(scn, agent_rngs)
    n_agents, n_sources = len(agents), len(sources)
    n_ticks = scn.n_ticks

    listener_pos = ([a.position for a in agents]
                    + [scn.occupation_position]
                    + list(scn.monitors))
    source_pos = [s.spec.position for s in sources] + \
        [a.position for a in agents]
    gains = build_gains(source_pos, listener_pos)
    gains_t = gains.T.copy()
    occ_col = n_agents
    noise_rms = (None if scn.noise_floor_dbfs is None
                 else 10.0 ** (scn.noise_floor_dbfs / 20.0))

    # per-channel source rows, their gains and a gather buffer for
    # occupation attribution
    chan_rows = {c: [] for c in CHANNELS}
    for i, s in enumerate(sources):
        chan_rows[s.spec.channel].append(i)
    chan_rows["cyberphony"] = list(range(n_sources, n_sources + n_agents))
    chan_mix = []
    for c in CHANNELS:
        rows = np.array(chan_rows[c], dtype=int)
        chan_mix.append((rows, gains[rows, occ_col],
                         np.empty((len(rows), FRAME_HOP))))
    geophony = CHANNELS.index("geophony")

    bank = default_filterbank()
    hp = HighpassFilter(channels=n_agents) if n_agents else None
    hearing = Hearing(agents)
    # agents with equal energy models share one harvest per tick
    models = []
    for agent in agents:
        if agent.energy not in models:
            models.append(agent.energy)
    model_of = [models.index(agent.energy) for agent in agents]
    n_bins = FRAME_SIZE // 2 + 1
    # every per-tick array of fixed shape is written in place, each tick
    pre = np.empty((len(listener_pos), FRAME_HOP))
    scaled_noise = np.empty_like(pre)
    mixed = np.empty_like(pre)
    rings = np.zeros((n_agents, FRAME_SIZE))
    prev_rings = np.zeros_like(rings)
    mags = np.empty((n_agents, n_bins))
    mels = np.empty((n_agents, N_MEL_BANDS))
    chan_rings = np.zeros((len(CHANNELS), FRAME_SIZE))
    chan_mags = np.empty((len(CHANNELS), n_bins))
    chan_mels = np.empty((len(CHANNELS), N_MEL_BANDS))
    n_windows = -(-n_ticks // OCCUPATION_WINDOW_TICKS) if n_ticks else 0
    occupation = np.zeros((len(CHANNELS), n_windows, N_MEL_BANDS))
    render_bufs = [[] for _ in scn.monitors]
    pending = np.zeros((n_sources + n_agents, FRAME_HOP))
    src_hops = pending  # one matrix: scripted rows rewritten each tick

    with BusNoise(None if noise_rms is None else bus_rng,
                  len(listener_pos), n_ticks) as bus_noise:
        clock = SimClock(0, day_length_s=scn.day_length_s,
                         night_window=scn.night_window)
        writer = EventWriter(out_dir / EVENTS_FILE, scn.log_audio)
        scenario_json = json.dumps(scn.to_dict(), sort_keys=True, indent=2)
        config_hash = hashlib.sha256(scenario_json.encode()).hexdigest()
        writer.write(0, None, "scheduler", {
            "event": "boot", "name": scn.name, "seed": scn.seed,
            "n_ticks": n_ticks, "n_agents": n_agents,
            "n_sources": n_sources, "config_sha256": config_hash})
        last_phase = None

        for tick in range(n_ticks):
            night = clock.is_night
            if night is not last_phase:
                writer.write(tick, None, "clock",
                             {"event": "phase", "night": night,
                              "time_s": clock.time_s})
                last_phase = night

            for i, s in enumerate(sources):
                src_hops[i] = s.hop(tick)
            np.matmul(gains_t, src_hops, out=pre)
            noise = bus_noise.next_tick()
            if noise is not None:
                pre += np.multiply(noise_rms, noise, out=scaled_noise)
            np.clip(pre, -1.0, 1.0, out=mixed)

            # occupation attribution happens pre-clip, per channel sub-mix
            window = tick // OCCUPATION_WINDOW_TICKS
            chan_rings[:, :FRAME_HOP] = chan_rings[:, FRAME_HOP:]
            for c, (rows, chan_gains, gathered) in enumerate(chan_mix):
                if len(rows):
                    # mode "clip": the rows are in range; "raise" copies out
                    chan_rings[c, FRAME_HOP:] = chan_gains @ np.take(
                        src_hops, rows, axis=0, out=gathered, mode="clip")
                else:
                    chan_rings[c, FRAME_HOP:] = 0.0
            if noise is not None:
                chan_rings[geophony, FRAME_HOP:] += scaled_noise[occ_col]
            occupation[:, window, :] += bank.apply(
                fft_magnitude(chan_rings, out=chan_mags), out=chan_mels)

            for m, buf in enumerate(render_bufs):
                buf.append(mixed[n_agents + 1 + m].astype(np.float32))

            if n_agents:
                feeds = hp.process(mixed[:n_agents])
                # two ring buffers in turn: last tick's stays whole for
                # pre-roll
                prev_rings, rings = rings, prev_rings
                rings[:, :FRAME_HOP] = prev_rings[:, FRAME_HOP:]
                rings[:, FRAME_HOP:] = feeds
                fft_magnitude(rings, out=mags)
                bank.apply(mags, out=mels)
                hearing.listen(rings, prev_rings, mags, mels, clock)
                harvest = [model.harvest_w(clock) for model in models]
                for j, agent in enumerate(agents):
                    hop_out, events = agent.step(hearing, clock)
                    energy_step(agent, harvest[model_of[j]])
                    row = n_sources + j
                    if hop_out is None:
                        pending[row] = 0.0
                    else:
                        pending[row] = hop_out
                    for event in events:
                        writer.write(tick, agent.agent_id, agent.kind,
                                     event)
            clock.advance()

    agent_summaries = {}
    for agent in agents:
        summary = agent.summary()
        agent_summaries[agent.agent_id] = summary
        writer.write(n_ticks, agent.agent_id, agent.kind,
                     {"event": "summary", **summary})
    writer.write(n_ticks, None, "scheduler",
                 {"event": "end", "n_ticks": n_ticks})
    writer.close()

    (out_dir / SCENARIO_FILE).write_text(scenario_json)
    np.save(out_dir / OCCUPATION_NPY, occupation)
    (out_dir / OCCUPATION_META).write_text(json.dumps({
        "channels": list(CHANNELS),
        "window_ticks": OCCUPATION_WINDOW_TICKS,
        "window_s": OCCUPATION_WINDOW_TICKS * FRAME_HOP / SAMPLE_RATE,
        "n_windows": n_windows,
        "n_bands": N_MEL_BANDS,
    }, sort_keys=True, indent=2))
    render_names = []
    for m, buf in enumerate(render_bufs):
        name = f"monitor_{m:02d}.wav"
        data = (np.concatenate(buf) if buf
                else np.zeros(0, dtype=np.float32))
        write_wav(out_dir / name, data, subtype="float32")
        render_names.append(name)

    artifact_names = [EVENTS_FILE, SCENARIO_FILE, OCCUPATION_NPY,
                      OCCUPATION_META] + render_names
    artifacts = {name: _sha256(out_dir / name) for name in artifact_names}
    manifest = {"format": 1, "name": scn.name, "seed": scn.seed,
                "config_sha256": config_hash, "n_ticks": n_ticks,
                "artifacts": artifacts}
    (out_dir / MANIFEST_FILE).write_text(
        json.dumps(manifest, sort_keys=True, indent=2))
    return RunSummary(out_dir, n_ticks, writer.count, artifacts,
                      agent_summaries)


# --- replay ----------------------------------------------------------------------

_PCM_EMISSIONS = ("playback_start", "disrupt_start")


def _emissions_from_log(events) -> dict:
    """Per-agent (start_tick, float32 pcm) emission list from the log.

    Refuses a log whose emissions lack their audio before synthesizing
    anything.
    """
    if any(record["event"] in _PCM_EMISSIONS
           and record.get("payload", {}).get("pcm_omitted")
           for record in events):
        raise ReplayError(
            "log has pcm_omitted entries (run used log_audio: "
            "false); renders cannot be reproduced")
    schedule = {}
    for record in events:
        payload = record.get("payload", {})
        event = record["event"]
        if event == "emission_start":
            pcm = synth_tone(payload["freq_hz"], payload["amp"],
                             payload["n_samples"],
                             payload["attack_samples"],
                             payload["decay_samples"], SAMPLE_RATE)
        elif event in _PCM_EMISSIONS:
            pcm = np.frombuffer(
                base64.b64decode(payload["pcm_b64"]), dtype=np.float32)
        else:
            continue
        schedule.setdefault(record["agent_id"], []).append(
            (record["tick"], pcm))
    return schedule


def load_run_events(run_dir) -> list:
    with open(Path(run_dir) / EVENTS_FILE) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def replay_run(run_dir) -> dict:
    """Re-render monitor WAVs from the log alone; returns name -> sha256.

    Replay rebuilds the exact mixing pipeline of the original run: the
    same source streams and bus noise (same seeds), with agent rows fed
    from logged emissions instead of live agents. Output files land in
    <run_dir>/replay/ and must be byte-identical to the originals.
    """
    run_dir = Path(run_dir)
    scn = Scenario.from_dict(
        json.loads((run_dir / SCENARIO_FILE).read_text()))
    events = load_run_events(run_dir)
    schedule = _emissions_from_log(events)

    bus_rng, source_rngs, _ = _spawn_rngs(scn)
    sources = _build_sources(scn, source_rngs)
    n_agents, n_sources = len(scn.agents), len(sources)
    n_ticks = scn.n_ticks

    listener_pos = ([a.position for a in scn.agents]
                    + [scn.occupation_position]
                    + list(scn.monitors))
    source_pos = [s.spec.position for s in sources] + \
        [a.position for a in scn.agents]
    gains_t = build_gains(source_pos, listener_pos).T.copy()
    noise_rms = (None if scn.noise_floor_dbfs is None
                 else 10.0 ** (scn.noise_floor_dbfs / 20.0))

    # per-agent emission cursors: list sorted by start tick
    agent_ids = [a.agent_id for a in scn.agents]
    queues = {aid: sorted(schedule.get(aid, []), key=lambda e: e[0])
              for aid in agent_ids}
    active = {aid: None for aid in agent_ids}

    src_hops = np.zeros((n_sources + n_agents, FRAME_HOP))
    pre = np.empty((len(listener_pos), FRAME_HOP))
    scaled_noise = np.empty_like(pre)
    mixed = np.empty_like(pre)
    render_bufs = [[] for _ in scn.monitors]

    with BusNoise(None if noise_rms is None else bus_rng,
                  len(listener_pos), n_ticks) as bus_noise:
        for tick in range(n_ticks):
            for i, s in enumerate(sources):
                src_hops[i] = s.hop(tick)
            for j, aid in enumerate(agent_ids):
                row = n_sources + j
                # an emission logged at tick t is mixed from tick t+1 on,
                # exactly like a live agent's pending hop
                if active[aid] is None and queues[aid] and \
                        queues[aid][0][0] + 1 <= tick:
                    start, pcm = queues[aid].pop(0)
                    active[aid] = (start, pcm)
                slot = active[aid]
                if slot is None:
                    src_hops[row] = 0.0
                    continue
                start, pcm = slot
                k = tick - start - 1
                chunk = pcm[k * FRAME_HOP:(k + 1) * FRAME_HOP]
                hop = np.zeros(FRAME_HOP)
                hop[:len(chunk)] = chunk
                src_hops[row] = hop
                if (k + 1) * FRAME_HOP >= len(pcm):
                    active[aid] = None
            np.matmul(gains_t, src_hops, out=pre)
            noise = bus_noise.next_tick()
            if noise is not None:
                pre += np.multiply(noise_rms, noise, out=scaled_noise)
            np.clip(pre, -1.0, 1.0, out=mixed)
            for m, buf in enumerate(render_bufs):
                buf.append(mixed[n_agents + 1 + m].astype(np.float32))

    replay_dir = run_dir / "replay"
    replay_dir.mkdir(exist_ok=True)
    out = {}
    for m, buf in enumerate(render_bufs):
        name = f"monitor_{m:02d}.wav"
        data = np.concatenate(buf) if buf else np.zeros(0, dtype=np.float32)
        write_wav(replay_dir / name, data, subtype="float32")
        out[name] = _sha256(replay_dir / name)
    return out
