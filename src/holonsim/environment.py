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
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml
from scipy.signal import butter, lfilter

from .agents import (AGENT_KINDS, ComposerParams, EmissionQueue, EnergyModel,
                     Hearing, energy_step, synth_tone)
from .audio_core import (HighpassFilter, SimClock, default_filterbank,
                         fft_magnitude, read_wav, write_wav)
from .params import (FRAME_HOP, FRAME_SIZE, N_MEL_BANDS, NYQUIST, SAMPLE_RATE,
                     TICK_SECONDS)

CHANNELS = ("biophony", "geophony", "anthrophony", "cyberphony")
D_REF_M = 2.0
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
# The dataclasses are the schema of a scenario: each field is named as its
# key in the YAML file and in scenario_resolved.json, and each default is
# written here once; the loader takes an omitted key's default from them.

@dataclass
class SourceSpec:
    id: str
    kind: str                    # tone | band_noise | chirp_train | wav
    position: tuple
    channel: str = "anthrophony"
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


@dataclass
class AgentSpec:
    id: str
    kind: str
    position: tuple
    battery_wh: float | None = None
    preferred_band: int | None = None
    slot_offset_ticks: int = 0
    params: dict = field(default_factory=dict)
    energy: dict = field(default_factory=dict)


def _spec_dict(spec) -> dict:
    """A source or agent as resolved JSON, less the keys left unset."""
    return {key: value for key, value in asdict(spec).items()
            if value is not None and value != {}}


@dataclass
class Scenario:
    name: str
    seed: int
    duration_s: float
    day_length_s: float = 240.0
    night_window: tuple = (0.5, 1.0)
    noise_floor_dbfs: float | None = -60.0  # None: no noise floor
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
        """The resolved JSON: every top-level key, a null noise floor (no
        noise) included, and each source and agent less its unset keys."""
        return dict(asdict(self),
                    agents=[_spec_dict(a) for a in self.agents],
                    sources=[_spec_dict(s) for s in self.sources])

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        """The inverse of to_dict, as replay reads scenario_resolved.json."""
        return cls(**dict(raw,
                          agents=[AgentSpec(**a) for a in raw["agents"]],
                          sources=[SourceSpec(**s) for s in raw["sources"]]))


_TOP_KEYS = {f.name for f in fields(Scenario)}
_SOURCE_KEYS = {f.name for f in fields(SourceSpec)}
_AGENT_KEYS = {f.name for f in fields(AgentSpec)} - {"id"} | {"count"}
_SOURCE_KINDS = {"tone", "band_noise", "chirp_train", "wav"}
_REQUIRED = object()
_KIND_NAMES = {float: "a finite number", int: "an integer",
               bool: "true or false", str: "a string",
               tuple: "a pair [a, b] of finite numbers", list: "a list",
               dict: "a mapping"}
# The agent parameter and energy values that would abort a run, as (rule,
# test); any other number of the field's type runs. A time the agent counts
# in samples or ticks must give a finite count, and a recording cap must
# hold at least one sample.
_POSITIVE = ("positive", lambda v: v > 0)
_SAMPLES = ("a finite count of samples",
            lambda v: math.isfinite(v * SAMPLE_RATE))
_LENGTH = ("a finite count of samples, not negative",
           lambda v: 0 <= v * SAMPLE_RATE < math.inf)
_ONE_SAMPLE = ("at least one sample long",
               lambda v: math.isfinite(v * SAMPLE_RATE)
               and round(v * SAMPLE_RATE) >= 1)
_TICKS = ("a finite count of ticks", lambda v: math.isfinite(v / TICK_SECONDS))
_FIELD_RANGES = {
    "battery_max_wh": _POSITIVE, "long_half_life_s": _POSITIVE,
    "short_half_life_s": _POSITIVE, "range_full_db": _POSITIVE,
    "occupancy_percentile": ("in [0, 100]", lambda v: 0 <= v <= 100),
    "note_min_s": _LENGTH, "note_max_s": _LENGTH,
    "attack_fast_s": _SAMPLES, "attack_slow_s": _SAMPLES,
    "record_max_s": _ONE_SAMPLE, "capture_max_s": _ONE_SAMPLE,
    "slot_s": _TICKS, "playback_refractory_s": _TICKS,
    "accepted_blue_s": _TICKS,
}


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _checked(value, kind, where: str):
    """value as kind, or a ScenarioError that names where it was read.

    A float may be written as an int but never as a bool, and a tuple is
    a pair of finite numbers (a position, a band or a window).
    """
    if kind is float:
        ok = _finite(value)
    elif kind is tuple:
        ok = (isinstance(value, (list, tuple)) and len(value) == 2
              and all(map(_finite, value)))
    else:
        ok = isinstance(value, kind) and (kind is bool
                                          or not isinstance(value, bool))
    if not ok:
        raise ScenarioError(f"{where} must be {_KIND_NAMES[kind]}, "
                            f"not {value!r}")
    return tuple(map(float, value)) if kind is tuple else kind(value)


def _value(raw: dict, key: str, kind, context: str, default=_REQUIRED,
           nullable: bool = False):
    """raw[key] checked as kind, or default when the key is omitted.

    A key without a default is required. null is taken, as None, where
    the default is None or where nullable says that None has a meaning.
    """
    value = raw.get(key, default)
    if value is _REQUIRED:
        raise ScenarioError(f"{context}: missing required key {key!r}")
    if value is None and (nullable or default is None):
        return None
    return _checked(value, kind, f"{context}: {key}")


def _checked_fields(raw: dict, model, context: str) -> dict:
    """raw checked against the fields of the dataclass model: each key a
    field, each value of the field's type and inside its range."""
    types = {f.name: f.type for f in fields(model)}
    _check_keys(raw, types.keys(), context)
    out = {}
    for key, value in raw.items():
        out[key] = _checked(value, types[key], f"{context}.{key}")
        rule, ok = _FIELD_RANGES.get(key, (None, None))
        if ok is not None and not ok(out[key]):
            raise ScenarioError(f"{context}.{key} must be {rule}")
    return out


def _check_keys(raw, known: set, context: str):
    if not isinstance(raw, dict):
        raise ScenarioError(f"{context}: must be a mapping")
    for key in raw:
        if key not in known:
            raise ScenarioError(f"{context}: unknown key {key!r}")


def load_scenario(path) -> Scenario:
    """Read and validate a YAML scenario file into a resolved Scenario.

    Resolution expands roster counts into individual agents, assigns
    ids, ring-layout positions, and composer slot offsets, so the result
    is a complete description of the run.
    """
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: not valid YAML ({exc})")
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    return _scenario_from_raw(raw, path.parent, default_name=path.stem)


def _scenario_from_raw(raw: dict, base_dir: Path, default_name: str):
    context = "scenario"
    _check_keys(raw, _TOP_KEYS, context)
    seed = _value(raw, "seed", int, context)
    if seed < 0:
        raise ScenarioError("scenario: seed must not be negative")
    duration = _value(raw, "duration_s", float, context)
    day_length = _value(raw, "day_length_s", float, context,
                        Scenario.day_length_s)
    for key, value in (("duration_s", duration),
                       ("day_length_s", day_length)):
        if value <= 0:
            raise ScenarioError(f"scenario: {key} must be positive")
    night = _value(raw, "night_window", tuple, context,
                   Scenario.night_window)
    if not all(0.0 <= v <= 1.0 for v in night):
        raise ScenarioError("scenario: night_window must be two day "
                            "fractions in [0, 1]")
    floor = _value(raw, "noise_floor_dbfs", float, context,
                   Scenario.noise_floor_dbfs, nullable=True)
    if floor is not None and floor > 0:
        raise ScenarioError("scenario: noise_floor_dbfs must be at most 0")
    radius = _value(raw, "layout_radius_m", float, context,
                    Scenario.layout_radius_m)
    return Scenario(
        name=_value(raw, "name", str, context, default_name),
        seed=seed,
        duration_s=duration,
        day_length_s=day_length,
        night_window=night,
        noise_floor_dbfs=floor,
        log_audio=_value(raw, "log_audio", bool, context, Scenario.log_audio),
        layout_radius_m=radius,
        occupation_position=_value(raw, "occupation_position", tuple,
                                   context, Scenario.occupation_position),
        monitors=[_checked(m, tuple, f"scenario: monitors[{i}]") for i, m
                  in enumerate(_value(raw, "monitors", list, context, []))],
        sources=[_source_from_raw(s, i, base_dir) for i, s
                 in enumerate(_value(raw, "sources", list, context, []))],
        agents=_roster_from_raw(_value(raw, "agents", list, context, []),
                                radius),
    )


def _source_from_raw(raw: dict, index: int, base_dir: Path) -> SourceSpec:
    context = f"sources[{index}]"
    _check_keys(raw, _SOURCE_KEYS, context)
    kind = _value(raw, "kind", str, context)
    if kind not in _SOURCE_KINDS:
        raise ScenarioError(
            f"{context}: unknown source kind {kind!r} "
            f"(expected one of {sorted(_SOURCE_KINDS)})")
    channel = _value(raw, "channel", str, context, SourceSpec.channel)
    if channel not in CHANNELS or channel == "cyberphony":
        raise ScenarioError(
            f"{context}: channel must be biophony, geophony or anthrophony "
            "(cyberphony is reserved for agents)")
    spec = SourceSpec(
        id=_value(raw, "id", str, context, f"{kind}_{index:02d}"),
        kind=kind,
        position=_value(raw, "position", tuple, context),
        channel=channel,
        level_dbfs=_value(raw, "level_dbfs", float, context,
                          SourceSpec.level_dbfs),
        start_s=_value(raw, "start_s", float, context, SourceSpec.start_s),
        stop_s=_value(raw, "stop_s", float, context, SourceSpec.stop_s),
        gain=_value(raw, "gain", float, context, SourceSpec.gain),
    )
    if spec.level_dbfs > 0:
        raise ScenarioError(f"{context}: level_dbfs must be at most 0")
    if kind == "tone":
        spec.freq_hz = _value(raw, "freq_hz", float, context)
        if not 0.0 < spec.freq_hz < NYQUIST:
            raise ScenarioError(f"{context}: freq_hz out of range")
    elif kind == "band_noise":
        spec.band_hz = _value(raw, "band_hz", tuple, context)
        if not 0.0 < spec.band_hz[0] < spec.band_hz[1] < NYQUIST:
            raise ScenarioError(
                f"{context}: band_hz must be [low, high] inside "
                f"(0, {NYQUIST})")
    elif kind == "chirp_train":
        spec.chirp_s = _value(raw, "chirp_s", float, context)
        spec.period_s = _value(raw, "period_s", float, context)
        spec.count = _value(raw, "count", int, context)
        if spec.chirp_s <= 0 or spec.period_s < spec.chirp_s:
            raise ScenarioError(
                f"{context}: need 0 < chirp_s <= period_s")
        if spec.count < 0:
            raise ScenarioError(f"{context}: count must not be negative")
    elif kind == "wav":
        rel = _value(raw, "path", str, context)
        resolved = (base_dir / rel).resolve()
        if not resolved.is_file():
            raise ScenarioError(f"{context}: wav file not found: {resolved}")
        spec.path = str(resolved)
    return spec


def _roster_from_raw(entries: list, radius_m: float) -> list:
    specs = []
    for i, raw in enumerate(entries):
        context = f"agents[{i}]"
        _check_keys(raw, _AGENT_KEYS, context)
        kind = _value(raw, "kind", str, context)
        if kind not in AGENT_KINDS:
            raise ScenarioError(
                f"{context}: unknown agent kind {kind!r} "
                f"(expected one of {sorted(AGENT_KINDS)})")
        count = _value(raw, "count", int, context, 1)
        if count < 1:
            raise ScenarioError(f"{context}: count must be >= 1")
        position = _value(raw, "position", tuple, context, None)
        if position is not None and count != 1:
            raise ScenarioError(
                f"{context}: give position only for single agents")
        band = _value(raw, "preferred_band", int, context,
                      AgentSpec.preferred_band)
        if band is not None and not 0 <= band < N_MEL_BANDS:
            raise ScenarioError(
                f"{context}: preferred_band must be a Mel band index in "
                f"[0, {N_MEL_BANDS})")
        battery = _value(raw, "battery_wh", float, context,
                         AgentSpec.battery_wh)
        offset = _value(raw, "slot_offset_ticks", int, context,
                        AgentSpec.slot_offset_ticks)
        params = _checked_fields(
            _value(raw, "params", dict, context, {}),
            AGENT_KINDS[kind].Params, f"{context}: params")
        energy = _checked_fields(
            _value(raw, "energy", dict, context, {}),
            EnergyModel, f"{context}: energy")
        specs += [AgentSpec(None, kind, position, battery, band, offset,
                            dict(params), dict(energy)) for _ in range(count)]

    # ids count up per kind; agents without a position share one ring
    counters = dict.fromkeys(AGENT_KINDS, 0)
    for j, spec in enumerate(specs):
        spec.id = f"{spec.kind}_{counters[spec.kind]:03d}"
        counters[spec.kind] += 1
        if spec.position is None:
            # even spacing around a circle keeps everyone in earshot
            angle = 2.0 * np.pi * j / len(specs)
            spec.position = (round(radius_m * float(np.cos(angle)), 6),
                             round(radius_m * float(np.sin(angle)), 6))

    # stagger composer decision grids so first claims do not pile up
    composers = [s for s in specs if s.kind == "composer"]
    for i, spec in enumerate(composers):
        if spec.slot_offset_ticks == 0:
            spec.slot_offset_ticks = (
                i * ComposerParams(**spec.params).slot_ticks) // len(composers)
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

    next_tick() returns the tick's noise, shape (n_listeners, FRAME_HOP):
    rms times the unit normals one rng.standard_normal((n_listeners,
    FRAME_HOP)) call per tick would give. The worker draws and scales
    blocks of BLOCK_TICKS ticks into two buffers in turn, so it fills one
    block while the ticks read the other. It alone touches rng, so the
    values do not depend on how the threads interleave. With rms None (no
    noise floor) every tick gets None, and with no ticks either no thread
    starts. Leaving the with block stops the worker, however it is left.
    """

    def __init__(self, rng, rms: float | None, n_listeners: int,
                 n_ticks: int):
        self._pool = None
        self._fills = deque()        # (future, block, ticks) in draw order
        self._block, self._ticks, self._next = None, 0, 0
        if rms is None or n_ticks == 0:
            return
        self._rng, self._rms = rng, rms
        self._unfilled = n_ticks
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="bus-noise")
        for _ in range(2):
            self._fill(np.empty((BLOCK_TICKS, n_listeners, FRAME_HOP)))

    def _fill(self, block: np.ndarray):
        n = min(BLOCK_TICKS, self._unfilled)
        if n:
            self._unfilled -= n
            future = self._pool.submit(self._draw, block[:n])
            self._fills.append((future, block, n))

    def _draw(self, out: np.ndarray):
        self._rng.standard_normal(out=out)
        np.multiply(self._rms, out, out=out)

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


class Bus:
    """The one acoustic bus of a run, and of its replay.

    Rows of `hops` are the scripted sources, then the agents' emission
    ports (`agent_rows`); listeners are the agents, the occupation point,
    then the monitors. mix(tick) writes the source rows and mixes every
    listener's hop into `mixed`; a hop the caller then writes with emit()
    is heard from the next tick on. `active` marks the agent rows that
    hold sound, and the gain product reads only those and the source rows.
    The bus's per-tick arrays are allocated here, once. Leaving the with
    block stops the noise worker, which is started last so a failing build
    leaves no thread.
    """

    def __init__(self, scn: Scenario, bus_rng, source_rngs):
        n_ticks, n_agents = scn.n_ticks, len(scn.agents)
        self._sources = [_SOURCE_BUILDERS[spec.kind](spec, rng, n_ticks)
                         for spec, rng in zip(scn.sources, source_rngs)]
        agent_pos = [a.position for a in scn.agents]
        listener_pos = agent_pos + [scn.occupation_position] + \
            list(scn.monitors)
        self.gains = build_gains([s.position for s in scn.sources]
                                 + agent_pos, listener_pos)
        self._gains_t = self.gains.T.copy()
        self.hops = np.zeros((len(self._sources) + n_agents, FRAME_HOP))
        self.agent_rows = self.hops[len(self._sources):]
        self.active = [False] * n_agents
        # the rows the product reads (None: stale) and their gain columns
        self._rows = self._gains_act = None
        self._gain_cols = np.empty(self._gains_t.size)
        self._hop_rows = np.empty_like(self.hops)
        self.mixed = np.empty((len(listener_pos), FRAME_HOP))
        self._monitors = slice(n_agents + 1, None)
        self._renders = np.zeros((len(scn.monitors), n_ticks * FRAME_HOP),
                                 dtype=np.float32)
        self._noise = BusNoise(
            bus_rng, (None if scn.noise_floor_dbfs is None
                      else 10.0 ** (scn.noise_floor_dbfs / 20.0)),
            len(listener_pos), n_ticks)

    def mix(self, tick: int) -> np.ndarray | None:
        """Mix one tick; returns the noise it added, or None."""
        for i, s in enumerate(self._sources):
            self.hops[i] = s.hop(tick)
        np.matmul(*self._sounding(), out=self.mixed)
        noise = self._noise.next_tick()
        if noise is not None:
            self.mixed += noise
        np.clip(self.mixed, -1.0, 1.0, out=self.mixed)
        self._renders[:, tick * FRAME_HOP:(tick + 1) * FRAME_HOP] = \
            self.mixed[self._monitors]
        return noise

    def emit(self, j: int, hop: np.ndarray | None):
        """Write agent j's next hop. None or an all-zero hop (a clip can
        open on recorded silence) silences its row, which is zeroed once."""
        if hop is not None and hop.any():
            self.agent_rows[j] = hop
            if not self.active[j]:
                self.active[j], self._rows = True, None
        elif self.active[j]:
            self.agent_rows[j] = 0.0
            self.active[j], self._rows = False, None

    def _sounding(self) -> tuple:
        """The gain product's factors over the source and active rows.

        Silent agent rows are zero, and leaving them out changes no byte
        of the product with two or more listeners. With one listener numpy
        takes the gemv path, where leaving rows out can change the last
        bit; but that bus has no agents, so the product reads every row,
        and no monitors, so nothing reads its mixed row.
        """
        if self._rows is None:
            n_sources = len(self._sources)
            self._rows = np.array(
                [*range(n_sources),
                 *(n_sources + j for j, on in enumerate(self.active) if on)],
                dtype=np.intp)
            shape = (len(self._gains_t), len(self._rows))
            # mode "clip": the rows are in range; "raise" copies out
            self._gains_act = np.take(
                self._gains_t, self._rows, axis=1, mode="clip",
                out=self._gain_cols[:shape[0] * shape[1]].reshape(shape))
        k = len(self._rows)
        if k == len(self.hops):
            return self._gains_t, self.hops
        return self._gains_act, np.take(self.hops, self._rows, axis=0,
                                        out=self._hop_rows[:k], mode="clip")

    def write_renders(self, out_dir: Path) -> dict:
        """Write monitor_XX.wav per monitor; returns name -> sha256."""
        out = {}
        for m, samples in enumerate(self._renders):
            name = f"monitor_{m:02d}.wav"
            write_wav(out_dir / name, samples, subtype="float32")
            out[name] = _sha256(out_dir / name)
        return out

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._noise.__exit__(*exc)


def _np_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


class EventWriter:
    """JSON-lines event log with optional embedded emission audio.

    Leaving its with block closes the file, however the block is left.
    """

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

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


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
    agents = [AGENT_KINDS[s.kind](s, rng)
              for s, rng in zip(scn.agents, agent_rngs)]
    n_agents, n_sources = len(agents), len(scn.sources)
    n_ticks = scn.n_ticks
    occ_col = n_agents

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
    rings = np.zeros((n_agents, FRAME_SIZE))
    prev_rings = np.zeros_like(rings)
    mags = np.empty((n_agents, n_bins))
    mels = np.empty((n_agents, N_MEL_BANDS))
    chan_rings = np.zeros((len(CHANNELS), FRAME_SIZE))
    chan_mags = np.empty((len(CHANNELS), n_bins))
    chan_mels = np.empty((len(CHANNELS), N_MEL_BANDS))
    n_windows = -(-n_ticks // OCCUPATION_WINDOW_TICKS) if n_ticks else 0
    occupation = np.zeros((len(CHANNELS), n_windows, N_MEL_BANDS))

    scenario_json = json.dumps(scn.to_dict(), sort_keys=True, indent=2)
    config_hash = hashlib.sha256(scenario_json.encode()).hexdigest()
    with (Bus(scn, bus_rng, source_rngs) as bus,
          EventWriter(out_dir / EVENTS_FILE, scn.log_audio) as writer):
        # per-channel bus rows and their gains at the occupation point; a
        # channel whose rows are contiguous (the agents' for cyberphony) is
        # read in place, the others are gathered into a buffer
        chan_rows = {c: [] for c in CHANNELS}
        for i, spec in enumerate(scn.sources):
            chan_rows[spec.channel].append(i)
        chan_rows["cyberphony"] = list(range(n_sources, n_sources + n_agents))
        chan_mix = []
        for c in CHANNELS:
            rows = chan_rows[c]
            first = rows[0] if rows else 0
            if rows == list(range(first, first + len(rows))):
                chan_mix.append((None, bus.gains[rows, occ_col],
                                 bus.hops[first:first + len(rows)]))
            else:
                chan_mix.append((np.array(rows), bus.gains[rows, occ_col],
                                 np.empty((len(rows), FRAME_HOP))))
        geophony = CHANNELS.index("geophony")

        clock = SimClock(0, day_length_s=scn.day_length_s,
                         night_window=scn.night_window)
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

            noise = bus.mix(tick)

            # occupation attribution happens pre-clip, per channel sub-mix
            window = tick // OCCUPATION_WINDOW_TICKS
            chan_rings[:, :FRAME_HOP] = chan_rings[:, FRAME_HOP:]
            for c, (rows, chan_gains, chan_hops) in enumerate(chan_mix):
                if rows is not None:
                    # mode "clip": the rows are in range; "raise" copies out
                    np.take(bus.hops, rows, axis=0, out=chan_hops,
                            mode="clip")
                chan_rings[c, FRAME_HOP:] = chan_gains @ chan_hops
            if noise is not None:
                chan_rings[geophony, FRAME_HOP:] += noise[occ_col]
            occupation[:, window, :] += bank.apply(
                fft_magnitude(chan_rings, out=chan_mags), out=chan_mels)

            if n_agents:
                feeds = hp.process(bus.mixed[:n_agents])
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
                    bus.emit(j, hop_out)
                    for event in events:
                        writer.write(tick, agent.agent_id, agent.kind,
                                     event)
            clock.advance()

        for agent in agents:
            writer.write(n_ticks, agent.agent_id, agent.kind,
                         {"event": "summary", **agent.summary()})
        writer.write(n_ticks, None, "scheduler",
                     {"event": "end", "n_ticks": n_ticks})

    (out_dir / SCENARIO_FILE).write_text(scenario_json)
    np.save(out_dir / OCCUPATION_NPY, occupation)
    (out_dir / OCCUPATION_META).write_text(json.dumps({
        "channels": list(CHANNELS),
        "window_ticks": OCCUPATION_WINDOW_TICKS,
        "window_s": OCCUPATION_WINDOW_TICKS * FRAME_HOP / SAMPLE_RATE,
        "n_windows": n_windows,
        "n_bands": N_MEL_BANDS,
    }, sort_keys=True, indent=2))
    artifacts = {name: _sha256(out_dir / name)
                 for name in [EVENTS_FILE, SCENARIO_FILE, OCCUPATION_NPY,
                              OCCUPATION_META]}
    artifacts.update(bus.write_renders(out_dir))
    manifest = {"format": 1, "name": scn.name, "seed": scn.seed,
                "config_sha256": config_hash, "n_ticks": n_ticks,
                "artifacts": artifacts}
    (out_dir / MANIFEST_FILE).write_text(
        json.dumps(manifest, sort_keys=True, indent=2))
    return RunSummary(out_dir, n_ticks, writer.count, artifacts)


# --- replay ----------------------------------------------------------------------

_PCM_EMISSIONS = ("playback_start", "disrupt_start")


def _emissions_from_log(events) -> dict:
    """(tick, agent_id) -> float32 pcm of every emission in the log.

    Refuses a log whose emissions lack their audio before synthesizing
    anything.
    """
    if any(record["event"] in _PCM_EMISSIONS
           and record.get("payload", {}).get("pcm_omitted")
           for record in events):
        raise ReplayError(
            "log has pcm_omitted entries (run used log_audio: "
            "false); renders cannot be reproduced")
    emissions = {}
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
        emissions[record["tick"], record["agent_id"]] = pcm
    return emissions


def load_run_events(run_dir) -> list:
    with open(Path(run_dir) / EVENTS_FILE) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def replay_run(run_dir) -> dict:
    """Re-render monitor WAVs from the log alone; returns name -> sha256.

    Replay mixes on the same Bus as the run, with the same source streams
    and bus noise (same seeds). Each agent row is fed by an EmissionQueue
    that starts the clip logged at (tick, agent), exactly as the live
    agent's own queue did. Output files land in <run_dir>/replay/ and
    must be byte-identical to the originals.
    """
    run_dir = Path(run_dir)
    scn = Scenario.from_dict(
        json.loads((run_dir / SCENARIO_FILE).read_text()))
    emissions = _emissions_from_log(load_run_events(run_dir))
    bus_rng, source_rngs, _ = _spawn_rngs(scn)
    agent_ids = [a.id for a in scn.agents]
    queues = [EmissionQueue() for _ in agent_ids]

    with Bus(scn, bus_rng, source_rngs) as bus:
        for tick in range(scn.n_ticks):
            bus.mix(tick)
            for j, (agent_id, queue) in enumerate(zip(agent_ids, queues)):
                pcm = emissions.get((tick, agent_id))
                if pcm is not None:
                    queue.start(pcm)
                bus.emit(j, queue.next_hop())

    replay_dir = run_dir / "replay"
    replay_dir.mkdir(exist_ok=True)
    return bus.write_renders(replay_dir)
