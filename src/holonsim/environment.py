"""The shared acoustic world: sources, propagation, and the scheduler.

Everything audible lives on one bus. Scripted sources and agent
emission ports are rows of a gain matrix, listener microphones are
columns, and each tick mixes one hop of audio for every listener at
once. Agent emissions registered at tick t become audible at t+1, which
keeps the update order well defined no matter how stepping is executed.

A run directory holds everything needed to reproduce the run bit for
bit: the resolved scenario, the JSON-lines event log, occupation
matrices, rendered monitor WAVs, and a manifest of checksums.
replay_run() rebuilds the occupation and the renders from the log alone,
and each file must be byte-identical to the run's.
"""

import base64
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import get_args

import numpy as np
import yaml

from .agents import (AGENT_KINDS, ComposerParams, EmissionQueue, EnergyModel,
                     Hearing, daylight, energy_step, synth_tone)
from .audio_core import (HighpassFilter, SimClock, WavFormatError,
                         WAV_MAX_SAMPLES, butter_bandpass_coeffs,
                         default_filterbank, fft_magnitude, linear_filter,
                         read_wav, write_wav)
from .features import Verdict
from .params import (FRAME_HOP, FRAME_SIZE, N_MEL_BANDS, NYQUIST, SAMPLE_RATE,
                     TICK_SECONDS)
from .rundir import (EVENTS_FILE, OCCUPATION_META, OCCUPATION_NPY, REPLAY_DIR,
                     SCENARIO_FILE, RunDir, RunWriter, file_sha256,
                     load_run_events, monitor_name)

CHANNELS = ("biophony", "geophony", "anthrophony", "cyberphony")
D_REF_M = 2.0
OCCUPATION_WINDOW_TICKS = 62  # one second of hops, rounded down
NOISE_ROWS = 8  # shared bus rows that every listener's noise floor mixes


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the key."""


class ReplayError(ValueError):
    """The event log cannot reproduce the run (e.g. audio not logged)."""


# --- scenario ---------------------------------------------------------------
# The dataclasses are the schema of a scenario: each field is named as its
# key in the YAML file and in the resolved scenario, and its annotation and
# default are written here once; the loader checks each key's value against
# the annotation and leaves an omitted key's default to the dataclass.

@dataclass
class SourceSpec:
    id: str
    kind: str                    # a key of _SOURCE_KINDS
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
    position: tuple | None = None  # None: resolution places it on the ring
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
        """The inverse of to_dict, as replay reads the resolved scenario."""
        return cls(**dict(raw,
                          agents=[AgentSpec(**a) for a in raw["agents"]],
                          sources=[SourceSpec(**s) for s in raw["sources"]]))


_AGENT_KEYS = {f.name for f in fields(AgentSpec)} - {"id"} | {"count"}
# the agent keys that only the kinds naming them in spec_keys read
_AGENT_KIND_KEYS = {key for cls in AGENT_KINDS.values()
                    for key in cls.spec_keys}
_KIND_NAMES = {float: "a finite number", int: "an integer",
               bool: "true or false", str: "a string",
               tuple: "a pair [a, b] of finite numbers", list: "a list",
               dict: "a mapping"}
# The values of a field that would abort a run or mean nothing, as (rule,
# test), keyed by field name across the scenario, source, agent, energy and
# parameter dataclasses; any other value of the field's type runs. A time
# the run counts in samples or ticks must give a finite count, a recording
# cap must hold at least one sample, a collection at least one item and
# one byte, and a charge, a power or a run of tone frames is never
# negative.
_POSITIVE = ("must be positive", lambda v: v > 0)
_NOT_NEGATIVE = ("must not be negative", lambda v: v >= 0)
_AT_MOST_0 = ("must be at most 0", lambda v: v <= 0)
_SAMPLES = ("must be a finite count of samples",
            lambda v: math.isfinite(v * SAMPLE_RATE))
_LENGTH = ("must be a finite count of samples, not negative",
           lambda v: 0 <= v * SAMPLE_RATE < math.inf)
_ONE_SAMPLE = ("must be at least one sample long",
               lambda v: math.isfinite(v * SAMPLE_RATE)
               and round(v * SAMPLE_RATE) >= 1)
_TICKS = ("must be a finite count of ticks",
          lambda v: math.isfinite(v / TICK_SECONDS))
# a run's length, which cli.parse_duration checks --duration by too
DURATION_RULE = ("must be a positive, finite number of seconds with a "
                 "finite count of samples",
                 lambda v: 0 < v * SAMPLE_RATE < math.inf)
# a note is rendered as float32, which holds no larger magnitude
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_FIELD_RANGES = {
    "seed": _NOT_NEGATIVE, "duration_s": DURATION_RULE,
    "day_length_s": _POSITIVE,
    "night_window": ("must be two day fractions in [0, 1]",
                     lambda v: all(0.0 <= x <= 1.0 for x in v)),
    "noise_floor_dbfs": _AT_MOST_0, "level_dbfs": _AT_MOST_0,
    "freq_hz": (f"must be inside (0, {NYQUIST})", lambda v: 0 < v < NYQUIST),
    # the band-pass is designed on the edges as fractions of Nyquist, and
    # a low edge that rounds to 0 or two that round together has no design
    "band_hz": (f"must be [low, high] inside (0, {NYQUIST}), also once "
                f"divided by {NYQUIST}",
                lambda v: 0 < v[0] / NYQUIST < v[1] / NYQUIST < 1),
    "count": _NOT_NEGATIVE, "start_s": _SAMPLES, "stop_s": _SAMPLES,
    "chirp_s": _SAMPLES, "period_s": _SAMPLES,
    "preferred_band": (f"must be a Mel band index in [0, {N_MEL_BANDS})",
                       lambda v: 0 <= v < N_MEL_BANDS),
    "amplitude": (f"must be at most {_FLOAT32_MAX!r} in magnitude, the "
                  "float32 maximum", lambda v: abs(v) <= _FLOAT32_MAX),
    "battery_wh": _NOT_NEGATIVE, "harvest_peak_w": _NOT_NEGATIVE,
    "cost_idle_w": _NOT_NEGATIVE, "cost_listen_w": _NOT_NEGATIVE,
    "cost_emit_w": _NOT_NEGATIVE, "max_items": _POSITIVE,
    "capacity_bytes": _POSITIVE, "tone_frames": _NOT_NEGATIVE,
    "battery_max_wh": _POSITIVE, "long_half_life_s": _POSITIVE,
    "short_half_life_s": _POSITIVE, "range_full_db": _POSITIVE,
    "occupancy_percentile": ("must be in [0, 100]", lambda v: 0 <= v <= 100),
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
        hint = _float_hint(value) if kind is float else ""
        raise ScenarioError(f"{where} must be {_KIND_NAMES[kind]}, "
                            f"not {value!r}{hint}")
    return tuple(map(float, value)) if kind is tuple else kind(value)


def _float_hint(value) -> str:
    """Advice for a number that YAML 1.1 read as a string: it takes a
    float only with a point and a signed exponent, so 1e-5 is a string."""
    try:
        finite = isinstance(value, str) and math.isfinite(float(value))
    except ValueError:
        return ""
    if not finite:
        return ""
    mantissa, e, exponent = value.strip().lower().partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    if exponent[:1] not in ("", "+", "-"):
        exponent = "+" + exponent
    return f"; write it with a point, e.g. {mantissa}{e}{exponent}"


def _checked_fields(raw, model, prefix: str, required=()) -> dict:
    """raw checked against the fields of the dataclass model: each key a
    field, each value of the field's annotated type (null only where the
    annotation takes None) and inside its range, and each required key
    given. An error names the key as prefix + key."""
    types = {f.name: f.type for f in fields(model)}
    _check_keys(raw, types.keys(), prefix)
    _require(raw, required, prefix)
    out = {}
    for key, value in raw.items():
        kind, *none = get_args(types[key]) or (types[key],)
        if value is None and none:
            out[key] = None
            continue
        out[key] = _checked(value, kind, prefix + key)
        rule, ok = _FIELD_RANGES.get(key, (None, None))
        if ok is not None and not ok(out[key]):
            raise ScenarioError(f"{prefix}{key} {rule}")
    return out


def _check_keys(raw, known, prefix: str):
    where = prefix.rstrip(": .")  # the mapping, e.g. "agents[0]: params"
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: must be a mapping")
    for key in raw:
        if key not in known:
            raise ScenarioError(f"{where}: unknown key {key!r}")


def _require(raw: dict, keys, prefix: str):
    for key in keys:
        if raw.get(key) is None:
            raise ScenarioError(f"{prefix}missing required key {key!r}")


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
    prefix = "scenario: "
    scn = Scenario(**{"name": default_name, **_checked_fields(
        raw, Scenario, prefix, required=("seed", "duration_s"))})
    scn.monitors = [_checked(m, tuple, f"{prefix}monitors[{i}]")
                    for i, m in enumerate(scn.monitors)]
    scn.sources = [_source_from_raw(s, i, base_dir)
                   for i, s in enumerate(scn.sources)]
    scn.agents = _roster_from_raw(scn.agents, scn.layout_radius_m)
    check_render_length(scn)
    return scn


def check_render_length(scn: Scenario):
    """Refuse a run whose monitor renders would not fit in a WAV, before
    it runs rather than when finalize writes them."""
    max_ticks = WAV_MAX_SAMPLES // FRAME_HOP
    if scn.monitors and scn.n_ticks > max_ticks:
        raise ScenarioError(
            f"scenario: duration_s must give at most {max_ticks} ticks "
            f"({max_ticks * TICK_SECONDS:.3f} s) in a run with monitors, "
            "the most a monitor's WAV holds")


def _source_from_raw(raw, index: int, base_dir: Path) -> SourceSpec:
    prefix = f"sources[{index}]: "
    checked = _checked_fields(raw, SourceSpec, prefix,
                              required=("kind", "position"))
    kind = checked["kind"]
    if kind not in _SOURCE_KINDS:
        raise ScenarioError(
            f"{prefix}unknown source kind {kind!r} "
            f"(expected one of {sorted(_SOURCE_KINDS)})")
    required, optional, _ = _SOURCE_KINDS[kind]
    stray = sorted(checked.keys() & _KIND_KEYS - {*required, *optional})
    if stray:
        raise ScenarioError(
            f"{prefix}{stray[0]} does not apply to a {kind} source")
    _require(checked, required, prefix)
    spec = SourceSpec(**{"id": f"{kind}_{index:02d}", **checked})
    if spec.channel not in CHANNELS or spec.channel == "cyberphony":
        raise ScenarioError(
            f"{prefix}channel must be biophony, geophony or anthrophony "
            "(cyberphony is reserved for agents)")
    if spec.stop_s is not None and spec.stop_s <= spec.start_s:
        raise ScenarioError(f"{prefix}stop_s must be after start_s")
    if kind == "chirp_train" and not 0 < spec.chirp_s <= spec.period_s:
        raise ScenarioError(f"{prefix}need 0 < chirp_s <= period_s")
    if kind == "wav":
        resolved = (base_dir / spec.path).resolve()
        if not resolved.is_file():
            raise ScenarioError(f"{prefix}wav file not found: {resolved}")
        try:
            read_wav(resolved, target_rate=None)
        except WavFormatError as exc:
            raise ScenarioError(f"{prefix}path: {exc}")
        spec.path = str(resolved)
    return spec


def _roster_from_raw(entries: list, radius_m: float) -> list:
    specs = []
    for i, raw in enumerate(entries):
        prefix = f"agents[{i}]: "
        _check_keys(raw, _AGENT_KEYS, prefix)
        count = _checked(raw.get("count", 1), int, f"{prefix}count")
        if count < 1:
            raise ScenarioError(f"{prefix}count must be >= 1")
        spec = AgentSpec(None, **_checked_fields(
            {k: v for k, v in raw.items() if k != "count"}, AgentSpec,
            prefix, required=("kind",)))
        if spec.kind not in AGENT_KINDS:
            raise ScenarioError(
                f"{prefix}unknown agent kind {spec.kind!r} "
                f"(expected one of {sorted(AGENT_KINDS)})")
        cls = AGENT_KINDS[spec.kind]
        stray = sorted(raw.keys() & _AGENT_KIND_KEYS - set(cls.spec_keys))
        if stray:
            raise ScenarioError(
                f"{prefix}{stray[0]} does not apply to a {spec.kind}")
        if spec.position is not None and count != 1:
            raise ScenarioError(
                f"{prefix}give position only for single agents")
        spec.params = _checked_fields(spec.params, cls.Params,
                                      f"{prefix}params.")
        spec.energy = _checked_fields(spec.energy, EnergyModel,
                                      f"{prefix}energy.")
        specs += [replace(spec, params=dict(spec.params),
                          energy=dict(spec.energy)) for _ in range(count)]

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

class ToneSource:
    """Steady sinusoid, RMS at level_dbfs."""

    def __init__(self, spec: SourceSpec, rng, start: int, stop: int):
        self.spec = spec
        self.amp = 10.0 ** (spec.level_dbfs / 20.0) * np.sqrt(2.0)

    def hop(self, tick: int) -> np.ndarray:
        idx = np.arange(tick * FRAME_HOP, (tick + 1) * FRAME_HOP)
        return self.amp * np.sin(2.0 * np.pi * self.spec.freq_hz * idx
                                 / SAMPLE_RATE)


class BandNoiseSource:
    """Streaming band-limited Gaussian noise.

    The in-band RMS is calibrated to level_dbfs by filtering a one
    second probe from the same generator at construction, so the
    calibration is part of the deterministic stream.
    """

    def __init__(self, spec: SourceSpec, rng, start: int, stop: int):
        self.rng = rng
        self.b, self.a = butter_bandpass_coeffs(*spec.band_hz)
        probe = rng.standard_normal(SAMPLE_RATE)
        probe_out = linear_filter(self.b, self.a, probe, -1)
        measured = float(np.sqrt(np.mean(np.square(probe_out))))
        target = 10.0 ** (spec.level_dbfs / 20.0)
        self.scale = target / measured if measured > 0 else 0.0
        self.zi = np.zeros(max(len(self.a), len(self.b)) - 1)

    def hop(self, tick: int) -> np.ndarray:
        x = self.rng.standard_normal(FRAME_HOP)
        y, self.zi = linear_filter(self.b, self.a, x, -1, self.zi)
        return y * self.scale


class ChirpTrainSource:
    """A train of broadband calls built as a stack of band-center sines.

    Every Mel band receives a deterministic partial, so the call covers
    the whole analysis range at a predictable per-band level (Gaussian
    noise would leave random bands underpowered frame to frame). Phases
    are drawn only for the calls that start before stop and last a sample,
    each call's when a hop first needs them, and dropped once the call
    has ended. Calls draw in call order, so their phases are the rows of
    one (calls, bands) draw.
    """

    def __init__(self, spec: SourceSpec, rng, start: int, stop: int):
        self.freqs = default_filterbank().band_centers_hz.copy()
        n = len(self.freqs)
        self.amp = 10.0 ** (spec.level_dbfs / 20.0) * np.sqrt(2.0 / n)
        self.start = start
        self.period = int(round(spec.period_s * SAMPLE_RATE))
        self.width = int(round(spec.chirp_s * SAMPLE_RATE))
        self.calls = (min(spec.count, -(-max(0, stop - start) // self.period))
                      if self.width else 0)
        self.rng = rng
        self.phases = {}  # call -> its phases, while the call may sound
        self.drawn = 0
        self._omegas = 2.0 * np.pi * self.freqs
        self._partials = np.empty(n * FRAME_HOP)  # one call's, in one buffer

    def hop(self, tick: int) -> np.ndarray:
        i0 = tick * FRAME_HOP
        out = np.zeros(FRAME_HOP)
        if not self.calls:
            return out
        # the calls k with start + k*period in (i0 - width, i0 + FRAME_HOP)
        first = max(0, (i0 - self.start - self.width) // self.period + 1)
        last = min(self.calls,
                   -(-(i0 + FRAME_HOP - self.start) // self.period))
        for k in range(self.drawn, last):
            self.phases[k] = self.rng.uniform(0.0, 2.0 * np.pi,
                                              len(self.freqs))
        self.drawn = max(self.drawn, last)
        for k in [k for k in self.phases if k < first]:
            del self.phases[k]
        for k in range(first, last):
            lo = self.start + k * self.period
            idx = np.arange(max(i0, lo), min(i0 + FRAME_HOP, lo + self.width))
            partials = self._partials[:len(self.freqs) * len(idx)].reshape(
                len(self.freqs), len(idx))
            np.multiply(self._omegas[:, None], idx / SAMPLE_RATE,
                        out=partials)
            partials += self.phases[k][:, None]
            np.sin(partials, out=partials)
            call = partials.sum(axis=0)
            call *= self.amp
            out[idx - i0] += call
        return out


class WavSource:
    """Plays a WAV file (resampled to the bus rate) from start_s."""

    def __init__(self, spec: SourceSpec, rng, start: int, stop: int):
        samples, _ = read_wav(spec.path)
        self.samples = samples * spec.gain
        self.start = start

    def hop(self, tick: int) -> np.ndarray:
        i0 = tick * FRAME_HOP - self.start
        out = np.zeros(FRAME_HOP)
        lo = max(i0, 0)
        hi = min(i0 + FRAME_HOP, len(self.samples))
        if lo < hi:
            out[lo - i0:hi - i0] = self.samples[lo:hi]
        return out


# each source kind's keys beyond those every kind takes, (required,
# optional), and its class; a kind refuses the keys that only others take
_SOURCE_KINDS = {
    "tone": (("freq_hz",), ("level_dbfs",), ToneSource),
    "band_noise": (("band_hz",), ("level_dbfs",), BandNoiseSource),
    "chirp_train": (("chirp_s", "period_s", "count"), ("level_dbfs",),
                    ChirpTrainSource),
    "wav": (("path",), ("gain",), WavSource),
}
_KIND_KEYS = {key for required, optional, _ in _SOURCE_KINDS.values()
              for key in required + optional}


# --- the bus -------------------------------------------------------------------

def build_gains(source_positions, listener_positions) -> np.ndarray:
    """(n_sources, n_listeners) linear gain matrix from pair distances."""
    src = np.asarray(source_positions, dtype=float).reshape(-1, 2)
    lst = np.asarray(listener_positions, dtype=float).reshape(-1, 2)
    d = np.sqrt(np.sum((src[:, None, :] - lst[None, :, :]) ** 2, axis=2))
    return 1.0 / (1.0 + d / D_REF_M)


class Bus:
    """The one acoustic bus of a run, and of its replay.

    Rows of `hops` are the scripted sources, the noise rows (`noise_rows`),
    then the agents' emission ports (`agent_rows`); listeners are the
    agents, the occupation point, then the monitors. mix(tick) writes the
    source rows, each gated to its [start_s, stop_s) window to the sample,
    and the noise rows, mixes every listener's hop into `mixed`, keeps the
    monitors' hops and adds the Mel energies of each channel's pre-clip
    sub-mix at the occupation point to `occupation`; hear() then gives the
    agents what their microphones took in; deal() writes each agent's next
    hop from its EmissionQueue, heard from the next tick on. `active` marks
    the agent rows that hold sound, and the gain product reads only those,
    the source rows and the noise rows. write_renders() writes the
    occupation and the monitor renders.

    The noise floor is NOISE_ROWS rows of fresh unit normals per tick, none
    without a floor. Each listener hears them through its own fixed weight
    row, drawn once from the bus generator and scaled to norm rms, so each
    hears white Gaussian noise at the floor's RMS, partly correlated with
    every other listener's.
    """

    def __init__(self, scn: Scenario, bus_rng, source_rngs):
        n_ticks, n_agents = scn.n_ticks, len(scn.agents)
        # each source's window in samples, cut at the end of the run
        end = n_ticks * FRAME_HOP
        self._windows = [(int(round(spec.start_s * SAMPLE_RATE)),
                          end if spec.stop_s is None
                          else min(end, int(round(spec.stop_s * SAMPLE_RATE))))
                         for spec in scn.sources]
        self._sources = [_SOURCE_KINDS[spec.kind][2](spec, rng, *window)
                         for spec, rng, window in zip(
                             scn.sources, source_rngs, self._windows)]
        agent_pos = [a.position for a in scn.agents]
        listener_pos = agent_pos + [scn.occupation_position] + \
            list(scn.monitors)
        n_sources = len(self._sources)
        gains = build_gains([s.position for s in scn.sources] + agent_pos,
                            listener_pos)
        weights = np.zeros((len(listener_pos), 0))
        if scn.noise_floor_dbfs is not None:
            weights = bus_rng.standard_normal((len(listener_pos), NOISE_ROWS))
            weights *= (10.0 ** (scn.noise_floor_dbfs / 20.0)
                        / np.linalg.norm(weights, axis=1, keepdims=True))
        self.gains = np.concatenate(
            [gains[:n_sources], weights.T, gains[n_sources:]])
        self._gains_t = self.gains.T.copy()
        self._rng = bus_rng
        self.noise_rows = range(n_sources, n_sources + weights.shape[1])
        self.hops = np.zeros((len(self.gains), FRAME_HOP))
        self.agent_rows = self.hops[self.noise_rows.stop:]
        self.active = [False] * n_agents
        # the rows the product reads (None: stale) and their gain columns
        self._rows = self._gains_act = None
        self.mixed = np.empty((len(listener_pos), FRAME_HOP))
        self._monitors = slice(n_agents + 1, None)
        self._renders = np.zeros((len(scn.monitors), n_ticks * FRAME_HOP),
                                 dtype=np.float32)
        # each channel's rows, the noise floor in geophony and the agents in
        # cyberphony, and their gains at the occupation point
        rows = {c: [i for i, s in enumerate(scn.sources) if s.channel == c]
                for c in CHANNELS}
        rows["geophony"] += self.noise_rows
        rows["cyberphony"] += range(self.noise_rows.stop, len(self.hops))
        self._chan_mix = [(np.array(rows[c], dtype=np.intp),
                           self.gains[rows[c], n_agents]) for c in CHANNELS]
        self._chan_rings = np.zeros((len(CHANNELS), FRAME_SIZE))
        n_windows = -(-n_ticks // OCCUPATION_WINDOW_TICKS)
        self.occupation = np.zeros((len(CHANNELS), n_windows, N_MEL_BANDS))
        # the agents hear in float32: a float64 high-pass rounded into two
        # frame buffers used in turn, so last tick's stays whole for pre-roll
        self._highpass = HighpassFilter(n_agents)
        self._frames = tuple(np.zeros((2, n_agents, FRAME_SIZE), np.float32))

    def mix(self, tick: int):
        """Mix one tick into `mixed`, and add its occupation."""
        i0 = tick * FRAME_HOP
        for i, (s, (start, stop)) in enumerate(zip(self._sources,
                                                    self._windows)):
            lo, hi = max(start - i0, 0), min(stop - i0, FRAME_HOP)
            self.hops[i] = s.hop(tick) if lo < hi else 0.0
            if lo or hi < FRAME_HOP:
                self.hops[i, :lo] = 0.0
                self.hops[i, hi:] = 0.0
        self.hops[self.noise_rows] = self._rng.standard_normal(
            (len(self.noise_rows), FRAME_HOP))
        np.matmul(*self._sounding(), out=self.mixed)
        np.clip(self.mixed, -1.0, 1.0, out=self.mixed)
        self._renders[:, tick * FRAME_HOP:(tick + 1) * FRAME_HOP] = \
            self.mixed[self._monitors]
        self._chan_rings[:, :FRAME_HOP] = self._chan_rings[:, FRAME_HOP:]
        for c, (rows, gains) in enumerate(self._chan_mix):
            self._chan_rings[c, FRAME_HOP:] = gains @ self.hops[rows]
        self.occupation[:, tick // OCCUPATION_WINDOW_TICKS] += \
            default_filterbank().apply(fft_magnitude(self._chan_rings))

    def hear(self) -> tuple:
        """The agents' frames after mix(): this tick's, last tick's, and
        this tick's spectra and Mel energies, one row per agent."""
        frames, prev = self._frames = self._frames[::-1]
        frames[:, :FRAME_HOP] = prev[:, FRAME_HOP:]
        frames[:, FRAME_HOP:] = self._highpass.process(
            self.mixed[:len(frames)])
        mags = fft_magnitude(frames)
        return frames, prev, mags, default_filterbank().apply(mags)

    def deal(self, queues) -> np.ndarray:
        """Deal one hop from each agent's queue into its row; returns the
        mask of the agents whose queue sent one. An idle queue, or an
        all-zero hop (a clip can open on recorded silence, and an empty
        one is all padding), silences its row, which is zeroed once; the
        silent hop still counts as sent."""
        hops = [queue.next_hop() for queue in queues]
        for j, hop in enumerate(hops):
            if hop is not None and hop.any():
                self.agent_rows[j] = hop
                if not self.active[j]:
                    self.active[j], self._rows = True, None
            elif self.active[j]:
                self.agent_rows[j] = 0.0
                self.active[j], self._rows = False, None
        return np.array([hop is not None for hop in hops], dtype=bool)

    def _sounding(self) -> tuple:
        """The gain product's factors over the source, noise and active
        rows.

        Silent agent rows are zero, and leaving them out changes no byte
        of the product with two or more listeners. With one listener numpy
        takes the gemv path, where leaving rows out can change the last
        bit; but that bus has no agents, so the product reads every row.
        """
        if self._rows is None:
            first = self.noise_rows.stop   # the first agent row
            self._rows = np.array(
                [*range(first),
                 *(first + j for j, on in enumerate(self.active) if on)],
                dtype=np.intp)
            # np.take keeps the columns row-major, the layout the product
            # has always read; self._gains_t[:, rows] would be column-major
            self._gains_act = np.take(self._gains_t, self._rows, axis=1)
        return self._gains_act, self.hops[self._rows]

    def write_renders(self, out_dir: Path) -> list:
        """Write the occupation and one WAV per monitor; returns names."""
        np.save(out_dir / OCCUPATION_NPY, self.occupation)
        (out_dir / OCCUPATION_META).write_text(json.dumps({
            "channels": list(CHANNELS),
            "window_ticks": OCCUPATION_WINDOW_TICKS,
            "window_s": OCCUPATION_WINDOW_TICKS * FRAME_HOP / SAMPLE_RATE,
            "n_windows": self.occupation.shape[1],
            "n_bands": N_MEL_BANDS,
        }, sort_keys=True, indent=2))
        names = [monitor_name(m) for m in range(len(self._renders))]
        for name, samples in zip(names, self._renders):
            write_wav(out_dir / name, samples)
        return [OCCUPATION_NPY, OCCUPATION_META, *names]


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
        b64 = None
        if pcm is not None:
            if self.log_audio:
                # base64 needs no JSON escaping: it goes in after dumps, as
                # the value of the last key of the last object
                b64 = base64.b64encode(np.ascontiguousarray(pcm, np.float32))
                payload["pcm_b64"] = ""
            else:
                payload["pcm_omitted"] = True
        record = {"tick": tick, "agent_id": agent_id, "kind": kind,
                  "event": event["event"], "payload": payload}
        line = json.dumps(record, separators=(",", ":"))
        if b64 is None:
            self._fh.write(line)
        else:
            self._fh.write(line[:-3])
            self._fh.write(b64.decode("ascii"))
            self._fh.write(line[-3:])
        self._fh.write("\n")
        self.count += 1

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


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
    """Run a resolved scenario and write the full artifact set to out_dir.

    Artifacts: the resolved scenario, the event log, the occupation array
    and its metadata, one WAV per monitor, and a manifest of their sha256
    (see rundir). out_dir must be absent, empty or a completed run; the
    run is staged beside it and replaces it whole once complete.
    """
    run = RunWriter(out_dir, scn.name, scn.seed, scn.n_ticks)

    bus_rng, source_rngs, agent_rngs = _spawn_rngs(scn)
    agents = [AGENT_KINDS[s.kind](s, rng)
              for s, rng in zip(scn.agents, agent_rngs)]
    n_agents, n_ticks = len(agents), scn.n_ticks
    hearing = Hearing(agents)
    queues = [agent.queue for agent in agents]
    bus = Bus(scn, bus_rng, source_rngs)
    with run, EventWriter(run.path(EVENTS_FILE), scn.log_audio) as writer:
        resolved = run.path(SCENARIO_FILE)
        resolved.write_text(json.dumps(scn.to_dict(), sort_keys=True,
                                       indent=2))
        clock = SimClock(0, scn.day_length_s, scn.night_window)
        writer.write(0, None, "scheduler", {
            "event": "boot", "name": scn.name, "seed": scn.seed,
            "n_ticks": n_ticks, "n_agents": n_agents,
            "n_sources": len(scn.sources),
            "config_sha256": file_sha256(resolved)})
        last_phase = None

        for tick in range(n_ticks):
            night = clock.is_night
            if night is not last_phase:
                writer.write(tick, None, "clock",
                             {"event": "phase", "night": night,
                              "time_s": clock.time_s})
                last_phase = night

            bus.mix(tick)
            hearing.listen(*bus.hear(), clock)
            for agent in agents:
                for event in agent.step(hearing, clock):
                    writer.write(tick, agent.agent_id, agent.kind, event)
            sent = bus.deal(queues)
            energy_step(hearing, daylight(clock), sent)
            hearing.veto_echo(sent, tick)
            clock.advance()

        for j, agent in enumerate(agents):
            writer.write(n_ticks, agent.agent_id, agent.kind,
                         {"event": "summary", **hearing.energy_summary(j),
                          **agent.summary()})
        writer.write(n_ticks, None, "scheduler",
                     {"event": "end", "n_ticks": n_ticks})
        bus.write_renders(run.stage)
    return RunSummary(run.out_dir, n_ticks, writer.count, run.artifacts)


# --- replay ----------------------------------------------------------------------

def _play_clip(pcm: np.ndarray):
    return lambda queue: queue.start(pcm)


def _sing_note(payload: dict):
    """Start a queue on a logged note, synthesized as it plays, as the
    composer's own queue was."""
    n = payload["n_samples"]
    render = partial(synth_tone, payload["freq_hz"], payload["amp"], n,
                     payload["attack_samples"], payload["decay_samples"],
                     SAMPLE_RATE)
    return lambda queue: queue.sing(n, render)


def _emissions_from_log(events) -> dict:
    """(tick, agent_id) -> a function that starts that emission on a queue.

    A disruptor's clip is logged in its disrupt_start. A collector's clip
    is logged once, in the sample_decision that kept it, and each
    playback_start names that decision by its captured_at: a collector
    records one sound at a time, so (agent_id, captured_at) picks out one.
    Refuses a log whose emissions lack their audio before decoding or
    synthesizing anything, and decodes a kept clip only when a playback
    plays it. A note is synthesized only as its queue deals it.
    """
    kept = {(record["agent_id"], record["payload"]["captured_at"]):
            record["payload"]
            for record in events if record["event"] == "sample_decision"
            and record["payload"]["verdict"] != Verdict.REJECT.value}
    clips = {}
    for record in events:
        payload = record["payload"]
        if record["event"] == "playback_start":
            payload = kept.get((record["agent_id"], payload["captured_at"]))
            if payload is None:
                raise ReplayError(
                    f"playback_start at tick {record['tick']} by "
                    f"{record['agent_id']} names no logged sample")
        elif record["event"] != "disrupt_start":
            continue
        clips[record["tick"], record["agent_id"]] = payload
    if any(payload.get("pcm_omitted") for payload in clips.values()):
        raise ReplayError(
            "log has pcm_omitted entries (run used log_audio: "
            "false); renders cannot be reproduced")
    emissions = {key: _play_clip(np.frombuffer(
                     base64.b64decode(payload["pcm_b64"]), dtype=np.float32))
                 for key, payload in clips.items()}
    for record in events:
        if record["event"] == "emission_start":
            emissions[record["tick"], record["agent_id"]] = _sing_note(
                record["payload"])
    return emissions


def replay_run(run_dir) -> dict:
    """Rebuild what the Bus wrote, the occupation and the monitor WAVs,
    from the log alone; returns name -> sha256.

    Replay mixes on the same Bus as the run, with the same source streams
    and bus noise (same seeds). Each agent row is dealt from an
    EmissionQueue that starts the clip logged at (tick, agent), exactly as
    the live agent's own queue did. Output files land in the run's replay
    directory, and a file whose sha256 differs from the manifest's raises
    ReplayError naming it. The scenario and the log are read only once
    their checksums match the manifest's.
    """
    run = RunDir(run_dir)
    scn = Scenario.from_dict(run.scenario)
    emissions = _emissions_from_log(load_run_events(run))
    bus_rng, source_rngs, _ = _spawn_rngs(scn)
    agent_ids = [a.id for a in scn.agents]
    queues = [EmissionQueue() for _ in agent_ids]

    bus = Bus(scn, bus_rng, source_rngs)
    for tick in range(scn.n_ticks):
        bus.mix(tick)
        for agent_id, queue in zip(agent_ids, queues):
            start = emissions.get((tick, agent_id))
            if start is not None:
                start(queue)
        bus.deal(queues)

    replay_dir = run.path / REPLAY_DIR
    replay_dir.mkdir(exist_ok=True)
    replayed = {name: file_sha256(replay_dir / name)
                for name in bus.write_renders(replay_dir)}
    diverged = sorted(name for name, sha in replayed.items()
                      if run.manifest["artifacts"].get(name) != sha)
    if diverged:
        raise ReplayError("replay diverged from the original render: "
                          + ", ".join(diverged))
    return replayed
