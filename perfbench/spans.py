"""Per-layer tracing of a session, from outside the program.

install() replaces the public callables of each holonsim module with
wrappers that open a span around the call. A span's self time is its
duration minus the spans it encloses, so the self times of the spans in
one tick add up to that tick's duration. Each tick is a root span whose
own self time, `environment.tick_self`, is the scheduler work no wrapped
call covers: gain matmul, noise, clip, ring shifts and render appends.

Wrappers patch the name the caller looks up: a function imported by name
into environment or telemetry is patched in that module's namespace.
Spans are kept per thread, because analyze_run renders spectrograms on a
thread pool; self times from worker threads are summed, so they measure
busy time, not wall time.
"""

import os
import threading
import time
from collections import defaultdict

SAMPLE_RATE = 32000
TICK = "environment.tick_self"
BUILD = "environment.build"
FINALIZE = "environment.finalize"
EMISSION_EVENTS = ("emission_start", "playback_start", "disrupt_start")


class Tracer:
    """Span stacks per thread, self times and counters per layer."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(float)
        self.tick_ns = []
        self.in_tick_self_ns = 0
        self.n_ticks = 0
        self.hearing = False   # set once the tick's high-pass has run
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def push(self, key: str):
        self.stack().append([key, time.perf_counter_ns(), 0])

    def pop(self) -> int:
        stack = self.stack()
        in_tick = stack[0][0] == TICK
        key, start, child = stack.pop()
        duration = time.perf_counter_ns() - start
        with self._lock:
            self.self_ns[key] += duration - child
            if in_tick:
                self.in_tick_self_ns += duration - child
        if stack:
            stack[-1][2] += duration
        return duration

    def count(self, key: str, amount: float = 1.0):
        with self._lock:
            self.counts[key] += amount

    def at_tick_top(self) -> bool:
        stack = self.stack()
        return len(stack) == 1 and stack[0][0] == TICK

    # scheduler phases, driven by the clock hook and the run wrapper

    def clock_created(self):
        self.pop()                       # build ends at the first tick
        self._open_tick()

    def clock_advanced(self, tick: int):
        self.tick_ns.append(self.pop())
        if tick < self.n_ticks:
            self._open_tick()
        else:
            self.push(FINALIZE)

    def _open_tick(self):
        self.hearing = False
        self.push(TICK)

    def metrics(self, event_log_bytes: int) -> dict:
        """Per-layer figures in their reporting units."""
        ms = defaultdict(float, {key: ns / 1e6
                                 for key, ns in self.self_ns.items()})
        c = self.counts
        out = {
            "environment.load_scenario_ms": ms["environment.load_scenario"],
            "environment.build_ms": ms[BUILD],
            "environment.sources_ms": ms["environment.sources"],
            "environment.source_hops": c["environment.source_hops"],
            "environment.occupation_ms": ms["environment.occupation"],
            "environment.tick_self_ms": ms[TICK],
            "environment.event_write_ms": ms["environment.event_write"],
            "environment.events": c["environment.events"],
            "environment.event_log_mb": event_log_bytes / 1e6,
            "environment.finalize_ms": ms[FINALIZE],
            "environment.replay_load_ms": ms["environment.replay_load"],
            "environment.replay_mix_ms": ms["environment.replay_mix"],
            "agents.hearing_ms": ms["agents.hearing"],
            "agents.energy_step_ms": ms["agents.energy_step"],
            "agents.synth_tone_ms": ms["agents.synth_tone"],
            "agents.synth_tone_calls": c["agents.synth_tone_calls"],
            "agents.emissions": c["agents.emissions"],
            "features.onset_ms": ms["features.onset"],
            "features.onset_updates": c["features.onset_updates"],
            "features.onsets_fired": c["features.onsets_fired"],
            "features.onset_fire_ratio": _ratio(c["features.onsets_fired"],
                                                c["features.onset_armed"]),
            "features.record_feed_ms": ms["features.record_feed"],
            "features.recordings": c["features.recordings"],
            "features.analyze_ms": ms["features.analyze"],
            "features.analyzed_audio_s": c["features.analyzed_audio_s"],
            "features.novelty_ms": ms["features.novelty"],
            "features.decisions": c["features.decisions"],
            "features.accept_ratio": _ratio(c["features.accepted"],
                                            c["features.decisions"]),
            "dsp_transforms.transform_ms": ms["dsp_transforms.transform"],
            "dsp_transforms.transforms": c["dsp_transforms.transforms"],
            "dsp_transforms.out_audio_s": c["dsp_transforms.out_audio_s"],
            "audio_core.write_wav_ms": ms["audio_core.write_wav"],
            "audio_core.wav_mb": c["audio_core.wav_bytes"] / 1e6,
            "telemetry.load_events_ms": ms["telemetry.load_events"],
            "telemetry.occupation_metrics_ms":
                ms["telemetry.occupation_metrics"],
            "telemetry.spectrogram_ms": ms["telemetry.spectrogram"],
            "telemetry.csv_ms": ms["telemetry.csv"],
            "telemetry.pgm_ms": ms["telemetry.pgm"],
            "telemetry.csv_mb": c["telemetry.csv_bytes"] / 1e6,
        }
        for kind in ("composer", "collector", "disruptor"):
            out[f"agents.{kind}.step_ms"] = ms[f"agents.{kind}.step"]
            out[f"agents.{kind}.steps"] = c[f"agents.{kind}.steps"]
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _wrap(tracer: Tracer, owner, name: str, key: str, after=None,
          tick_top_only: bool = False):
    """Replace owner.name with a spanned call; after(result, args) counts.

    tick_top_only calls are spanned only when made by the scheduler itself
    inside a tick; elsewhere (inside another span, in replay or in
    analyze) their time stays with the enclosing span.
    """
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if tick_top_only and not tracer.at_tick_top():
            return original(*args, **kwargs)
        tracer.push(key() if callable(key) else key)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.pop()
        if after is not None:
            after(result, args, kwargs)
        return result

    setattr(owner, name, wrapper)


def install(tracer: Tracer):
    """Wrap the public callables of every holonsim module in spans."""
    from holonsim import agents, audio_core, dsp_transforms, environment
    from holonsim import features, telemetry

    t = tracer

    def heard(*_):
        t.hearing = True

    def bus_fft_key():
        return "agents.hearing" if t.hearing else "environment.occupation"

    # environment: scenario, sources, bus, log, replay
    _wrap(t, environment, "load_scenario", "environment.load_scenario")
    for cls in (environment.ToneSource, environment.BandNoiseSource,
                environment.ChirpTrainSource, environment.WavSource):
        _wrap(t, cls, "hop", "environment.sources", tick_top_only=True,
              after=lambda *_: t.count("environment.source_hops"))

    def on_event(_result, args, _kwargs):
        t.count("environment.events")
        if args[4]["event"] in EMISSION_EVENTS:
            t.count("agents.emissions")

    _wrap(t, environment.EventWriter, "write", "environment.event_write",
          after=on_event)
    _wrap(t, environment, "load_run_events", "environment.replay_load")
    _wrap(t, environment, "replay_run", "environment.replay_mix")

    # hearing: the scheduler high-passes, then takes FFT and Mel of every
    # agent's ring; FFT and Mel before the high-pass are occupation analysis
    _wrap(t, audio_core.HighpassFilter, "process", "agents.hearing",
          tick_top_only=True, after=heard)
    _wrap(t, environment, "fft_magnitude", bus_fft_key, tick_top_only=True)
    _wrap(t, audio_core.MelFilterbank, "apply", bus_fft_key,
          tick_top_only=True)

    # agents
    for kind, cls in agents.AGENT_KINDS.items():
        _wrap(t, cls, "step", f"agents.{kind}.step",
              after=lambda *_, k=kind: t.count(f"agents.{k}.steps"))
    _wrap(t, environment, "energy_step", "agents.energy_step")
    for module in (agents, environment):
        _wrap(t, module, "synth_tone", "agents.synth_tone",
              after=lambda *_: t.count("agents.synth_tone_calls"))

    # features
    def on_onset(fired, _args, kwargs):
        t.count("features.onset_updates")
        if kwargs.get("armed", True):
            t.count("features.onset_armed")
        if fired:
            t.count("features.onsets_fired")

    _wrap(t, features.OnsetDetector, "update", "features.onset",
          after=on_onset)
    def on_feed(sample, *_):
        if sample is not None:
            t.count("features.recordings")

    _wrap(t, features.RecordingSession, "feed", "features.record_feed",
          after=on_feed)
    _wrap(t, features, "analyze", "features.analyze",
          after=lambda _r, args, _k: t.count("features.analyzed_audio_s",
                                             len(args[0]) / SAMPLE_RATE))

    def on_decision(decision, *_):
        t.count("features.decisions")
        if decision.accepted:
            t.count("features.accepted")

    _wrap(t, features, "novelty_accept", "features.novelty",
          after=on_decision)

    # dsp_transforms
    def on_transform(out, *_):
        t.count("dsp_transforms.transforms")
        t.count("dsp_transforms.out_audio_s", len(out) / SAMPLE_RATE)

    _wrap(t, dsp_transforms, "apply_transform", "dsp_transforms.transform",
          after=on_transform)

    # audio_core: renders written by run and by replay
    _wrap(t, environment, "write_wav", "audio_core.write_wav",
          after=lambda _r, args, _k: t.count("audio_core.wav_bytes",
                                             os.path.getsize(args[0])))

    # telemetry
    _wrap(t, telemetry, "load_run_events", "telemetry.load_events")
    _wrap(t, telemetry, "occupation_metrics", "telemetry.occupation_metrics")
    _wrap(t, telemetry, "save_spectrogram", "telemetry.spectrogram")
    _wrap(t, telemetry, "save_spectrogram_csv", "telemetry.csv",
          after=lambda _r, args, _k: t.count("telemetry.csv_bytes",
                                             os.path.getsize(args[0])))
    _wrap(t, telemetry, "save_spectrogram_pgm", "telemetry.pgm")

    # run_scenario: build until the clock exists, then ticks, then finalize
    original_run = environment.run_scenario

    def run_scenario(scn, out_dir):
        t.n_ticks = scn.n_ticks
        t.push(BUILD)
        try:
            return original_run(scn, out_dir)
        finally:
            while t.stack():
                t.pop()

    environment.run_scenario = run_scenario
