"""One benchmark session in a fresh interpreter.

    python3 perfbench/session.py SPEC.json SPAWN_NS

SPEC names the program's source directory, the scenario, the run
directory, whether the session is traced, whether it is a setup probe
and how many times to call analyze_run;
SPAWN_NS is the monotonic time at which the parent started this
interpreter. The session calls the library's public functions in the
order a user would (load_scenario, run_scenario, analyze_run,
replay_run), times each, and writes its figures as JSON to SPEC's
`result` path. A setup probe stops at the first tick. Outputs are checked
by the parent, not here.

The one hook in a timed session is a subclass of the scheduler's clock:
its construction marks the start of the first tick and each advance() the
end of a tick, which costs one clock read per tick.
"""

import json
import os
import resource
import sys
import time


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Probe:
    def __init__(self):
        self.first_tick_ns = None
        self.cpu0 = None
        self.tick_ends = []
        self.cpu1 = None

    def start(self):
        self.cpu0 = time.process_time()
        self.first_tick_ns = now_ns()

    def tick(self):
        self.tick_ends.append(now_ns())
        self.cpu1 = time.process_time()


class SetupDone(BaseException):
    """Raised at the first tick to end a setup probe.

    A BaseException, so no `except Exception` on the way out catches it.
    """


def hook_clock(environment, probe, tracer, setup_only):
    base = environment.SimClock

    class TimedClock(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            probe.start()
            if setup_only:
                raise SetupDone
            if tracer is not None:
                tracer.clock_created()

        def advance(self):
            super().advance()
            probe.tick()
            if tracer is not None:
                tracer.clock_advanced(self.tick)

    environment.SimClock = TimedClock


def call(calls: list, name: str, fn):
    """Run one operation; record its wall time and any exception."""
    t0 = time.perf_counter()
    try:
        value = fn()
        calls.append({"op": name, "ok": True, "s": time.perf_counter() - t0})
        return value
    except Exception as exc:  # a failed operation is counted, not fatal
        calls.append({"op": name, "ok": False, "s": time.perf_counter() - t0,
                      "error": f"{type(exc).__name__}: {exc}"})
        return None


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from holonsim import environment, telemetry

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    probe = Probe()
    hook_clock(environment, probe, tracer, spec["setup_only"])
    run_dir = spec["run_dir"]

    calls = []
    scn = call(calls, "load_scenario",
               lambda: environment.load_scenario(spec["scenario"]))
    if spec["setup_only"]:
        try:
            call(calls, "setup",
                 lambda: environment.run_scenario(scn, run_dir))
        except SetupDone:
            calls.append({"op": "setup", "ok": True})
    elif scn is not None:
        call(calls, "run_scenario",
             lambda: environment.run_scenario(scn, run_dir))
    if calls[-1]["op"] == "run_scenario" and calls[-1]["ok"]:
        # each analysis rewrites the same files
        for _ in range(spec["repeats"]):
            call(calls, "analyze_run", lambda: telemetry.analyze_run(run_dir))
        call(calls, "replay_run", lambda: environment.replay_run(run_dir))

    starts = [probe.first_tick_ns] + probe.tick_ends[:-1]
    result = {
        "calls": calls,
        "n_ticks": None if scn is None else scn.n_ticks,
        "duration_s": None if scn is None else scn.duration_s,
        "setup_s": (None if probe.first_tick_ns is None
                    else (probe.first_tick_ns - int(sys.argv[2])) / 1e9),
        "tick_ns": [end - start for start, end in
                    zip(starts, probe.tick_ends)],
        "loop_cpu_s": (None if probe.cpu1 is None
                       else probe.cpu1 - probe.cpu0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        log = os.path.join(run_dir, environment.EVENTS_FILE)
        result["trace"] = tracer.metrics(
            os.path.getsize(log) if os.path.isfile(log) else 0)
        result["trace_tick_ns"] = tracer.tick_ns
        result["trace_in_tick_self_ns"] = tracer.in_tick_self_ns
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
