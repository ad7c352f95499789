"""holonsim benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload roster|dock --seed N --seconds S \
        --trace 0|1

Run from the root of a source checkout; the program is imported from
its `src/` directory. The benchmark writes the workload's inputs from
the seed (on `dock`, three scenarios: see workloads.scenario_seeds), then
runs whole sessions of the library's public calls, each
in a fresh interpreter: load_scenario, run_scenario, analyze_run and
replay_run. After each session it checks every output (checks.py) and
charges a failed check to the call that wrote the output. The last line
of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`, the end-to-end metrics with --trace 0 and the per-layer
metrics of the traced sessions (spans.py) with --trace 1.

--seconds buys whole sessions at a nominal session length measured on a
2-core machine, never fewer than MIN_SESSIONS nor than one more than
the run's scenarios, so every run of a workload does the same work
however fast the program is. `artifacts_mb` is the mean over the run's
scenarios. An untraced run adds interpreters that stop at the first
tick until it has SETUP_SAMPLES set-ups, of which `setup_s` is the
median.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SESSION_S = {"roster": 22.0, "dock": 13.0}
# every tick is timed in at least three sessions: see tick_times()
MIN_SESSIONS = 3
# set-ups per untraced run: its sessions', topped up by setup probes
SETUP_SAMPLES = 4
# analyze_run calls per session. Roster's take a quarter of a second and
# vary by 10 to 15 % from call to call, so their median is taken over many.
REPEATS = {"roster": 9, "dock": 1}
SESSION_TIMEOUT_S = 150
# One BLAS thread. With the default two on this 2-core class of machine,
# ticks wait on the second thread whenever it is descheduled, and the slow
# tail then follows the machine's other load rather than the program.
SESSION_ENV = {"OPENBLAS_NUM_THREADS": "1"}


class SessionCrash(RuntimeError):
    """The session interpreter died without reporting its figures."""


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_session(work: Path, scenario_path: Path, index: int, trace: bool,
                repeats: int = 1, setup_only: bool = False) -> dict:
    session_dir = work / f"{'probe' if setup_only else 'session'}{index}"
    session_dir.mkdir()
    spec = {"src": str(ROOT / "src"), "scenario": str(scenario_path),
            "run_dir": str(session_dir / "run"), "trace": trace,
            "setup_only": setup_only, "repeats": repeats,
            "result": str(session_dir / "result.json")}
    spec_path = session_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "session.py"), str(spec_path),
         str(now_ns())], env={**os.environ, **SESSION_ENV},
        stdout=sys.stderr, timeout=SESSION_TIMEOUT_S)
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.is_file():
        raise SessionCrash(f"session {index} exited {proc.returncode} "
                           "without a result")
    return json.loads(result_path.read_text())


def session_plan(repeats: int) -> list:
    """The calls of one session, in order."""
    return (["load_scenario", "run_scenario"] + ["analyze_run"] * repeats
            + ["replay_run"])


def check_session(result: dict, run_dir: Path, scenario: dict,
                  scenario_path: Path, seed: int, repeats: int) -> list:
    """(operation, failure messages) for each planned call of a session.

    A repeated analysis rewrites the same outputs, so output checks are
    charged to the last call of each operation.
    """
    plan = session_plan(repeats)
    calls = result["calls"]
    errors = [[] for _ in plan]
    for i, op in enumerate(plan):
        if i >= len(calls):
            errors[i].append("not attempted: an earlier call failed")
        elif not calls[i]["ok"] and op != "replay_run":
            errors[i].append(calls[i]["error"])
    if len(calls) < len(plan):
        return list(zip(plan, errors))
    last = {op: i for i, op in enumerate(plan)}
    errors[last["load_scenario"]] += checks.check_resolved(
        run_dir, scenario, scenario_path)
    try:
        events = checks.load_events(run_dir)
    except (OSError, ValueError) as exc:
        errors[last["run_scenario"]].append(f"events.jsonl unreadable: {exc}")
        return list(zip(plan, errors))
    errors[last["run_scenario"]] += checks.check_run(run_dir, scenario, events)
    if calls[last["analyze_run"]]["ok"]:
        errors[last["analyze_run"]] += checks.check_analysis(
            run_dir, scenario, events, seed)
    errors[last["replay_run"]] += checks.check_replay(
        run_dir, scenario, calls[last["replay_run"]])
    if "trace" in result:
        traced = sum(result["trace_tick_ns"])
        if result["trace_in_tick_self_ns"] != traced:
            errors[last["run_scenario"]].append(
                f"layer self times sum to {result['trace_in_tick_self_ns']}"
                f" ns, traced ticks to {traced} ns")
    return list(zip(plan, errors))


def call_times(results: list, op: str) -> list:
    return [c["s"] for r in results for c in r["calls"] if c["op"] == op]


def run_ok(result: dict) -> bool:
    return any(c["op"] == "run_scenario" and c["ok"] for c in result["calls"])


def artifact_digests(run_dir: Path) -> dict:
    try:
        return json.loads((run_dir / "manifest.json").read_text())["artifacts"]
    except (OSError, ValueError, KeyError):
        return {}


def tick_times(results: list, key: str = "tick_ns") -> np.ndarray:
    """Each tick's median wall time in ms over the run's sessions.

    On `roster` the sessions of a run repeat one seed, hence the same
    ticks; on `dock` they run scenarios of one make-up and length whose
    ticks differ only in the agents' choices. The median over sessions
    keeps a tick's own cost and drops a stall that the host imposed on one
    session only.
    """
    return np.median([r[key] for r in results], axis=0) / 1e6


def end_to_end(results: list, setups: list, artifacts_bytes: int) -> dict:
    ticks_ms = tick_times(results)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "tick_ms": (float(np.median(ticks_ms)), "ms"),
        "tick_p99_ms": (float(np.percentile(ticks_ms, 99)), "ms"),
        "cpu_ms_per_tick": (1e3 * sum(r["loop_cpu_s"] for r in results)
                            / sum(len(r["tick_ns"]) for r in results), "ms"),
        "realtime_x": (statistics.median(
            r["duration_s"] / run_s for r, run_s in
            zip(results, call_times(results, "run_scenario"))), "x"),
        "analyze_s": (statistics.median(call_times(results, "analyze_run")),
                      "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results),
                        "MB"),
        "artifacts_mb": (artifacts_bytes / 1e6, "MB"),
    }


UNITS = {"_ms": "ms", "_s": "s", "_mb": "MB", "_ratio": "ratio"}


def per_layer(results: list) -> dict:
    out = {}
    for name in results[0]["trace"]:
        unit = next((u for suffix, u in UNITS.items()
                     if name.endswith(suffix)), "count")
        out[name] = (statistics.median(r["trace"][name] for r in results),
                     unit)
    out["trace.tick_ms"] = (float(np.median(tick_times(results,
                                                      "trace_tick_ns"))), "ms")
    return out


def measure(args, work: Path, inputs: list):
    """Run the sessions and probes of one run.

    `inputs` holds (scenario_path, scenario) for each of the run's
    scenario seeds. Session i runs scenario i mod len(inputs), and there is
    always one session more than scenarios, so every run repeats a seed
    and checks that the repeat writes the same artifacts.
    """
    n_sessions = max(MIN_SESSIONS, len(inputs) + 1,
                     round(args.seconds / SESSION_S[args.workload]))
    n_probes = 0 if args.trace else max(0, SETUP_SAMPLES - n_sessions)
    repeats = 1 if args.trace else REPEATS[args.workload]
    results, setups, attempted, failed = [], [], 0, 0
    digests, artifacts_bytes = {}, []
    # probes and sessions alternate, so both sample the whole run
    for index in range(max(n_sessions, n_probes)):
        if index < n_probes:
            probe = run_session(work, inputs[0][0], index, False,
                                setup_only=True)
            attempted += 1
            if probe["calls"][-1] == {"op": "setup", "ok": True}:
                setups.append(probe["setup_s"])
            else:
                failed += 1
                print(f"probe {index}: {probe['calls'][-1].get('error')}",
                      file=sys.stderr)
            shutil.rmtree(work / f"probe{index}", ignore_errors=True)
        if index >= n_sessions:
            continue
        which = index % len(inputs)
        scenario_path, scenario = inputs[which]
        result = run_session(work, scenario_path, index, bool(args.trace),
                             repeats)
        run_dir = work / f"session{index}" / "run"
        checked = check_session(result, run_dir, scenario, scenario_path,
                                scenario["seed"], repeats)
        session_digests = artifact_digests(run_dir)
        if which not in digests:
            digests[which] = session_digests
            artifacts_bytes.append(sum((run_dir / name).stat().st_size
                                       for name in session_digests))
        elif session_digests != digests[which]:
            dict(checked)["run_scenario"].append(
                "artifact digests differ from an earlier session's at its"
                " seed")
        for op, messages in checked:
            for message in messages:
                print(f"session {index} {op}: {message}", file=sys.stderr)
        attempted += len(checked)
        failed += sum(1 for _, messages in checked if messages)
        shutil.rmtree(run_dir, ignore_errors=True)
        if run_ok(result):
            results.append(result)
            setups.append(result["setup_s"])
    return (results, setups, attempted, failed,
            statistics.fmean(artifacts_bytes))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "holonsim" / "__init__.py").is_file():
        print(f"error: no holonsim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = []
        for seed in workloads.scenario_seeds(args.workload, args.seed):
            path = workloads.write_inputs(args.workload, seed,
                                          work / f"inputs{seed}")
            inputs.append((path, json.loads(path.read_text())))
        results, setups, attempted, failed, artifacts_bytes = measure(
            args, work, inputs)
    except (SessionCrash, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not results:
        print("error: no session completed its run", file=sys.stderr)
        return 1

    metrics = (per_layer(results) if args.trace
               else end_to_end(results, setups, artifacts_bytes))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
