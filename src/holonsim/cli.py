"""Command line entry point: run, replay, analyze, and features.

Exit codes: 0 success, 2 configuration error (bad scenario, bad flag
value, unreadable input, an output directory that is neither empty nor a
run; the message names the offending key or path), 3 runtime failure
(aborted run, a corrupt manifest or an artifact whose checksum does not
match it, replay mismatch; the message names the file).
"""

import argparse
import json
import sys
from pathlib import Path

from .audio_core import WavFormatError, read_wav
from .environment import (DURATION_RULE, ReplayError, ScenarioError,
                          check_render_length, load_scenario, replay_run,
                          run_scenario)
from .features import analyze
from .rundir import REPLAY_DIR, RunDirError, holds_run
from .telemetry import analyze_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def parse_duration(text: str) -> float:
    """Seconds from '90', '90s' or '2m'."""
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    try:
        value = float(text) * scale
    except ValueError:
        raise ScenarioError(f"cannot parse duration {text!r} "
                            "(expected seconds, e.g. 90, 90s or 2m)")
    rule, ok = DURATION_RULE
    if not ok(value):
        raise ScenarioError(f"duration {rule}")
    return value


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            if args.seed < 0:
                raise ScenarioError("--seed must not be negative")
            scenario.seed = args.seed
        if args.duration is not None:
            scenario.duration_s = parse_duration(args.duration)
            check_render_length(scenario)
    except ScenarioError as exc:
        fail(str(exc))
        return EXIT_CONFIG

    out = Path(args.out) if args.out else Path("runs") / scenario.name
    try:
        completed = holds_run(out)
    except OSError as exc:
        fail(f"cannot create output directory {out}: {exc.strerror}")
        return EXIT_CONFIG
    except RunDirError as exc:
        fail(str(exc))
        return EXIT_CONFIG
    if completed and not args.force:
        fail(f"{out} already holds a completed run; pass --force to "
             "replace it")
        return EXIT_CONFIG

    try:
        summary = run_scenario(scenario, out)
    except Exception as exc:
        fail(f"run aborted: {exc}")
        return EXIT_RUNTIME

    print(f"run complete: {summary.n_ticks} ticks, "
          f"{summary.n_events} events -> {out}")
    if args.verbose:
        for name in sorted(summary.artifacts):
            print(f"  {summary.artifacts[name]}  {name}")
    return EXIT_OK


def cmd_features(args) -> int:
    try:
        samples, _ = read_wav(args.wav)
    except OSError as exc:
        fail(f"cannot read WAV file {args.wav}: {exc.strerror}")
        return EXIT_CONFIG
    except WavFormatError as exc:
        fail(str(exc))
        return EXIT_CONFIG
    if not len(samples):
        fail(f"{args.wav}: WAV holds no samples")
        return EXIT_CONFIG
    vector = analyze(samples)
    print(json.dumps({
        "dynamic_range_db": vector.dynamic_range_db,
        "zero_crossing_rate": vector.zero_crossing_rate,
        "mfcc": [float(c) for c in vector.mfcc],
    }, indent=2))
    return EXIT_OK


def cmd_analyze(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        metrics = analyze_run(run_dir)
    except RunDirError as exc:
        fail(str(exc))
        return EXIT_RUNTIME
    except Exception as exc:
        fail(f"analysis failed: {exc}")
        return EXIT_RUNTIME

    ratio = metrics["overlap_ratio"]
    print(f"overlap_ratio: {'n/a' if ratio is None else f'{ratio:.4f}'}")
    print(f"niche_spread: {metrics['niche_spread']}")
    print(f"switch_events: {metrics['switch_events']}")
    if metrics["partial_data"]:
        print("warning: event log is truncated; metrics cover partial data")
    print(f"artifacts written to {run_dir}")
    return EXIT_OK


def cmd_replay(args) -> int:
    run_dir = Path(args.run_dir)
    try:
        replayed = replay_run(run_dir)
    except (RunDirError, ReplayError) as exc:
        fail(str(exc))
        return EXIT_RUNTIME
    except Exception as exc:
        fail(f"replay failed: {exc}")
        return EXIT_RUNTIME
    print(f"replay matches the original run ({len(replayed)} file(s)) "
          f"-> {run_dir / REPLAY_DIR}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holonsim",
        description="Deterministic multi-agent soundscape simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario to completion")
    run_p.add_argument("--scenario", required=True,
                       help="YAML scenario file")
    run_p.add_argument("--seed", type=int, help="override scenario seed")
    run_p.add_argument("--duration",
                       help="override duration (e.g. 90, 90s, 2m)")
    run_p.add_argument("--out", help="output directory "
                       "(default runs/<scenario name>)")
    run_p.add_argument("--force", action="store_true",
                       help="replace an existing completed run")
    run_p.add_argument("-v", "--verbose", action="store_true",
                       help="print artifact checksums")
    run_p.set_defaults(func=cmd_run)

    feat_p = sub.add_parser("features",
                            help="print the analysis vector of a WAV")
    feat_p.add_argument("wav", help="WAV file to analyze")
    feat_p.set_defaults(func=cmd_features)

    ana_p = sub.add_parser("analyze",
                           help="compute metrics and spectrograms "
                                "for a finished run")
    ana_p.add_argument("run_dir", help="run directory with a manifest")
    ana_p.set_defaults(func=cmd_analyze)

    rep_p = sub.add_parser("replay",
                           help="rebuild the renders and occupation from "
                                "the event log and verify checksums")
    rep_p.add_argument("run_dir", help="run directory with a manifest")
    rep_p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
