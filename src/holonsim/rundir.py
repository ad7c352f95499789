"""The run directory: its file names, its manifest, and verified reads.

A run directory holds the artifacts of one run and a manifest that lists
each with its sha256. RunWriter stages a run in a sibling
`.<name>.partial` directory and moves it into place once the manifest is
written, so a run directory is either complete or absent; a completed run
it replaces is first moved aside to `.<name>.old` and removed last. RunDir
opens a finished run through its manifest and checks an artifact's sha256
before handing it out. Anything else a tool writes beside the artifacts
(`replay/`, metrics, spectrograms) is not listed in the manifest.
"""

import errno
import hashlib
import json
import os
import re
import shutil
from contextlib import suppress
from itertools import takewhile
from pathlib import Path

EVENTS_FILE = "events.jsonl"
SCENARIO_FILE = "scenario_resolved.json"
OCCUPATION_NPY = "occupation.npy"
OCCUPATION_META = "occupation.json"
MANIFEST_FILE = "manifest.json"
REPLAY_DIR = "replay"
FORMAT = 2   # 2: a playback names its kept clip, logged once
_MANIFEST_KEYS = {"format", "name", "seed", "config_sha256", "n_ticks",
                  "artifacts"}
_MONITOR = re.compile(r"monitor_\d{2,}\.wav")
_FIXED = {EVENTS_FILE, SCENARIO_FILE, OCCUPATION_NPY, OCCUPATION_META}


class RunDirError(ValueError):
    """A run directory cannot be written or trusted; the message names the
    directory or the file."""


def monitor_name(m: int) -> str:
    return f"monitor_{m:02d}.wav"


def file_sha256(path) -> str:
    """sha256 of a file, read 1 MiB at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def holds_run(out_dir: Path) -> bool:
    """Whether out_dir holds a completed run: a manifest whose layout
    RunDir reads, of this format or another.

    An absent or empty directory gives False; a run may replace it, as it
    may a completed run. Any other directory, one with an unreadable or
    foreign manifest.json too, raises RunDirError, and a path that is not
    a directory, or an absent one whose nearest existing ancestor is not a
    directory this process may write in, raises OSError.
    """
    if not out_dir.exists():
        base = next(p for p in out_dir.parents if p.exists())
        if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
            raise PermissionError(errno.EACCES, f"cannot write in {base}")
        return False
    try:
        _read_manifest(out_dir)
        return True
    except RunDirError:
        pass
    if any(out_dir.iterdir()):
        raise RunDirError(f"{out_dir} is not empty and holds no run (no "
                          f"valid {MANIFEST_FILE}); refusing to write a "
                          "run into it")
    return False


class RunWriter:
    """A run directory being written, as a with block.

    Files go to `path(name)`, in a sibling `.<name>.partial` directory.
    When the block ends cleanly, the manifest lists every staged file with
    its sha256 (`artifacts`) and the directory moves into place, over an
    empty directory or a completed run. A completed run is renamed to a
    sibling `.<name>.old` first and removed once the new run is in place,
    so an interrupt leaves the old run or the new one. An exception that
    ends the block removes the staging and the parents the block made.
    """

    def __init__(self, out_dir, name: str, seed: int, n_ticks: int):
        self.out_dir = Path(out_dir).resolve()
        holds_run(self.out_dir)   # refuse a non-run directory up front
        self.stage = self._sibling("partial")
        self.manifest = {"format": FORMAT, "name": name, "seed": seed,
                         "n_ticks": n_ticks}
        self.artifacts = None

    def __enter__(self):
        # the parents this run creates, innermost first
        self._made = list(takewhile(lambda p: not p.exists(),
                                    self.out_dir.parents))
        self.stage.parent.mkdir(parents=True, exist_ok=True)
        if self.stage.exists():   # left by a run that was killed
            shutil.rmtree(self.stage)
        self.stage.mkdir()
        return self

    def __exit__(self, exc_type, *exc):
        try:
            if exc_type is None:
                self._commit()
        finally:
            shutil.rmtree(self.stage, ignore_errors=True)
            if not self.out_dir.exists():   # the run failed
                with suppress(OSError):   # a parent others wrote in stays
                    for parent in self._made:
                        parent.rmdir()

    def path(self, name: str) -> Path:
        return self.stage / name

    def _sibling(self, suffix: str) -> Path:
        return self.out_dir.parent / f".{self.out_dir.name}.{suffix}"

    def _commit(self):
        self.artifacts = {p.name: file_sha256(p)
                          for p in self.stage.iterdir()}
        manifest = dict(self.manifest, artifacts=self.artifacts,
                        config_sha256=self.artifacts[SCENARIO_FILE])
        self.path(MANIFEST_FILE).write_text(
            json.dumps(manifest, sort_keys=True, indent=2))
        old = self._sibling("old")
        shutil.rmtree(old, ignore_errors=True)   # left by a killed swap
        replacing = holds_run(self.out_dir)
        if replacing:
            os.replace(self.out_dir, old)
        try:
            os.replace(self.stage, self.out_dir)
        except BaseException:
            if replacing:
                os.replace(old, self.out_dir)
            raise
        shutil.rmtree(old, ignore_errors=True)


class RunDir:
    """A finished run, opened through its manifest.

    Opening checks the manifest's layout and format, refusing a run
    written in another format, and reads the resolved scenario
    (`scenario`, a dict), by which the manifest knows the run (its
    `config_sha256`), once its sha256 matches; verified(name) checks a
    listed artifact's sha256 before handing out its path. Each raises
    RunDirError naming the manifest or the file.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.manifest = _read_manifest(self.path)
        if self.manifest["format"] != FORMAT:
            raise RunDirError(
                f"{self.path / MANIFEST_FILE} was written in format "
                f"{self.manifest['format']}; this holonsim reads format "
                f"{FORMAT}; re-run the scenario")
        self.monitors = sorted(name for name in self.manifest["artifacts"]
                               if _MONITOR.fullmatch(name))
        self.scenario = json.loads(self.verified(SCENARIO_FILE).read_text())

    def verified(self, name: str) -> Path:
        path = self.path / name
        want = self.manifest["artifacts"].get(name)
        if want is None:
            raise RunDirError(f"{path} is not listed in the manifest")
        try:
            got = file_sha256(path)
        except OSError as exc:
            raise RunDirError(f"cannot read {path}: {exc.strerror}")
        if got != want:
            raise RunDirError(f"{path}: sha256 does not match the manifest")
        return path


def _read_manifest(path: Path) -> dict:
    where = path / MANIFEST_FILE
    try:
        manifest = json.loads(where.read_text())
    except (OSError, ValueError) as exc:
        raise RunDirError(f"corrupt or missing manifest {where}: {exc}")
    if not _valid_manifest(manifest):
        raise RunDirError(f"corrupt manifest {where}: unrecognised layout")
    return manifest


def _valid_manifest(manifest) -> bool:
    """The manifest layout, which every format so far shares."""
    if not isinstance(manifest, dict) or set(manifest) != _MANIFEST_KEYS:
        return False
    artifacts = manifest["artifacts"]
    return (isinstance(manifest["format"], int)
            and isinstance(manifest["n_ticks"], int)
            and isinstance(artifacts, dict)
            and manifest["config_sha256"] == artifacts.get(SCENARIO_FILE)
            and all(isinstance(sha, str) and
                    (name in _FIXED or _MONITOR.fullmatch(name))
                    for name, sha in artifacts.items()))


def load_run_events(run: RunDir) -> list:
    """The event log of an opened run, once its sha256 is verified."""
    with open(run.verified(EVENTS_FILE)) as fh:
        return [json.loads(line) for line in fh if not line.isspace()]
