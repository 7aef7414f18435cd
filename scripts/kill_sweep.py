"""Kill a tiny build at each atomic rename, resume it, and check the resume.

Usage:
    python3 scripts/kill_sweep.py [--work DIR]

Every file a run writes, the manifest included, goes through
``files.atomic_write``, whose ``os.replace`` is what makes a write whole.
A child process runs ``run_pipeline`` on the tiny config (``TINY``, the
same as ``tests/conftest.py::tiny_config``) at seed 0, and calls
``os._exit`` just before, or just after, its n-th ``os.replace``.  The
sweep takes every n of a clean build, both ways.  After each kill the
build resumes in this process, and four things must hold:

- every file in the run directory equals the clean build's, and so does
  the manifest, stage ``seconds`` aside;
- no other file is left, so no ``.tmp`` file survives;
- the manifest records the run's config and the artifacts' format
  version, both after the kill and after the resume;
- the resume reruns exactly the interrupted stage and the stages after it.

The script prints each point that breaks one of these and exits 1 if there
is any.  Nothing is ``fsync``ed, so neither the writes nor this sweep
promise anything across power loss.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from digest_gate import TINY  # noqa: E402
from qreform.files import _HEADER_VERSION  # noqa: E402
from qreform.pipeline import (  # noqa: E402
    STAGE_ORDER,
    PipelineConfig,
    PipelinePaths,
    _stage_specs,
    load_manifest,
    run_pipeline,
)

WHENS = ("before", "after")
KILLED = 75  # the child's exit status at its kill point

# Runs in a child: a build that exits at its n-th rename (argv: config
# JSON, n, "before" or "after", exit status).
_CHILD = """
import json, os, sys
from qreform.pipeline import PipelineConfig, run_pipeline
config = PipelineConfig.from_dict(json.loads(sys.argv[1]))
kill_at, when, status = int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
real_replace, renames = os.replace, 0

def replace(src, dst, *args, **kwargs):
    global renames
    renames += 1
    if renames == kill_at and when == "before":
        os._exit(status)
    real_replace(src, dst, *args, **kwargs)
    if renames == kill_at:
        os._exit(status)

os.replace = replace
run_pipeline(config)
"""


def _tree(root: Path) -> dict[str, str]:
    """The sha256 of every file under ``root`` but the manifest, by
    relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    }


def _unrecorded(manifest: dict, config: PipelineConfig) -> list[str]:
    """The manifest keys that fail to record a build of ``config``: its
    ``config`` and its ``format_version``."""
    want = {"config": config.settings(), "format_version": _HEADER_VERSION}
    return [key for key, value in want.items() if manifest.get(key) != value]


def _without_seconds(manifest: dict) -> dict:
    manifest = copy.deepcopy(manifest)
    for entry in manifest.get("stages", {}).values():
        entry.pop("seconds", None)
    return manifest


def clean_build(config: PipelineConfig) -> list[tuple[str, str]]:
    """Build ``config`` from an empty directory, and return each rename
    in order as ``(stage, file)``.  A manifest write belongs to the stage
    whose entry it records; a rename onto a file that no stage declares
    raises."""
    paths = PipelinePaths(config.out_dir)
    shutil.rmtree(paths.root, ignore_errors=True)
    stage_of = {
        path: name for name, _, outputs, _ in _stage_specs(config, paths) for path in outputs
    }
    renamed: list[Path] = []
    real_replace = os.replace

    def spy(src, dst, *args, **kwargs):
        real_replace(src, dst, *args, **kwargs)
        renamed.append(Path(dst))

    os.replace = spy
    try:
        run_pipeline(config)
    finally:
        os.replace = real_replace
    events, stage = [], None
    for path in renamed:
        if path != paths.manifest:
            if path not in stage_of:
                raise RuntimeError(f"a build renamed onto undeclared {path}")
            stage = stage_of[path]
        events.append((stage, str(path.relative_to(paths.root))))
    return events


def check_point(
    config: PipelineConfig, clean: Path, events: list[tuple[str, str]], n: int, when: str
) -> list[str]:
    """Kill a build of ``config`` at its n-th rename (``when`` is "before"
    or "after" it), resume it, and compare it with the clean build in
    ``clean``; return one line per broken promise."""
    paths = PipelinePaths(config.out_dir)
    shutil.rmtree(paths.root, ignore_errors=True)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(config.to_dict()), str(n), when, str(KILLED)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=False,
    )
    if child.returncode != KILLED:
        return [f"the build exited {child.returncode} before its kill point: {child.stderr[-300:]}"]
    errors = []
    if paths.manifest.exists():
        try:
            killed = json.loads(paths.manifest.read_text(encoding="utf-8"))
        except ValueError:
            killed = None
            errors.append("the kill left a manifest that does not parse")
        if killed is not None:
            errors += [
                f"the kill left a manifest that does not record the {key}"
                for key in _unrecorded(killed, config)
            ]

    stage, name = events[n - 1]
    recorded = name == paths.manifest.name and when == "after"
    expected = list(STAGE_ORDER[STAGE_ORDER.index(stage) + recorded:])
    resumed = run_pipeline(config)
    if resumed.executed != expected:
        errors.append(f"the resume reran {resumed.executed}, not {expected}")

    clean_manifest = _without_seconds(load_manifest(PipelinePaths(clean)))
    manifest = _without_seconds(load_manifest(paths))
    errors += [
        f"the resumed manifest does not record the {key}" for key in _unrecorded(manifest, config)
    ]
    if manifest != clean_manifest or _without_seconds(resumed.manifest) != clean_manifest:
        errors.append("the manifest differs from the clean build's")
    want, have = _tree(clean), _tree(paths.root)
    for file in sorted(want.keys() | have.keys()):
        if file not in have:
            errors.append(f"{file} is missing")
        elif file not in want:
            errors.append(f"{file} is left over")
        elif want[file] != have[file]:
            errors.append(f"{file} differs from the clean build's")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, help="where the runs go (default: a temporary dir)")
    args = parser.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="kill_sweep_"))

    def tiny(name: str) -> PipelineConfig:
        return PipelineConfig.from_dict({**TINY, "seed": 0, "out_dir": str(work / name)})

    events = clean_build(tiny("clean"))
    failed = 0
    for n, (stage, name) in enumerate(events, start=1):
        for when in WHENS:
            errors = check_point(tiny("killed"), work / "clean", events, n, when)
            failed += bool(errors)
            for error in errors:
                print(f"rename {n} ({stage}: {name}), killed {when}: {error}", flush=True)
    print(f"{len(events)} renames, {2 * len(events)} kill points, {failed} failed")
    if args.work is None:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
