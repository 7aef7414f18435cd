"""A build killed at an atomic rename resumes to the clean build's files,
manifest, recorded config and format version, rerunning exactly the
interrupted stage and those after it.  ``scripts/kill_sweep.py`` takes
every rename; this takes a fixed sample of four."""

import importlib.util
from pathlib import Path

import pytest

from qreform.pipeline import STAGE_ORDER
from tests.conftest import tiny_config

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "kill_sweep.py"


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The script, a clean tiny build and its renames as ``(stage, file)``."""
    spec = importlib.util.spec_from_file_location("kill_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    clean = tmp_path_factory.mktemp("kill_sweep") / "clean"
    return module, clean, module.clean_build(tiny_config(clean))


def test_every_rename_of_a_build_is_of_a_declared_output_or_the_manifest(sweep):
    _, _, events = sweep
    # clean_build raises on a rename onto any other file.
    assert [stage for stage, name in events if name == "manifest.json"] == list(STAGE_ORDER)
    assert events[-1] == (STAGE_ORDER[-1], "manifest.json")


def _first(events, stage, manifest):
    """The 1-based index of a stage's first output rename, or of the
    manifest rename that records it."""
    return 1 + next(
        i for i, (s, name) in enumerate(events)
        if s == stage and (name == "manifest.json") == manifest
    )


@pytest.mark.parametrize(
    "stage, manifest, when",
    [
        ("synth-gen", False, "before"),  # nothing written yet
        ("mine", False, "after"),  # a stage half written
        ("ance", True, "before"),  # a stage written whole, but not recorded
        ("evaluate", True, "after"),  # a finished build
    ],
    ids=["first-rename", "mid-stage", "before-a-manifest-write", "last-rename"],
)
def test_a_killed_build_resumes_exactly(sweep, tmp_path, stage, manifest, when):
    module, clean, events = sweep
    n = _first(events, stage, manifest)
    assert module.check_point(tiny_config(tmp_path / "killed"), clean, events, n, when) == []
