"""Compare the output digests of two checkouts' pipeline runs.

Usage:
    python3 scripts/digest_gate.py --parent DIR --change DIR [--work DIR]

Each checkout runs ``run_pipeline`` with its own ``src`` at seed 0 on
three configs: the default ``PipelineConfig()``, the tiny config of the
test suite (``TINY``, the same as ``tests/conftest.py::tiny_config``) and
the benchmark's base run (``BASE``, the same as ``bench/run.py::BASE``).
Every run starts from an empty directory.  The script then lists each output
whose manifest digest differs between the two sides, or that only one side
wrote, and exits non-zero if there is any.  This is the gate for a change
that claims to leave every output byte for byte the same.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# Fields of PipelineConfig that differ from the defaults, seed and out_dir aside.
TINY = {
    "synth": {
        "n_intents": 12,
        "queries_per_intent": 10,
        "products_per_catalog": 12,
        "n_audit_pairs": 120,
    },
    "n_test_queries": 20,
    "retriever_epochs": 2,
    "ance_rounds": 2,
    "reranker_epochs": 1,
    "eval_k": 10,
}
# The reduced run the benchmark's serve workload builds and resumes.
BASE = {
    "synth": {"n_intents": 14, "queries_per_intent": 14},
    "n_test_queries": 30,
    "rich_threshold": 8,
    "reranker_epochs": 1,
    "bi_feature_dim": 4096,
    "cross_feature_dim": 2048,
}
CONFIGS = {"default": {}, "tiny": TINY, "base": BASE}
OUT_DIR = "run"

# Runs in a checkout's interpreter and prints the manifest's outputs.
_CHILD = """
import json, sys
from qreform.pipeline import PipelineConfig, run_pipeline
run = run_pipeline(PipelineConfig.from_dict(json.loads(sys.argv[1])))
print(json.dumps({stage: entry["outputs"] for stage, entry in run.manifest["stages"].items()}))
"""


def flat_outputs(outputs: dict[str, dict[str, str]]) -> dict[str, str]:
    """``{stage: {file: digest}}`` as ``{"stage/file": digest}``."""
    return {
        f"{stage}/{name}": digest
        for stage, files in outputs.items()
        for name, digest in files.items()
    }


def differences(
    parent: dict[str, dict[str, str]], change: dict[str, dict[str, str]]
) -> list[str]:
    """One line per output whose digest differs or that one side lacks."""
    before, after = flat_outputs(parent), flat_outputs(change)
    lines = []
    for key in sorted(before.keys() | after.keys()):
        old, new = before.get(key), after.get(key)
        if old != new:
            lines.append(f"{key}: parent {old or 'missing'}, change {new or 'missing'}")
    return lines


def run_outputs(checkout: Path, config: dict, work: Path) -> dict[str, dict[str, str]]:
    """The manifest outputs of one fresh run of ``checkout``'s pipeline."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    spec = {**config, "seed": 0, "out_dir": OUT_DIR}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(spec)],
        cwd=work, env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: run failed: {done.stderr.strip()[-600:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--work", type=Path, help="where the runs go (default: a temporary dir)")
    args = parser.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="digest_gate_"))
    checkouts = {"parent": args.parent, "change": args.change}

    differing = 0
    for name, config in CONFIGS.items():
        outputs = {side: run_outputs(checkouts[side], config, work / side / name) for side in SIDES}
        lines = differences(outputs["parent"], outputs["change"])
        count = len(flat_outputs(outputs["parent"]).keys() | flat_outputs(outputs["change"]).keys())
        print(f"{name}: {count} outputs, {len(lines)} differ", flush=True)
        for line in lines:
            print(f"  {line}")
        differing += len(lines)
    if args.work is None:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
