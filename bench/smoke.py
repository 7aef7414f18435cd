#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size; not part of the test suite.

    python3 bench/smoke.py

Runs both workloads untraced and traced on a corpus sized like the
test suite's ``tiny_config`` and requires a correct result with every
metric, then feeds each correctness check an output it must reject.
Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import phases  # noqa: E402
import run as bench  # noqa: E402

WORK = bench.ROOT / bench.WORK / "smoke"


def check_workload(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, check=True, cwd=bench.ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == set(expected), proc.stdout
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values()), proc.stdout
    if trace and workload == "serve":
        metrics = result["metrics"]
        assert metrics["pipeline.stages_executed.step1"]["value"] == 2, proc.stdout
        assert metrics["pipeline.stages_executed.step2"]["value"] == 9, proc.stdout
    print(f"ok  {workload} trace={trace}")


def check_result_errors() -> None:
    result = phases.pipeline.ReformulationResult
    good = result("p", (("x", 0.9), ("y", 0.7)), 0.5)
    assert not phases.result_errors(good, "p", 0.5, 10)
    assert phases.result_errors(good, "p", 0.5, 1), "more than n_max targets"
    assert phases.result_errors(good, "q", 0.5, 10), "source is not the probe"
    assert phases.result_errors(result("p", (("p", 0.9),), 0.5), "p", 0.5, 10), "probe kept"
    assert phases.result_errors(result("p", (("x", 0.6), ("y", 0.8)), 0.5), "p", 0.5, 10), "unsorted"
    assert phases.result_errors(result("p", (("x", 0.4),), 0.5), "p", 0.5, 10), "below threshold"
    print("ok  serve result checks")


def check_trend_errors() -> None:
    config = phases.pipeline.PipelineConfig(ance_rounds=2)
    key = f"recall{config.eval_k}_top3_micro"
    p = phases.pipeline
    reports = {
        p.MODEL_RETRIEVER_BASELINE: {key: 0.80},
        p.MODEL_RETRIEVER_WEIGHTED: {key: 0.90},
        p.MODEL_RETRIEVER_ANCE.format(round=2): {key: 0.95},
        p.MODEL_RERANKER_POINTWISE: {"ndcg3_hard": 0.40},
        p.MODEL_RERANKER_CIRCLE: {"ndcg3_hard": 0.60},
    }
    assert not phases.trend_errors(reports, config)
    reports[p.MODEL_RETRIEVER_WEIGHTED][key] = 0.97
    reports[p.MODEL_RERANKER_CIRCLE]["ndcg3_hard"] = 0.30
    assert len(phases.trend_errors(reports, config)) == 2
    print("ok  trend checks")


def check_build_and_resume_errors() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    out_dir = WORK / "run"
    spec = {"config": bench.TINY, "out_dir": str(out_dir), "seed": 0}
    built = phases.phase_build(spec, None)
    assert not built["errors"], built["errors"]
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    reports = {"m": {"fine": 1.0}}
    assert not phases.build_output_errors(out_dir, manifest, reports)
    assert phases.build_output_errors(out_dir, manifest, {"m": {"bad": math.nan}})
    (out_dir / "index.npz").unlink()
    assert phases.build_output_errors(out_dir, manifest, reports), "missing output"

    # An artifact the reruns cannot reproduce must fail the step-2 check.
    phases.phase_build(spec, None)
    with open(out_dir / "groups.tsv", "a", encoding="utf-8") as fh:
        fh.write("# altered\n")
    resumed = phases.phase_resume(spec, None)
    assert any("step 2" in e for e in resumed["errors"]), resumed["errors"]
    shutil.rmtree(WORK)
    print("ok  build output and resume checks")


def main() -> int:
    check_result_errors()
    check_trend_errors()
    check_build_and_resume_errors()
    for workload in ("build", "serve"):
        for trace in (0, 1):
            check_workload(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
