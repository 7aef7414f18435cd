"""Run the pipeline over several seeds and print the offline trend tables.

Usage:
    python scripts/trend_table.py [--seeds 0,1,2,3,4] [--out-dir /tmp/trend]
                                  [--config config.json] [--json ROWS.json]
                                  [--compare PARENT.json]

Prints per-seed and mean values for the three retrieval checkpoints
(recall@eval_k on top-3 truth, micro; eval_k is 100 by default), the
audit metrics of the baseline vs the final hard-negative round, the two
re-ranker NDCG@3 variants, mined pair counts with and without
normalization grouping, and the tail reformulation rate.

``--json`` writes the per-seed rows.  ``--compare`` reads rows that
another checkout wrote with ``--json`` and prints, for each metric, the
per-seed deltas (this run minus that one) on the seeds both hold, their
mean and their spread (sample standard deviation).  Both sides share each
seed's corpus, so a paired delta leaves out most of the spread between
seeds.  The script exits with status 1 when a metric's mean delta is
lower than minus its tolerance in ``TOLERANCES``: this is the seed-noise
gate for a change that moves numerics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qreform.mining import load_pairs
from qreform.pipeline import (
    MODEL_RERANKER_CIRCLE,
    MODEL_RERANKER_POINTWISE,
    MODEL_RETRIEVER_ANCE,
    MODEL_RETRIEVER_BASELINE,
    MODEL_RETRIEVER_WEIGHTED,
    PipelineConfig,
    PipelinePaths,
    load_reports,
    run_pipeline,
    tail_reformulation_rate,
)


# How far a metric's mean paired delta over seeds 0-4 may fall before a
# change counts as worse than seed noise; every gated metric is higher for
# better.  Calibrated on changes that should be neutral: the training
# shuffle drawn from seed + 1000 and seed + 2000 instead of seed.  Each
# tolerance is twice the per-seed delta sd pooled over the three
# comparisons among the three shuffles, rounded up to 0.005, and covers
# every neutral mean delta seen (see CHANGES.md).
TOLERANCES = {
    "recall_baseline": 0.04,
    "recall_weighted": 0.03,
    "recall_ance": 0.035,
    "auroc_strict_base": 0.03,
    "auroc_strict_ance": 0.04,
    "auroc_notrel_base": 0.055,
    "auroc_notrel_ance": 0.05,
    "spearman_base": 0.05,
    "spearman_ance": 0.07,
    "ndcg_general_point": 0.025,
    "ndcg_general_circle": 0.02,
    "ndcg_hard_point": 0.11,
    "ndcg_hard_circle": 0.12,
    "tail_rate": 0.015,
}


def run_seed(base: PipelineConfig, out_root: Path, seed: int, verbose: bool) -> dict:
    config = dataclasses.replace(
        base, seed=seed, out_dir=str(out_root / f"seed{seed}")
    )
    started = time.perf_counter()
    run = run_pipeline(config, log=(lambda s: print(f"  {s}")) if verbose else None)
    elapsed = time.perf_counter() - started
    reports = load_reports(config)
    paths = PipelinePaths(Path(config.out_dir))

    final = MODEL_RETRIEVER_ANCE.format(round=config.ance_rounds)
    recall = f"recall{config.eval_k}_top3_micro"
    row = {
        "seed": seed,
        "seconds": elapsed,
        "recall_baseline": reports[MODEL_RETRIEVER_BASELINE].metrics[recall],
        "recall_weighted": reports[MODEL_RETRIEVER_WEIGHTED].metrics[recall],
        "recall_ance": reports[final].metrics[recall],
        "auroc_strict_base": reports[MODEL_RETRIEVER_BASELINE].metrics["auroc_strict"],
        "auroc_strict_ance": reports[final].metrics["auroc_strict"],
        "auroc_notrel_base": reports[MODEL_RETRIEVER_BASELINE].metrics["auroc_notrel"],
        "auroc_notrel_ance": reports[final].metrics["auroc_notrel"],
        "spearman_base": reports[MODEL_RETRIEVER_BASELINE].metrics["spearman"],
        "spearman_ance": reports[final].metrics["spearman"],
        "ndcg_general_point": reports[MODEL_RERANKER_POINTWISE].metrics["ndcg3_general"],
        "ndcg_general_circle": reports[MODEL_RERANKER_CIRCLE].metrics["ndcg3_general"],
        "ndcg_hard_point": reports[MODEL_RERANKER_POINTWISE].metrics["ndcg3_hard"],
        "ndcg_hard_circle": reports[MODEL_RERANKER_CIRCLE].metrics["ndcg3_hard"],
        "pairs_grouped": sum(
            len(load_pairs(path))
            for path in (paths.pairs_train, paths.pairs_val, paths.pairs_test)
        ),
        "pairs_ungrouped": run.manifest["stages"]["mine"]["pairs_ungrouped"],
        "tail_rate": tail_reformulation_rate(config),
    }
    return row


def compare(parent_rows: list[dict], rows: list[dict]) -> list[dict]:
    """Each metric's per-seed deltas (``rows`` minus ``parent_rows``) on
    the seeds both hold, their mean and spread, and whether the mean stays
    within the metric's tolerance (``None`` for an ungated metric)."""
    parent = {row["seed"]: row for row in parent_rows}
    paired = [(parent[row["seed"]], row) for row in rows if row["seed"] in parent]
    if not paired:
        raise ValueError("no seed in common with the parent rows")
    results = []
    for metric in (key for key in paired[0][1] if key != "seed"):
        deltas = [row[metric] - old[metric] for old, row in paired]
        mean = statistics.fmean(deltas)
        tolerance = TOLERANCES.get(metric)
        results.append({
            "metric": metric,
            "seeds": [row["seed"] for _, row in paired],
            "deltas": deltas,
            "mean": mean,
            "spread": statistics.stdev(deltas) if len(deltas) > 1 else 0.0,
            "tolerance": tolerance,
            "passed": None if tolerance is None else mean >= -tolerance,
        })
    return results


def print_comparison(results: list[dict]) -> None:
    seeds = results[0]["seeds"]
    print(f"\n=== paired deltas against the parent, seeds {','.join(map(str, seeds))} ===")
    print(f"{'metric':20} {'mean':>9} {'spread':>8} {'tol':>6}  gate  per-seed deltas")
    for r in results:
        tolerance = "-" if r["tolerance"] is None else f"{r['tolerance']:.3f}"
        gate = {None: "-", True: "ok", False: "FAIL"}[r["passed"]]
        deltas = " ".join(f"{d:+.4f}" for d in r["deltas"])
        print(f"{r['metric']:20} {r['mean']:+9.4f} {r['spread']:8.4f} {tolerance:>6}  {gate:4}  {deltas}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--out-dir", default="/tmp/qreform_trend")
    parser.add_argument("--config", default=None)
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--json", default=None, help="write the per-seed rows here")
    parser.add_argument("--compare", default=None, help="rows another checkout wrote")
    args = parser.parse_args()
    # Read the parent's rows before the runs, so a bad path fails at once.
    parent_rows = json.loads(Path(args.compare).read_text()) if args.compare else None

    base = PipelineConfig.load_json(args.config) if args.config else PipelineConfig()
    seeds = [int(s) for s in args.seeds.split(",")]
    out_root = Path(args.out_dir)

    rows = []
    for seed in seeds:
        print(f"seed {seed} ...", flush=True)
        row = run_seed(base, out_root, seed, args.verbose)
        rows.append(row)
        print(
            f"  {row['seconds']:.0f}s  recall {row['recall_baseline']:.3f} -> "
            f"{row['recall_weighted']:.3f} -> {row['recall_ance']:.3f}  "
            f"spearman {row['spearman_base']:.3f} -> {row['spearman_ance']:.3f}  "
            f"hard-ndcg {row['ndcg_hard_point']:.3f} -> {row['ndcg_hard_circle']:.3f}  "
            f"tail {row['tail_rate']:.3f}",
            flush=True,
        )

    def mean(key: str) -> float:
        return statistics.fmean(row[key] for row in rows)

    print(f"\n=== retrieval: recall@{base.eval_k} (top-3 truth, micro), mean over seeds ===")
    print(f"baseline top-30   {mean('recall_baseline'):.4f}")
    print(f"+importance       {mean('recall_weighted'):.4f}  (step {mean('recall_weighted') - mean('recall_baseline'):+.4f})")
    print(f"+ance (final)     {mean('recall_ance'):.4f}  (step {mean('recall_ance') - mean('recall_weighted'):+.4f})")

    print("\n=== audit: baseline vs final ance round ===")
    print(f"auroc_strict      {mean('auroc_strict_base'):.4f} -> {mean('auroc_strict_ance'):.4f}")
    print(f"auroc_notrel      {mean('auroc_notrel_base'):.4f} -> {mean('auroc_notrel_ance'):.4f}")
    print(f"spearman          {mean('spearman_base'):.4f} -> {mean('spearman_ance'):.4f}  (gap {mean('spearman_ance') - mean('spearman_base'):+.4f})")

    print("\n=== re-ranking: pointwise vs ance+circle ===")
    print(f"ndcg@3 general    {mean('ndcg_general_point'):.4f} -> {mean('ndcg_general_circle'):.4f}")
    print(f"ndcg@3 hard       {mean('ndcg_hard_point'):.4f} -> {mean('ndcg_hard_circle'):.4f}")

    print("\n=== mining and tail coverage ===")
    print(f"pairs grouped     {mean('pairs_grouped'):.0f}")
    print(f"pairs ungrouped   {mean('pairs_ungrouped'):.0f}")
    print(f"tail rate         {mean('tail_rate'):.4f}")
    print(f"\ntotal wall time   {sum(r['seconds'] for r in rows):.0f}s")
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    if parent_rows is None:
        return 0
    results = compare(parent_rows, rows)
    print_comparison(results)
    return 1 if any(r["passed"] is False for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
