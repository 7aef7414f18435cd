"""Run the pipeline over several seeds and print the offline trend tables.

Usage:
    python scripts/trend_table.py [--seeds 0,1,2,3,4] [--out-dir /tmp/trend]
                                  [--config config.json]

Prints per-seed and mean values for the three retrieval checkpoints
(recall@eval_k on top-3 truth, micro; eval_k is 100 by default), the
audit metrics of the baseline vs the final hard-negative round, the two
re-ranker NDCG@3 variants, mined pair counts with and without
normalization grouping, and the tail reformulation rate.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def run_seed(base: PipelineConfig, out_root: Path, seed: int, verbose: bool) -> dict:
    config = dataclasses.replace(
        base, seed=seed, out_dir=str(out_root / f"seed{seed}")
    )
    started = time.perf_counter()
    run_pipeline(config, log=(lambda s: print(f"  {s}")) if verbose else None)
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
        "pairs_ungrouped": len(load_pairs(paths.pairs_ungrouped)),
        "tail_rate": tail_reformulation_rate(config),
    }
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--out-dir", default="/tmp/qreform_trend")
    parser.add_argument("--config", default=None)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
