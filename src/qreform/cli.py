"""Command-line front end.

Each pipeline stage is a subcommand; ``pipeline`` runs them all with
checksum-based resume.  ``evaluate`` is the evaluate stage's command like
any other: it skips the stage when the stage is fresh and reruns it when
it is stale.  With ``--model M`` it then prints the report the stage saved
for model M instead of the run directory; an unknown model id fails
before anything is written.  ``reformulate`` and ``augment`` operate on an
existing run directory.  ``augment`` blends ``--source-value`` with the
mean of the first ``n_max`` (from the config) of ``--target-values``,
under ``--alpha`` and ``--beta`` (by default ``AugmentationParams``'s); a
query of ``--tier rich`` comes back unblended.
Exit status is 0 on success and 1 on failure with a stage-qualified
message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .corpus import TIER_IMPOVERISHED, TIER_RICH
from .evaluation import load_report
from .pipeline import (
    STAGE_ORDER,
    AugmentationParams,
    PipelineConfig,
    PipelinePaths,
    StageFailure,
    augment_for_tier,
    load_serving_state,
    model_ids,
    reformulate,
    run_pipeline,
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config JSON file")
    common.add_argument("--seed", type=int, help="override the run seed")
    common.add_argument("--out-dir", help="override the run directory")

    parser = argparse.ArgumentParser(
        prog="qreform",
        description="Behavior-driven query reformulation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("pipeline", parents=[common], help="run all stages")
    run.add_argument("--force", action="store_true", help="rerun every stage")

    for name in STAGE_ORDER:
        # No abbreviations on evaluate: "--mode" would be read as "--model".
        stage = sub.add_parser(
            name, parents=[common], allow_abbrev=name != "evaluate", help=f"run the {name} stage"
        )
        stage.add_argument("--force", action="store_true")
    sub.choices["evaluate"].add_argument("--model", help="then print this model's report")

    reform = sub.add_parser(
        "reformulate", parents=[common], help="reformulate a query"
    )
    reform.add_argument("--query", required=True)
    reform.add_argument("--top-k", type=int, help="retrieval candidates")
    reform.add_argument("--threshold", type=float, help="re-rank score cutoff")
    reform.add_argument("--n-max", type=int, help="max reformulations returned")

    augment = sub.add_parser(
        "augment", parents=[common], help="blend a feature with reformulations"
    )
    augment.add_argument("--source-value", type=float, required=True)
    augment.add_argument(
        "--target-values", default="", help="comma-separated target feature values"
    )
    augment.add_argument("--alpha", type=float, default=AugmentationParams.alpha)
    augment.add_argument("--beta", type=float, default=AugmentationParams.beta)
    augment.add_argument(
        "--tier",
        choices=(TIER_RICH, TIER_IMPOVERISHED),
        default=TIER_IMPOVERISHED,
        help="traffic tier of the query",
    )
    return parser


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "config", None):
        config = PipelineConfig.load_json(args.config)
    else:
        config = PipelineConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out_dir", None) is not None:
        overrides["out_dir"] = args.out_dir
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _cmd_stages(args: argparse.Namespace, stages: tuple[str, ...] | None) -> int:
    config = _load_config(args)
    model = getattr(args, "model", None)
    known = model_ids(config.ance_rounds)
    if model is not None and model not in known:
        raise ValueError(f"unknown model id: {model!r}; a run reports on {', '.join(known)}")
    run = run_pipeline(
        config,
        force=args.force,
        stages=stages,
        log=lambda line: print(line, file=sys.stderr),
    )
    if model is None:
        print(f"run directory: {run.out_dir}")
    else:
        sys.stdout.write(load_report(PipelinePaths(run.out_dir).report(model)).formatted())
    return 0


def _cmd_reformulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    state = load_serving_state(config)
    threshold = args.threshold if args.threshold is not None else state.threshold
    result = reformulate(
        args.query,
        state.bi_encoder,
        state.index,
        state.cross_encoder,
        top_k=config.top_k if args.top_k is None else args.top_k,
        threshold=threshold,
        n_max=config.n_max if args.n_max is None else args.n_max,
    )
    if not result.targets:
        print("(no reformulations above the threshold)", file=sys.stderr)
    for target, score in result.targets:
        print(f"{target}\t{score:.6f}")
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    config = _load_config(args)
    params = AugmentationParams(alpha=args.alpha, beta=args.beta)
    targets = [float(v) for v in args.target_values.split(",") if v != ""]
    value = augment_for_tier(args.tier, args.source_value, targets[: config.n_max], params)
    print(f"{value:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "pipeline":
            return _cmd_stages(args, None)
        if args.command in STAGE_ORDER:
            return _cmd_stages(args, (args.command,))
        if args.command == "reformulate":
            return _cmd_reformulate(args)
        if args.command == "augment":
            return _cmd_augment(args)
        raise ValueError(f"unknown command: {args.command!r}")
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
