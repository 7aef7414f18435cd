"""Command-line front end.

Each pipeline stage is a subcommand; ``pipeline`` runs them all with
checksum-based resume.  ``reformulate``, ``evaluate`` and ``augment``
operate on an existing run directory.  Exit status is 0 on success and 1
on failure with a stage-qualified message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .pipeline import (
    EVAL_MODE_AUDIT,
    EVAL_MODE_RERANK,
    EVAL_MODE_RETRIEVAL,
    STAGE_ORDER,
    AugmentationParams,
    PipelineConfig,
    StageFailure,
    augment_for_tier,
    evaluate_model,
    load_serving_state,
    reformulate,
    run_pipeline,
)

# The evaluate stage has no subcommand of its own: ``evaluate`` scores
# one model on demand, and ``pipeline`` runs the whole stage.
STAGE_COMMANDS = tuple(name for name in STAGE_ORDER if name != "evaluate")


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

    for name in STAGE_COMMANDS:
        stage = sub.add_parser(name, parents=[common], help=f"run the {name} stage")
        stage.add_argument("--force", action="store_true")
        if name == "ance":
            stage.add_argument("--rounds", type=int, help="hard-negative rounds")
            stage.add_argument("--top-k", type=int, help="candidates mined per anchor")

    evaluate = sub.add_parser(
        "evaluate", parents=[common], help="score one model on one task"
    )
    evaluate.add_argument("--model", required=True, help="model id to evaluate")
    evaluate.add_argument(
        "--mode",
        required=True,
        choices=(EVAL_MODE_RETRIEVAL, EVAL_MODE_RERANK, EVAL_MODE_AUDIT),
    )

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
    augment.add_argument("--alpha", type=float)
    augment.add_argument("--beta", type=float)
    augment.add_argument("--tier", default="impoverished", help="traffic tier of the query")
    augment.add_argument(
        "--all-tiers",
        action="store_true",
        help="apply the blend to rich queries too",
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
    if getattr(args, "rounds", None) is not None:
        config = dataclasses.replace(config, ance_rounds=args.rounds)
    if getattr(args, "top_k", None) is not None:
        config = dataclasses.replace(config, top_k=args.top_k)
    run = run_pipeline(
        config,
        force=getattr(args, "force", False),
        stages=stages,
        log=lambda line: print(line, file=sys.stderr),
    )
    print(f"run directory: {run.out_dir}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = evaluate_model(config, args.model, args.mode)
    sys.stdout.write(report.formatted())
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
        top_k=args.top_k or config.top_k,
        threshold=threshold,
        n_max=args.n_max or config.n_max,
    )
    if not result.targets:
        print("(no reformulations above the threshold)", file=sys.stderr)
    for target, score in result.targets:
        print(f"{target}\t{score:.6f}")
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    config = _load_config(args)
    params = AugmentationParams(
        alpha=config.alpha if args.alpha is None else args.alpha,
        beta=config.beta if args.beta is None else args.beta,
        n_max=config.n_max,
    )
    targets = [float(v) for v in args.target_values.split(",") if v != ""]
    value = augment_for_tier(
        args.tier,
        args.source_value,
        targets[: params.n_max],
        params,
        tail_only=not args.all_tiers,
    )
    print(f"{value:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "pipeline":
            return _cmd_stages(args, None)
        if args.command in STAGE_COMMANDS:
            return _cmd_stages(args, (args.command,))
        if args.command == "evaluate":
            return _cmd_evaluate(args)
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
