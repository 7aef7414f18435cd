"""Command-line front end.

Each pipeline stage is a subcommand; ``pipeline`` runs them all with
checksum-based resume.  ``evaluate`` is the evaluate stage's command like
any other: it skips the stage when the stage is fresh and reruns it when
it is stale.  With ``--model M`` it then prints the report the stage saved
for model M instead of the run directory; an unknown model id fails
before anything is written.  ``reformulate`` serves a query from a run.
A command works on the run in ``--out-dir``, or else in the config's
``out_dir``; given no ``--config``, it reads the config that the run's
manifest records.  A ``--config`` or ``--seed`` that differs from the
record (from its hash, on a run that records none) is refused before
anything is written, naming the differing fields; ``--force`` on
``pipeline`` or a stage command rebuilds the run under that config.
Exit status is 0 on success and 1 on failure with a stage-qualified
message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .evaluation import load_report
from .pipeline import (
    STAGE_ORDER,
    PipelineConfig,
    PipelinePaths,
    StageFailure,
    load_manifest,
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
    return parser


def _differing_fields(recorded: dict, given: dict, prefix: str = "") -> list[str]:
    """Each field whose value differs between two ``settings()`` dicts, as
    ``name (run R, given G)``; a nested section's fields as ``section.name``."""
    fields = []
    for name, old in recorded.items():
        new = given[name]
        if isinstance(old, dict):
            fields += _differing_fields(old, new, f"{prefix}{name}.")
        elif old != new:
            fields.append(f"{prefix}{name} (run {old!r}, given {new!r})")
    return fields


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    """The config a command runs under, in its run directory: ``--config``,
    or else the config the run records, or else the default, with
    ``--seed`` applied.  Unless ``--force`` is given, a config that differs
    from the run's record raises a ValueError naming the differing fields."""
    given = PipelineConfig.load_json(args.config) if args.config else None
    paths = PipelinePaths(args.out_dir or (given or PipelineConfig()).out_dir)
    manifest = load_manifest(paths)
    recorded = None
    if "config" in manifest:
        try:
            recorded = PipelineConfig.from_dict(manifest["config"])
        except ValueError as exc:
            raise ValueError(f"{paths.manifest}: {exc}") from exc
    config = dataclasses.replace(given or recorded or PipelineConfig(), out_dir=str(paths.root))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    differing = []
    if recorded is not None:
        differing = _differing_fields(recorded.settings(), config.settings())
    elif manifest.get("config_hash") not in (None, config.config_hash()):
        differing = [f"config hash (run {manifest['config_hash']}, given {config.config_hash()})"]
    if differing and not getattr(args, "force", False):
        hint = "; --force rebuilds it under the given config" if "force" in args else ""
        raise ValueError(
            f"run directory {paths.root} records another config: {', '.join(differing)}{hint}"
        )
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "pipeline":
            return _cmd_stages(args, None)
        if args.command in STAGE_ORDER:
            return _cmd_stages(args, (args.command,))
        if args.command == "reformulate":
            return _cmd_reformulate(args)
        raise ValueError(f"unknown command: {args.command!r}")
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
