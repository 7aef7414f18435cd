"""Run the declared benchmark in pairs on two checkouts and summarize it.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload serve \
        --pairs 10 --seed-base 100 --out BENCH_N.json

Pair i runs the benchmark command of ``BENCHMARK.json`` (``bench/run.py``)
once in each checkout with seed ``seed-base + i``, the parent first in even
pairs and the change first in odd ones, and keeps each run's final JSON
line.  The output file gets, for the workload, ``runs`` (side -> seed ->
JSON line), ``operations`` (each side's attempted and failed operations)
and ``summary`` (metric -> each side's median and quartiles, pairs the
change won, its relative worsening and the declared bound).  For
every metric the summary also says whether the change stayed within the
bound, whether each side's interquartile range stayed within the bound
(taken, like the worsening, as a share of the parent's median; runs that
spread wider cannot tell a change from noise), and whether a gain holds:
the change better in at least nine tenths of the pairs, ties counting for
neither, and the medians further apart than the parent's interquartile
range.  Other workloads already in the output file are kept, so one file
can hold both workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
WIN_SHARE = 0.9


def run_pairs(
    run: Callable[[str, int], dict], pairs: int, seed_base: int
) -> dict[str, dict[str, dict]]:
    """Each side's result by seed, from ``run(side, seed)`` called in pairs."""
    runs: dict[str, dict[str, dict]] = {side: {} for side in SIDES}
    for i in range(pairs):
        seed = seed_base + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side][str(seed)] = run(side, seed)
    return runs


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarize(runs: dict[str, dict[str, dict]], declared: list[dict]) -> dict[str, dict]:
    """Per declared end-to-end metric, the two sides compared pair by pair.

    A pair enters a metric only if both of its runs report that metric.
    """
    summary = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        values = [
            (runs["parent"][seed]["metrics"][name]["value"], change["metrics"][name]["value"])
            for seed, change in runs["change"].items()
            if name in change.get("metrics", {})
            and name in runs["parent"].get(seed, {}).get("metrics", {})
        ]
        if not values:
            continue
        parent = _spread([p for p, _ in values])
        change = _spread([c for _, c in values])
        wins = sum(c < p if lower else c > p for p, c in values)
        gap = change["median"] - parent["median"]
        worse = gap if lower else -gap
        if parent["median"]:
            share = worse / abs(parent["median"])
        else:
            share = math.copysign(math.inf, worse) if worse else 0.0
        spread_bound = metric["bound"] * abs(parent["median"])
        summary[name] = {
            "parent": parent,
            "change": change,
            "spread_within_bound": {
                side: row["q3"] - row["q1"] <= spread_bound
                for side, row in (("parent", parent), ("change", change))
            },
            "change_better_in_pairs": f"{wins}/{len(values)}",
            "change_worse_by_share_of_parent_median": round(share, 4),
            "bound": metric["bound"],
            "within_bound": share <= metric["bound"],
            "gain_holds": wins >= math.ceil(WIN_SHARE * len(values))
            and worse < 0
            and abs(gap) > parent["q3"] - parent["q1"],
        }
    return summary


def final_json_line(stdout: str, stderr: str, returncode: int) -> dict:
    """The benchmark's last output line, or a failed result if it has none."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {
            "correct": False,
            "attempted": 1,
            "failed": 1,
            "metrics": {},
            "error": f"exit {returncode}: {stderr.strip()[-400:]}",
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True, choices=("build", "serve"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or extend")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [
        *benchmark["command"], "--workload", args.workload,
        "--seconds", str(benchmark["run_seconds"]),
    ]
    checkouts = {"parent": args.parent, "change": args.change}

    def run(side: str, seed: int) -> dict:
        done = subprocess.run(
            [*command, "--seed", str(seed)],
            cwd=checkouts[side], capture_output=True, text=True, check=False,
        )
        result = final_json_line(done.stdout, done.stderr, done.returncode)
        print(f"{args.workload} seed {seed} {side}: correct={result['correct']}", flush=True)
        return result

    runs = run_pairs(run, args.pairs, args.seed_base)
    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    last = args.seed_base + args.pairs - 1
    out.setdefault("commands", {})[args.workload] = (
        f"{' '.join(command)} --seed S, S = {args.seed_base}..{last}, "
        "parent first in even pairs"
    )
    out.setdefault("summary", {})[args.workload] = summarize(runs, benchmark["end_to_end"])
    out.setdefault("operations", {})[args.workload] = {
        side: {key: sum(r[key] for r in runs[side].values()) for key in ("attempted", "failed")}
        for side in SIDES
    }
    out.setdefault("runs", {})[args.workload] = runs
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for name, row in out["summary"][args.workload].items():
        print(
            f"{name:22s} {row['parent']['median']:12.5g} -> {row['change']['median']:12.5g}"
            f"  better {row['change_better_in_pairs']:>5s}"
            f"  worse {row['change_worse_by_share_of_parent_median']:+.4f}"
            f"  within bound {row['within_bound']!s:5s}  gain {row['gain_holds']!s:5s}"
            f"  steady {all(row['spread_within_bound'].values())}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
