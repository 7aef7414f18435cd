#!/usr/bin/env python3
"""qreform benchmark: the `build` and `serve` workloads.

Run from the repository root:

    python3 bench/run.py --workload build --seed 0 --seconds 40 --trace 0

The run prints a table of metrics with units and sample counts, then, as
its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
and ``--trace 1`` the per-layer ones.  Each phase (a build, a serving
chunk of requests, a resume) runs in a child process of its own, forked
after ``bench/phases.py`` and qreform are imported, so its peak RSS is its
own.  Every workload reports every end-to-end metric.  Both run cycles on
a reduced base run: build it, serve a chunk of requests from it, resume
it, serve another chunk.

* ``build``: the offline job, ``run_pipeline`` on the default
  ``PipelineConfig`` from an empty directory, after one cycle and before
  a serving chunk, a resume and a last chunk.
* ``serve``: cycles for about ``--seconds``, in which one caller in a
  closed loop calls ``reformulate`` on the base run built by the code
  under test.

Resuming (two user edits of a finished run, each followed by a rerun) is a
phase of both workloads rather than a workload of its own, and every timing
is taken from samples spread over the whole run, so that a slow spell of
the machine moves a share of the samples rather than a whole figure.

See ``bench/DESIGN.md`` for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
# Run directories are relative to ROOT: `out_dir` enters the pipeline's
# configuration hash, so a resumed run must see the string it was built with.
WORK = Path(".bench_work")
DEADLINE_S = 170.0
# Requests a serving process sends: enough for a p99 with ten samples
# beyond it.  Intent hits are counted on the run's first chunk, so the rate
# is the same for a seed however fast the code under test serves.
CHUNK_REQUESTS = 1000
# The median latency is taken in windows of this many consecutive requests,
# about 0.2 s, and averaged over the run; see bench/DESIGN.md.
P50_WINDOW = 100

# Every run builds its corpora from one fixed pipeline seed, so model
# quality and the paper's trend checks are the same in every run; --seed
# draws the serving requests.
PIPELINE_SEED = 0
# The reduced run `serve` starts from and both workloads resume.  A
# small synthetic corpus, smaller hashed feature spaces and a lower
# rich-traffic threshold keep a build near three seconds while the rich
# pool (162 queries) still fills the default top_k=100 candidates.
BASE = {
    "synth": {"n_intents": 14, "queries_per_intent": 14},
    "n_test_queries": 30,
    "rich_threshold": 8,
    "reranker_epochs": 1,
    "bi_feature_dim": 4096,
    "cross_feature_dim": 2048,
}
# Sized like the test suite's tiny_config; used by bench/smoke.py.
TINY = {
    "synth": {"n_intents": 12, "queries_per_intent": 10, "products_per_catalog": 12,
              "n_audit_pairs": 120},
    "n_test_queries": 20,
    "retriever_epochs": 2,
    "ance_rounds": 2,
    "reranker_epochs": 1,
}
# size -> (config of the `build` workload's build, config of every base run)
SIZES = {"default": ({}, BASE), "tiny": (TINY, TINY)}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "build_s": "s",
    "recall_at_100": "ratio",
    "ndcg3_hard": "ratio",
    "spearman": "rho",
    "reformulate_p50_ms": "ms",
    "reformulate_p99_ms": "ms",
    "reformulate_qps": "1/s",
    "intent_hit_rate": "ratio",
    "resume_s": "s",
}
STAGES = ("synth-gen", "ingest", "normalize", "mine", "train-retriever", "ance",
          "train-reranker", "index", "evaluate")
PER_LAYER = {
    **{f"pipeline.{stage}_s": "s" for stage in STAGES},
    "pipeline.resume_step1_s": "s",
    "pipeline.resume_step2_s": "s",
    "pipeline.stages_executed.step1": "count",
    "pipeline.stages_executed.step2": "count",
    "pipeline.stages_skipped.step1": "count",
    "pipeline.stages_skipped.step2": "count",
    "files.sha256_file_s": "s",
    "files.bytes_hashed": "bytes",
    "corpus.load_corpus_s": "s",
    "corpus.load_corpus_calls": "count",
    "normalize.group_queries_s": "s",
    "normalize.us_per_query": "us",
    "mining.mine_pairs_s": "s",
    "mining.kin_pairs_s": "s",
    "mining.pairs_out": "count",
    "training.build_retrieval_batches_s": "s",
    "training.build_retrieval_batches_calls": "count",
    "training.loss_retrieval_s": "s",
    "training.loss_pointwise_s": "s",
    "training.loss_circle_s": "s",
    "training.adam_step_s": "s",
    "training.adam_steps": "count",
    "training.adam_ms_per_step": "ms",
    "training.adam_useful_row_ratio": "ratio",
    "training.examples_per_s": "1/s",
    "ance.mine_hard_negatives_s": "s",
    "ance.negatives_per_anchor": "count",
    "knn.knn_many_s": "s",
    "knn.build_index_s": "s",
    "knn.probes": "count",
    "encoders.featurize_s": "s",
    "encoders.featurize_calls": "count",
    "encoders.featurizer_hit_ratio": "ratio",
    "encoders.matrix_s": "s",
    "encoders.embed_ms": "ms",
    "knn.knn_ms": "ms",
    "encoders.score_many_ms": "ms",
    "encoders.joint_matrix_ms": "ms",
    "encoders.featurizer_cache_entries": "count",
    "serve.probe_distinct_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Runner:
    """Runs phases in child processes and keeps the run's accounting."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.full, self.base = SIZES[size]
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.log: list[str] = []

    def phase(self, phase: str, out: str, **spec) -> dict | None:
        """Run one phase on the `full` run or the `base` run."""
        spec = {
            "phase": phase,
            "config": self.full if out == "full" else self.base,
            "seed": PIPELINE_SEED,
            "probe_seed": self.seed,
            "out_dir": str(WORK / self.workload / out),
            **spec,
        }
        if spec.get("trace"):
            spec["spans_path"] = str(WORK / "spans" / f"{self.workload}-{phase}-{out}.jsonl")
        started = time.monotonic()
        result, failure = run_forked(spec, self.deadline - started)
        self.log.append(f"phase {phase:6s} {out:4s} {time.monotonic() - started:7.2f} s")
        if result is None:
            self._fail(f"{phase} phase {failure}")
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += [f"{phase}: {e}" for e in result["errors"]]
        return None if result["errors"] else result

    def _fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)


def run_forked(spec: dict, timeout_s: float) -> tuple[dict | None, str]:
    """Run one phase in a child forked from this process.

    This process has imported ``phases`` and with it numpy, scipy and
    qreform, so each phase starts as a fresh interpreter would once its
    imports are done, without paying for them again.  This process starts
    no threads of its own, and OpenBLAS, which numpy loads, stops its thread
    pool before a fork and starts it again in the child.  The child sends its
    result as JSON through a pipe; what the phase prints goes to stderr.  An
    alarm ends the child once ``timeout_s`` has passed.  Returns the result,
    or None and why the child failed.
    """
    import phases

    if timeout_s < 1.0:
        return None, f"not started: the {DEADLINE_S:.0f} s deadline has passed"
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            signal.alarm(math.ceil(timeout_s))
            os.dup2(2, 1)
            result = phases.run(spec)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(result, pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        signal_name = signal.Signals(os.WTERMSIG(status)).name
        return None, f"was ended by {signal_name} (deadline {DEADLINE_S:.0f} s)"
    if os.WEXITSTATUS(status) != 0:
        return None, f"exited {os.WEXITSTATUS(status)}; its traceback is on stderr"
    return json.loads(data), ""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed requests enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def qps(latencies: list[float]) -> float:
    """Requests per second of serving time for the single closed-loop caller."""
    served = [x for x in latencies if math.isfinite(x)]
    return len(served) / (sum(served) / 1e3) if served else 0.0


def median(values: list[float]) -> tuple:
    """A metric is (value, samples, statistic)."""
    return (statistics.median(values), len(values), f"median/{len(values)}")


class Samples:
    """Results of the phases on the base run, by phase, in order."""

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.by_phase: dict[str, list[dict]] = {"build": [], "serve": [], "resume": []}

    def take(self, *ops: str) -> bool:
        """Run the phases ``ops`` on the base run; False once one fails."""
        for op in ops:
            extra = {}
            if op == "serve":
                extra = {"chunk": len(self.by_phase["serve"]), "requests": CHUNK_REQUESTS}
            result = self.runner.phase(op, "base", **extra)
            if result is None:
                return False
            self.by_phase[op].append(result)
        return True


def end_to_end(runner: Runner, seconds: int) -> dict[str, tuple]:
    """Every end-to-end metric, each from samples spread over the whole run.

    A cycle on the base run builds it, serves a chunk of requests, resumes
    it and serves another chunk.  `serve` repeats cycles while another one
    as long as the last would end nearer to ``seconds`` than stopping does.  `build` runs one
    cycle, builds the default configuration, then serves a chunk, resumes
    the base run again and serves a last chunk.  ``bench/DESIGN.md`` gives how each figure
    reduces its samples so that a slow spell of the machine does not
    decide it.
    """
    samples = Samples(runner)
    if runner.workload == "build":
        full = samples.take("build", "serve", "resume", "serve") and runner.phase(
            "build", "full", check_trends=runner.size == "default")
        if not (full and samples.take("serve", "resume", "serve")):
            return {}
        built, build_s, rss = full, (full["wall_s"], 1, "default config"), full["rss_mb"]
    else:
        started = cycle_started = time.monotonic()
        while True:
            if not samples.take("build", "serve", "resume", "serve"):
                return {}
            now = time.monotonic()
            if (now - started) + (now - cycle_started) / 2 > seconds:
                break
            cycle_started = now
        built = samples.by_phase["build"][0]
        build_s = median([b["wall_s"] for b in samples.by_phase["build"]])
        rss = statistics.median(s["rss_mb"] for s in samples.by_phase["serve"])
    serves = samples.by_phase["serve"]
    chunks = [s["latencies_ms"] for s in serves]
    latencies = [x for c in chunks for x in c]
    n = len(latencies)
    p50s = [percentile(c[i:i + P50_WINDOW], 0.50)
            for c in chunks for i in range(0, len(c), P50_WINDOW)]
    p99s = [percentile(c, 0.99) for c in chunks]
    return {
        "setup_s": median([x for s in serves for x in s["setups_s"]]),
        "peak_rss_mb": (rss, 1, "process"),
        "build_s": build_s,
        "recall_at_100": (built["recall_at_100"], built["eval_queries"], "queries"),
        "ndcg3_hard": (built["ndcg3_hard"], built["ndcg_queries"], "queries"),
        "spearman": (built["spearman"], built["audit_pairs"], "audit pairs"),
        "reformulate_p50_ms": (statistics.fmean(p50s), n, f"mean of {len(p50s)} windows"),
        "reformulate_p99_ms": (statistics.median(p99s), n, f"median of {len(p99s)} chunks"),
        "reformulate_qps": (qps(latencies), n, "all requests"),
        "intent_hit_rate": (serves[0]["intent_hit_rate"], serves[0]["attempted"], "first chunk"),
        "resume_s": median([r["wall_s"] for r in samples.by_phase["resume"]]),
    }


def per_layer(runner: Runner, seconds: int) -> dict[str, tuple]:
    """An untraced pass of the workload's main phase, then the same work traced.

    Stage seconds come from the untraced pass's manifest; everything else
    from the traced pass.  Tracing overhead is traced wall minus untraced
    wall for the same amount of work: on `serve`, one chunk of requests per
    ten ``seconds``.  `serve` also resumes its base run
    once untraced and once traced: the resume supplies the `pipeline` step
    and `files` layers, the serving loop every other layer.
    """
    phase = runner.phase
    if runner.workload == "build":
        untraced = phase("build", "full")
        traced = untraced and phase("build", "full", trace=True)
        walls = untraced and traced and (untraced["wall_s"], traced["wall_s"])
        stages = untraced and untraced["stage_seconds"]
    else:
        requests = CHUNK_REQUESTS * max(1, seconds // 10)
        built = phase("build", "base")
        untraced = built and phase("serve", "base", requests=requests)
        traced = untraced and phase("serve", "base", requests=requests, trace=True)
        walls = untraced and traced and (untraced["loop_wall_s"], traced["loop_wall_s"])
        stages = built and built["stage_seconds"]
        resumed = traced and phase("resume", "base")
        resumed_traced = resumed and phase("resume", "base", trace=True)
        if not resumed_traced:
            return {}
    if not (untraced and traced):
        return {}
    layers = {name: (0.0, 0, "absent") for name in PER_LAYER}
    layers.update({name: (value, 1, "traced") for name, value in traced["layers"].items()})
    layers.update({f"pipeline.{s}_s": (v, 1, "manifest") for s, v in stages.items()})
    if runner.workload == "serve":
        for name in ("files.sha256_file_s", "files.bytes_hashed"):
            layers[name] = (resumed_traced["layers"][name], 1, "traced resume")
        step = resumed["steps"]
        for i, name in enumerate(("step1", "step2")):
            layers[f"pipeline.resume_{name}_s"] = (step[f"{name}_s"], 1, "untraced resume")
            layers[f"pipeline.stages_executed.{name}"] = (step["executed"][i], 1, "count")
            layers[f"pipeline.stages_skipped.{name}"] = (step["skipped"][i], 1, "count")
        layers["serve.probe_distinct_share"] = (
            untraced["probe_distinct_share"], untraced["attempted"], "requests")
    layers["trace.overhead_s"] = (walls[1] - walls[0], 1, "difference")
    layers["trace.overhead_ratio"] = (walls[1] / walls[0] - 1.0, 1, "difference")
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="default",
                        help="input size; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qreform" / "pipeline.py").is_file():
        print(f"bench: no qreform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    shutil.rmtree(WORK / args.workload, ignore_errors=True)

    runner = Runner(args.workload, args.seed, args.size)
    try:
        if args.trace:
            measured, units = per_layer(runner, args.seconds), PER_LAYER
        else:
            measured, units = end_to_end(runner, args.seconds), END_TO_END
    finally:
        shutil.rmtree(WORK / args.workload, ignore_errors=True)
    if not runner.errors and set(measured) != set(units):
        runner.errors.append(f"metrics missing: {sorted(set(units) - set(measured))}")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print("\n".join(runner.log))
    print(f"{'metric':40s} {'value':>16s} {'unit':8s} {'samples':>8s}  statistic")
    for name in units:
        if name in measured:
            value, samples, stat = measured[name]
            print(f"{name:40s} {value:16.6f} {units[name]:8s} {samples:8d}  {stat}")
    for error in runner.errors:
        print(f"ERROR {error}")
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": measured[name][0], "unit": units[name]}
                    for name in units if name in measured},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
