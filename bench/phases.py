"""One benchmark phase: build, serve or resume.

``run(spec)`` runs the phase named in the spec against ``src/qreform`` and
returns its result as a JSON-ready dict.  ``bench/run.py`` calls it in a
child process forked for each phase, so that its peak RSS is its own.  With
``"trace": true`` the qreform layers are wrapped by ``Tracer`` and the
result carries per-layer figures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import string
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from qreform import corpus as corpus_mod  # noqa: E402
from qreform import encoders as enc_mod  # noqa: E402
from qreform import files as files_mod  # noqa: E402
from qreform import knn as knn_mod  # noqa: E402
from qreform import mining as mining_mod  # noqa: E402
from qreform import normalize as norm_mod  # noqa: E402
from qreform import pipeline  # noqa: E402
from qreform import synthgen as synth_mod  # noqa: E402
from qreform import training as train_mod  # noqa: E402
from tracer import Tracer  # noqa: E402

# A later edit a user makes in `resume` step 2; only evaluation reads it.
RESUME_EVAL_K = 50
WARMUP_REQUESTS = 50
SETUP_REPEATS = 2


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    """The manifest's digest format, computed without the code under test,
    so the checks neither trust it nor show up in its traced hashing."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _sha_tree(root: Path, skip_dirs=(), skip_files=()) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if path.is_dir() or rel.parts[0] in skip_dirs or str(rel) in skip_files:
            continue
        out[str(rel)] = _sha256(path)
    return out


# --- tracing plan -------------------------------------------------------

def _grad_rows(args, kwargs):
    grads = args[2] if len(args) > 2 else kwargs["grads"]
    useful = rows = 0
    for grad in grads.values():
        grid = np.asarray(grad).reshape(len(grad), -1) if np.ndim(grad) else np.reshape(grad, (1, 1))
        useful += int(np.count_nonzero(np.any(grid != 0.0, axis=1)))
        rows += grid.shape[0]
    return (useful, rows)


def _train_examples(args, kwargs):
    data = args[1] if len(args) > 1 else kwargs["train_data"]
    config = args[3] if len(args) > 3 else kwargs["config"]
    return (len(data) * config.epochs,)


def trace_qreform(tracer: Tracer) -> None:
    """Wrap each layer's public entry points named in the per-layer metrics."""
    fn, method = tracer.wrap_function, tracer.wrap_method
    fn(files_mod, "sha256_file", "files.sha256_file",
       before=lambda a, k: (os.path.getsize(a[0]),))
    fn(corpus_mod, "load_corpus", "corpus.load_corpus")
    fn(norm_mod, "group_queries", "normalize.group_queries",
       before=lambda a, k: (len(a[0].queries),))
    fn(mining_mod, "mine_pairs", "mining.mine_pairs", after=lambda r, a, k: (len(r),))
    fn(mining_mod, "kin_pairs", "mining.kin_pairs", after=lambda r, a, k: (len(r),))
    fn(train_mod, "build_retrieval_batches", "training.build_retrieval_batches")
    fn(train_mod, "loss_retrieval", "training.loss_retrieval")
    fn(train_mod, "loss_rerank_pointwise", "training.loss_pointwise")
    fn(train_mod, "loss_rerank_circle_many", "training.loss_circle")
    fn(train_mod, "train", "training.train", before=_train_examples)
    method(train_mod.AdamOptimizer, "step", "training.adam_step", before=_grad_rows)
    fn(pipeline.ance_mod, "mine_hard_negatives", "ance.mine_hard_negatives",
       after=lambda r, a, k: (sum(len(x.negatives) for x in r), len(r)))
    fn(knn_mod, "build_index", "knn.build_index")
    method(knn_mod.KnnIndex, "knn", "knn.knn")
    method(knn_mod.KnnIndex, "knn_many", "knn.knn_many",
           before=lambda a, k: (len(np.atleast_2d(a[1])),))
    fn(enc_mod, "featurize", "encoders.featurize")
    method(enc_mod.Featurizer, "matrix", "encoders.matrix", before=lambda a, k: (len(a[1]),))
    method(enc_mod.BiEncoderModel, "embed", "encoders.embed")
    method(enc_mod.CrossEncoderModel, "score_many", "encoders.score_many")
    method(enc_mod.CrossEncoderModel, "joint_matrix", "encoders.joint_matrix")
    fn(enc_mod, "save_checkpoint", "encoders.save_checkpoint")
    fn(pipeline, "run_pipeline", "pipeline.run_pipeline")
    fn(pipeline, "reformulate", "pipeline.reformulate")


def layer_metrics(tracer: Tracer, start: int = 0) -> dict[str, float]:
    """Per-layer figures from the spans recorded since ``start``."""
    s = tracer.summary(start)

    def get(name, key="self_s"):
        return s[name][key] if name in s else 0.0

    def value(name, i=0):
        return s[name]["value"][i] if name in s and s[name]["value"] else 0.0

    out = {
        "files.sha256_file_s": get("files.sha256_file"),
        "files.bytes_hashed": value("files.sha256_file"),
        "corpus.load_corpus_s": get("corpus.load_corpus"),
        "corpus.load_corpus_calls": get("corpus.load_corpus", "calls"),
        "normalize.group_queries_s": get("normalize.group_queries"),
        "mining.mine_pairs_s": get("mining.mine_pairs"),
        "mining.kin_pairs_s": get("mining.kin_pairs"),
        "mining.pairs_out": value("mining.mine_pairs") + value("mining.kin_pairs"),
        "training.build_retrieval_batches_s": get("training.build_retrieval_batches"),
        "training.build_retrieval_batches_calls": get("training.build_retrieval_batches", "calls"),
        "training.loss_retrieval_s": get("training.loss_retrieval"),
        "training.loss_pointwise_s": get("training.loss_pointwise"),
        "training.loss_circle_s": get("training.loss_circle"),
        "training.adam_step_s": get("training.adam_step"),
        "training.adam_steps": get("training.adam_step", "calls"),
        "ance.mine_hard_negatives_s": get("ance.mine_hard_negatives"),
        "knn.knn_many_s": get("knn.knn_many"),
        "knn.build_index_s": get("knn.build_index"),
        "knn.probes": value("knn.knn_many"),
        "encoders.featurize_s": get("encoders.featurize"),
        "encoders.featurize_calls": get("encoders.featurize", "calls"),
        "encoders.matrix_s": get("encoders.matrix"),
    }
    queries = value("normalize.group_queries")
    out["normalize.us_per_query"] = (
        get("normalize.group_queries", "total_s") / queries * 1e6 if queries else 0.0
    )
    steps = out["training.adam_steps"]
    out["training.adam_ms_per_step"] = out["training.adam_step_s"] / steps * 1e3 if steps else 0.0
    rows = value("training.adam_step", 1)
    out["training.adam_useful_row_ratio"] = value("training.adam_step") / rows if rows else 0.0
    train_s = get("training.train", "total_s")
    out["training.examples_per_s"] = value("training.train") / train_s if train_s else 0.0
    anchors = value("ance.mine_hard_negatives", 1)
    out["ance.negatives_per_anchor"] = value("ance.mine_hard_negatives") / anchors if anchors else 0.0
    lookups = value("encoders.matrix")
    out["encoders.featurizer_hit_ratio"] = (
        1.0 - out["encoders.featurize_calls"] / lookups if lookups else 0.0
    )
    requests = tracer.per_root("pipeline.reformulate", start)
    for span, metric in (
        ("encoders.embed", "encoders.embed_ms"),
        ("knn.knn", "knn.knn_ms"),
        ("encoders.score_many", "encoders.score_many_ms"),
        ("encoders.joint_matrix", "encoders.joint_matrix_ms"),
    ):
        out[metric] = (
            statistics.median(r.get(span, 0.0) for r in requests) * 1e3 if requests else 0.0
        )
    return out


# --- checks -------------------------------------------------------------

def trend_errors(reports: dict, config) -> list[str]:
    """The paper's trend orders on one build's reports."""
    key = f"recall{config.eval_k}_top3_micro"
    final = pipeline.MODEL_RETRIEVER_ANCE.format(round=config.ance_rounds)
    recall = [reports[m][key] for m in (
        pipeline.MODEL_RETRIEVER_BASELINE, pipeline.MODEL_RETRIEVER_WEIGHTED, final)]
    ndcg = [reports[m]["ndcg3_hard"] for m in (
        pipeline.MODEL_RERANKER_POINTWISE, pipeline.MODEL_RERANKER_CIRCLE)]
    errors = []
    if not recall[0] < recall[1] < recall[2]:
        errors.append(f"recall trend baseline < weighted < ance broken: {recall}")
    if not ndcg[0] < ndcg[1]:
        errors.append(f"ndcg3_hard trend pointwise < circle broken: {ndcg}")
    return errors


def result_errors(result, probe: str, threshold: float, n_max: int) -> list[str]:
    """What a reformulation result must satisfy, whatever the models learned."""
    errors = []
    texts = [t for t, _ in result.targets]
    scores = [s for _, s in result.targets]
    if result.source != probe:
        errors.append(f"result source {result.source!r} is not the probe {probe!r}")
    if probe in texts:
        errors.append(f"result for {probe!r} includes the probe")
    if len(texts) > n_max:
        errors.append(f"result for {probe!r} has {len(texts)} > n_max={n_max} targets")
    if any(a < b for a, b in zip(scores, scores[1:])):
        errors.append(f"result for {probe!r} is not sorted by descending score")
    if any(not s >= threshold for s in scores):
        errors.append(f"result for {probe!r} keeps a score below threshold {threshold}")
    return errors


def build_output_errors(out_dir: Path, manifest: dict, reports: dict) -> list[str]:
    """Every declared output exists with its recorded digest; reports finite."""
    errors = []
    present = {p.name: p for p in out_dir.rglob("*") if p.is_file()}
    missing_stages = [s for s in pipeline.STAGE_ORDER if s not in manifest.get("stages", {})]
    if missing_stages:
        errors.append(f"manifest lacks stages {missing_stages}")
    for stage, entry in manifest.get("stages", {}).items():
        for name, digest in entry["outputs"].items():
            if name not in present:
                errors.append(f"{stage}: declared output {name} is missing")
            elif _sha256(present[name]) != digest:
                errors.append(f"{stage}: output {name} does not match its digest")
    if not reports:
        errors.append("no evaluation reports")
    for model_id, metrics in reports.items():
        for key, value in metrics.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                errors.append(f"report {model_id}: {key}={value!r} is not finite")
    return errors


# --- phases -------------------------------------------------------------

def _config(spec) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig.from_dict(
        {**spec["config"], "out_dir": spec["out_dir"], "seed": spec["seed"]}
    )


def phase_build(spec, tracer) -> dict:
    """``run_pipeline`` from an empty directory: the offline job."""
    config = _config(spec)
    out_dir = Path(config.out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    started = time.perf_counter()
    try:
        run = pipeline.run_pipeline(config)
    except pipeline.StageFailure as exc:
        return {"attempted": 1, "failed": 1, "errors": [str(exc)]}
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.restore()
    reports = {m: r.metrics for m, r in pipeline.load_reports(config).items()}
    errors = build_output_errors(out_dir, run.manifest, reports)
    if spec.get("check_trends") and not errors:
        errors += trend_errors(reports, config)
    final = pipeline.MODEL_RETRIEVER_ANCE.format(round=config.ance_rounds)
    quality = {}
    if not errors:
        quality = {
            "recall_at_100": reports[final][f"recall{config.eval_k}_top3_micro"],
            "ndcg3_hard": reports[pipeline.MODEL_RERANKER_CIRCLE]["ndcg3_hard"],
            "spearman": reports[final]["spearman"],
            "eval_queries": reports[final]["n_eval_queries"],
            "ndcg_queries": reports[pipeline.MODEL_RERANKER_CIRCLE]["ndcg3_hard_queries"],
            "audit_pairs": len(pipeline.eval_mod.load_audit_labels(out_dir / "audit_labels.tsv")),
        }
    return {
        "attempted": 1,
        "failed": 0,
        "errors": errors,
        "wall_s": wall,
        "stage_seconds": {s: e["seconds"] for s, e in run.manifest["stages"].items()},
        **quality,
    }


class ProbeStream:
    """Tail queries rewritten into surface forms the corpus does not hold.

    Each probe shuffles a tail query's tokens and inserts one letter, so
    its featurization misses the encoders' caches while the candidates it
    retrieves come from the rich pool, which the cache keeps.
    """

    def __init__(self, tail, known, intents, seed: str) -> None:
        self.tail = tail
        self.known = known
        self.intents = intents
        self.rng = random.Random(seed)

    def next(self) -> tuple[str, str | None]:
        while True:
            source = self.rng.choice(self.tail)
            tokens = source.split()
            self.rng.shuffle(tokens)
            text = " ".join(tokens)
            at = self.rng.randrange(len(text) + 1)
            text = text[:at] + self.rng.choice(string.ascii_lowercase) + text[at:]
            if text.strip() and text not in self.known:
                return text, self.intents.get(source)


def _load_serving(config, seed: str):
    paths = pipeline.PipelinePaths(Path(config.out_dir))
    corpus = corpus_mod.load_corpus(paths.norm_queries, paths.corpus_events)
    truth = synth_mod.load_ground_truth(paths.intents, paths.relations)
    state = {
        "bi": enc_mod.load_checkpoint(paths.retriever_ance(config.ance_rounds)),
        "cross": enc_mod.load_checkpoint(paths.reranker_circle),
        "index": knn_mod.load_index(paths.index_file),
        "threshold": pipeline.load_threshold(paths),
        "intents": truth.query_intent,
    }
    tail = pipeline.tail_queries(corpus)
    state["probes"] = ProbeStream(tail, corpus.queries, truth.query_intent, seed)
    state["warmup"] = ProbeStream(tail, corpus.queries, truth.query_intent, f"{seed}/warmup")
    return state


def _request(state, config, probe):
    return pipeline.reformulate(
        probe, state["bi"], state["index"], state["cross"],
        top_k=config.top_k, threshold=state["threshold"], n_max=config.n_max,
    )


def phase_serve(spec, tracer) -> dict:
    """One caller in a closed loop calls ``reformulate`` on a built run.

    Set-up (load the final checkpoints, index, threshold and corpus, then
    warm the caches with a few requests) is repeated and each repeat timed.
    The caller then sends ``requests`` probes, drawn from the run's seed
    and the chunk's number.
    """
    config = _config(spec)
    probe_seed = f"{spec['probe_seed']}/{spec.get('chunk', 0)}"
    setups = []
    load_mark = 0
    for _ in range(SETUP_REPEATS):
        state = None
        started = time.perf_counter()
        load_mark = len(tracer.spans) if tracer is not None else 0
        state = _load_serving(config, probe_seed)
        for _ in range(WARMUP_REQUESTS):
            _request(state, config, state["warmup"].next()[0])
        setups.append(time.perf_counter() - started)
    loop_mark = len(tracer.spans) if tracer is not None else 0

    latencies, errors, hits, seen = [], [], 0, set()
    failed = 0
    loop_started = time.perf_counter()
    for _ in range(spec["requests"]):
        probe, intent = state["probes"].next()
        seen.add(probe)
        began = time.perf_counter()
        try:
            result = _request(state, config, probe)
        except Exception as exc:  # a failed request counts as missing every latency figure
            latencies.append(math.inf)
            failed += 1
            errors.append(f"request {probe!r} raised {exc!r}")
            continue
        latencies.append(time.perf_counter() - began)
        errors += result_errors(result, probe, state["threshold"], config.n_max)
        if any(state["intents"].get(t) == intent for t, _ in result.targets):
            hits += 1
    loop_wall = time.perf_counter() - loop_started

    out = {
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors[:20],
        "setups_s": setups,
        "loop_wall_s": loop_wall,
        "latencies_ms": [x * 1e3 for x in latencies],
        "intent_hit_rate": hits / len(latencies),
        "probe_distinct_share": len(seen) / len(latencies),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, loop_mark)
        out["layers"]["encoders.featurizer_cache_entries"] = sum(
            1 for record in tracer.spans[load_mark:] if record[0] == "encoders.featurize"
        )
    return out


def phase_resume(spec, tracer) -> dict:
    """Two edits a user makes to a finished run, each followed by a rerun.

    Step 1 deletes the last round's hard negatives and the index; step 2
    changes ``eval_k``.  The run is edited in place under the same
    ``out_dir`` string it was built with, because that string is part of
    the configuration hash, and restored from a copy afterwards.
    """
    config = _config(spec)
    out_dir = Path(config.out_dir)
    pristine = out_dir.with_name(out_dir.name + "-pristine")
    shutil.rmtree(pristine, ignore_errors=True)
    shutil.copytree(out_dir, pristine)
    base_manifest = json.loads((pristine / "manifest.json").read_text(encoding="utf-8"))
    base_files = _sha_tree(pristine, ("reports",), ("manifest.json", "config.json"))
    paths = pipeline.PipelinePaths(out_dir)
    paths.negatives(config.ance_rounds).unlink()
    paths.index_file.unlink()

    out = {"attempted": 0, "failed": 0, "errors": []}
    timings, runs = [], []
    for step_config in (config, dataclasses.replace(config, eval_k=RESUME_EVAL_K)):
        out["attempted"] += 1
        started = time.perf_counter()
        try:
            runs.append(pipeline.run_pipeline(step_config))
        except pipeline.StageFailure as exc:
            out["failed"] += 1
            out["errors"].append(str(exc))
            break
        timings.append(time.perf_counter() - started)
        if len(runs) == 1:
            for stage, entry in base_manifest["stages"].items():
                if runs[0].manifest["stages"].get(stage, {}).get("outputs") != entry["outputs"]:
                    out["errors"].append(f"step 1: stage {stage} outputs differ from the base build")
    if len(runs) == 2:
        after = _sha_tree(out_dir, ("reports",), ("manifest.json", "config.json"))
        changed = sorted(set(base_files) ^ set(after)) + sorted(
            name for name in base_files.keys() & after.keys() if base_files[name] != after[name]
        )
        if changed:
            out["errors"].append(f"step 2: artifacts differ from the base build: {changed[:10]}")
        out["wall_s"] = sum(timings)
        out["steps"] = {
            "step1_s": timings[0], "step2_s": timings[1],
            "executed": [len(r.executed) for r in runs],
            "skipped": [len(r.skipped) for r in runs],
        }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
    shutil.rmtree(out_dir)
    pristine.rename(out_dir)
    return out


PHASES = {"build": phase_build, "serve": phase_serve, "resume": phase_resume}


def run(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        trace_qreform(tracer)
    result = PHASES[spec["phase"]](spec, tracer)
    if tracer is not None:
        if spec["phase"] == "build":
            result["layers"] = layer_metrics(tracer)
        tracer.restore()
        tracer.write(spec["spans_path"])
    result["rss_mb"] = _rss_mb()
    return result
