"""Versioned artifact file plumbing."""

import re

import numpy as np
import pytest

from qreform import ance, corpus, encoders, evaluation, files, knn, mining, normalize
from qreform.files import (
    FileFormatError,
    format_header,
    iter_log_lines,
    parse_header,
    read_tsv,
    sha256_file,
    write_tsv,
)
from tests.conftest import truncate


def test_header_round_trip():
    line = format_header("pairs", floor="0.01", mode="proposed")
    attrs = parse_header(line, "pairs", "in-memory")
    assert attrs == {"version": "3", "floor": "0.01", "mode": "proposed"}


def test_header_rejects_wrong_kind():
    line = format_header("pairs")
    with pytest.raises(FileFormatError, match="expected"):
        parse_header(line, "groups", "x.tsv")


def test_header_rejects_wrong_version():
    with pytest.raises(FileFormatError, match="version"):
        parse_header("#qreform-pairs v1", "pairs", "x.tsv")


def test_header_rejects_garbage():
    with pytest.raises(FileFormatError):
        parse_header("not a header", "pairs", "x.tsv")


def test_tsv_round_trip(tmp_path):
    path = tmp_path / "t.tsv"
    rows = [("a", "1"), ("b", "2")]
    write_tsv(path, "demo", rows, columns=("name", "value"), extra="yes")
    attrs, loaded = read_tsv(path, "demo", has_columns=True)
    assert attrs["extra"] == "yes"
    assert loaded == [["a", "1"], ["b", "2"]]
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert first_line.startswith("#qreform-demo v3")


def test_tsv_missing_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(FileFormatError):
        read_tsv(path, "demo")


def _pairs(path):
    mining.save_pairs(path, [mining.QueryPair("a", "b", 0.5, 0.4, 0.6)])
    return mining.load_pairs


def _kin(path):
    mining.save_kin(path, [("a", "b")])
    return mining.load_kin


def _groups(path):
    records = corpus.Corpus(min_purchase=1)
    records.add_row("a", "p", 1)
    normalize.save_groups(path, [normalize.QueryGroup("a", ("a",), {"p": 1})])
    return lambda groups: normalize.load_groups(groups, records)


def _audit_labels(path):
    evaluation.save_audit_labels(path, [evaluation.AuditLabel("a", "b", 2)])
    return evaluation.load_audit_labels


def _hard_negatives(path):
    ance.save_hard_negatives(path, [ance.HardNegativeRecord("a", ("b",), 1, "x")])
    return ance.load_hard_negatives


def _corpus_events(path):
    # The query file has one column, so only its events file has a row to cut.
    records = corpus.Corpus(min_purchase=1)
    records.add_row("a", "p", 1)
    records.finalize()
    queries = path.with_name("queries.tsv")
    corpus.save_queries(records, queries)
    corpus.save_events(records, path)
    return lambda events: corpus.load_corpus(queries, events)


@pytest.mark.parametrize(
    "save", [_pairs, _kin, _groups, _audit_labels, _hard_negatives, _corpus_events]
)
def test_truncated_row_names_file_and_line(tmp_path, save):
    path = tmp_path / "artifact.tsv"
    load = save(path)
    header, columns, row = path.read_text(encoding="utf-8").splitlines()
    path.write_text(f"{header}\n{columns}\n\n{row.rsplit(chr(9), 1)[0]}\n", encoding="utf-8")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}:4: expected"):
        load(path)


def test_version_1_file_is_rejected_naming_it(tmp_path):
    path = tmp_path / "groups.tsv"
    path.write_text(
        "#qreform-groups v1\nnormalized_text\tmembers\tcounts\na\ta\tp:1\n",
        encoding="utf-8",
    )
    records = corpus.Corpus(min_purchase=1)
    records.add_row("a", "p", 1)
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: unsupported"):
        normalize.load_groups(path, records)


@pytest.mark.parametrize("cell", ["a\tb", "a\nb", "a\rb"])
def test_write_tsv_rejects_a_cell_that_would_split_its_row(tmp_path, cell):
    path = tmp_path / "artifact.tsv"
    path.write_bytes(b"old contents")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 2 "):
        write_tsv(path, "demo", [("x", "y"), ("z", cell)], columns=("a", "b"))
    assert path.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.tsv"]


def test_iter_log_lines_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text(
        "#qreform-behavior-log v1\nq1\tp1\t3\n\n# comment\nq2\tp2\t1\n",
        encoding="utf-8",
    )
    lines = list(iter_log_lines(path))
    # Only the header on line 1 is skipped: a later "#" line is data.
    assert lines == [(2, "q1\tp1\t3"), (4, "# comment"), (5, "q2\tp2\t1")]


def test_sha256_stability(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"abc")
    assert (
        sha256_file(path)
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


class _WriteFailed(RuntimeError):
    pass


def _failing_rows():
    yield ("a", "1")
    raise _WriteFailed


def _failing_savez(fh, **arrays):
    fh.write(b"partial")
    raise _WriteFailed


def _write_tsv(path):
    write_tsv(path, "demo", _failing_rows())


def _save_checkpoint(path):
    encoders.save_checkpoint(encoders.BiEncoderModel.initialize(16, 2), path)


def _save_cross_checkpoint(path):
    encoders.save_checkpoint(encoders.CrossEncoderModel.initialize(16, (2,)), path)


def _save_index(path):
    knn.save_index(knn.KnnIndex(["a"], np.ones((1, 2)) / np.sqrt(2.0)), path)


@pytest.mark.parametrize("write", [_write_tsv, _save_checkpoint, _save_index])
def test_write_failing_midway_keeps_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    path.write_bytes(b"old contents")
    monkeypatch.setattr(np, "savez", _failing_savez)
    with pytest.raises(_WriteFailed):
        write(path)
    assert path.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def _empty(path):
    path.write_bytes(b"")


def _drop_array(name):
    def damage(path):
        with np.load(path) as bundle:
            arrays = {key: bundle[key] for key in bundle.files if key != name}
        np.savez(path, **arrays)

    return damage


def _drop_meta_key(key):
    def damage(path):
        meta, arrays = files.read_npz(path)
        del meta[key]
        files.write_npz(path, meta, **arrays)

    return damage


_LOADERS = {
    "checkpoint": (_save_checkpoint, encoders.load_checkpoint),
    "cross_checkpoint": (_save_cross_checkpoint, encoders.load_checkpoint),
    "index": (_save_index, knn.load_index),
}
_WHOLE_FILE_DAMAGE = [
    ("truncated", truncate, "not a readable .npz"),
    ("empty", _empty, "not a readable .npz"),
    ("no-meta", _drop_array("meta"), "no meta"),
]
_MISSING_KEYS = [
    ("index", "index", _drop_array, "query_ids"),
    ("index", "index", _drop_array, "embeddings"),
    ("index", "index meta", _drop_meta_key, "count"),
    ("index", "index meta", _drop_meta_key, "dim"),
    ("checkpoint", "checkpoint meta", _drop_meta_key, "feature_dim"),
    ("checkpoint", "checkpoint meta", _drop_meta_key, "embed_dim"),
    ("checkpoint", "checkpoint meta", _drop_meta_key, "seed"),
    ("cross_checkpoint", "checkpoint meta", _drop_meta_key, "feature_dim"),
    ("cross_checkpoint", "checkpoint meta", _drop_meta_key, "hidden_dims"),
    ("cross_checkpoint", "checkpoint meta", _drop_meta_key, "seed"),
]


@pytest.mark.parametrize(
    "save, load, damage, message",
    [
        pytest.param(*_LOADERS[artifact], damage, message, id=f"{artifact}-{damage_id}")
        for artifact in ("checkpoint", "index")
        for damage_id, damage, message in _WHOLE_FILE_DAMAGE
    ]
    + [
        pytest.param(
            *_LOADERS[artifact], drop(key), f"{what} has no '{key}'", id=f"{artifact}-no-{key}"
        )
        for artifact, what, drop, key in _MISSING_KEYS
    ],
)
def test_damaged_npz_names_the_file(tmp_path, save, load, damage, message):
    path = tmp_path / "artifact.npz"
    save(path)
    damage(path)
    with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}: {message}"):
        load(path)


@pytest.mark.parametrize(
    "save, load", [_LOADERS["checkpoint"], _LOADERS["index"]], ids=["checkpoint", "index"]
)
def test_missing_npz_stays_file_not_found(tmp_path, save, load):
    with pytest.raises(FileNotFoundError):
        load(tmp_path / "absent.npz")
