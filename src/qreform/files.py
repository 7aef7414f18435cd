"""Versioned flat-file helpers shared by every artifact format.

Every artifact this package writes starts with a one-line header of the
form ``#qreform-<kind> v<version>[ key=value ...]`` so that readers can
reject files of the wrong kind or version before parsing a single row.
Rows are flat: each cell holds one value, never a list, so no cell needs
escaping, and ``write_tsv`` refuses a cell that holds a tab or a newline.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

HEADER_PREFIX = "#qreform-"
_HEADER_VERSION = "3"


class FileFormatError(ValueError):
    """Raised when an artifact file fails header or row validation."""


def format_header(kind: str, **attrs: object) -> str:
    parts = [f"{HEADER_PREFIX}{kind} v{_HEADER_VERSION}"]
    for key in sorted(attrs):
        parts.append(f"{key}={attrs[key]}")
    return " ".join(parts)


def parse_header(line: str, kind: str, path: os.PathLike | str) -> dict[str, str]:
    """Validate a header line against the expected kind, return its attrs."""
    line = line.rstrip("\n")
    expected = f"{HEADER_PREFIX}{kind} v"
    if not line.startswith(expected):
        raise FileFormatError(
            f"{path}: expected a '{HEADER_PREFIX}{kind}' header, got {line[:60]!r}"
        )
    fields = line[len(expected):].split(" ")
    attrs: dict[str, str] = {"version": fields[0]}
    for field in fields[1:]:
        if field:
            key, _, value = field.partition("=")
            attrs[key] = value
    if attrs["version"] != _HEADER_VERSION:
        raise FileFormatError(f"{path}: unsupported {kind} version {attrs['version']!r}")
    return attrs


@contextmanager
def atomic_write(path: os.PathLike | str, mode: str = "w", **open_args) -> Iterator[IO]:
    """Open a sibling temp file for writing; on success rename it onto ``path``.

    A write that raises, or a process killed mid-write, leaves the previous
    file whole; a failed write also removes its temp file.  Nothing is
    ``fsync``ed, so this promises nothing across power loss or a machine
    crash: the rename may reach the disk before the data it names.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tsv(
    path: os.PathLike | str,
    kind: str,
    rows: Iterable[Iterable[object]],
    columns: Iterable[str] | None = None,
    **attrs: object,
) -> None:
    """Write a versioned TSV atomically; a cell holding a tab, ``\\n`` or
    ``\\r`` would split its row on reading, so it raises ``ValueError``
    naming the file and the data row, and the previous file stays."""
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_header(kind, **attrs) + "\n")
        if columns is not None:
            fh.write("\t".join(columns) + "\n")
        for number, row in enumerate(rows, start=1):
            cells = [str(cell) for cell in row]
            line = "\t".join(cells)
            if line.count("\t") != len(cells) - 1 or "\n" in line or "\r" in line:
                raise ValueError(f"{path}: row {number} has a tab or newline in a cell: {cells!r}")
            fh.write(line + "\n")


def read_tsv(
    path: os.PathLike | str, kind: str, has_columns: bool = False
) -> tuple[dict[str, str], list[list[str]]]:
    """Read a whole versioned TSV: (header attrs, data rows).  Every
    artifact is read this way; none is large enough to need streaming.

    With ``has_columns`` the first row names the columns, and a data row
    with another number of cells raises ``FileFormatError`` naming the
    file and line.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise FileFormatError(f"{path}: empty file, expected a {kind} header")
        attrs = parse_header(header, kind, path)
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            row = line.split("\t")
            if has_columns and rows and len(row) != len(rows[0]):
                raise FileFormatError(
                    f"{path}:{lineno}: expected {len(rows[0])} tab-separated"
                    f" cells ({', '.join(rows[0])}), got {len(row)}"
                )
            rows.append(row)
    return attrs, rows[1:] if has_columns else rows


def write_npz(path: os.PathLike | str, meta: dict, **arrays: np.ndarray) -> None:
    """Write ``meta`` as sorted-key JSON bytes in a ``meta`` array, then
    ``arrays`` in their order, as one .npz, atomically."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(meta_bytes, dtype=np.uint8), **arrays)


def read_npz(path: os.PathLike | str) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta dict and the other arrays of a ``write_npz`` file; one
    that does not parse (an empty or truncated file) or has no ``meta``
    raises ``FileFormatError`` naming it."""
    try:
        # np.load given a path leaves the file open when it fails.
        with open(path, "rb") as fh, np.load(fh) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        meta = json.loads(arrays.pop("meta").tobytes().decode("utf-8"))
    except KeyError:
        raise FileFormatError(f"{path}: no meta array") from None
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FileFormatError(f"{path}: not a readable .npz file ({exc})") from None
    return meta, arrays


def require_keys(
    path: os.PathLike | str, what: str, mapping: Mapping, keys: Iterable[str]
) -> None:
    """Raise ``FileFormatError`` naming ``path`` and the first of ``keys``
    that ``mapping``, the meta or the arrays of a ``read_npz`` file, lacks."""
    for key in keys:
        if key not in mapping:
            raise FileFormatError(f"{path}: {what} has no {key!r}")


def require_dtype(
    path: os.PathLike | str,
    meta: Mapping,
    arrays: Mapping[str, np.ndarray],
    allowed: Iterable[np.dtype],
) -> None:
    """Raise ``FileFormatError`` naming ``path`` when the meta of a
    ``read_npz`` file records no dtype among ``allowed``, or one of
    ``arrays`` is not of the recorded dtype."""
    recorded = meta.get("dtype")
    if recorded not in [np.dtype(d).name for d in allowed]:
        raise FileFormatError(f"{path}: unsupported dtype {recorded!r}")
    for name, array in arrays.items():
        if array.dtype != recorded:
            raise FileFormatError(
                f"{path}: array {name!r} is {array.dtype.name}, the meta records {recorded}"
            )


def sha256_file(path: os.PathLike | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def iter_log_lines(path: os.PathLike | str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line), skipping blank lines and
    a ``#qreform-`` header on line 1; any other line is data, even one
    that starts with ``#``."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or (lineno == 1 and line.startswith(HEADER_PREFIX)):
                continue
            yield lineno, line
