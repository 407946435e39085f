"""Tabular dataset model: schema, CSV ingestion, splitting, shuffling.

Every other module consumes the :class:`Dataset` defined here. A dataset is a
plain numeric table (float64 feature matrix) plus one class-label column whose
values are opaque identifiers (ints or strings, never used arithmetically),
all described by a :class:`Schema`.

Datasets are immutable after construction and safe to share across workers;
every stochastic operation takes an explicit integer seed and is a pure
function of (inputs, seed).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import pickle
import shutil
import signal
import stat
import tempfile
import traceback
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .errors import (
    ClassTooSmall,
    CountExceedsClass,
    EmptyFile,
    MalformedCsv,
    MissingColumn,
    NonNumericCell,
    ValidationError,
)

NUMERIC = "numeric"
LABEL = "label"


def derive_seed(master: int, *context) -> int:
    """Derive a 64-bit sub-seed from a master seed and context labels.

    The derivation is a stable hash, so sub-streams keyed by stage name or
    record index are independent of each other and reproducible across runs
    and platforms. Numpy scalars hash as the builtin values they hold, so
    ``np.float64(0.3)`` and ``0.3`` give the same seed.
    """
    context = tuple(c.item() if isinstance(c, np.generic) else c for c in context)
    payload = repr((int(master),) + context).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def sorted_labels(labels) -> list:
    """Deterministic ordering of class identifiers.

    Natural order when the labels are mutually comparable, otherwise ordered
    by (type name, string form). The first label in this order is the "lower
    class id" used by tie rules elsewhere.
    """
    uniq = set(labels)
    try:
        return sorted(uniq)
    except TypeError:
        return sorted(uniq, key=lambda v: (type(v).__name__, str(v)))


@dataclass(frozen=True)
class Schema:
    """Ordered column declarations for a table.

    Each column is a ``(name, kind)`` pair with kind ``"numeric"`` or
    ``"label"``. Exactly one column must be the label.
    """

    columns: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            raise ValidationError("column names must be unique")
        if any(not name for name in names):
            raise ValidationError("column names must be non-empty")
        kinds = [kind for _, kind in self.columns]
        bad = [k for k in kinds if k not in (NUMERIC, LABEL)]
        if bad:
            raise ValidationError(f"unknown column kind(s): {bad}")
        if kinds.count(LABEL) != 1:
            raise ValidationError("schema must declare exactly one label column")

    @property
    def label_column(self) -> int:
        return next(i for i, (_, kind) in enumerate(self.columns) if kind == LABEL)

    @property
    def column_names(self) -> list[str]:
        return [name for name, _ in self.columns]

    @property
    def feature_names(self) -> list[str]:
        return [name for name, kind in self.columns if kind == NUMERIC]

    @property
    def dim(self) -> int:
        return len(self.columns) - 1

    def feature_index(self, name: str) -> int:
        """Position of a numeric column within the feature matrix."""
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise MissingColumn(name) from None

    def drop_features(self, names) -> "Schema":
        dropped = set(names)
        return Schema(tuple(c for c in self.columns if c[0] not in dropped or c[1] == LABEL))

    def to_dict(self) -> dict:
        return {"columns": [{"name": n, "kind": k} for n, k in self.columns]}

    @classmethod
    def from_dict(cls, payload: dict) -> "Schema":
        try:
            return cls(tuple((c["name"], c["kind"]) for c in payload["columns"]))
        except (KeyError, TypeError):
            raise ValidationError('a schema is {"columns": [{"name": ..., "kind": ...}]}') from None

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Schema":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric table with one label column.

    ``features`` has shape ``(n, d)`` where ``d`` counts the numeric columns
    in schema order; ``labels`` holds the class identifiers.
    """

    schema: Schema
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64)
        labs = np.array(self.labels, dtype=object)
        if feats.ndim != 2:
            raise ValidationError("features must be a 2-D array")
        if feats.shape[0] != labs.shape[0]:
            raise ValidationError("features and labels disagree on record count")
        if feats.shape[1] != self.schema.dim:
            raise ValidationError(
                f"schema declares {self.schema.dim} numeric columns, features have {feats.shape[1]}"
            )
        if feats.size and not np.isfinite(feats).all():
            raise ValidationError("numeric cells must be finite")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> dict:
        return dict(Counter(self.labels.tolist()))

    def classes(self) -> list:
        return sorted_labels(self.labels.tolist())

    def select(self, indices) -> "Dataset":
        """New dataset containing the given record indices, in order."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.schema, self.features[idx], self.labels[idx])


def concat_datasets(parts) -> Dataset:
    parts = list(parts)
    if not parts:
        raise ValidationError("nothing to concatenate")
    schema = parts[0].schema
    if any(p.schema != schema for p in parts):
        raise ValidationError("all parts must share one schema")
    feats = np.concatenate([p.features for p in parts], axis=0)
    labs = np.concatenate([p.labels for p in parts], axis=0)
    return Dataset(schema, feats, labs)


def class_mask(labels: np.ndarray, label) -> np.ndarray:
    """Boolean mask of records carrying the given class identifier."""
    return np.asarray(labels == label, dtype=bool)


def parse_label(cell: str):
    """A label cell as an int when it is an int's canonical text, else the text.

    Surrounding whitespace is stripped first. The int is returned only when
    ``str(int(text)) == text``, so ``"12"`` and ``"-3"`` load as ints while
    ``"007"``, ``"+5"``, ``"-0"`` and ``"1_000"`` stay strings and survive a
    ``write_csv`` -> ``load_csv`` round trip. The file holds no type, so a
    string label ``"12"`` still loads as the int ``12``, and a string label
    with surrounding whitespace loses it.
    """
    text = cell.strip()
    try:
        value = int(text)
    except ValueError:
        return text
    return value if str(value) == text else text


# cells per codec chunk (1365 rows of the 24-column sensor table):
# load_csv and write_csv hold one chunk of text at a time, never the file
_CHUNK_CELLS = 1 << 15

# bytes load_csv reads at a time from a range of its input
_WINDOW = 1 << 16


def load_csv(path, schema: Schema) -> Dataset:
    """Read a UTF-8, comma-delimited CSV whose header matches the schema.

    The first row must list the schema's column names in order. Numeric cells
    must parse to finite floats; the first offending cell is reported with its
    file row (header is row 1, and a quoted line break does not start a row)
    and column name.

    The header goes through ``csv.reader``. The data rows are read in chunks
    of at most ``_CHUNK_CELLS`` cells: while the lines hold no ``"``, a chunk
    is split at its commas in one pass; from the first chunk with a quote on,
    ``csv.reader`` splits the rest of the file. Each chunk's numeric cells are
    converted in one object-to-float64 cast, which calls ``float(cell)``, so
    values are bit-identical to ``float()``, underscores and padding included.
    Each distinct label text goes through :func:`parse_label` once. A chunk
    that fails a check is re-run cell by cell to raise its first offending
    cell. The text is held one chunk at a time, but the converted chunks are
    all kept and then copied into one column-major matrix, which the
    ``Dataset`` copies again: the peak is about twice the float64 matrix.

    On two CPUs the data rows of a regular file of four or more estimated
    chunks are split into two byte ranges, the second starting just past the
    first line feed at or after half the data bytes; a line feed always ends
    a line and never falls inside a UTF-8 sequence. This process parses range
    1 while one forked child parses range 2 and sends back its rows, label
    codes and label texts through a pipe. When a range meets a ``"``, a chunk
    that fails a check or bytes that are not UTF-8, the child is killed and
    the rows are read serially from the header on, which gives exactly the
    result or the error described above. The rows are also read serially from
    an input that is not a regular file (a pipe), after a header line with a
    ``"``, from a table of under four chunks, on one CPU, without
    ``os.fork``, and from a file without a line feed where range 2 should
    start (lines ended by CR alone). A child's ``OSError`` is raised here
    with its errno and message; any other failure in the child raises
    ``RuntimeError``. No child outlives the call.

    Raises:
        EmptyFile: no header or no data rows.
        MissingColumn: header does not match the schema.
        NonNumericCell: a cell is missing, non-numeric, or non-finite.
        MalformedCsv: the file is not UTF-8, or ``csv.reader`` rejects a
            record (a field over ``csv.field_size_limit()``, as when a quote
            is never closed).
    """
    path = Path(path)
    expected = schema.column_names
    label_idx = schema.label_column
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header = next(_records(csv.reader(fh)), None)
            if header is None:
                raise EmptyFile(f"{path} is empty")
            if isinstance(header, csv.Error):
                raise MalformedCsv(1, str(header))
            if header != expected:
                missing = [c for c in expected if c not in header]
                offender = missing[0] if missing else next(
                    (h for h, e in zip(header, expected) if h != e), header[len(expected)] if len(header) > len(expected) else expected[-1]
                )
                raise MissingColumn(offender, f"header {header!r} does not match schema {expected!r}")
            fd = fh.fileno()
            parts = None
            if (bounds := _halves(fd, len(expected))) is not None:
                start, split = bounds
                with _Child("load_csv", _read_part, fd, split, None, expected, label_idx) as child:
                    parts = [_read_part(fd, start, split, expected, label_idx)]
                    if parts[0] is not None:  # else leaving the context kills the child
                        parts.append(child.wait())
                if None in parts:  # a range is to be read serially
                    parts = None
            if parts is None:
                parts = [_read_range(fh, expected, label_idx, whole=True)]
    except UnicodeDecodeError as exc:
        raise MalformedCsv(None, f"{path} is not UTF-8 ({exc.reason})") from None

    stacked = _stack(parts, schema.dim)
    del parts  # free the chunks before Dataset copies the matrix
    if stacked is None:
        raise EmptyFile(f"{path} has a header but no data rows")
    return Dataset(schema, *stacked)


def _stack(parts, dim: int):
    """The features and labels of :func:`_read_range` results: one float64
    matrix, column-major as each chunk's cast leaves it, and the labels, each
    distinct text through :func:`parse_label` once. None when there are no
    rows."""
    parsed: dict = {}  # label text -> parse_label(text)
    features, labels = [], []
    for chunks, codes, texts in parts:
        parsed.update((t, parse_label(t)) for t in set(texts).difference(parsed))
        values = np.array([parsed[t] for t in texts], dtype=object)
        features += chunks
        labels += [values[c] for c in codes]
    if not features:
        return None
    return (np.concatenate(features, out=np.empty((sum(map(len, features)), dim), order="F")),
            np.concatenate(labels))


class _ReadSerially(Exception):
    """A range of the input holds what only a serial read can parse or report."""


def _read_range(fh, expected: list, label_idx: int, whole: bool):
    """The data rows of the text stream ``fh`` as ``(features, codes,
    texts)``: each chunk's float64 rows and int32 label codes, and the label
    texts in code order.

    ``whole`` says ``fh`` holds every data row after the header. Then a
    chunk with a ``"`` hands the rest to ``csv.reader``, and a chunk that
    fails a check raises its first offending cell. Otherwise both raise
    :class:`_ReadSerially`, since a quoted field may run on into the next
    range and the rows before the range are not counted.
    """
    width = len(expected)
    numeric = np.array([i for i in range(width) if i != label_idx], dtype=np.intp)
    codes: dict = {}  # label text -> its code
    features, labels = [], []
    row = 2
    for records, cells in _chunks(fh, width, whole):
        chunk = _convert(cells, width, numeric, label_idx, codes)
        if chunk is None:
            if not whole:
                raise _ReadSerially
            _raise_first_bad_cell(records, row, expected, label_idx)
        features.append(chunk[0])
        labels.append(chunk[1])
        row += len(chunk[0])
    return features, labels, list(codes)


def _halves(fd: int, width: int):
    """``(start, split)``: the offsets of the first data row and of the row
    that starts range 2, past the first line feed at or after half the data
    bytes; None when the rows are to be read serially.

    The chunk count is estimated from the line feeds in the first window of
    data rows.
    """
    info = os.fstat(fd)
    if not _two_processes() or not stat.S_ISREG(info.st_mode):
        return None
    head = os.pread(fd, _WINDOW, 0)
    end = min((i for i in (head.find(b"\r"), head.find(b"\n")) if i >= 0), default=len(head))
    if end + 1 >= len(head) or b'"' in head[:end]:
        return None
    start = end + (2 if head[end:end + 2] == b"\r\n" else 1)
    size = info.st_size - start
    sample = os.pread(fd, _WINDOW, start)
    rows = sample.count(b"\n") * size / max(1, len(sample))
    if math.ceil(rows / max(1, _CHUNK_CELLS // width)) < 4:
        return None
    target = start + size // 2
    lf = os.pread(fd, _WINDOW, target).find(b"\n")
    if lf < 0 or target + lf + 1 >= info.st_size:
        return None
    return start, target + lf + 1


class _Range(io.RawIOBase):
    """Bytes ``start:stop`` of the open file ``fd``, to its end when ``stop``
    is None. It reads with ``os.pread``, so it shares no file offset with the
    processes ``fd`` is open in."""

    def __init__(self, fd: int, start: int, stop):
        self._fd, self._pos, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = len(buffer) if self._stop is None else min(len(buffer), self._stop - self._pos)
        data = os.pread(self._fd, n, self._pos)
        buffer[:len(data)] = data
        self._pos += len(data)
        return len(data)


def _read_part(fd: int, start: int, stop, expected: list, label_idx: int):
    """The :func:`_read_range` result of one range of ``fd``, read through a
    window of ``_WINDOW`` bytes, or None when the rows are to be read
    serially."""
    try:
        with io.TextIOWrapper(io.BufferedReader(_Range(fd, start, stop), _WINDOW),
                              encoding="utf-8", newline="") as fh:
            return _read_range(fh, expected, label_idx, whole=False)
    except (_ReadSerially, UnicodeDecodeError):
        return None


def _records(reader):
    """The records of a ``csv.reader``. A record it rejects comes out as its
    ``csv.Error``, in its place, and ends the stream."""
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield exc
            return


def _chunks(fh, width: int, whole: bool):
    """The data rows of ``fh`` as chunks of ``(records, cells)``.

    ``records`` gives the chunk's rows as :func:`_records` does, for the
    per-cell error path. ``cells`` is their flat list of cells, row after
    row, or None when a row is not ``width`` cells wide or a field exceeds
    ``csv.field_size_limit()``.

    The ``newline=""`` file splits lines at CR, LF and CRLF, as
    ``csv.reader`` does, so a quote-free line is one record and one
    ``split(",")`` tokenizes the chunk. From the first chunk holding a ``"``,
    that chunk and the rest of the file go to ``csv.reader`` when ``fh`` is
    ``whole`` (see :func:`_read_range`); otherwise it raises
    :class:`_ReadSerially`.
    """
    size = max(1, _CHUNK_CELLS // width)
    limit = csv.field_size_limit()
    while lines := list(islice(fh, size)):
        stripped = [line.rstrip("\r\n") for line in lines]
        text = ",".join(stripped)
        if '"' in text:
            if not whole:
                raise _ReadSerially
            break
        # csv.reader gives a blank line no cells, and a quote-free line one
        # more cell than it has commas
        cells = None
        if all(stripped) and set(map(str.count, stripped, repeat(","))) == {width - 1}:
            cells = text.split(",")
            if max(map(len, stripped)) > limit and max(map(len, cells)) > limit:
                cells = None
        yield _records(csv.reader(lines)), cells
    else:
        return
    records = _records(csv.reader(chain(lines, fh)))
    while chunk := list(islice(records, size)):
        whole = not isinstance(chunk[-1], csv.Error) and set(map(len, chunk)) == {width}
        yield chunk, list(chain.from_iterable(chunk)) if whole else None


def _convert(cells, width: int, numeric, label_idx: int, codes: dict):
    """One chunk's ``(features, label codes)`` from its flat cells, or None
    when a cell breaks the per-cell rule of :func:`_raise_first_bad_cell`.
    New label texts are given the next codes in ``codes``."""
    if cells is None:
        return None
    table = np.array(cells, dtype=object).reshape(-1, width)
    try:
        feats = table[:, numeric].astype(np.float64)  # float(cell), in C
    except ValueError:
        return None
    if not np.isfinite(feats).all():
        return None
    texts = table[:, label_idx].tolist()
    new = set(texts).difference(codes)
    if not all(map(str.strip, new)):
        return None
    codes.update(zip(new, range(len(codes), len(codes) + len(new))))
    return feats, np.array(list(map(codes.__getitem__, texts)), dtype=np.int32)


def _raise_first_bad_cell(records, row: int, expected: list, label_idx: int):
    """Raise the first cell of a chunk that breaks the per-cell rule.

    Rows are checked in file order, cells in column order: a row must have
    one cell per column, a label must not be blank, and a numeric cell must
    parse with ``float`` to a finite value. ``row`` is the first record's
    file row.
    """
    width = len(expected)
    for row_no, record in enumerate(records, start=row):
        if isinstance(record, csv.Error):
            raise MalformedCsv(row_no, str(record))
        if len(record) != width:
            raise NonNumericCell(row_no, expected[min(len(record), width - 1)],
                                 f"row has {len(record)} cells, expected {width}")
        for col_no, (name, cell) in enumerate(zip(expected, record)):
            if col_no == label_idx:
                if not cell.strip():
                    raise NonNumericCell(row_no, name, "empty label")
                continue
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(row_no, name, f"cannot parse {cell!r}") from None
            if not math.isfinite(value):
                raise NonNumericCell(row_no, name, f"non-finite value {cell!r}")
    raise AssertionError("a chunk failed the bulk check but no cell breaks the per-cell rule")


def _quote(text: str, alone: bool) -> str:
    """A cell as ``csv.writer`` writes it under QUOTE_MINIMAL: quoted when it
    holds a comma, a quote or a line break, or is empty and its row's only
    cell."""
    if any(c in text for c in ',"\r\n') or (alone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(data: Dataset, path, meanwhile=None):
    """Write a dataset back to CSV, byte for byte as ``csv.writer`` would.

    Floats are written with ``repr`` so a re-parse reproduces the exact
    values (round-trip is lossless, not merely close). Labels are written as
    ``str(label)``, each distinct text quoted once under ``csv.writer``'s
    QUOTE_MINIMAL rule; rows end in CRLF. The rows are formatted and
    written in chunks of at most ``_CHUNK_CELLS`` cells, so no whole-table
    text or list is held.

    On two CPUs, a table of four or more chunks is split at half its chunks:
    one forked child formats the rows after the split into an unnamed
    temporary file in the output's directory while this process writes the
    header and the rows before it, and then appends the child's file. A
    table of fewer chunks is written here, or wholly by the child when
    ``meanwhile`` is given. On one CPU or without ``os.fork`` this process
    writes every row.

    ``meanwhile``, if given, is called with no arguments once the header is
    written, while the child formats its rows, and its result is returned.

    A child's ``OSError`` is raised here with the child's errno and message;
    any other exception in the child is a bug and raises ``RuntimeError``
    carrying the child's traceback. No child outlives the call: on any
    failure here, ``meanwhile``'s included, the child is killed and reaped
    and the exception propagates unchanged.
    """
    size = max(1, _CHUNK_CELLS // len(data.schema.columns))
    chunks = -(-len(data) // size)
    if not _two_processes():
        split = len(data)
    elif chunks >= 4:
        split = chunks // 2 * size
    else:
        split = len(data) if meanwhile is None else 0
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh, ExitStack() as stack:
        csv.writer(fh).writerow(data.schema.column_names)
        if split < len(data):
            tail = stack.enter_context(tempfile.TemporaryFile(dir=path.parent))
            child = stack.enter_context(
                _Child("write_csv", _write_part, data, split, len(data), tail.fileno()))
        result = None if meanwhile is None else meanwhile()
        _write_rows(data, 0, split, fh)
        if split < len(data):
            child.wait()
            fh.flush()
            tail.seek(0)
            shutil.copyfileobj(tail, fh.buffer)
    return result


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _two_processes() -> bool:
    """Whether the codec may fork its one child: ``os.fork`` exists and this
    process may run on more than one CPU. It never forks more: two processes
    are what was measured to pay, on 2 CPUs; more are unmeasured in time,
    memory and temporary disk, and a CPU quota can leave them less CPU than
    the affinity mask shows."""
    return hasattr(os, "fork") and _available_cpus() > 1


def _write_rows(data: Dataset, start: int, stop: int, fh) -> None:
    """Format rows ``start:stop`` into the text file ``fh``, one chunk at a time."""
    label_idx = data.schema.label_column
    width = len(data.schema.columns)
    size = max(1, _CHUNK_CELLS // width)
    quoted: dict = {}  # str(label) -> its cell text
    for first in range(start, stop, size):
        last = min(first + size, stop)
        texts = list(map(str, data.labels[first:last].tolist()))
        quoted.update((t, _quote(t, width == 1)) for t in set(texts).difference(quoted))
        lines = []
        for values, text in zip(data.features[first:last].tolist(), texts):
            cells = list(map(repr, values))
            cells.insert(label_idx, quoted[text])
            lines.append(",".join(cells))
        lines.append("")
        fh.write("\r\n".join(lines))


def _write_part(data: Dataset, start: int, stop: int, fd: int) -> None:
    with open(fd, "w", newline="", encoding="utf-8", closefd=False) as fh:
        _write_rows(data, start, stop, fh)


class _Child:
    """A forked child that runs one call and sends back how it ended.

    The child pickles one ``(error, result)`` pair to its pipe: ``error`` is
    None when the call returned ``result``, else ``[errno, message]`` for an
    ``OSError`` or the traceback text for any other exception. It ends with
    ``os._exit``, so it never returns into the caller's stack nor flushes the
    buffers it inherited. Leaving the context kills and reaps the child if it
    was not waited for. ``name`` is the function that forks, for the error
    texts.
    """

    def __init__(self, name: str, fn, *args):
        self._name = name
        read_fd, write_fd = os.pipe()
        self._pipe = open(read_fd, "rb")
        try:
            self._pid = os.fork()
        except BaseException:
            self._pipe.close()
            os.close(write_fd)
            raise
        if self._pid == 0:
            status = 1
            try:
                self._pipe.close()  # a write to a pipe no one reads fails, never blocks
                with open(write_fd, "wb") as pipe:
                    try:
                        outcome = None, fn(*args)
                    except OSError as exc:
                        outcome = [exc.errno, exc.strerror or str(exc)], None
                    except BaseException:
                        outcome = traceback.format_exc(), None
                    pickle.dump(outcome, pipe, protocol=5)
                status = 0 if outcome[0] is None else 1
            finally:
                os._exit(status)
        os.close(write_fd)

    def wait(self):
        """Reap the child; return the call's result or raise what it reported."""
        try:
            error, result = pickle.load(self._pipe)
            sent = True
        except (EOFError, pickle.UnpicklingError):  # the child ended while sending
            error, result, sent = None, None, False
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        self._pipe.close()
        if isinstance(error, list):
            raise OSError(*error) if error[0] is not None else OSError(error[1])
        if error is not None:
            raise RuntimeError(f"a {self._name} child failed:\n{error}")
        if status or not sent:
            raise RuntimeError(f"a {self._name} child ended with wait status {status}")
        return result

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self._pid is not None:  # not waited for
            self._pipe.close()
            try:
                os.kill(self._pid, signal.SIGKILL)
                os.waitpid(self._pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped already
                pass


def stratified_split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split into (train, test) preserving per-class proportions.

    Each class contributes ``round(test_fraction * class_size)`` records to
    the test side (within one record of the exact proportion). The two parts
    partition the input: together they contain every record exactly once.

    Raises:
        ClassTooSmall: some class has fewer than 2 records.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    counts = data.class_counts()
    for label in sorted_labels(counts):
        if counts[label] < 2:
            raise ClassTooSmall(label, counts[label])

    rng = np.random.default_rng(seed)
    test_idx: list[int] = []
    train_idx: list[int] = []
    for label in sorted_labels(counts):
        members = np.flatnonzero(class_mask(data.labels, label))
        order = rng.permutation(len(members))
        n_test = int(round(test_fraction * len(members)))
        chosen = members[order]
        test_idx.extend(chosen[:n_test].tolist())
        train_idx.extend(chosen[n_test:].tolist())
    train_idx.sort()
    test_idx.sort()
    return data.select(train_idx), data.select(test_idx)


def shuffle_class_subset(data: Dataset, label, count: int, seed: int) -> Dataset:
    """Keep a uniformly random subset of one class, everything else intact.

    Records of ``label`` are reduced to ``count`` uniformly chosen members;
    records of other classes pass through unchanged. Original record order is
    preserved.

    Raises:
        CountExceedsClass: ``count`` exceeds the class size.
    """
    members = np.flatnonzero(class_mask(data.labels, label))
    if count > len(members):
        raise CountExceedsClass(f"requested {count} of {len(members)} record(s) labelled {label!r}")
    if count < 0:
        raise ValidationError("count must be non-negative")
    rng = np.random.default_rng(seed)
    mask = ~class_mask(data.labels, label)
    mask[rng.choice(members, size=count, replace=False)] = True
    return data.select(np.flatnonzero(mask))
