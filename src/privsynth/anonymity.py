"""Quasi-identifier generalization and k-anonymity auditing.

A quasi-identifier (QI) is a set of columns that could link released records
back to individuals. Records are grouped into equivalence classes by exact
equality of their generalized QI values; a release is k-anonymous when every
class holds at least k records. The re-identification risk reported here is
the fraction of records sitting in classes smaller than k.

Continuous columns must be generalized before exact-match grouping means
anything; the built-in rule is equal-width binning over the column's own
min/max range. The ranges are read from ``Dataset.extremes``: a table from
``load_csv`` carries them from the load's finiteness check, and any other
table reduces its matrix once, on its first audit, so no QI policy reduces
the table again.

Grouping never builds the records-by-columns matrix of generalized values.
Each binned column's bin constants are worked out once per call; then, one
whole column at a time, runs of binned columns are packed into int64 words
in mixed radix and every other column becomes an int64 word that orders as
its floats. The rows are sorted on those words, most significant first, and
their classes read off where a word changes. Class ids are those of a
stable ``np.lexsort`` over the generalized columns.
"""

from __future__ import annotations

import itertools
import json
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import Dataset, Schema
from .errors import UnknownColumn, ValidationError, ZeroBins

DROP = "drop"
IDENTITY = "identity"

DEFAULT_BINS = 10

# the bits of a float64 below its sign
_LOW_63 = np.int64((1 << 63) - 1)


@dataclass(frozen=True)
class QuasiIdentifierSpec:
    """Which columns form the quasi-identifier and how each is generalized.

    ``generalization`` maps a column name to one of:
      - an int  -> equal-width binning with that many bins,
      - "identity" -> keep values as they are,
      - "drop" -> leave the column out of the audit key (the release keeps it).
    Columns listed in ``columns`` but absent from the map default to
    "identity". The label column may not be a quasi-identifier.
    """

    columns: tuple[str, ...]
    generalization: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise ValidationError("quasi-identifier needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValidationError("duplicate quasi-identifier columns")
        for col, rule in self.generalization.items():
            if col not in self.columns:
                raise UnknownColumn(col)
            if isinstance(rule, bool):  # an int to isinstance, as JSON's true and false arrive
                raise ValidationError(f"column {col!r}: a bin count must be an int, got {rule!r}")
            if isinstance(rule, int):
                if rule <= 0:
                    raise ZeroBins(f"column {col!r}: bin count must be positive, got {rule}")
                if rule > sys.float_info.max:  # the bins are counted in float64
                    raise ValidationError(f"column {col!r}: bin count exceeds {sys.float_info.max:g}")
            elif rule not in (DROP, IDENTITY):
                raise ValidationError(f"column {col!r}: unknown rule {rule!r}")

    def validate_against(self, schema: Schema) -> None:
        numeric = set(schema.feature_names)
        for col in self.columns:
            if col not in numeric:
                if col == schema.column_names[schema.label_column]:
                    raise ValidationError("the label column cannot be a quasi-identifier")
                raise UnknownColumn(col)

    def rule_for(self, column: str):
        return self.generalization.get(column, IDENTITY)

    @classmethod
    def all_numeric(cls, schema: Schema, bins: int = DEFAULT_BINS) -> "QuasiIdentifierSpec":
        """Default audit spec: every numeric column, equal-width binned."""
        names = tuple(schema.feature_names)
        return cls(names, {name: bins for name in names})

    def to_dict(self) -> dict:
        return {"columns": list(self.columns), "generalization": dict(self.generalization)}

    @classmethod
    def from_dict(cls, payload: dict) -> "QuasiIdentifierSpec":
        try:
            return cls(tuple(payload["columns"]), dict(payload.get("generalization", {})))
        except (KeyError, TypeError, ValueError):
            raise ValidationError('a QI spec is {"columns": [...], "generalization": {...}}') from None


@dataclass(frozen=True, eq=False)
class EquivalenceClasses:
    """Partition of records into classes 0..m-1: ``ids[i]`` is record i's
    class and ``counts[c]`` the size of class c (``np.bincount(ids)``)."""

    ids: np.ndarray
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", np.asarray(self.ids, dtype=np.intp))
        object.__setattr__(self, "counts", np.bincount(self.ids))
        if not self.counts.all():
            raise ValidationError("equivalence classes must be non-empty")

    @property
    def groups(self) -> dict:
        """``{class id: [record indices, ascending]}``."""
        members = np.split(np.argsort(self.ids, kind="stable"), np.cumsum(self.counts))[:-1]
        return {c: idx.tolist() for c, idx in enumerate(members)}

    def sizes(self) -> list[int]:
        return self.counts.tolist()


@dataclass(frozen=True)
class RiskReport:
    """Outcome of a k-anonymity audit over one release."""

    k: int
    class_size_histogram: dict
    at_risk_count: int
    total: int
    risk: float
    satisfies_k_anonymity: bool

    def to_dict(self) -> dict:
        histogram = {str(size): count for size, count in sorted(self.class_size_histogram.items())}
        return {
            "k": self.k,
            "class_size_histogram": histogram,
            "at_risk_count": self.at_risk_count,
            "total": self.total,
            "risk": self.risk,
            "satisfies_k_anonymity": self.satisfies_k_anonymity,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


class _Bins(NamedTuple):
    """One binned column's constants for ``_bin_into``: the power of two
    ``shift`` that scales the column and its scaled ``lo``, the bin count
    ``bins`` as a float, the ``divisor`` ``width + 1e-9 * width``, the code
    ``top`` of the column's ``hi``, whether the formula leaves ``hi`` below
    that code (``short``) and ``hi`` itself, unscaled."""

    shift: int
    lo: float
    bins: float
    divisor: float
    top: float
    short: bool
    hi: float


def _bin_constants(lo: np.ndarray, hi: np.ndarray, bins: list) -> list:
    """The ``_Bins`` of columns that range over ``[lo, hi]`` and are cut
    into ``bins`` equal-width bins (one of each per column).

    The guard epsilon keeps every value below ``hi`` out of the bins past
    its own; a constant column is all bin 0. Rows equal to ``hi`` in a
    column with ``hi > lo`` take the top bin, ``floor(nextafter(bins, 0))``
    (``bins - 1`` up to 2**53), which the formula alone misses from about
    10**9 bins on, as the epsilon then spans whole bins. Where
    ``(hi - lo) * bins`` overflows, or the range is so small that the guard
    rounds to zero, that column is scaled by a power of two first: scaling
    is exact, so its indices are still the quotients the formula means and
    lie in [0, bins).
    """
    bins = np.asarray(bins, dtype=np.float64)
    raw_hi = hi
    shift = np.zeros(len(bins), dtype=int)
    with np.errstate(over="ignore"):
        width = hi - lo
        scaled = ~np.isfinite(width * bins) | ((width > 0) & (width * 1e-9 == 0))
    if scaled.any():
        top = np.maximum(-lo, hi)[scaled]
        shift[scaled] = 1022 - np.frexp(top)[1] - np.frexp(bins[scaled])[1]
        lo, hi = np.ldexp(lo, shift), np.ldexp(hi, shift)
        width = hi - lo
    spread = width > 0
    width[~spread] = 1.0  # a constant column, where every values - lo is 0
    with np.errstate(over="ignore"):  # only at one bin: an infinite divisor leaves every code 0
        divisor = width + 1e-9 * width
        top = np.floor(np.nextafter(bins, 0))
        short = spread & (np.floor((hi - lo) * bins / divisor) != top)
    top[~spread] = 0.0
    return [_Bins(*column) for column in zip(shift.tolist(), lo, bins, divisor, top, short.tolist(), raw_hi)]


def _bin_into(out: np.ndarray, values: np.ndarray, column: _Bins) -> np.ndarray:
    """Write the equal-width bin indices, as floats, of one column's
    ``values`` into ``out`` and return it: ``floor(((ldexp(values, shift) -
    lo) * bins) / divisor)``, and the top bin where the formula leaves
    ``hi`` short of it."""
    with np.errstate(over="ignore"):
        if column.shift:
            np.ldexp(values, column.shift, out=out)
            out -= column.lo
        else:
            np.subtract(values, column.lo, out=out)
        out *= column.bins
        out /= column.divisor
    np.floor(out, out=out)
    if column.short:
        np.copyto(out, column.top, where=values == column.hi)
    return out


def _column_ranges(data: Dataset, at: list) -> tuple:
    """The minima and maxima of the feature columns ``at`` of a non-empty
    table, read from ``data.extremes``, so no call reduces the matrix.

    A zero extreme takes the sign of the column's last zero, as a
    reduction in row order gives it (``np.minimum`` and ``np.maximum``
    return their second argument on a tie), so every value is bit for bit
    that of a C-ordered matrix of two or more columns, whether
    :func:`~privsynth.data.load_csv` or a reduction produced the extremes
    and whatever the layout of the matrix.
    """
    ranges = data.extremes[0][at], data.extremes[1][at]
    for ends in ranges:
        for i in np.flatnonzero(ends == 0):
            column = data.features[:, at[i]]
            ends[i] = column[np.flatnonzero(column == 0)[-1]]
    return ranges


def _bin_plan(data: Dataset, spec: QuasiIdentifierSpec, names: list) -> list:
    """How to generalize the feature columns ``names``: for each one, its
    feature index and its ``_Bins``, or None for a column kept as it is.
    Each range is the whole column's, from :func:`_column_ranges`."""
    rules = [spec.rule_for(c) for c in names]
    index = [data.schema.feature_index(c) for c in names]
    binned = [i for i, rule in enumerate(rules) if isinstance(rule, int)]
    plan = [None] * len(names)
    if binned:
        at = [index[i] for i in binned]
        lo, hi = _column_ranges(data, at) if len(data) else (np.zeros(len(at)),) * 2
        for i, column in zip(binned, _bin_constants(lo, hi, [rules[i] for i in binned])):
            plan[i] = column
    return list(zip(index, plan))


def generalize(data: Dataset, spec: QuasiIdentifierSpec) -> Dataset:
    """Apply the per-column generalization rules.

    Binned columns are replaced by their bin index, dropped columns vanish
    from the schema and every record, and everything else passes through.
    """
    spec.validate_against(data.schema)
    schema = data.schema.drop_features([c for c in spec.columns if spec.rule_for(c) == DROP])
    feats = np.empty((len(data), schema.dim))
    for out, (j, column) in zip(feats.T, _bin_plan(data, spec, schema.feature_names)):
        if column is None:
            out[...] = data.features[:, j]
        else:
            _bin_into(out, data.features[:, j], column)
    return Dataset(schema, feats, data.labels)


def _index_bits(n: int) -> int:
    """Bits that hold any index of ``n`` rows."""
    return max(n - 1, 0).bit_length()


def _layout(radices: list, limit: int) -> list:
    """Which kept QI columns make each int64 word, least significant word
    first as ``np.lexsort`` takes its keys.

    ``radices`` holds each binned column's top bin index plus one, and None
    for an identity column. From the last, most significant, column down, a
    run of binned columns is packed into one word while the product of
    their radices stays within ``limit``, so that the top word tells the
    most rows apart. A word ``(a, b, places)`` packs the columns a..b-1 in
    mixed radix with those place values, a later column more significant;
    ``(a, a + 1, None)`` is column a alone, keyed by ``_ordered_word``.
    """
    layout = []
    b = len(radices)
    while b:
        a = b - 1
        if radices[a] is None or radices[a] > limit:
            layout.append((a, b, None))
        else:
            product = radices[a]
            while a and radices[a - 1] is not None and product * radices[a - 1] <= limit:
                a -= 1
                product *= radices[a]
            layout.append((a, b, list(itertools.accumulate(radices[a:b - 1], operator.mul, initial=1))))
        b = a
    return layout[::-1]


def _ordered_word(values: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write into the int64 ``out`` keys that order as the finite floats
    ``values`` do, -0.0 tying 0.0; ``scratch``, an int64 array as long, may
    be ``values`` itself."""
    np.add(values, 0.0, out=out.view(np.float64))  # + 0.0 turns -0.0 into 0.0
    np.right_shift(out, 63, out=scratch)
    scratch &= _LOW_63  # below the sign, a negative float's bits grow with |x|
    out ^= scratch


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``ordered`` starts."""
    starts = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _tied(starts: np.ndarray) -> np.ndarray:
    """The positions in runs of two or more, given the runs' ``starts``."""
    tied = ~starts
    tied[:-1] |= ~starts[1:]
    return np.flatnonzero(tied)


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of an int64 key.

    Where the key's range leaves the low bits of an int64 free for the row
    index, each key and its index are packed into one int64 and the packed
    values sorted: they are distinct, so any sort orders them stably, and a
    plain sort of int64 values is several times faster than a stable
    argsort. Otherwise an unstable ``np.argsort`` orders the keys, and only
    the positions in runs of equal keys are sorted again, by row index.
    """
    if not len(key):
        return np.argsort(key)
    bits = _index_bits(len(key))
    lo = int(key.min())
    if int(key.max()) - lo < 1 << (63 - bits):
        pairs = key - lo
        pairs <<= bits
        pairs |= np.arange(len(key))
        pairs.sort()
        pairs &= (1 << bits) - 1
        return pairs
    order = np.argsort(key)
    starts = _run_starts(key[order])
    pos = _tied(starts)
    if len(pos):
        rows = order[pos]
        order[pos] = rows[np.lexsort((rows, np.cumsum(starts)[pos]))]
    return order


def _word_ids(words: list, n: int) -> np.ndarray:
    """Class ids of ``n`` rows, counted up in the order of ``np.lexsort(words)``.

    The rows are sorted stably by the most significant word alone; only the
    rows that tie a neighbour there are sorted again, by the other words and
    then by their run of ties. That is lexsort's permutation, as every sort
    here is stable.
    """
    if not words:
        return np.zeros(n, dtype=np.intp)
    order = _stable_order(words[-1])
    starts = _run_starts(words[-1][order])
    if len(words) > 1:
        pos = _tied(starts)  # the sorted positions in a run of equal top words
        if len(pos):
            rows = order[pos]
            keys = [word[rows] for word in words[:-1]]
            sub = np.arange(len(pos))
            for key in [*keys, np.cumsum(starts[pos])]:
                sub = sub[_stable_order(key[sub])]
            order[pos] = rows[sub]
            differs = np.zeros(len(pos) - 1, dtype=bool)
            for key in keys:
                key = key[sub]
                differs |= key[1:] != key[:-1]
            starts[pos[1:]] |= differs
    ids = np.empty(n, dtype=np.intp)
    ids[order] = np.cumsum(starts) - 1
    return ids


def equivalence_classes(data: Dataset, spec: QuasiIdentifierSpec) -> EquivalenceClasses:
    """Group records by exact (``==``) equality of their generalized QI values.

    The kept QI columns are packed into int64 words that order as their
    generalized values do (see ``_layout``), one whole column at a time, so
    no matrix of rows and columns is held, only two n-long float64 buffers: a
    run of binned columns is summed into one, each bin index times its place
    value, and every other column is keyed by ``_ordered_word``. The rows
    are sorted on the words as ``np.lexsort`` sorts the columns, the last
    kept column most significant, and a class starts at each change of
    word; class ids count up in that order.
    """
    spec.validate_against(data.schema)
    plan = _bin_plan(data, spec, [c for c in spec.columns if spec.rule_for(c) != DROP])
    radices = [None if column is None else int(column.top) + 1 for _, column in plan]
    n = len(data)
    # Below 2**53 every partial sum of a packed word is an exact float64
    # integer, and the low bits stay free for the row index that
    # _stable_order adds.
    layout = _layout(radices, 1 << min(53, 62 - _index_bits(n)))
    words = [np.empty(n, dtype=np.int64) for _ in layout]
    acc, code = np.empty(n), np.empty(n)
    feats = data.features
    for word, (a, b, places) in zip(words, layout):
        j, column = plan[a]
        if places is None:  # one column, keyed by its value or its bin index
            values = feats[:, j] if column is None else _bin_into(code, feats[:, j], column)
            _ordered_word(values, word, code.view(np.int64))
            continue
        _bin_into(acc, feats[:, j], column)  # the least significant place is 1
        for (j, column), place in zip(plan[a + 1:b], places[1:]):
            _bin_into(code, feats[:, j], column)
            code *= place
            acc += code
        word[...] = acc
    return EquivalenceClasses(_word_ids(words, n))


def check_k_anonymity(classes: EquivalenceClasses, k: int) -> bool:
    """True iff every equivalence class holds at least k records."""
    return risk_report(classes, k).satisfies_k_anonymity


def risk_report(classes: EquivalenceClasses, k: int) -> RiskReport:
    """Audit one partition: histogram, at-risk count, and risk fraction.

    A record is at risk when its equivalence class is smaller than k; the
    risk is the at-risk fraction of all records, so risk == 0 exactly when
    the release is k-anonymous.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    sizes, class_counts = np.unique(classes.counts, return_counts=True)
    total = len(classes.ids)
    at_risk = int(classes.counts[classes.counts < k].sum())
    return RiskReport(
        k=k,
        class_size_histogram=dict(zip(sizes.tolist(), class_counts.tolist())),
        at_risk_count=at_risk,
        total=total,
        risk=at_risk / total if total else 0.0,
        satisfies_k_anonymity=at_risk == 0,
    )
