"""Quasi-identifier generalization and k-anonymity auditing.

A quasi-identifier (QI) is a set of columns that could link released records
back to individuals. Records are grouped into equivalence classes by exact
equality of their generalized QI values; a release is k-anonymous when every
class holds at least k records. The re-identification risk reported here is
the fraction of records sitting in classes smaller than k.

Continuous columns must be generalized before exact-match grouping means
anything; the built-in rule is equal-width binning over the column's own
min/max range.

Grouping never builds the records-by-columns matrix of generalized values. A
block of rows at a time, runs of binned columns are packed into int64 words
in mixed radix and every other column becomes an int64 word that orders as
its floats; the rows are then sorted on those words, most significant first,
and their classes read off where a word changes. Class ids are those of a
stable ``np.lexsort`` over the generalized columns.
"""

from __future__ import annotations

import itertools
import json
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, Schema
from .errors import UnknownColumn, ValidationError, ZeroBins

DROP = "drop"
IDENTITY = "identity"

DEFAULT_BINS = 10

# the bits of a float64 below its sign
_LOW_63 = np.int64((1 << 63) - 1)
# rows generalized at once: the block of the feature matrix stays in cache
_BLOCK_ROWS = 4096


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


def _bin_codes(values: np.ndarray, lo, hi, bins) -> np.ndarray:
    """Equal-width bin indices, as floats, of rows whose columns range over
    ``[lo, hi]`` and are cut into ``bins`` bins (one of each per column).

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
    raw, raw_hi = values, hi
    with np.errstate(over="ignore"):
        width = hi - lo
        scaled = ~np.isfinite(width * bins) | ((width > 0) & (width * 1e-9 == 0))
    if scaled.any():
        shift = np.zeros(scaled.shape, dtype=int)
        top = np.maximum(-lo, hi)[scaled]
        shift[scaled] = 1022 - np.frexp(top)[1] - np.frexp(bins[scaled])[1]
        values, lo, hi = np.ldexp(values, shift), np.ldexp(lo, shift), np.ldexp(hi, shift)
        width = hi - lo
    spread = width > 0
    width[~spread] = 1.0  # a constant column, where every values - lo is 0
    with np.errstate(over="ignore"):  # only at one bin: an infinite divisor leaves every code 0
        divisor = width + 1e-9 * width
        top = np.floor(np.nextafter(bins, 0))
        short = spread & (np.floor((hi - lo) * bins / divisor) != top)
        codes = values - lo
        codes *= bins
        codes /= divisor
    np.floor(codes, out=codes)
    if short.any():  # columns whose hi the formula leaves below the top bin
        codes[..., short] = np.where(raw[..., short] == raw_hi[short], top[short], codes[..., short])
    return codes


def _bin_plan(data: Dataset, spec: QuasiIdentifierSpec, names: list) -> tuple:
    """How to generalize the feature columns ``names``: their positions in
    ``names``, the binned ones first; the feature index at each of those
    positions; and ``(lo, hi, bins)`` of the binned columns for
    ``_bin_codes``, each range the whole column's."""
    rules = [spec.rule_for(c) for c in names]
    binned = [i for i, rule in enumerate(rules) if isinstance(rule, int)]
    slots = binned + [i for i, rule in enumerate(rules) if not isinstance(rule, int)]
    columns = [data.schema.feature_index(names[i]) for i in slots]
    at = columns[:len(binned)]
    if at and len(data):
        lo, hi = data.features.min(axis=0)[at], data.features.max(axis=0)[at]
    else:
        lo = hi = np.zeros(len(at))
    return slots, columns, (lo, hi, [rules[i] for i in binned])


def _generalized(rows: np.ndarray, columns: list, ranges: tuple) -> np.ndarray:
    """A fresh matrix of the feature ``rows`` in ``columns``, the first
    ``len(ranges[0])`` of them replaced by their bin indices."""
    out = rows[:, columns]
    binned = out[:, :len(ranges[0])]
    binned[...] = _bin_codes(binned, *ranges)
    return out


def generalize(data: Dataset, spec: QuasiIdentifierSpec) -> Dataset:
    """Apply the per-column generalization rules.

    Binned columns are replaced by their bin index, dropped columns vanish
    from the schema and every record, and everything else passes through.
    """
    spec.validate_against(data.schema)
    schema = data.schema.drop_features([c for c in spec.columns if spec.rule_for(c) == DROP])
    slots, columns, ranges = _bin_plan(data, spec, schema.feature_names)
    feats = np.empty((len(data), len(slots)))
    feats[:, slots] = _generalized(data.features, columns, ranges)
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


def _ordered_word(values: np.ndarray) -> np.ndarray:
    """int64 keys that order as the finite floats ``values`` do, -0.0 tying 0.0."""
    word = (values + 0.0).view(np.int64)  # + 0.0 turns -0.0 into 0.0
    word ^= (word >> 63) & _LOW_63  # below the sign, a negative float's bits grow with |x|
    return word


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
    generalized values do (see ``_layout``), a block of rows at a time, so
    no matrix of every row and column is held. The rows are sorted on the
    words as ``np.lexsort`` sorts the columns, the last kept column most
    significant, and a class starts at each change of word; class ids count
    up in that order.
    """
    spec.validate_against(data.schema)
    kept = [c for c in spec.columns if spec.rule_for(c) != DROP]
    slots, columns, ranges = _bin_plan(data, spec, kept)
    tops = _bin_codes(ranges[1], *ranges)  # each binned column's top bin, that of its hi
    slot_of = np.argsort(slots).tolist()  # kept column i sits in slot slot_of[i] of a block
    radices = [None] * len(kept)
    for i, top in zip(slots, tops.tolist()):
        radices[i] = int(top) + 1
    n = len(data)
    # Below 2**53 a float64 dot product packs a word exactly, and the low
    # bits stay free for the row index that _stable_order adds.
    limit = 1 << min(53, 62 - _index_bits(n))
    layout = [(slot_of[a], slot_of[a] + b - a,
               None if places is None else np.array(places, dtype=np.float64))
              for a, b, places in _layout(radices, limit)]
    words = [np.empty(n, dtype=np.int64) for _ in layout]
    for start in range(0, n, _BLOCK_ROWS):
        block = _generalized(data.features[start:start + _BLOCK_ROWS], columns, ranges)
        for word, (a, b, places) in zip(words, layout):
            word[start:start + len(block)] = (
                _ordered_word(block[:, a]) if places is None else block[:, a:b] @ places)
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
