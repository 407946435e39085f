"""Synthetic minority oversampling.

Given a minority class, each record receives synthetic companions built by
convex interpolation toward one of its ``s`` nearest same-class neighbours
under the Minkowski metric. An oversampling amount of E percent yields
``E/100`` synthetic records per minority record; amounts that are not
multiples of 100 are handled by running the whole procedure on a random
subset for the remainder (see :func:`run_smote`).

All randomness flows from per-record streams derived from the configured
seed, so results are bit-identical across runs and between serial and
parallel execution orders.

The draws are defined by a scalar loop, ``_record_draws``: record j's
stream ``default_rng([seed, j])`` gives a neighbour and then a gap for each
of its synthetic rows. ``_draws`` takes the same values in bulk, as one
row of raw PCG64 words per record, all decoded at once by array arithmetic
the way ``Generator.integers`` and ``Generator.random`` decode them; a
record whose bounded draw would be rejected and redrawn, and any call whose
spot-checked record differs from the scalar loop, is drawn by the loop
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, class_mask, concat_datasets, derive_seed, shuffle_class_subset
from .distance import nearest
from .errors import ConfigInvalid, DimensionMismatch, NotEnoughRecords


@dataclass(frozen=True)
class SmoteConfig:
    """Parameters of the oversampling pass.

    amount_percent: E, how much synthetic data to add, as a percentage of the
        minority class size (500 means five synthetic records per original).
    neighbors: s, how many nearest same-class neighbours to interpolate toward.
    minkowski_q: exponent of the distance metric (2 = Euclidean).
    seed: master seed for every random choice in the pass.
    """

    amount_percent: int = 100
    neighbors: int = 5
    minkowski_q: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.amount_percent < 1:
            raise ConfigInvalid(f"amount_percent must be >= 1, got {self.amount_percent}")
        if self.neighbors < 1:
            raise ConfigInvalid(f"neighbors must be >= 1, got {self.neighbors}")
        if self.minkowski_q < 1:
            raise ConfigInvalid(f"minkowski_q must be >= 1, got {self.minkowski_q}")


@dataclass(frozen=True)
class NeighborTable:
    """Per-record nearest-neighbour indices with their distances.

    Row ``j`` lists the ``s`` nearest same-class records to record ``j``
    (never ``j`` itself), closest first; equal distances are broken by the
    lower record index.
    """

    indices: np.ndarray   # (M, s) int
    distances: np.ndarray  # (M, s) float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        dist = np.asarray(self.distances, dtype=np.float64)
        if idx.shape != dist.shape or idx.ndim != 2:
            raise ConfigInvalid("indices and distances must be matching 2-D arrays")
        if (np.diff(dist, axis=1) < 0).any():
            raise ConfigInvalid("distances must be non-decreasing within each row")
        if (idx == np.arange(idx.shape[0])[:, None]).any():
            raise ConfigInvalid("a record may not be its own neighbour")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "distances", dist)

    @property
    def neighbors(self) -> int:
        return self.indices.shape[1]


def minkowski_distance(a, b, q: float = 2.0) -> float:
    """Minkowski distance ``(sum |a_j - b_j|^q)^(1/q)``.

    The absolute difference is used so the result is a metric for every
    q >= 1, including odd exponents.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vectors of length {a.shape} vs {b.shape}")
    if q < 1:
        raise ConfigInvalid(f"q must be >= 1, got {q}")
    return float(np.sum(np.abs(a - b) ** q) ** (1.0 / q))


def nearest_neighbors(minority: Dataset, s: int, q: float = 2.0) -> NeighborTable:
    """Exact s-nearest-neighbour table over a single-class dataset.

    Uses ``distance.nearest`` with the query record excluded: exact and
    deterministic, ties broken by the lower record index. At q = 2 one GEMM
    per block proposes candidates and only they are recomputed exactly; rows
    the rounding bound cannot certify get the exact O(M d) scan.

    Raises:
        NotEnoughRecords: fewer than s + 1 records.
        ConfigInvalid: records carry more than one label.
    """
    m = len(minority)
    if m <= s:
        raise NotEnoughRecords(f"need more than s={s} records, got {m}")
    if len(minority.class_counts()) != 1:
        raise ConfigInvalid("neighbour search expects a single-class dataset")

    feats = minority.features
    return NeighborTable(*nearest(feats, feats, s, q, exclude_self=True))


# Generator.random's double: the top 53 bits of a word, scaled by 2**-53
_GAP_SCALE = 1.0 / (1 << 53)


def _record_draws(seed: int, j: int, per_record: int, s: int) -> tuple:
    """The definition of record ``j``'s draws: from ``default_rng([seed, j])``,
    a neighbour position in [0, s) and then a gap in [0, 1) per row."""
    rng = np.random.default_rng([seed, j])
    nn = np.empty(per_record, dtype=np.intp)
    gap = np.empty(per_record, dtype=np.float64)
    for row in range(per_record):
        nn[row] = rng.integers(0, s)
        gap[row] = rng.random()
    return nn, gap


def _decode(words: np.ndarray, per_record: int, s: int) -> tuple:
    """Neighbour positions, gaps and a redraw mask of records from their raw
    PCG64 words, one record a row, as ``_record_draws`` reads them.

    ``random()`` takes a whole word. For s > 1, ``integers(0, s)`` takes a
    32-bit half: the low half of a fresh word, and at the next call the high
    half, which PCG64 keeps. A record's words thus run neighbour word, gap,
    gap, neighbour word, ... Each half maps to ``(half * s) >> 32``, unless
    ``(half * s) mod 2**32`` falls below ``(2**32 - s) mod s``: Lemire's
    method then draws again, which moves every later draw of the record, so
    the record is flagged for redrawing. For s = 1 the neighbour is 0 and
    takes no word.
    """
    if s == 1:
        nn = np.zeros((len(words), per_record), dtype=np.intp)
        redraw = np.zeros(len(words), dtype=bool)
        gaps = words
    else:
        pair, high = np.divmod(np.arange(per_record), 2)
        halves = words[:, 3 * pair] >> (32 * high).astype(np.uint64)
        halves &= 0xFFFFFFFF
        halves *= np.uint64(s)
        nn = halves >> 32
        halves &= 0xFFFFFFFF
        redraw = (halves < ((1 << 32) - s) % s).any(axis=1)
        gaps = words[:, 3 * pair + 1 + high]
    gap = (gaps >> 11).astype(np.float64)
    gap *= _GAP_SCALE
    return nn, gap, redraw


def _draws(seed: int, m: int, per_record: int, s: int) -> tuple:
    """``(m, per_record)`` arrays of neighbour positions and gaps, those of
    ``_record_draws`` for records 0..m-1.

    Each record's stream gives one row of ``random_raw`` words, and one
    ``_decode`` call decodes the ``(m, width)`` words of all records. The
    values are ``_record_draws``' own, not an approximation: a record that
    ``_decode`` flags is drawn by ``_record_draws``, and so is every record
    if the first record the decode kept differs from ``_record_draws`` (a
    numpy whose ``Generator`` decodes otherwise). A range of 2**32 or more is
    drawn from whole words by another method and always takes the loop.
    """
    nn = np.empty((m, per_record), dtype=np.intp)
    gap = np.empty((m, per_record), dtype=np.float64)
    redraw = range(m)
    if m and per_record and s < 1 << 32:
        width = per_record + (per_record + 1) // 2 if s > 1 else per_record
        words = np.empty((m, width), dtype=np.uint64)
        for j in range(m):
            words[j] = np.random.PCG64([seed, j]).random_raw(width)
        nn[...], gap[...], rejected = _decode(words, per_record, s)
        redraw = np.flatnonzero(rejected).tolist()
        if not rejected.all():
            j = int(np.argmin(rejected))
            check_nn, check_gap = _record_draws(seed, j, per_record, s)
            if check_nn.tobytes() != nn[j].tobytes() or check_gap.tobytes() != gap[j].tobytes():
                redraw = range(m)
    for j in redraw:
        nn[j], gap[j] = _record_draws(seed, j, per_record, s)
    return nn, gap


def generate_synthetic(minority: Dataset, table: NeighborTable, cfg: SmoteConfig) -> Dataset:
    """Create ``floor(E/100)`` synthetic records per minority record.

    Each synthetic record picks one of the s neighbours uniformly and one
    interpolation gap uniformly in [0, 1); the new point is
    ``original + gap * (neighbour - original)``, so every attribute stays
    inside the parent pair's value interval. Record ``j`` draws from the
    stream ``(cfg.seed, j)``, a neighbour and then a gap per synthetic
    record, making the output independent of generation order. The draws
    are decoded in bulk from each stream's raw words (``_draws``) and are
    bit for bit those of the per-record loop ``_record_draws``, which
    defines them and draws whatever the decode cannot vouch for; the
    interpolation is one array expression.
    """
    if table.neighbors != cfg.neighbors:
        raise ConfigInvalid(
            f"neighbour table built for s={table.neighbors}, config says {cfg.neighbors}"
        )
    if len(minority) <= cfg.neighbors:
        raise ConfigInvalid("neighbors must be smaller than the minority record count")

    per_record = cfg.amount_percent // 100
    feats = minority.features
    m = len(feats)
    nn, gap = _draws(cfg.seed, m, per_record, cfg.neighbors)
    out = feats[np.take_along_axis(table.indices, nn, axis=1)]  # (m, per_record, d)
    base = feats[:, None]
    out -= base
    out *= gap[..., None]
    out += base
    label = minority.labels[0] if m else None
    return Dataset(minority.schema, out.reshape(m * per_record, feats.shape[1]),
                   np.full(m * per_record, label, dtype=object))


def synthetic_count(amount_percent: int, minority_size: int) -> int:
    """How many synthetic records an oversampling amount of E% produces.

    E decomposes as 100*floor(E/100) + r: the whole multiples give
    ``floor(E/100)`` records for each of the M minority records, and the
    remainder r is served by re-running the procedure on a random subset of
    ``floor(r*M/100)`` records at 100%. Integer arithmetic throughout.
    """
    full, rem = divmod(int(amount_percent), 100)
    return minority_size * full + (rem * minority_size) // 100


def run_smote(data: Dataset, minority_label, cfg: SmoteConfig) -> Dataset:
    """Oversample one class and merge the synthetic records into the data.

    The output contains the input records unchanged (and first), followed by
    ``synthetic_count(E, M)`` synthetic minority records. Other classes pass
    through untouched.
    """
    mask = class_mask(data.labels, minority_label)
    m = int(mask.sum())
    if m == 0:
        raise ConfigInvalid(f"label {minority_label!r} not present in the data")
    if cfg.neighbors >= m:
        raise ConfigInvalid(
            f"neighbors={cfg.neighbors} must be smaller than the minority size {m}"
        )
    minority = data.select(np.flatnonzero(mask))

    full, rem = divmod(cfg.amount_percent, 100)
    parts = [data]
    if full > 0:
        table = nearest_neighbors(minority, cfg.neighbors, cfg.minkowski_q)
        whole_cfg = replace(cfg, amount_percent=full * 100, seed=derive_seed(cfg.seed, "whole"))
        parts.append(generate_synthetic(minority, table, whole_cfg))
    if rem > 0:
        subset_size = (rem * m) // 100
        if subset_size > 0:
            subset = shuffle_class_subset(
                minority, minority_label, subset_size, derive_seed(cfg.seed, "remainder-shuffle")
            )
            if subset_size <= cfg.neighbors:
                raise NotEnoughRecords(
                    f"remainder subset of {subset_size} record(s) cannot supply "
                    f"s={cfg.neighbors} neighbours; lower neighbors or adjust the amount"
                )
            table = nearest_neighbors(subset, cfg.neighbors, cfg.minkowski_q)
            rem_cfg = replace(cfg, amount_percent=100, seed=derive_seed(cfg.seed, "remainder"))
            parts.append(generate_synthetic(subset, table, rem_cfg))
    return concat_datasets(parts)
