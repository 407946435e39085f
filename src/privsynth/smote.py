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


def generate_synthetic(minority: Dataset, table: NeighborTable, cfg: SmoteConfig) -> Dataset:
    """Create ``floor(E/100)`` synthetic records per minority record.

    Each synthetic record picks one of the s neighbours uniformly and one
    interpolation gap uniformly in [0, 1); the new point is
    ``original + gap * (neighbour - original)``, so every attribute stays
    inside the parent pair's value interval. Record ``j`` draws from the
    stream ``(cfg.seed, j)``, making the output independent of generation
    order.
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
    # the draws stay per record and in stream order (a neighbour, then a gap,
    # per synthetic row); the interpolation is one array expression
    nn = np.empty(m * per_record, dtype=np.intp)
    gap = np.empty(m * per_record, dtype=np.float64)
    for j in range(m):
        rng = np.random.default_rng([cfg.seed, j])
        for row in range(j * per_record, (j + 1) * per_record):
            nn[row] = rng.integers(0, cfg.neighbors)
            gap[row] = rng.random()
    parent = np.repeat(np.arange(m), per_record)
    base = feats[parent]
    out = feats[table.indices[parent, nn]]
    out -= base
    out *= gap[:, None]
    out += base
    label = minority.labels[0] if m else None
    labels = np.array([label] * (m * per_record), dtype=object)
    return Dataset(minority.schema, out, labels)


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
