"""Generated body-sensor benchmark table.

Builds a table shaped like public mobile-health activity recordings: 23
numeric sensor channels (chest accelerometer, two ECG leads, and
accelerometer / gyroscope / magnetometer triads on ankle and arm) plus one
``activity`` label. Class structure mimics that setting: a large idle class,
eleven mid-sized activities, and one small minority activity.

Channels inside a sensor triad are correlated through a shared per-record
factor. A handful of rows carry their own fault label and sit pinned at the
sensor rails (every channel clipped high or stuck low), the way real
recordings misbehave when a device saturates. Those rail rows stretch every
column's value range well beyond the data bulk, which keeps equal-width
binning coarse where the signal lives; the two rails are asymmetric so the
bulk lands near the middle of a bin rather than on an edge.

Everything is driven by named sub-streams of one seed, so a given
(parameters, seed) pair always yields the identical table.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, Schema, derive_seed
from .errors import ValidationError

SENSOR_GROUPS = (
    ("acc_chest", 3),
    ("ecg_lead", 2),
    ("acc_ankle", 3),
    ("gyro_ankle", 3),
    ("mag_ankle", 3),
    ("acc_arm", 3),
    ("gyro_arm", 3),
    ("mag_arm", 3),
)

_AXES = ("x", "y", "z")

LABEL_COLUMN = "activity"


def surrogate_schema() -> Schema:
    columns = []
    for prefix, size in SENSOR_GROUPS:
        if prefix == "ecg_lead":
            columns.extend([(f"{prefix}_{i + 1}", "numeric") for i in range(size)])
        else:
            columns.extend([(f"{prefix}_{_AXES[i]}", "numeric") for i in range(size)])
    columns.append((LABEL_COLUMN, "label"))
    return Schema(tuple(columns))


# the table's shape; only the size, the seed and the minority share vary
N_CLASSES = 13
IDLE_FRACTION = 0.34
SEPARATION = 2.0   # distance between adjacent per-channel mean levels
MEAN_LEVELS = 3
WITHIN_STD = 1.2
IDLE_STD = 1.8
GROUP_RHO = 0.6    # correlation of the channels inside a sensor triad
FAULT_ROWS = 6
RAIL_HIGH = 55.0
RAIL_LOW = -18.0


def make_surrogate(
    n_records: int = 9000, seed: int = 1729, *, minority_fraction: float = 0.06
) -> Dataset:
    """Generate the benchmark table.

    Activity 0 is the idle class (widest spread), activities
    1 .. N_CLASSES-2 share the middle of the data, and activity
    ``N_CLASSES - 1`` is the designated minority class for oversampling
    experiments. ``FAULT_ROWS`` extra rows labelled ``N_CLASSES`` are split
    between the two sensor rails.
    """
    if n_records < 10 * N_CLASSES:
        raise ValidationError("n_records too small for the class layout")

    schema = surrogate_schema()
    d = schema.dim

    counts = _class_counts(n_records - FAULT_ROWS, minority_fraction)
    # activities sit at one of a few per-channel intensity levels, centred on
    # zero and SEPARATION apart; axis-aligned structure of this kind is what
    # real activity recordings show per channel
    levels = (np.arange(MEAN_LEVELS) - (MEAN_LEVELS - 1) / 2.0) * SEPARATION
    means_rng = np.random.default_rng(derive_seed(seed, "class-means"))
    means = levels[means_rng.integers(0, MEAN_LEVELS, size=(N_CLASSES, d))]

    rows = []
    labels = []
    for cls in range(N_CLASSES):
        m = counts[cls]
        std = IDLE_STD if cls == 0 else WITHIN_STD
        block = np.empty((m, d))
        rng = np.random.default_rng(derive_seed(seed, "class", cls))
        offset = 0
        for _, size in SENSOR_GROUPS:
            shared = rng.standard_normal((m, 1))
            own = rng.standard_normal((m, size))
            unit = np.sqrt(GROUP_RHO) * shared + np.sqrt(1.0 - GROUP_RHO) * own
            block[:, offset:offset + size] = unit
            offset += size
        rows.append(means[cls] + std * block)
        labels.extend([cls] * m)

    block = np.empty((FAULT_ROWS, d))
    high = FAULT_ROWS - FAULT_ROWS // 2
    block[:high] = RAIL_HIGH
    block[high:] = RAIL_LOW
    rows.append(block)
    labels.extend([N_CLASSES] * FAULT_ROWS)

    features = np.concatenate(rows, axis=0)
    labels = np.array(labels, dtype=object)

    order = np.random.default_rng(derive_seed(seed, "shuffle")).permutation(len(labels))
    return Dataset(schema, features[order], labels[order])


def _class_counts(n_records, minority_fraction):
    idle = int(round(IDLE_FRACTION * n_records))
    minority = max(4, int(round(minority_fraction * n_records)))
    middle = N_CLASSES - 2
    rest = n_records - idle - minority
    if rest < middle * 4:
        raise ValidationError("class fractions leave too little data for the middle classes")
    base = rest // middle
    counts = [idle] + [base] * middle + [minority]
    counts[0] += n_records - sum(counts)  # remainder goes to idle
    return counts
