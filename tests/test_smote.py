import time
from itertools import product

import numpy as np
import pytest

from privsynth.data import Dataset, Schema
from privsynth.errors import ConfigInvalid, DimensionMismatch, NotEnoughRecords
from privsynth.smote import (
    NeighborTable,
    SmoteConfig,
    generate_synthetic,
    minkowski_distance,
    nearest_neighbors,
    run_smote,
    synthetic_count,
)

SCHEMA_1D = Schema((("x", "numeric"), ("label", "label")))
SCHEMA_2D = Schema((("x", "numeric"), ("y", "numeric"), ("label", "label")))


def one_class(points, label="m"):
    feats = np.atleast_2d(np.asarray(points, dtype=float))
    schema = Schema(
        tuple((f"f{i}", "numeric") for i in range(feats.shape[1])) + (("label", "label"),)
    )
    return Dataset(schema, feats, np.array([label] * feats.shape[0], dtype=object))


def _adversarial_points():
    rng = np.random.default_rng(7)
    rails = np.vstack([rng.normal(size=(14, 3)), np.full((3, 3), 55.0), np.full((3, 3), -18.0)])
    rails[[2, 9]] = [[55.0, -18.0, 55.0], [-18.0, 55.0, -18.0]]
    return {
        "normal": rng.normal(size=(12, 3)),
        # repeated rows: zero distances tied across several records
        "duplicates": rng.integers(0, 3, size=(20, 2)).astype(float),
        # integer line: every interior point has equidistant neighbours
        "ties": np.arange(15, dtype=float)[:, None],
        # sensor-rail rows clipped at +55 and -18 next to unit-scale data
        "rails": rails,
        # more than two 256-row query blocks, dense in ties and duplicates
        "blocks": rng.integers(0, 5, size=(600, 2)).astype(float),
    }


ADVERSARIAL_POINTS = _adversarial_points()


class TestMinkowskiDistance:
    def test_identity(self):
        assert minkowski_distance([1.5, -2.0, 3.0], [1.5, -2.0, 3.0]) == 0.0

    def test_pythagorean(self):
        assert minkowski_distance([0, 0], [3, 4], 2) == pytest.approx(5.0, abs=1e-12)

    def test_hand_sum_q1(self):
        # |1-4| + |2-0| + |3-3| = 5
        assert minkowski_distance([1, 2, 3], [4, 0, 3], 1) == pytest.approx(5.0, abs=1e-12)

    def test_absolute_value_for_odd_q(self):
        # without |.| the q=3 sum would be negative and the root undefined
        assert minkowski_distance([0.0], [2.0], 3) == pytest.approx(2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            minkowski_distance([1, 2], [1, 2, 3])

    def test_q_below_one_rejected(self):
        with pytest.raises(ConfigInvalid):
            minkowski_distance([1], [2], 0.5)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_metric_axioms_on_random_triples(self, q):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            a, b, c = rng.normal(size=(3, 4))
            dab = minkowski_distance(a, b, q)
            dba = minkowski_distance(b, a, q)
            dac = minkowski_distance(a, c, q)
            dcb = minkowski_distance(c, b, q)
            assert dab >= 0.0
            assert dab == pytest.approx(dba, rel=1e-12)
            assert dab <= dac + dcb + 1e-9


class TestNearestNeighbors:
    def test_collinear_hand_case(self):
        # points at x = 0, 1, 10: nearest of 0 is 1, of 1 is 0, of 10 is 1
        table = nearest_neighbors(one_class([[0.0], [1.0], [10.0]]), s=1)
        assert table.indices[:, 0].tolist() == [1, 0, 1]
        assert table.distances[:, 0].tolist() == [1.0, 1.0, 9.0]

    def test_duplicates_pick_zero_distance(self):
        table = nearest_neighbors(one_class([[2.0], [2.0], [5.0]]), s=1)
        assert table.indices[0, 0] == 1
        assert table.indices[1, 0] == 0
        assert table.distances[0, 0] == 0.0

    def test_full_sort_matches_bruteforce(self):
        for (case, points), q in product(ADVERSARIAL_POINTS.items(), (1.0, 2.0, 3.0)):
            m = len(points)
            table = nearest_neighbors(one_class(points), s=m - 1, q=q)
            short = nearest_neighbors(one_class(points), s=2, q=q)
            # every row of the small sets; rows at the 256-row query-block
            # boundaries of the large one
            rows = range(m) if m <= 40 else [0, 1, 255, 256, 257, 511, 512, 513, m - 1]
            for j in rows:
                dists = sorted((minkowski_distance(points[j], points[i], q), i)
                               for i in range(m) if i != j)
                expected = [i for _, i in dists]
                where = (case, q, j)
                assert table.indices[j].tolist() == expected, where
                assert table.distances[j].tolist() == pytest.approx(
                    [d for d, _ in dists], rel=1e-12, abs=1e-12), where
                assert short.indices[j].tolist() == expected[:2], where

    def test_tie_break_prefers_lower_index(self):
        # records 1 and 2 are both at distance 1 from record 0
        table = nearest_neighbors(one_class([[0.0], [1.0], [-1.0], [5.0]]), s=2)
        assert table.indices[0].tolist() == [1, 2]

    def test_not_enough_records(self):
        with pytest.raises(NotEnoughRecords):
            nearest_neighbors(one_class([[0.0], [1.0]]), s=2)

    def test_table_invariants(self):
        rng = np.random.default_rng(3)
        table = nearest_neighbors(one_class(rng.normal(size=(20, 2))), s=5)
        assert (np.diff(table.distances, axis=1) >= 0).all()
        assert (table.indices != np.arange(20)[:, None]).all()


class TestGenerateSynthetic:
    def test_identical_parents_reproduce_the_point(self):
        minority = one_class([[4.0, -1.0], [4.0, -1.0]])
        table = nearest_neighbors(minority, s=1)
        cfg = SmoteConfig(amount_percent=300, neighbors=1, seed=5)
        synth = generate_synthetic(minority, table, cfg)
        assert len(synth) == 6
        assert np.allclose(synth.features, [4.0, -1.0])
        assert set(synth.labels.tolist()) == {"m"}

    def test_five_per_record_at_500(self):
        rng = np.random.default_rng(0)
        minority = one_class(rng.normal(size=(8, 2)))
        table = nearest_neighbors(minority, s=3)
        synth = generate_synthetic(minority, table, SmoteConfig(500, 3, seed=1))
        assert len(synth) == 40

    def test_segment_convexity_two_points(self):
        minority = one_class([[0.0, 0.0], [1.0, 1.0]])
        table = nearest_neighbors(minority, s=1)
        for seed in range(200):
            synth = generate_synthetic(minority, table, SmoteConfig(100, 1, seed=seed))
            for row in synth.features:
                # one shared gap: both coordinates equal and inside [0, 1)
                assert row[0] == pytest.approx(row[1], abs=1e-12)
                assert 0.0 <= row[0] < 1.0

    @pytest.mark.parametrize("amount", [100, 500])
    def test_matches_the_per_row_loop(self, amount):
        # the reference: one stream per record, one row per (neighbour, gap) draw
        rng = np.random.default_rng(4)
        minority = one_class(rng.normal(size=(40, 3)) * [1.0, 1e-3, 1e6])
        table = nearest_neighbors(minority, s=4)
        cfg = SmoteConfig(amount, 4, seed=31)
        rows = []
        for j, base in enumerate(minority.features):
            stream = np.random.default_rng([cfg.seed, j])
            for _ in range(amount // 100):
                nn = int(stream.integers(0, cfg.neighbors))
                gap = stream.random()
                rows.append(base + gap * (minority.features[table.indices[j, nn]] - base))
        synth = generate_synthetic(minority, table, cfg)
        assert synth.features.tobytes() == np.array(rows).tobytes()

    def test_determinism(self):
        rng = np.random.default_rng(2)
        minority = one_class(rng.normal(size=(10, 2)))
        table = nearest_neighbors(minority, s=4)
        a = generate_synthetic(minority, table, SmoteConfig(200, 4, seed=77))
        b = generate_synthetic(minority, table, SmoteConfig(200, 4, seed=77))
        assert np.array_equal(a.features, b.features)


class TestRunSmote:
    def make_data(self, m=10, majority=20, seed=0):
        rng = np.random.default_rng(seed)
        feats = np.concatenate([rng.normal(size=(m, 2)), rng.normal(5.0, 1.0, size=(majority, 2))])
        labels = np.array(["m"] * m + ["M"] * majority, dtype=object)
        return Dataset(SCHEMA_2D, feats, labels)

    def test_count_law_e100(self):
        data = self.make_data(m=10)
        out = run_smote(data, "m", SmoteConfig(100, 3, seed=1))
        assert len(out) == len(data) + 10

    def test_count_law_e130(self):
        # integer part: 10 synthetic; remainder 30%: floor(30*10/100) = 3 more
        data = self.make_data(m=10)
        out = run_smote(data, "m", SmoteConfig(130, 2, seed=1))
        assert len(out) == len(data) + 13
        assert synthetic_count(130, 10) == 13

    @pytest.mark.parametrize("amount", [100, 130, 220, 370, 500])
    def test_count_law_acceptance_grid(self, amount):
        data = self.make_data(m=40)
        out = run_smote(data, "m", SmoteConfig(amount, 3, seed=9))
        assert len(out) == len(data) + synthetic_count(amount, 40)

    def test_below_100_uses_shuffled_subset(self):
        # E=50, M=10: five records retained, one synthetic each
        data = self.make_data(m=10)
        out = run_smote(data, "m", SmoteConfig(50, 2, seed=9))
        assert len(out) == len(data) + 5
        assert synthetic_count(50, 10) == 5
        assert set(out.labels[len(data):].tolist()) == {"m"}

    def test_class_counts_law(self):
        data = self.make_data(m=10, majority=20)
        out = run_smote(data, "m", SmoteConfig(200, 3, seed=4))
        counts = out.class_counts()
        assert counts["m"] == 10 + 20
        assert counts["M"] == 20

    def test_original_records_unchanged_and_first(self):
        data = self.make_data(m=8)
        out = run_smote(data, "m", SmoteConfig(250, 3, seed=6))
        assert np.array_equal(out.features[: len(data)], data.features)
        assert out.labels[: len(data)].tolist() == data.labels.tolist()

    def test_determinism_bit_identical(self):
        data = self.make_data(m=12, seed=5)
        a = run_smote(data, "m", SmoteConfig(370, 4, seed=123))
        b = run_smote(data, "m", SmoteConfig(370, 4, seed=123))
        assert np.array_equal(a.features, b.features)
        assert a.labels.tolist() == b.labels.tolist()

    def test_convexity_against_parent_box(self):
        # every synthetic attribute stays inside the minority value range
        data = self.make_data(m=15, seed=8)
        out = run_smote(data, "m", SmoteConfig(500, 5, seed=3))
        minority = data.features[:15]
        lo, hi = minority.min(axis=0), minority.max(axis=0)
        synth = out.features[len(data):]
        assert (synth >= lo - 1e-12).all()
        assert (synth <= hi + 1e-12).all()

    def test_unknown_label_rejected(self):
        data = self.make_data()
        with pytest.raises(ConfigInvalid):
            run_smote(data, "nope", SmoteConfig(100, 3, seed=0))

    def test_neighbors_must_be_below_class_size(self):
        data = self.make_data(m=4)
        with pytest.raises(ConfigInvalid):
            run_smote(data, "m", SmoteConfig(100, 4, seed=0))

    def test_remainder_subset_too_small(self):
        # E=110 with M=10 leaves a 1-record remainder subset: cannot supply
        # s=3 neighbours
        data = self.make_data(m=10)
        with pytest.raises(NotEnoughRecords):
            run_smote(data, "m", SmoteConfig(110, 3, seed=0))


class TestScaling:
    def test_neighbor_search_quadratic_coarse(self):
        # linear-scan search should grow no faster than c * M^2 * d
        rng = np.random.default_rng(0)
        sizes = [300, 600, 1200]
        times = []
        for m in sizes:
            pts = one_class(rng.normal(size=(m, 8)))
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                nearest_neighbors(pts, s=5)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        c = times[0] / (sizes[0] ** 2)
        for m, t in zip(sizes[1:], times[1:]):
            assert t <= 3.0 * c * m ** 2


@pytest.mark.parametrize("call, fragment", [
    (lambda: SmoteConfig(amount_percent=0), "amount_percent must be >= 1"),
    (lambda: SmoteConfig(neighbors=0), "neighbors must be >= 1"),
    (lambda: SmoteConfig(minkowski_q=0.5), "minkowski_q must be >= 1"),
    (lambda: NeighborTable(np.zeros((2, 1)), np.zeros((2, 2))),
     "indices and distances must be matching 2-D arrays"),
    (lambda: NeighborTable([[1, 2], [0, 2], [0, 1]], [[2.0, 1.0], [1.0, 2.0], [1.0, 2.0]]),
     "distances must be non-decreasing"),
    (lambda: NeighborTable([[0], [0]], [[0.0], [1.0]]), "a record may not be its own neighbour"),
    (lambda: nearest_neighbors(Dataset(SCHEMA_1D, [[0.0], [1.0], [2.0]], ["a", "b", "a"]), 1),
     "neighbour search expects a single-class dataset"),
    (lambda: generate_synthetic(one_class([[0.0], [1.0], [2.0]]),
                                NeighborTable([[1], [0], [1]], [[1.0], [1.0], [1.0]]),
                                SmoteConfig(neighbors=2)),
     "neighbour table built for s=1, config says 2"),
    (lambda: generate_synthetic(one_class([[0.0], [1.0]]),
                                NeighborTable([[1, 1], [0, 0]], [[1.0, 1.0], [1.0, 1.0]]),
                                SmoteConfig(neighbors=2)),
     "neighbors must be smaller than the minority record count"),
], ids=["amount", "neighbors", "minkowski-q", "table-shapes", "table-order", "table-self",
        "two-classes", "table-for-other-s", "too-few-minority"])
def test_guard_rejects(call, fragment):
    with pytest.raises(ConfigInvalid, match=fragment):
        call()
