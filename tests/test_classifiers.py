import tracemalloc
from itertools import product

import mpmath
import numpy as np
import pytest

from privsynth import classifiers
from privsynth.classifiers import (
    DecisionTreeClassifier,
    KnnClassifier,
    LinearSvmModel,
    NaiveBayesClassifier,
    SvmClassifier,
    _TreeNode,
    make_classifier,
)
from privsynth.data import Dataset, Schema, stratified_split
from privsynth.errors import (
    ClassTooSmall,
    ConfigInvalid,
    DimensionMismatch,
    EmptyTrainSet,
    NonBinaryLabels,
    ValidationError,
)
from privsynth.noise import NoiseConfig, perturb
from privsynth.smote import SmoteConfig, minkowski_distance, run_smote
from privsynth.surrogate import make_surrogate


def table(feats, labels):
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    schema = Schema(
        tuple((f"f{i}", "numeric") for i in range(feats.shape[1])) + (("label", "label"),)
    )
    return Dataset(schema, feats, np.array(labels, dtype=object))


def _knn_case(case):
    rng = np.random.default_rng(3)
    if case == "five_point":
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [4.0, 4.0], [5.0, 4.0]])
        labels = ["a", "a", "a", "b", "b"]
        queries = rng.uniform(-1, 6, size=(600, 2))
    elif case == "duplicates":
        # repeated training rows with conflicting labels
        points = rng.integers(0, 3, size=(24, 2)).astype(float)
        labels = rng.choice(["a", "b", "c"], size=24).tolist()
        queries = rng.integers(-1, 4, size=(600, 2)).astype(float)
    elif case in ("ties", "mixed"):
        # integer line: grid queries sit equidistant from two training points
        points = np.arange(12, dtype=float)[:, None]
        # mixed: 2 and 2.0 are one class under ==, 1 and "1" are two
        labels = ["a", "b", "c"] * 4 if case == "ties" else [1, "1", 2.0, 2] * 3
        queries = rng.integers(-2, 14, size=(600, 1)) + rng.choice([0.0, 0.5], size=(600, 1))
    else:
        # sensor-rail rows clipped at +55 and -18 next to unit-scale data
        points = np.vstack([rng.normal(size=(18, 3)), np.full((3, 3), 55.0),
                            np.full((3, 3), -18.0)])
        labels = rng.choice(["a", "b"], size=18).tolist() + ["fault"] * 6
        queries = np.vstack([rng.normal(size=(560, 3)), rng.choice([55.0, -18.0], size=(40, 3))])
    return points, labels, queries


# The per-attribute CART grower the array split search replaced, kept verbatim
# as the reference the grown trees are compared against.

def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def _best_split(feats: np.ndarray, codes: np.ndarray, n_classes: int, min_leaf: int):
    """Best (gain, attribute, threshold) over all axis-aligned splits.

    Candidates are midpoints between consecutive distinct sorted values.
    Attributes are scanned in ascending order and equal gains keep the first
    candidate found, so ties resolve to the lower attribute index and then
    the lower threshold.
    """
    n = feats.shape[0]
    parent = _gini(np.bincount(codes, minlength=n_classes))
    # zero-gain splits stay eligible: structure like XOR only pays off a
    # level deeper, and depth / min_leaf / purity bound the growth
    best_gain = -np.inf
    best_attr = -1
    best_thresh = 0.0
    for attr in range(feats.shape[1]):
        col = feats[:, attr]
        order = np.argsort(col, kind="stable")
        vals = col[order]
        boundaries = np.flatnonzero(vals[:-1] != vals[1:])
        if boundaries.size == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), codes[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left_counts = cum[boundaries]
        total = cum[-1]
        right_counts = total - left_counts
        n_left = boundaries + 1
        n_right = n - n_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        gains = np.where(valid, parent - weighted, -np.inf)
        pos = int(np.argmax(gains))  # first max = lowest threshold
        if gains[pos] > best_gain:
            best_gain = float(gains[pos])
            best_attr = attr
            b = boundaries[pos]
            best_thresh = float((vals[b] + vals[b + 1]) / 2.0)
    return best_gain, best_attr, best_thresh


def _grow(feats, codes, n_classes, depth, max_depth, min_leaf) -> _TreeNode:
    counts = np.bincount(codes, minlength=n_classes)
    majority = int(np.argmax(counts))  # tie -> lower class id
    if depth >= max_depth or counts.max() == len(codes) or len(codes) < 2 * min_leaf:
        return _TreeNode(prediction=majority)
    gain, attr, thresh = _best_split(feats, codes, n_classes, min_leaf)
    if attr < 0 or gain < 0.0:
        return _TreeNode(prediction=majority)
    mask = feats[:, attr] <= thresh
    left = _grow(feats[mask], codes[mask], n_classes, depth + 1, max_depth, min_leaf)
    right = _grow(feats[~mask], codes[~mask], n_classes, depth + 1, max_depth, min_leaf)
    return _TreeNode(attribute=attr, threshold=thresh, left=left, right=right,
                     prediction=majority)


def reference_tree(train, max_depth, min_leaf) -> _TreeNode:
    lookup = {label: i for i, label in enumerate(train.classes())}
    codes = np.array([lookup[l] for l in train.labels.tolist()], dtype=np.intp)
    return _grow(train.features, codes, len(lookup), 0, max_depth, min_leaf)


def assert_same_tree(node, ref, path="root"):
    assert node.is_leaf == ref.is_leaf, path
    assert node.prediction == ref.prediction, path
    if not ref.is_leaf:
        assert node.attribute == ref.attribute, path
        assert node.threshold == ref.threshold, path
        assert_same_tree(node.left, ref.left, path + ".left")
        assert_same_tree(node.right, ref.right, path + ".right")


def tree_depth(node) -> int:
    return 0 if node.is_leaf else 1 + max(tree_depth(node.left), tree_depth(node.right))


def surrogate_release(g, amount):
    train, _ = stratified_split(make_surrogate(3000, seed=1729), 0.3, seed=11)
    merged = run_smote(train, 12, SmoteConfig(amount, 5, seed=12))
    return perturb(merged, NoiseConfig(level=g, seed=13))


class TestKnn:
    def test_training_point_returns_own_label(self):
        train = table([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]], ["a", "b", "c"])
        assert KnnClassifier(k=1).fit(train).predict([[5.0, 5.0]])[0] == "b"

    def test_five_point_oracle(self):
        cases = ("five_point", "duplicates", "ties", "mixed", "rails")
        for case, q in product(cases, (1.0, 2.0, 3.0)):
            # 600 queries cross two 256-row query-block boundaries
            points, labels, queries = _knn_case(case)
            n = len(points)
            ranked_all = [
                sorted(range(n), key=lambda i: (minkowski_distance(query, points[i], q), i))
                for query in queries
            ]
            for k in sorted({1, 2, 3, 4, 7, n} & set(range(1, n + 1))):
                preds = KnnClassifier(k=k, q=q).fit(table(points, labels)).predict(queries)
                for row, (ranked, pred) in enumerate(zip(ranked_all, preds)):
                    votes = [labels[i] for i in ranked[:k]]
                    best = max(votes.count(v) for v in votes)
                    # vote ties go to the class of the nearest tied neighbour
                    expected = next(v for v in votes if votes.count(v) == best)
                    assert type(pred) is type(expected) and pred == expected, (case, q, k, row)

    def test_predict_memory_is_bounded(self):
        # a full 20000 x 500 distance matrix would take 80 MB on its own
        rng = np.random.default_rng(4)
        train = table(rng.normal(size=(500, 1)), rng.integers(0, 3, size=500).tolist())
        clf = KnnClassifier(k=3).fit(train)
        queries = rng.normal(size=(20000, 1))
        tracemalloc.start()
        try:
            clf.predict(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20000 * 500 * 8 / 4

    def test_vote_tie_broken_by_nearest_tied_class(self):
        # k=2: one 'a' at distance 1, one 'b' at distance 2 -> 1-1 tie,
        # nearest tied neighbour is the 'a'
        train = table([[1.0], [2.0], [10.0]], ["a", "b", "b"])
        assert KnnClassifier(k=2).fit(train).predict([[0.0]])[0] == "a"
        # labels vote as equal under ==: 2.0 and 2 pool their votes, "1" and 1
        # do not; the nearest member of a tied class is the one returned
        for labels, expected in (([2.0, "1", 2, 1], 2.0), (["1", 1, 1.0, "1"], "1"),
                                 ([1, "1", "1", 1.0], 1), (["b", "a", "a", "b"], "b")):
            train = table([[1.0], [2.0], [3.0], [4.0]], labels)
            pred = KnnClassifier(k=4).fit(train).predict([[0.0]])[0]
            assert type(pred) is type(expected) and pred == expected, labels

    def test_distance_tie_prefers_lower_index(self):
        train = table([[1.0], [-1.0]], ["b", "a"])
        # both at distance 1; stable order keeps index 0 first
        assert KnnClassifier(k=1).fit(train).predict([[0.0]])[0] == "b"

    def test_paper_setting_k3(self):
        rng = np.random.default_rng(8)
        left = rng.normal(-4, 0.5, size=(30, 2))
        right = rng.normal(4, 0.5, size=(30, 2))
        train = table(np.vstack([left, right]), ["L"] * 30 + ["R"] * 30)
        clf = KnnClassifier(k=3)
        clf.fit(train)
        preds = clf.predict(np.array([[-4.0, 0.0], [4.0, 0.0]]))
        assert preds == ["L", "R"]

    def test_empty_train(self):
        empty = table(np.empty((0, 1)), [])
        with pytest.raises(EmptyTrainSet):
            KnnClassifier(k=1).fit(empty)


class TestNaiveBayes:
    def test_separated_classes(self):
        rng = np.random.default_rng(1)
        feats = np.concatenate([rng.normal(0, 1, 40), rng.normal(20, 1, 40)])[:, None]
        train = table(feats, ["lo"] * 40 + ["hi"] * 40)
        clf = NaiveBayesClassifier().fit(train)
        assert clf.predict([[0.0]])[0] == "lo"
        assert clf.predict([[20.0]])[0] == "hi"

    def test_midpoint_tie_goes_to_lower_class(self):
        # symmetric classes, equal priors: scores tie at the midpoint
        train = table([[-1.0], [-3.0], [5.0], [7.0]], [1, 1, 2, 2])
        assert NaiveBayesClassifier().fit(train).predict([[2.0]])[0] == 1

    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(5)
        feats = np.vstack([rng.normal(0, 1, size=(10, 2)), rng.normal(2.5, 1.5, size=(10, 2))])
        labels = ["a"] * 10 + ["b"] * 10
        train = table(feats, labels)
        clf = NaiveBayesClassifier().fit(train)

        mpmath.mp.dps = 60

        def oracle(z):
            best, best_label = None, None
            for label in ("a", "b"):
                rows = feats[:10] if label == "a" else feats[10:]
                score = mpmath.mpf(rows.shape[0]) / 20
                for j in range(2):
                    mu = mpmath.mpf(float(rows[:, j].mean()))
                    var = mpmath.mpf(float(rows[:, j].var()))
                    diff = mpmath.mpf(float(z[j])) - mu
                    score *= mpmath.exp(-diff ** 2 / (2 * var)) / mpmath.sqrt(2 * mpmath.pi * var)
                if best is None or score > best:
                    best, best_label = score, label
            return best_label

        for _ in range(60):
            z = rng.uniform(-2, 5, size=2)
            assert clf.predict([z])[0] == oracle(z)

    def test_shift_invariance(self):
        # adding a constant to one attribute everywhere shifts means only
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(60, 3))
        labels = (["a"] * 20 + ["b"] * 20 + ["c"] * 20)
        train = table(feats, labels)
        shifted_feats = feats.copy()
        shifted_feats[:, 1] += 100.0
        shifted = table(shifted_feats, labels)
        queries = rng.normal(size=(30, 3))
        base = NaiveBayesClassifier().fit(train)
        shift = NaiveBayesClassifier().fit(shifted)
        for q in queries:
            q_shift = q.copy()
            q_shift[1] += 100.0
            assert base.predict([q])[0] == shift.predict([q_shift])[0]

    def test_degenerate_class(self):
        train = table([[0.0], [1.0], [2.0]], ["a", "a", "b"])
        with pytest.raises(ClassTooSmall):
            NaiveBayesClassifier().fit(train)

    def test_constant_attribute_harmless(self):
        rng = np.random.default_rng(2)
        feats = np.column_stack([np.full(40, 3.0), rng.normal(size=40)])
        labels = ["a"] * 20 + ["b"] * 20
        clf = NaiveBayesClassifier().fit(table(feats, labels))
        assert clf.predict([[3.0, 0.0]])[0] in ("a", "b")
        # a class-constant column spread so little that 1e-9 x its variance
        # underflows to 0 gets unit variance too, and moves no prediction
        tiny = np.repeat([1e-160, 3e-160], 20)
        wide = NaiveBayesClassifier().fit(table(np.column_stack([feats, tiny]), labels))
        queries = np.column_stack([np.full(50, 3.0), rng.normal(size=50), np.full(50, 2e-160)])
        assert wide.predict(queries) == clf.predict(queries[:, :2])


class TestSvm:
    def test_sign_examples(self):
        model = LinearSvmModel(np.array([1.0, 0.0]), 0.0)
        assert model.predict([[3.0, 7.0]])[0] == 1
        assert model.predict([[-2.0, 7.0]])[0] == -1

    def test_boundary_maps_to_plus_one(self):
        model = LinearSvmModel(np.array([1.0, 1.0]), -2.0)
        assert model.predict([[1.0, 1.0]])[0] == 1

    def test_random_triples_match_dot_product(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = rng.normal(size=3)
            c = float(rng.normal())
            z = rng.normal(size=3)
            model = LinearSvmModel(u, c)
            expected = 1 if float(u @ z + c) >= 0 else -1
            assert model.predict([z])[0] == expected

    def test_dimension_mismatch(self):
        model = LinearSvmModel(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(DimensionMismatch):
            model.predict([[1.0]])

    def test_separable_clusters_perfect_training_accuracy(self):
        rng = np.random.default_rng(6)
        left = rng.normal(-5, 0.5, size=(40, 2))
        right = rng.normal(5, 0.5, size=(40, 2))
        train = table(np.vstack([left, right]), [-1] * 40 + [1] * 40)
        clf = SvmClassifier(epochs=40, reg=1e-3, seed=0).fit(train)
        preds = clf.predict(train.features)
        actual = [-1] * 40 + [1] * 40
        assert preds == actual

    def test_loss_never_worse_than_zero_model(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(50, 2))
        labels = ["a" if x[0] + x[1] > 0 else "b" for x in feats]
        if len(set(labels)) == 1:
            labels[0] = "a" if labels[0] == "b" else "b"
        train = table(feats, labels)
        model = SvmClassifier(epochs=10, reg=1e-2, seed=1).fit(train).model
        y = np.array([1.0 if l == "b" else -1.0 for l in labels])
        hinge = np.maximum(0.0, 1.0 - y * (train.features @ model.weights + model.offset)).mean()
        assert hinge <= 1.0 + 1e-12  # zero-weight loss is exactly 1

    def test_single_class_rejected(self):
        train = table([[0.0], [1.0]], ["a", "a"])
        with pytest.raises(NonBinaryLabels):
            SvmClassifier().fit(train)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        train = table(rng.normal(size=(30, 2)), ["a", "b"] * 15)
        m1, m2 = (SvmClassifier(epochs=5, reg=1e-2, seed=42).fit(train).model for _ in range(2))
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.offset == m2.offset


class TestDecisionTree:
    def test_pure_data_single_leaf(self):
        train = table([[0.0], [1.0], [2.0]], ["a", "a", "a"])
        clf = DecisionTreeClassifier(max_depth=5, min_leaf=1).fit(train)
        assert clf.model.root.is_leaf
        assert clf.predict([[99.0]])[0] == "a"

    def test_1d_split_between_clusters(self):
        train = table([[0.0], [1.0], [10.0], [11.0]], ["A", "A", "B", "B"])
        clf = DecisionTreeClassifier(max_depth=3, min_leaf=1).fit(train)
        assert 1.0 < clf.model.root.threshold < 10.0
        preds = clf.predict(train.features)
        assert preds == ["A", "A", "B", "B"]

    def test_stump_cannot_fit_xor(self):
        feats = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
        labels = ["a", "a", "b", "b"]
        train = table(feats, labels)

        # exhaustive stump oracle: every axis threshold, majority leaves
        best = 0.0
        for attr in range(2):
            for thresh in (-0.5, 0.5, 1.5):
                for left_lab in ("a", "b"):
                    for right_lab in ("a", "b"):
                        acc = np.mean([
                            (left_lab if f[attr] <= thresh else right_lab) == l
                            for f, l in zip(feats, labels)
                        ])
                        best = max(best, float(acc))
        assert best <= 0.75

        clf = DecisionTreeClassifier(max_depth=1, min_leaf=1).fit(train)
        acc = np.mean([p == l for p, l in zip(clf.predict(feats), labels)])
        assert acc <= best

    def test_deeper_tree_fits_xor(self):
        feats = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
        labels = ["a", "a", "b", "b"]
        clf = DecisionTreeClassifier(max_depth=3, min_leaf=1).fit(table(feats, labels))
        assert all(p == l for p, l in zip(clf.predict(feats), labels))

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(10)
        train = table(rng.normal(size=(40, 2)), ["a", "b"] * 20)
        model = DecisionTreeClassifier(max_depth=8, min_leaf=5).fit(train).model

        def leaf_depth_sizes(node, feats, labels):
            if node.is_leaf:
                return [len(labels)]
            mask = feats[:, node.attribute] <= node.threshold
            return (leaf_depth_sizes(node.left, feats[mask], labels[mask])
                    + leaf_depth_sizes(node.right, feats[~mask], labels[~mask]))

        sizes = leaf_depth_sizes(model.root, train.features, train.labels)
        assert min(sizes) >= 5

    def test_matches_reference_grower(self):
        xor = table([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], ["a", "a", "b", "b"])
        cases = [(surrogate_release(0.0, 130), 12, 2), (surrogate_release(0.3, 500), 12, 2),
                 (xor, 1, 1), (xor, 3, 1)]
        rng = np.random.default_rng(12)
        for _ in range(200):
            # small integer values force ties; a zero range gives constant columns
            n, d = int(rng.integers(1, 41)), int(rng.integers(1, 5))
            feats = rng.integers(0, rng.integers(1, 5, size=d), size=(n, d))
            labels = rng.integers(0, rng.integers(1, 5), size=n).tolist()
            cases += [(table(feats, labels), depth, leaf)
                      for depth, leaf in product((1, 3, 12), (1, 2, 5))]
        for _ in range(24):
            # 8-16 classes: the reference's class sum takes numpy's unrolled
            # pairwise path, and exact Gini ties between unlike splits abound
            n, d = int(rng.integers(40, 401)), int(rng.integers(1, 5))
            feats = rng.integers(0, rng.integers(2, 9, size=d), size=(n, d))
            labels = rng.integers(0, rng.integers(8, 17), size=n).tolist()
            cases += [(table(feats, labels), 12, leaf) for leaf in (1, 3)]
        # one decimal: ties across attributes at large nodes
        rounded = surrogate_release(0.3, 300)
        cases.append((table(np.round(rounded.features, 1), rounded.labels), 12, 2))
        # 300 classes do not fit a uint8 class code
        feats = rng.integers(0, 40, size=(900, 3))
        cases.append((table(feats, rng.integers(0, 300, size=900).tolist()), 6, 1))
        for i, (train, max_depth, min_leaf) in enumerate(cases):
            model = DecisionTreeClassifier(max_depth, min_leaf).fit(train).model
            assert_same_tree(model.root, reference_tree(train, max_depth, min_leaf), f"case {i}")

    def test_split_margin_covers_rounding(self, monkeypatch):
        # splits with exactly equal Gini gain, found by search over small
        # integer nodes: the float Q ranks the split on attribute 1 first,
        # the reference gain (and so the reference grower) the one on 0
        feats = np.array([[3, 3, 1, 2, 4, 2, 4, 4, 3, 1, 2, 3, 0, 3, 4, 1],
                          [2, 3, 3, 4, 2, 4, 5, 2, 3, 0, 2, 4, 4, 3, 5, 2]]).T
        labels = [9, 8, 7, 6, 1, 3, 7, 3, 5, 4, 5, 1, 8, 5, 1, 6]
        train = table(feats, labels)
        ref = reference_tree(train, 1, 1)
        assert (ref.attribute, ref.threshold) == (0, 3.5)
        stump = DecisionTreeClassifier(max_depth=1, min_leaf=1)
        assert_same_tree(stump.fit(train).model.root, ref)
        monkeypatch.setattr(classifiers, "_q_margin", lambda m, n_classes: 0.0)
        root = stump.fit(train).model.root
        assert (root.attribute, root.threshold) == (1, 1.0)

    @pytest.mark.parametrize("case", ["sibling_class_sets", "leaf_beside_split",
                                      "ties_across_segments"])
    def test_level_layouts_match_reference_grower(self, case):
        # one level array holds every node of a depth: nodes whose class sets
        # differ, a node with no candidate beside one with, and equal values
        # on both sides of the boundary between two nodes' segments
        if case == "sibling_class_sets":
            feats = [[i, v] for i, v in enumerate([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8])]
            labels = ["a", "b"] * 3 + ["c", "d"] * 3
        elif case == "leaf_beside_split":
            feats = [[0, 5, 3]] * 4 + [[10, 5, v] for v in range(6)]
            labels = ["a", "b"] * 2 + ["c", "d"] * 3
        else:
            feats = [[i, v] for i, v in enumerate([0, 1, 2, 2, 2, 2, 3, 4])]
            labels = ["a", "b"] * 2 + ["c", "d"] * 2
        train = table(feats, labels)
        ref = reference_tree(train, 12, 1)
        assert ref.attribute == 0 and not ref.right.is_leaf
        assert ref.left.is_leaf == (case == "leaf_beside_split")
        assert_same_tree(DecisionTreeClassifier(12, 1).fit(train).model.root, ref)

    @pytest.mark.parametrize("low, high", [
        (1 + 2 ** -52, 1 + 2 ** -51),  # adjacent doubles: the midpoint rounds up
        (1e308, 1.5e308),  # the sum overflows: the midpoint is inf
        (-1.5e308, -1e308),  # and -inf
    ])
    @pytest.mark.parametrize("min_leaf", [1, 2])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rounded_midpoint_matches_reference_grower(self, low, high, min_leaf):
        # the threshold sends every row of the node one way, so the children
        # hold other rows than the sorted split the gain was scored on; a
        # second attribute lets the misrouted rows grow again
        rows = [[low, 0], [low, 1], [high, 0], [high, 1], [high, 0], [high, 1]]
        train = table(rows + [[high, 2]] * 4, ["x", "x", "y", "z", "y", "z"] + ["y", "z"] * 2)
        ref = reference_tree(train, 12, min_leaf)
        assert ref.attribute == 0 and (ref.left.is_leaf or ref.right.is_leaf)
        assert_same_tree(DecisionTreeClassifier(12, min_leaf).fit(train).model.root, ref)
        one = table([[low], [low], [high], [high], [high], [high]], ["x", "x", "y", "z", "y", "z"])
        assert_same_tree(DecisionTreeClassifier(12, min_leaf).fit(one).model.root,
                         reference_tree(one, 12, min_leaf))

    @pytest.mark.parametrize("max_depth, min_leaf", product((1, 2), (1, 3, 7)))
    def test_shallow_trees_match_reference_grower(self, max_depth, min_leaf):
        rng = np.random.default_rng(14)
        train = table(rng.integers(0, 10, size=(200, 3)), rng.integers(0, 6, size=200).tolist())
        model = DecisionTreeClassifier(max_depth, min_leaf).fit(train).model
        assert_same_tree(model.root, reference_tree(train, max_depth, min_leaf))

    @staticmethod
    def count_searches(monkeypatch):
        """Record the (nodes, classes) shape of every level split search."""
        shapes = []
        search = classifiers._split_search

        def counted(order, totals, *args):
            shapes.append(totals.shape)
            return search(order, totals, *args)

        monkeypatch.setattr(classifiers, "_split_search", counted)
        return shapes

    def test_one_split_search_per_level(self, monkeypatch):
        xor = table([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], ["a", "a", "b", "b"])
        rng = np.random.default_rng(15)
        noisy = table(rng.normal(size=(300, 4)), rng.integers(0, 5, size=300).tolist())
        for train in (surrogate_release(0.3, 500), xor, noisy):
            shapes = self.count_searches(monkeypatch)
            root = DecisionTreeClassifier().fit(train).model.root
            assert 1 <= len(shapes) <= tree_depth(root) + 1

    def test_wide_level_matches_reference_grower(self, monkeypatch):
        # all 512 rows of 9 binary attributes, 300 classes: the tree is
        # perfect, and 256 nodes x 300 classes at depth 8 exceed a 16-bit
        # sort key, so the (node, class) sort leaves numpy's radix path
        idx = np.arange(512)
        train = table((idx[:, None] >> np.arange(9)) & 1, (idx % 300).tolist())
        shapes = self.count_searches(monkeypatch)
        model = DecisionTreeClassifier(max_depth=9, min_leaf=1).fit(train).model
        assert max(nodes * classes for nodes, classes in shapes) > 2 ** 16
        assert_same_tree(model.root, reference_tree(train, 9, 1))

    def test_predict_query_shapes(self):
        train = surrogate_release(0.3, 130)
        clf = DecisionTreeClassifier().fit(train)
        queries = train.features[:50].copy()
        queries[::7, 0] = np.nan
        batch = clf.predict(queries)
        assert clf.predict(queries[3]) == batch[3:4]  # one row as a vector
        assert clf.predict(np.empty((0, train.dim))) == []
        stump = DecisionTreeClassifier(1, 1).fit(table([[0.0], [1.0]], ["a", "b"]))
        assert stump.predict([[0.5], [np.nan], [-1.0]]) == ["a", "b", "a"]  # NaN fails <=: right

    def test_fit_memory_is_bounded(self):
        # per-node (n, d, classes) float arrays would take 35x the features
        train = make_surrogate(6000, seed=3)
        tracemalloc.start()
        try:
            DecisionTreeClassifier().fit(train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * train.features.nbytes

    def test_invalid_config(self):
        with pytest.raises(EmptyTrainSet):
            DecisionTreeClassifier().fit(table(np.empty((0, 1)), []))


@pytest.mark.parametrize("width", [1, 3], ids=["d-1", "d+1"])
@pytest.mark.parametrize("name", ["knn", "nb", "dt", "svm"])
def test_predict_rejects_wrong_width(name, width):
    # a 2-attribute model: one column would broadcast against it and a tree
    # that never splits on the third would not look at it
    rng = np.random.default_rng(14)
    train = table(rng.normal(size=(20, 2)), ["a", "b"] * 10)
    clf = make_classifier(name).fit(train)
    with pytest.raises(DimensionMismatch):
        clf.predict(np.zeros((4, width)))


@pytest.mark.parametrize("name", sorted(classifiers.CLASSIFIERS))
def test_predict_before_fit_is_rejected(name):
    with pytest.raises(ValidationError, match="fit before predict"):
        make_classifier(name).predict(np.zeros((1, 2)))


@pytest.mark.parametrize("make", [
    lambda: KnnClassifier(k=0),
    lambda: KnnClassifier(q=0.5),
    lambda: SvmClassifier(epochs=0),
    lambda: SvmClassifier(reg=0.0),
    lambda: SvmClassifier(reg=-1e-3),
    lambda: SvmClassifier(reg=float("nan")),
    lambda: SvmClassifier(reg=float("inf")),
    lambda: DecisionTreeClassifier(max_depth=0),
    lambda: DecisionTreeClassifier(min_leaf=0),
], ids=["knn-k", "knn-q", "svm-epochs", "svm-reg-zero", "svm-reg-negative", "svm-reg-nan",
        "svm-reg-inf", "dt-max-depth", "dt-min-leaf"])
def test_bad_hyperparameter_rejected_at_construction(make):
    # Naive Bayes takes no hyperparameters
    with pytest.raises(ConfigInvalid):
        make()


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_classifier("knn"), KnnClassifier)
        assert isinstance(make_classifier("nb"), NaiveBayesClassifier)
        assert isinstance(make_classifier("dt"), DecisionTreeClassifier)
        assert isinstance(make_classifier("svm"), SvmClassifier)

    def test_unknown_name(self):
        with pytest.raises(ConfigInvalid):
            make_classifier("xgboost")

    def test_defaults_mirror_protocol(self):
        knn = make_classifier("knn")
        assert knn.k == 3 and knn.q == 2.0
        dt = make_classifier("dt")
        assert dt.max_depth == 12 and dt.min_leaf == 2


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: KnnClassifier(k=3).fit(table([[0.0], [1.0]], ["a", "b"])), ValidationError,
     "k=3 exceeds the training size 2"),
    (lambda: NaiveBayesClassifier().fit(table(np.empty((0, 1)), [])), EmptyTrainSet,
     "naive Bayes needs training records"),
    (lambda: SvmClassifier().fit(table(np.empty((0, 1)), [])), EmptyTrainSet,
     "svm needs training records"),
    (lambda: LinearSvmModel(np.array([np.nan]), 0.0), ValidationError,
     "model parameters must be finite"),
], ids=["knn-k-above-train", "nb-empty-train", "svm-empty-train", "svm-non-finite-model"])
def test_bad_training_input_rejected(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
