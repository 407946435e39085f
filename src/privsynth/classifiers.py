"""Reference classifiers used to measure utility retention.

Four classic models, each written directly against its textbook decision
rule so results are easy to verify by hand:

- k-nearest neighbours under the Minkowski metric,
- Gaussian naive Bayes,
- a linear SVM decision rule ``sign(u . z + c)`` with a stochastic
  subgradient trainer for the hinge loss,
- a CART-style decision tree on Gini impurity, grown from one presort of
  the training data: exact integer Gini scores propose each split and the
  reference float arithmetic decides among the near-best (``_best_split``).

Each model is one class. Its constructor rejects a bad hyperparameter with
``ConfigInvalid``, ``fit(train)`` trains it in place (the SVM and the tree keep
a ``model``), and one batch ``predict(features)`` is its only decision rule;
``predict`` raises ``ValidationError`` before ``fit`` and ``DimensionMismatch``
on rows whose width differs from the training data's. Deterministic tie rules
throughout: equal distances prefer the lower record index, equal scores
prefer the lower class id, equal splits prefer the lower attribute index then
the lower threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, class_mask
from .distance import nearest
from .errors import (
    ClassTooSmall,
    ConfigInvalid,
    DimensionMismatch,
    EmptyTrainSet,
    NonBinaryLabels,
    ValidationError,
)


def _queries(features, dim: int) -> np.ndarray:
    """Query rows as a float64 ``(n, dim)`` array; one row may come as a vector.

    Raises:
        DimensionMismatch: the rows do not have ``dim`` attributes.
    """
    feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if feats.shape[1] != dim:
        raise DimensionMismatch(f"queries have {feats.shape[1]} attributes, the model {dim}")
    return feats


# ---------------------------------------------------------------------------
# k-nearest neighbours
# ---------------------------------------------------------------------------

class KnnClassifier:
    """Majority vote among the k nearest training records.

    Vote ties are broken by the label of the nearest record belonging to a
    tied class, which makes predictions fully deterministic.
    """

    def __init__(self, k: int = 3, q: float = 2.0):
        if k < 1:
            raise ConfigInvalid(f"k must be >= 1, got {k}")
        if q < 1:
            raise ConfigInvalid(f"q must be >= 1, got {q}")
        self.k = k
        self.q = q
        self.name = "knn"
        self._train: Dataset | None = None

    def fit(self, train: Dataset) -> "KnnClassifier":
        if len(train) == 0:
            raise EmptyTrainSet("knn needs at least one training record")
        if self.k > len(train):
            raise ValidationError(f"k={self.k} exceeds the training size {len(train)}")
        self._train = train
        return self

    def predict(self, features: np.ndarray) -> list:
        if self._train is None:
            raise ValidationError("fit before predict")
        feats = _queries(features, self._train.dim)
        order, _ = nearest(feats, self._train.features, self.k, self.q)
        ranked = self._train.labels[order]  # (n, k), nearest first
        # votes[r, j]: how many of row r's k neighbours share neighbour j's label;
        # the first maximum is the nearest neighbour of a most-voted class
        votes = (ranked[:, :, None] == ranked[:, None, :]).sum(axis=2)
        return ranked[np.arange(len(ranked)), votes.argmax(axis=1)].tolist()


# ---------------------------------------------------------------------------
# Gaussian naive Bayes
# ---------------------------------------------------------------------------

class NaiveBayesClassifier:
    """Gaussian naive Bayes: ``fit`` sets the ``classes``, their ``priors``
    (c,), and per-class per-attribute ``means`` and ``variances`` (c, d)."""

    def __init__(self):
        self.name = "nb"
        self.classes: tuple | None = None

    def fit(self, train: Dataset) -> "NaiveBayesClassifier":
        """Fit Gaussian likelihoods per class and attribute.

        Variances are floored at ``1e-9 * global_variance`` per attribute so a
        within-class constant attribute cannot produce a singular likelihood.
        Where that floor is 0 (an attribute constant across the whole training
        set, or spread so little that the product underflows) the variance is
        1, which contributes the same term to every class up to the attribute's
        negligible spread and so does not move the argmax.

        Raises:
            EmptyTrainSet: no training records.
            ClassTooSmall: some class has fewer than 2 records.
        """
        if len(train) == 0:
            raise EmptyTrainSet("naive Bayes needs training records")
        classes = tuple(train.classes())
        feats = train.features
        n, d = feats.shape
        global_var = feats.var(axis=0, ddof=0)
        floor = 1e-9 * global_var
        floor[floor == 0] = 1.0

        priors = np.empty(len(classes))
        means = np.empty((len(classes), d))
        variances = np.empty((len(classes), d))
        for i, label in enumerate(classes):
            mask = class_mask(train.labels, label)
            count = int(mask.sum())
            if count < 2:
                raise ClassTooSmall(label, count)
            sub = feats[mask]
            priors[i] = count / n
            means[i] = sub.mean(axis=0)
            variances[i] = np.maximum(sub.var(axis=0, ddof=0), floor)
        self.classes, self.priors, self.means, self.variances = classes, priors, means, variances
        return self

    def predict(self, features: np.ndarray) -> list:
        """The class of greatest log prior + sum of log Gaussian likelihoods."""
        if self.classes is None:
            raise ValidationError("fit before predict")
        feats = _queries(features, self.means.shape[1])
        log_prior = np.log(self.priors)
        const = -0.5 * np.sum(np.log(2.0 * np.pi * self.variances), axis=1)
        scores = np.empty((feats.shape[0], len(self.classes)))
        for i in range(len(self.classes)):
            quad = np.sum((feats - self.means[i]) ** 2 / (2.0 * self.variances[i]), axis=1)
            scores[:, i] = log_prior[i] + const[i] - quad
        picks = np.argmax(scores, axis=1)  # first maximum = lower class id
        return [self.classes[i] for i in picks]


# ---------------------------------------------------------------------------
# linear SVM
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSvmModel:
    """Separating hyperplane: weights u and offset c."""

    weights: np.ndarray
    offset: float
    negative_label: object = -1
    positive_label: object = 1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if not np.isfinite(w).all() or not np.isfinite(self.offset):
            raise ValidationError("model parameters must be finite")
        object.__setattr__(self, "weights", w)

    def predict(self, features: np.ndarray) -> list:
        """The label on the side ``sign(u . z + c)`` of each row; an exact zero
        counts as positive."""
        raw = _queries(features, self.weights.size) @ self.weights + self.offset
        return [self.positive_label if v >= 0.0 else self.negative_label for v in raw]


def _hinge_loss(weights, offset, feats, y) -> float:
    margins = y * (feats @ weights + offset)
    return float(np.mean(np.maximum(0.0, 1.0 - margins)))


class SvmClassifier:
    def __init__(self, epochs: int = 30, reg: float = 1e-3, seed: int = 0):
        if epochs < 1:
            raise ConfigInvalid(f"epochs must be >= 1, got {epochs}")
        if not 0.0 < reg < np.inf:
            raise ConfigInvalid(f"reg must be positive and finite, got {reg}")
        self.epochs = epochs
        self.reg = reg
        self.seed = seed
        self.name = "svm"
        self.model: LinearSvmModel | None = None

    def fit(self, train: Dataset) -> "SvmClassifier":
        """Stochastic subgradient descent on the regularized hinge loss.

        Binary only; the lower class id maps to -1. The kept parameters are
        the best iterate by training hinge loss, so the result never does worse
        than the zero model it starts from.

        Raises:
            EmptyTrainSet: no training records.
            NonBinaryLabels: the training data does not have exactly two classes.
        """
        if len(train) == 0:
            raise EmptyTrainSet("svm needs training records")
        classes = train.classes()
        if len(classes) != 2:
            raise NonBinaryLabels(f"expected 2 classes, got {len(classes)}")
        neg, pos = classes
        y = np.where(class_mask(train.labels, pos), 1.0, -1.0)
        feats = train.features
        n, d = feats.shape

        rng = np.random.default_rng(self.seed)
        u = np.zeros(d)
        c = 0.0
        best = (np.zeros(d), 0.0, _hinge_loss(np.zeros(d), 0.0, feats, y))
        t = 0
        for _ in range(self.epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (self.reg * t)
                if y[i] * (u @ feats[i] + c) < 1.0:
                    u = (1.0 - eta * self.reg) * u + eta * y[i] * feats[i]
                    c = c + eta * y[i]
                else:
                    u = (1.0 - eta * self.reg) * u
            loss = _hinge_loss(u, c, feats, y)
            if loss < best[2]:
                best = (u.copy(), c, loss)
        self.model = LinearSvmModel(best[0], best[1], negative_label=neg, positive_label=pos)
        return self

    def predict(self, features: np.ndarray) -> list:
        if self.model is None:
            raise ValidationError("fit before predict")
        return self.model.predict(features)


# ---------------------------------------------------------------------------
# decision tree (CART, Gini impurity)
# ---------------------------------------------------------------------------

@dataclass
class _TreeNode:
    attribute: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    prediction: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class DecisionTreeModel:
    classes: tuple
    dim: int  # attributes of the training data
    root: _TreeNode = field(repr=False)


_U = np.finfo(np.float64).eps / 2  # unit roundoff


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error of k roundings."""
    return k * _U / (1 - k * _U)


def _q_margin(m: int, n_classes: int) -> float:
    """How far below the best float Q a split may score and still win on
    the reference gain (see ``_best_split``)."""
    return 2 * m * (_gamma(2) + _gamma(n_classes + 8))


def _reference_gains(left, n_left, totals, parent):
    """The reference arithmetic: Gini gains of splits whose left sides hold
    the class counts ``left`` (one row per split) of a node with class
    counts ``totals`` and Gini impurity ``parent``."""
    m = int(totals.sum())
    n_left = n_left[:, None]
    n_right = m - n_left
    share = left / n_left
    gini_left = 1.0 - np.sum(np.square(share, out=share), axis=-1)
    np.divide(totals - left, n_right, out=share)
    gini_right = 1.0 - np.sum(np.square(share, out=share), axis=-1)
    weighted = (n_left[:, 0] * gini_left + n_right[:, 0] * gini_right) / m
    return parent - weighted


def _best_split(order, feats_t, codes, totals, min_leaf):
    """Best (gain, attribute, threshold) over all axis-aligned splits of a node.

    ``order[a]`` lists the node's rows by ascending attribute ``a`` (ties by
    row id); ``feats_t`` is the training data attribute-major and
    ``totals`` the node's class counts. Candidates are midpoints between
    consecutive distinct sorted values with at least ``min_leaf`` rows on
    either side. The result is the first maximum, attribute-major, of the
    reference gains (``_reference_gains``), so ties go to the lower
    attribute index and then the lower threshold.

    Every candidate is first scored from exact integer counts. With l_c and r_c
    the class counts left and right of a split, the Gini gain is
    ``parent - 1 + Q / m`` with Q = sum l_c^2 / n_l + sum r_c^2 / n_r. A
    row whose class already has k rows before it adds 2k + 1 to
    L2 = sum l_c^2, and R2 = sum r_c^2 = T2 - 2 sum T_c l_c + L2 with T the
    node's class counts, so both are running sums over the sorted rows.

    Only candidates whose float Q lies within ``_q_margin`` of the best are
    scored with the reference arithmetic. The margin is derived as
    ``distance._certified`` derives its bound (Higham, "Accuracy and
    Stability of Numerical Algorithms", section 3.1, with unit roundoff u
    and gamma_k = k u / (1 - k u)):

    - L2 and R2 are exact in float64, so the float Q, two divisions and a
      sum, is within gamma_2 Q <= gamma_2 m of the exact Q;
    - a reference share is one division and its square one product; the
      C-class ``np.sum`` adds C - 1 roundings in any order, pairwise
      (numpy's unrolled blocks of 8) or not. The sum of squares, at most 1,
      is within gamma_{C+2} of exact, and ``1 - sum`` adds one rounding:
      gamma_{C+3};
    - the weighted mean is two products, a sum and a division of values
      whose exact total is at most m, so it lies within gamma_{C+6} of
      1 - Q / m; ``parent - weighted`` adds one rounding: gamma_{C+7};
    - so if the exact Q of a candidate trails the best candidate's by more
      than 2 m gamma_{C+7}, its reference gain is strictly lower and it is
      not the first maximum. Float Q values that trail by more than
      2 m (gamma_2 + gamma_{C+7}) imply that. The margin uses gamma_{C+8}
      so that the one rounding of ``best - margin`` is covered too.

    The margin is needed: splits with equal exact Q but different (n_l,
    n_r) can round apart, so with a margin of 0 the reference winner can be
    dropped.
    """
    d, m = order.shape
    n_classes = totals.size
    classes = codes[order]
    # the counts below are integers of magnitude under 3 m^2, exact in float64
    # l2[a, j] starts as how many rows before position j along attribute a
    # share its class; the stable sort of a small unsigned dtype is a radix sort
    by_class = np.argsort(classes, axis=1, kind="stable")
    start = np.cumsum(totals) - totals
    l2 = np.empty((d, m))
    l2[np.arange(d)[:, None], by_class] = np.arange(m) - np.repeat(start, totals)
    l2 *= 2
    l2 += 1
    np.cumsum(l2, axis=1, out=l2)
    r2 = totals.astype(np.float64)[classes]
    np.cumsum(r2, axis=1, out=r2)
    r2 *= -2
    r2 += l2
    r2 += float(totals @ totals)
    # a split after position p has n_l = p + 1; keep p with min_leaf rows either side
    lo, hi = min_leaf - 1, m - min_leaf
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    q = l2[:, lo:hi] / n_left
    q += np.divide(r2[:, lo:hi], m - n_left, out=r2[:, lo:hi])
    # flat index of (a, row) in feats_t is a * n + row
    vals = np.take(feats_t, order + np.arange(0, feats_t.size, feats_t.shape[1])[:, None])
    q[vals[:, lo:hi] == vals[:, lo + 1:hi + 1]] = -np.inf
    best = q.max()
    if best == -np.inf:
        return -np.inf, -1, 0.0
    attrs, pos = np.nonzero(q >= best - _q_margin(m, n_classes))  # attribute-major
    pos += lo
    # left class counts of each candidate: along each attribute the positions
    # of each class are ascending, so one key array laid out attribute, class,
    # position is sorted and a search per (candidate, class) counts them
    label = np.arange(n_classes)
    keys = (np.arange(d)[:, None] * n_classes + np.repeat(label, totals)) * m + by_class
    probes = (attrs[:, None] * n_classes + label) * m + pos[:, None]
    left = np.searchsorted(keys.ravel(), probes, side="right")
    left -= attrs[:, None] * m + start
    p = totals / m
    gains = _reference_gains(left, pos + 1, totals, 1.0 - np.sum(p * p))
    i = int(np.argmax(gains))
    attr, at = int(attrs[i]), pos[i]
    return float(gains[i]), attr, float((vals[attr, at] + vals[attr, at + 1]) / 2.0)


def _grow(feats, codes, n_classes, max_depth, min_leaf) -> _TreeNode:
    """The tree, grown depth first from one stable presort of the features.

    Each pending node carries its rows by ascending value of every
    attribute; a split compresses those lists with its side mask, which
    keeps rows with equal values in row id order, the order a fresh stable
    sort of the node would give. A node's lists are dropped once its
    children's are made, so the pending lists hold each training row at
    most once per attribute, plus the split being made: O(n d) memory.
    """
    feats_t = np.ascontiguousarray(feats.T)
    goes_left = np.empty(len(codes), dtype=bool)  # scratch, read only at the node's rows
    root = _TreeNode()
    pending = [(root, np.argsort(feats_t, axis=1, kind="stable"), 0)]
    while pending:
        node, order, depth = pending.pop()
        rows = order[0]
        counts = np.bincount(codes[rows], minlength=n_classes)
        node.prediction = int(np.argmax(counts))  # tie -> lower class id
        if depth >= max_depth or counts.max() == rows.size or rows.size < 2 * min_leaf:
            continue
        gain, attr, thresh = _best_split(order, feats_t, codes, counts, min_leaf)
        if attr < 0 or gain < 0.0:
            continue
        goes_left[rows] = feats_t[attr, rows] <= thresh
        mask = goes_left[order].ravel()
        left = np.compress(mask, order).reshape(order.shape[0], -1)
        right = np.compress(~mask, order).reshape(order.shape[0], -1)
        node.attribute, node.threshold = attr, thresh
        node.left, node.right = _TreeNode(), _TreeNode()
        pending += [(node.right, right, depth + 1), (node.left, left, depth + 1)]
    return root


class DecisionTreeClassifier:
    def __init__(self, max_depth: int = 12, min_leaf: int = 2):
        if max_depth < 1 or min_leaf < 1:
            raise ConfigInvalid("max_depth and min_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.name = "dt"
        self.model: DecisionTreeModel | None = None

    def fit(self, train: Dataset) -> "DecisionTreeClassifier":
        """Grow a binary CART tree by maximal Gini decrease.

        Raises:
            EmptyTrainSet: no training records.
        """
        if len(train) == 0:
            raise EmptyTrainSet("decision tree needs training records")
        classes = tuple(train.classes())
        lookup = {label: i for i, label in enumerate(classes)}
        codes = np.array([lookup[l] for l in train.labels.tolist()],
                         dtype=np.min_scalar_type(len(classes) - 1))
        root = _grow(train.features, codes, len(classes), self.max_depth, self.min_leaf)
        self.model = DecisionTreeModel(classes, train.dim, root)
        return self

    def predict(self, features: np.ndarray) -> list:
        if self.model is None:
            raise ValidationError("fit before predict")
        preds = []
        for z in _queries(features, self.model.dim).tolist():
            node = self.model.root
            while not node.is_leaf:
                node = node.left if z[node.attribute] <= node.threshold else node.right
            preds.append(self.model.classes[node.prediction])
        return preds


# short name -> classifier with its own defaults; only the SVM draws on the seed
CLASSIFIERS = {
    "knn": lambda seed: KnnClassifier(),
    "nb": lambda seed: NaiveBayesClassifier(),
    "dt": lambda seed: DecisionTreeClassifier(),
    "svm": lambda seed: SvmClassifier(seed=seed),
}


def make_classifier(name: str, seed: int = 0):
    """Classifier instance by short name, one of :data:`CLASSIFIERS`."""
    if name not in CLASSIFIERS:
        raise ConfigInvalid(f"unknown classifier {name!r}; pick from {', '.join(CLASSIFIERS)}")
    return CLASSIFIERS[name](seed)
