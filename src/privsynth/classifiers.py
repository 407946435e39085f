"""Reference classifiers used to measure utility retention.

Four classic models, each written directly against its textbook decision
rule so results are easy to verify by hand:

- k-nearest neighbours under the Minkowski metric,
- Gaussian naive Bayes,
- a linear SVM decision rule ``sign(u . z + c)`` with a stochastic
  subgradient trainer for the hinge loss,
- a CART-style decision tree on Gini impurity.

Every classifier exposes ``fit(train)`` and one batch ``predict(features)``,
its only decision rule; ``predict`` rejects query rows whose width differs
from the training data's with ``DimensionMismatch``. Deterministic tie rules
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
    ConfigInvalid,
    DegenerateClass,
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

@dataclass(frozen=True)
class NaiveBayesModel:
    """Class priors and per-class per-attribute Gaussian parameters."""

    classes: tuple
    priors: np.ndarray      # (c,)
    means: np.ndarray       # (c, d)
    variances: np.ndarray   # (c, d), floored, strictly positive

    def __post_init__(self):
        if abs(float(self.priors.sum()) - 1.0) > 1e-12:
            raise ValidationError("priors must sum to 1")
        if (self.variances <= 0).any():
            raise ValidationError("variances must be strictly positive")


def nb_train(train: Dataset) -> NaiveBayesModel:
    """Fit Gaussian likelihoods per class and attribute.

    Variances are floored at ``1e-9 * global_variance`` per attribute so a
    within-class constant attribute cannot produce a singular likelihood;
    attributes constant across the whole training set get unit variance,
    which contributes the same term to every class and so never moves the
    argmax.

    Raises:
        DegenerateClass: some class has fewer than 2 records.
    """
    if len(train) == 0:
        raise EmptyTrainSet("naive Bayes needs training records")
    classes = tuple(train.classes())
    feats = train.features
    n, d = feats.shape
    global_var = feats.var(axis=0, ddof=0)
    floor = np.where(global_var > 0, 1e-9 * global_var, 1.0)

    priors = np.empty(len(classes))
    means = np.empty((len(classes), d))
    variances = np.empty((len(classes), d))
    for i, label in enumerate(classes):
        mask = class_mask(train.labels, label)
        count = int(mask.sum())
        if count < 2:
            raise DegenerateClass(label, count)
        sub = feats[mask]
        priors[i] = count / n
        means[i] = sub.mean(axis=0)
        variances[i] = np.maximum(sub.var(axis=0, ddof=0), floor)
    return NaiveBayesModel(classes, priors, means, variances)


def _nb_log_scores(model: NaiveBayesModel, feats: np.ndarray) -> np.ndarray:
    """(n, c) matrix of log prior + sum of log Gaussian likelihoods."""
    log_prior = np.log(model.priors)
    const = -0.5 * np.sum(np.log(2.0 * np.pi * model.variances), axis=1)
    scores = np.empty((feats.shape[0], len(model.classes)))
    for i in range(len(model.classes)):
        quad = np.sum((feats - model.means[i]) ** 2 / (2.0 * model.variances[i]), axis=1)
        scores[:, i] = log_prior[i] + const[i] - quad
    return scores


class NaiveBayesClassifier:
    def __init__(self):
        self.name = "nb"
        self._model: NaiveBayesModel | None = None

    def fit(self, train: Dataset) -> "NaiveBayesClassifier":
        self._model = nb_train(train)
        return self

    def predict(self, features: np.ndarray) -> list:
        if self._model is None:
            raise ValidationError("fit before predict")
        scores = _nb_log_scores(self._model, _queries(features, self._model.means.shape[1]))
        picks = np.argmax(scores, axis=1)  # first maximum = lower class id
        return [self._model.classes[i] for i in picks]


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


def svm_train(train: Dataset, epochs: int = 30, reg: float = 1e-3, seed: int = 0) -> LinearSvmModel:
    """Stochastic subgradient descent on the regularized hinge loss.

    Binary only; the lower class id maps to -1. The returned parameters are
    the best iterate by training hinge loss, so the result never does worse
    than the zero model it starts from.

    Raises:
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

    rng = np.random.default_rng(seed)
    u = np.zeros(d)
    c = 0.0
    best = (np.zeros(d), 0.0, _hinge_loss(np.zeros(d), 0.0, feats, y))
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (reg * t)
            if y[i] * (u @ feats[i] + c) < 1.0:
                u = (1.0 - eta * reg) * u + eta * y[i] * feats[i]
                c = c + eta * y[i]
            else:
                u = (1.0 - eta * reg) * u
        loss = _hinge_loss(u, c, feats, y)
        if loss < best[2]:
            best = (u.copy(), c, loss)
    return LinearSvmModel(best[0], best[1], negative_label=neg, positive_label=pos)


class SvmClassifier:
    def __init__(self, epochs: int = 30, reg: float = 1e-3, seed: int = 0):
        self.epochs = epochs
        self.reg = reg
        self.seed = seed
        self.name = "svm"
        self._model: LinearSvmModel | None = None

    def fit(self, train: Dataset) -> "SvmClassifier":
        self._model = svm_train(train, self.epochs, self.reg, self.seed)
        return self

    def predict(self, features: np.ndarray) -> list:
        if self._model is None:
            raise ValidationError("fit before predict")
        return self._model.predict(features)


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
    root: _TreeNode = field(repr=False)
    max_depth: int = 0
    min_leaf: int = 0


def _best_split(feats: np.ndarray, codes: np.ndarray, n_classes: int, min_leaf: int):
    """Best (gain, attribute, threshold) over all axis-aligned splits.

    Candidates are midpoints between consecutive distinct sorted values.
    Every attribute is sorted at once and every candidate scored in one
    array pass, in two ``(n, d, n_classes)`` float arrays; the first maximum
    of the gains laid out attribute-major resolves ties to the lower
    attribute index and then the lower threshold.
    """
    n, d = feats.shape
    p = np.bincount(codes, minlength=n_classes) / n
    parent = 1.0 - np.sum(p * p)
    order = np.argsort(feats, axis=0, kind="stable")
    vals = np.take_along_axis(feats, order, axis=0)
    # cum[i, a] = class counts of the i + 1 lowest rows along attribute a
    cum = np.zeros((n, d, n_classes))
    cum[np.arange(n)[:, None], np.arange(d), codes[order]] = 1.0
    np.cumsum(cum, axis=0, out=cum)
    counts = cum[:-1]
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    share = np.divide(counts, n_left[:, :, None])
    gini_left = 1.0 - np.sum(np.square(share, out=share), axis=2)
    np.subtract(cum[-1], counts, out=counts)  # counts now holds the right sides
    np.divide(counts, n_right[:, :, None], out=share)
    gini_right = 1.0 - np.sum(np.square(share, out=share), axis=2)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    # zero-gain splits stay eligible: structure like XOR only pays off a
    # level deeper, and depth / min_leaf / purity bound the growth
    valid = (vals[:-1] != vals[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    gains = np.where(valid, parent - weighted, -np.inf).T
    attr, pos = divmod(int(np.argmax(gains)), n - 1)
    if gains[attr, pos] == -np.inf:
        return -np.inf, -1, 0.0
    return float(gains[attr, pos]), attr, float((vals[pos, attr] + vals[pos + 1, attr]) / 2.0)


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


def dt_train(train: Dataset, max_depth: int = 12, min_leaf: int = 2) -> DecisionTreeModel:
    """Grow a binary CART tree by maximal Gini decrease.

    Raises:
        EmptyTrainSet: no training records.
        ConfigInvalid: max_depth or min_leaf below 1.
    """
    if len(train) == 0:
        raise EmptyTrainSet("decision tree needs training records")
    if max_depth < 1 or min_leaf < 1:
        raise ConfigInvalid("max_depth and min_leaf must be >= 1")
    classes = tuple(train.classes())
    lookup = {label: i for i, label in enumerate(classes)}
    codes = np.array([lookup[l] for l in train.labels.tolist()], dtype=np.intp)
    root = _grow(train.features, codes, len(classes), 0, max_depth, min_leaf)
    return DecisionTreeModel(classes, root, max_depth, min_leaf)


class DecisionTreeClassifier:
    def __init__(self, max_depth: int = 12, min_leaf: int = 2):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.name = "dt"
        self._model: DecisionTreeModel | None = None
        self._dim = 0

    def fit(self, train: Dataset) -> "DecisionTreeClassifier":
        self._model = dt_train(train, self.max_depth, self.min_leaf)
        self._dim = train.dim
        return self

    def predict(self, features: np.ndarray) -> list:
        if self._model is None:
            raise ValidationError("fit before predict")
        preds = []
        for z in _queries(features, self._dim).tolist():
            node = self._model.root
            while not node.is_leaf:
                node = node.left if z[node.attribute] <= node.threshold else node.right
            preds.append(self._model.classes[node.prediction])
        return preds

    @property
    def model(self) -> DecisionTreeModel:
        if self._model is None:
            raise ValidationError("fit before inspecting the model")
        return self._model


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
