"""Reference classifiers used to measure utility retention.

Three classic models, each written directly against its textbook decision
rule so results are easy to verify by hand:

- k-nearest neighbours under the Minkowski metric,
- Gaussian naive Bayes,
- a CART-style decision tree on Gini impurity, grown level by level from
  one presort of the training data: one search per depth scores every
  split of every node of that depth with exact integer Gini quantities, and
  the reference float arithmetic decides among each node's near-best
  (``_split_search``).

Each model is one class. Its constructor rejects a bad hyperparameter with
``ConfigInvalid``, ``fit(train)`` trains it in place (the tree keeps a
``model``), and one batch ``predict(features)`` is its only decision rule;
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
    ValidationError,
)


def _queries(features, dim: int) -> np.ndarray:
    """Query rows as a C-ordered float64 ``(n, dim)`` array; one row may come
    as a vector. Sums along a row then run over contiguous attributes, so
    their bits do not follow the caller's memory layout.

    Raises:
        DimensionMismatch: the rows do not have ``dim`` attributes.
    """
    feats = np.atleast_2d(np.ascontiguousarray(features, dtype=np.float64))
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
        # C-ordered, as in perturb: a column-major var sums pairwise, so the
        # floor's bytes would follow the layout
        feats = np.ascontiguousarray(train.features)
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


def _q_margin(m, n_classes: int):
    """How far below the best float Q a split of an ``m``-row node may score
    and still win on the reference gain (see ``_split_search``)."""
    return 2 * m * (_gamma(2) + _gamma(n_classes + 8))


def _reference_gains(left, n_left, totals, parent):
    """The reference arithmetic: Gini gains of splits whose left sides hold
    the class counts ``left`` (one row per split) of nodes with class counts
    ``totals`` and Gini impurity ``parent`` (one row or value per split)."""
    m = totals.sum(axis=-1)
    n_left = n_left[:, None]
    n_right = m[:, None] - n_left
    share = left / n_left
    gini_left = 1.0 - np.sum(np.square(share, out=share), axis=-1)
    np.divide(totals - left, n_right, out=share)
    gini_right = 1.0 - np.sum(np.square(share, out=share), axis=-1)
    weighted = (n_left[:, 0] * gini_left + n_right[:, 0] * gini_right) / m
    return parent - weighted


def _split_search(order, totals, feats_t, codes, min_leaf):
    """Best axis-aligned split of every node of one tree level.

    ``order[a]`` lists the level's rows by node, and within a node by
    ascending attribute ``a`` (ties by row id): node k holds the same
    contiguous segment of every attribute row. ``totals[k]`` are node k's
    class counts and ``feats_t`` is the training data attribute-major.
    Candidates are midpoints between consecutive distinct sorted values of
    a node with at least ``min_leaf`` rows on either side. A node's split
    is the first maximum, attribute-major, of the reference gains
    (``_reference_gains``), so ties go to the lower attribute index and
    then the lower threshold.

    Returns ``(nodes, gains, attrs, thresholds)``: one entry per node that
    has a candidate, ascending.

    Every candidate is first scored from exact integer counts. With l_c and r_c
    the class counts left and right of a split of an m-row node, the Gini
    gain is ``parent - 1 + Q / m`` with Q = sum l_c^2 / n_l + sum r_c^2 / n_r.
    Moving a row whose class c already has k rows before it in its node to
    the left side adds 2k + 1 to L2 = sum l_c^2 and 2k + 1 - 2 T_c to
    R2 = sum r_c^2, which starts at T2 = sum T_c^2 (T the node's class
    counts), so both are running sums over the sorted rows. One stable sort
    of each attribute row by (node, class), a radix sort while nodes x
    classes fit 16 bits, gives every row its k. The running sums run along
    the whole level row: a node's terms add up to T2 and -T2, so the
    previous node's total is taken back at the first row of each segment
    and every partial sum is the node's own, in [0, m^2] for L2 and in
    [-m^2, 0] for R2 - T2. Every term, a segment's first included, and
    every partial sum is then an integer of magnitude at most n^2 for n
    training rows, exact in float64 while n < 2^26.5 (9.4e7), so each float
    Q is the one the same split gets when its node is searched alone.

    Only candidates whose float Q lies within ``_q_margin`` of their node's
    best are scored with the reference arithmetic. The margin is derived as
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
    d, n = order.shape
    n_nodes, n_classes = totals.shape
    # no split falls between equal values; flat (a, row) in feats_t is a * n_rows + row
    vals = np.take(feats_t, order + np.arange(0, feats_t.size, feats_t.shape[1])[:, None])
    tied = vals[:, :-1] == vals[:, 1:]
    del vals
    sizes = totals.sum(axis=1)
    starts = np.cumsum(sizes) - sizes
    node_of = np.repeat(np.arange(n_nodes), sizes)
    counts = totals.ravel()  # group g = node * C + class holds counts[g] rows
    group = codes[order].astype(np.min_scalar_type(counts.size - 1), copy=False)
    group += (node_of * n_classes).astype(group.dtype)
    # flat (attribute, position) indices of the level, by attribute, group, position
    by_group = np.argsort(group, axis=1, kind="stable")
    by_group += np.arange(0, d * n, n)[:, None]
    start = np.cumsum(counts) - counts
    t2 = np.einsum("kc,kc->k", totals, totals).astype(np.float64)
    # l2 starts as 2k + 1, k the rows before this one along its attribute
    # that share its node and class; put repeats the n values for each attribute
    l2 = np.empty((d, n))
    np.put(l2, by_group, 2.0 * (np.arange(n) - np.repeat(start, counts)) + 1.0)
    r2 = counts.astype(np.float64)[group]
    del group
    r2 *= -2
    r2 += l2
    # a node's terms add up to T2 in l2 and -T2 in r2: undoing the previous
    # node's total at each segment start keeps each running sum its node's own
    l2[:, starts[1:]] -= t2[:-1]
    r2[:, starts[1:]] += t2[:-1]
    np.cumsum(l2, axis=1, out=l2)
    np.cumsum(r2, axis=1, out=r2)
    r2 += t2[node_of]
    # a split after position p of node k has n_l = p - starts[k] + 1
    n_left = (np.arange(n) - starts[node_of] + 1).astype(np.float64)
    n_right = sizes[node_of] - n_left
    q = np.divide(l2, n_left, out=l2)
    q += np.divide(r2, np.maximum(n_right, 1.0), out=r2)
    del r2
    np.copyto(q, -np.inf, where=(n_left < min_leaf) | (n_right < min_leaf))
    np.copyto(q[:, :-1], -np.inf, where=tied)
    best = np.maximum.reduceat(q.max(axis=0), starts)
    floor = best - _q_margin(sizes, n_classes)
    floor[best == -np.inf] = np.inf
    attrs, pos = np.divmod(np.flatnonzero(q >= floor[node_of]), n)  # attribute-major
    del q
    # node-major, then still attribute-major within each node
    by_node = np.argsort(node_of[pos], kind="stable")
    attrs, pos = attrs[by_node], pos[by_node]
    node = node_of[pos]
    # left class counts of each candidate: along each attribute the positions
    # of each group are ascending, so keys laid out attribute, group, position
    # are sorted and a search per (candidate, class) counts them
    keys = by_group
    keys += np.repeat(np.arange(counts.size) * n, counts)
    keys += (np.arange(d) * ((counts.size - 1) * n))[:, None]
    groups = node[:, None] * n_classes + np.arange(n_classes)
    probes = (attrs[:, None] * counts.size + groups) * n + pos[:, None]
    left = np.searchsorted(keys.ravel(), probes, side="right")
    left -= attrs[:, None] * n + start[groups]
    p = totals / sizes[:, None]
    parent = 1.0 - np.sum(p * p, axis=1)
    gains = _reference_gains(left, pos - starts[node] + 1, totals[node], parent[node])
    # the first maximum of each node's run of candidates
    first = np.flatnonzero(np.diff(node, prepend=-1))
    top = np.maximum.reduceat(gains, first)
    hits = np.flatnonzero(gains == np.repeat(top, np.diff(first, append=node.size)))
    win = hits[np.diff(node[hits], prepend=-1) != 0]
    attrs, pos = attrs[win], pos[win]
    thresholds = (feats_t[attrs, order[attrs, pos]] + feats_t[attrs, order[attrs, pos + 1]]) / 2.0
    return node[win], gains[win], attrs, thresholds


def _grow(feats, codes, n_classes, max_depth, min_leaf) -> _TreeNode:
    """The tree, grown level by level from one stable presort of the features.

    The nodes still to split at one depth share one array of per-attribute
    row orders, each node a contiguous segment of every attribute row, and
    one ``_split_search`` call splits them all. One stable partition of
    that array then lays out the next level: the left children's segments,
    node by node, then the right children's, rows with equal values still
    in row id order, the order a fresh stable sort of a node would give.
    Rows whose node becomes a leaf are dropped, so the level array holds
    each training row at most once per attribute: O(n d) memory, and at
    most ``max_depth`` split searches per tree.
    """
    feats_t = np.ascontiguousarray(feats.T)
    totals = np.bincount(codes, minlength=n_classes)[None, :]
    root = _TreeNode(prediction=int(np.argmax(totals)))  # tie -> lower class id
    nodes = [root] if _splittable(totals, 0, max_depth, min_leaf)[0] else []
    order = np.argsort(feats_t, axis=1, kind="stable")
    side = np.empty(len(codes), dtype=np.uint8)  # scratch, read only at the level's rows
    depth = 0
    while nodes:
        which, gains, attrs, thresholds = _split_search(order, totals, feats_t, codes, min_leaf)
        split = gains >= 0.0
        which, attrs, thresholds = which[split], attrs[split], thresholds[split]
        # route the rows of every splitting node by the float test predict uses
        split_of = np.full(len(totals), -1)
        split_of[which] = np.arange(which.size)
        split_of = np.repeat(split_of, totals.sum(axis=1))
        rows = order[0][split_of >= 0]
        split_of = split_of[split_of >= 0]
        goes_right = ~(feats_t[attrs[split_of], rows] <= thresholds[split_of])
        # the children's class counts from the rows as routed, not as sorted:
        # a midpoint can round onto the upper value (adjacent doubles) or
        # overflow to +-inf, and then rows change side
        child = (2 * split_of + goes_right) * n_classes + codes[rows]
        left, right = np.bincount(child, minlength=2 * n_classes * which.size).reshape(
            -1, 2, n_classes).transpose(1, 0, 2)
        depth += 1
        grows_left = _splittable(left, depth, max_depth, min_leaf)
        grows_right = _splittable(right, depth, max_depth, min_leaf)
        parents = [nodes[k] for k in which.tolist()]
        for node, attr, threshold, left_class, right_class in zip(
                parents, attrs.tolist(), thresholds.tolist(),
                np.argmax(left, axis=1).tolist(), np.argmax(right, axis=1).tolist()):
            node.attribute, node.threshold = attr, threshold
            node.left, node.right = _TreeNode(prediction=left_class), _TreeNode(prediction=right_class)
        nodes = ([node.left for node, grows in zip(parents, grows_left.tolist()) if grows]
                 + [node.right for node, grows in zip(parents, grows_right.tolist()) if grows])
        if not nodes:
            break
        # side of each row: 0 to a growing left child, 1 to a growing right one, else 2
        grows = np.where(goes_right, grows_right[split_of], grows_left[split_of])
        side.fill(2)
        side[rows] = np.where(grows, goes_right, 2)
        at = side[order]
        order = np.hstack([np.compress((at == 0).ravel(), order).reshape(len(order), -1),
                           np.compress((at == 1).ravel(), order).reshape(len(order), -1)])
        totals = np.vstack([left[grows_left], right[grows_right]])
    return root


def _splittable(totals, depth, max_depth, min_leaf) -> np.ndarray:
    """Which nodes with these class counts the stop rules let grow: below
    ``max_depth``, impure, and with room for ``min_leaf`` rows per side."""
    sizes = totals.sum(axis=1)
    return (depth < max_depth) & (totals.max(axis=1) < sizes) & (sizes >= 2 * min_leaf)


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


# short name -> classifier class, built with its own defaults; none draws at random
CLASSIFIERS = {
    "knn": KnnClassifier,
    "nb": NaiveBayesClassifier,
    "dt": DecisionTreeClassifier,
}


def make_classifier(name: str):
    """Classifier instance by short name, one of :data:`CLASSIFIERS`."""
    if name not in CLASSIFIERS:
        raise ConfigInvalid(f"unknown classifier {name!r}; pick from {', '.join(CLASSIFIERS)}")
    return CLASSIFIERS[name]()
