"""Exact k-nearest-neighbour search under the Minkowski metric.

One kernel serves both the SMOTE neighbour tables and the KNN classifier.
It scans every (query, point) pair, so results are exact, and works through
the queries in blocks so memory stays O(block x points x dimensions) however
many queries there are. Equal distances keep the lower point index first.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 256  # query rows per block


def _distances(block, points, q):
    """(len(block), len(points)) Minkowski distances; the difference array is
    freed on return, so only one block's worth is ever alive."""
    diff = block[:, None, :] - points[None, :, :]
    np.abs(diff, out=diff)
    if q == 2.0:
        np.multiply(diff, diff, out=diff)
        return np.sqrt(np.sum(diff, axis=2))
    return np.power(np.sum(np.power(diff, q, out=diff), axis=2), 1.0 / q)


def nearest(queries, points, k: int, q: float = 2.0, exclude_self: bool = False):
    """The k nearest ``points`` to each query, closest first.

    Returns ``(indices, distances)``, each of shape ``(n_queries, k)``.
    Distances are ``(sum |x_j - y_j|^q)^(1/q)``; ties go to the lower point
    index (stable sort). With ``exclude_self``, query ``i`` is point ``i``
    and never appears among its own neighbours. The caller ensures
    ``k <= n_points`` (``k < n_points`` with ``exclude_self``).
    """
    queries = np.asarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    indices = np.empty((queries.shape[0], k), dtype=np.intp)
    distances = np.empty((queries.shape[0], k), dtype=np.float64)
    for start in range(0, queries.shape[0], _BLOCK):
        block = queries[start:start + _BLOCK]
        dist = _distances(block, points, q)
        if exclude_self:
            rows = np.arange(block.shape[0])
            dist[rows, start + rows] = np.inf
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        indices[start:start + _BLOCK] = order
        distances[start:start + _BLOCK] = np.take_along_axis(dist, order, axis=1)
    return indices, distances
