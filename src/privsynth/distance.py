"""Exact k-nearest-neighbour search under the Minkowski metric.

One kernel serves both the SMOTE neighbour tables and the KNN classifier.
Every returned distance comes from the reference arithmetic: per (query,
point) pair, the absolute differences are raised to q, summed with
``np.sum`` over the contiguous attribute axis and taken to the 1/q-th power
(for q = 2: squared, summed, ``np.sqrt``). The k nearest are ordered as a
stable sort of all distances orders them: by distance, NaN last, equal
distances by the lower point index.

For q = 2 the search is certified. Per block of queries a GEMM gives
``|y|^2 - 2 x.y`` for every point (``|x|^2`` is constant along a row), a
partition keeps each query's pool of the ``k + 2`` smallest, and only the
pool is recomputed with the reference arithmetic and ranked. A row is
accepted only if a rounding bound (``_certified``) proves that every point
outside the pool is strictly farther than the k-th reference distance;
every other row falls back to the exact scan of all points, which is also
the whole search for q != 2. BLAS rounding therefore decides only which
rows fall back, never an index or a distance. A block holds at most
``_CELLS`` GEMM values and ``_CELLS`` pool values, in work arrays each
thread reuses from call to call, so memory is bounded by a fixed number of
cells, never by n_queries x n_points.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_SCAN_ROWS = 256  # query rows per block of the exact scan
_CELLS = 1 << 17  # GEMM values, and pool attribute values, per certified block
_POOL_EXTRA = 2  # candidates kept beyond k in the certified search
# multiply-adds per BLAS call. OpenBLAS runs a product this small on one
# thread; waking its helper threads for the block's product gains little and
# stalls the call for milliseconds whenever the helper's core is busy
_GEMM_MACS = 1 << 18

_U = np.finfo(np.float64).eps / 2  # unit roundoff
_ETA = np.finfo(np.float64).smallest_subnormal
_SCALE_MAX = np.finfo(np.float64).max / 4  # no intermediate can overflow below this

_WORK = threading.local()  # the certified search's reused work arrays (``_buffer``)


def _minkowski(diff, q):
    """The reference arithmetic: Minkowski lengths of a difference array along
    its last (attribute) axis. Works in place on ``diff``."""
    np.abs(diff, out=diff)
    if q == 2.0:
        np.multiply(diff, diff, out=diff)
        return np.sqrt(np.sum(diff, axis=-1))
    return np.power(np.sum(np.power(diff, q, out=diff), axis=-1), 1.0 / q)


def _ties(a, v):
    """Entries of ``a`` equal to the row value ``v`` in sort order (NaN ties NaN)."""
    eq = a == v
    if np.isnan(v).any():
        eq |= np.isnan(a) & np.isnan(v)
    return eq


def _topk(dist, k):
    """Columns and values of the k smallest entries of each row of ``dist``,
    exactly as the first k of a stable argsort."""
    cols = np.argpartition(dist, k - 1, axis=1)[:, :k]
    vals = np.take_along_axis(dist, cols, axis=1)
    # entries equal to the k-th value can straddle the cut; the stable order
    # keeps the lowest columns among them
    tied = _ties(dist, vals[:, -1:])
    kept = _ties(vals, vals[:, -1:])
    n_tied = np.count_nonzero(tied, axis=1)
    n_kept = np.count_nonzero(kept, axis=1)
    short = np.flatnonzero(n_tied > n_kept)
    if short.size:
        row, col = np.nonzero(tied[short])  # by row, then by column
        first = np.cumsum(n_tied[short]) - n_tied[short]
        lowest = np.arange(row.size) - first[row] < n_kept[short][row]
        slot_row, slot = np.nonzero(kept[short])  # n_kept slots per row, in row order
        cols[short[slot_row], slot] = col[lowest]
    order = np.lexsort((cols, vals), axis=1)
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _scan(block, points, k, q, own):
    """Exact top-k of ``block`` against every point; ``own[i]`` (if given) is
    the point that query row i may not return."""
    dist = _minkowski(block[:, None, :] - points, q)
    if own is not None:
        dist[np.arange(block.shape[0]), own] = np.inf
    return _topk(dist, k)


def _bound(d):
    """Relative slack of the certificate for d attributes, in units of the scale
    ``|x|^2 + max|y|^2`` (see ``_certified``)."""
    return 2 * (5 * d + 22) * _U


def _certified(nx, ny_max, beyond, kth, d):
    """Rows whose pool provably holds the k nearest points.

    ``beyond`` is the smallest GEMM value ``|y|^2 - 2 x.y`` outside the pool
    and ``kth`` the k-th reference distance inside it. With S = |x|^2 +
    max|y|^2 and u the unit roundoff (Higham, "Accuracy and Stability of
    Numerical Algorithms", section 3.1, gamma_n = nu / (1 - nu)):

    - the norms and the BLAS dot products are sums of d products, so the
      GEMM value plus |x|^2 is within 2 gamma_{d+1} S / (1 - gamma_d) of the
      exact squared distance s;
    - the reference sum of d rounded squared differences is at least
      (1 - gamma_{d+2}) s, and the value tested below is at most 3S;
    - a correctly rounded sqrt exceeds ``kth`` once its argument exceeds
      kth^2 / (1 - u)^2 <= kth^2 (1 + 3u), and kth^2 <= 2S;
    - evaluating the test in floating point adds at most 8uS.

    To first order that is (2(d+1) + 3(d+2) + 6 + 8) u S = (5d + 22) u S;
    ``_bound`` doubles it to cover the higher-order terms. Underflow adds at
    most (8d + 8) times the smallest subnormal. Any non-finite value, or a
    scale at which an intermediate could overflow, fails the comparison.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scale = nx + ny_max
        slack = _bound(d) * scale + (8 * d + 8) * _ETA
        return (beyond + nx - slack > kth * kth) & (scale < _SCALE_MAX)


def nearest(queries, points, k: int, q: float = 2.0, exclude_self: bool = False):
    """The k nearest ``points`` to each query, closest first.

    Returns ``(indices, distances)``, each of shape ``(n_queries, k)``.
    Distances are ``(sum |x_j - y_j|^q)^(1/q)``; ties go to the lower point
    index (stable sort). With ``exclude_self``, query ``i`` is point ``i``
    and never appears among its own neighbours. The caller ensures
    ``1 <= k <= n_points`` (``k < n_points`` with ``exclude_self``).
    """
    queries = np.asarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    (n_q, d), n = queries.shape, points.shape[0]
    indices = np.empty((n_q, k), dtype=np.intp)
    distances = np.empty((n_q, k), dtype=np.float64)
    pool = k + _POOL_EXTRA
    search = _CertifiedSearch(points, k, pool) if q == 2.0 and pool < n - exclude_self else None
    step = max(1, _CELLS // max(n, pool * d)) if search else _SCAN_ROWS
    for start in range(0, n_q, step):
        block = queries[start:start + step]
        own = np.arange(start, start + block.shape[0]) if exclude_self else None
        found = search(block, own) if search else _scan(block, points, k, q, own)
        indices[start:start + step], distances[start:start + step] = found
    return indices, distances


def _buffer(name, shape, dtype=np.float64):
    """A work array of ``shape`` that this thread keeps between searches, so a
    call does not fault in fresh pages for it. Arrays beyond ``_CELLS`` values
    are not kept. The contents never leave the search that fills them."""
    size = math.prod(shape)
    if size > _CELLS:
        return np.empty(shape, dtype)
    buf = getattr(_WORK, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(_CELLS, dtype)
        setattr(_WORK, name, buf)
    return buf[:size].reshape(shape)


class _CertifiedSearch:
    """The q = 2 certified search against fixed ``points``. Each call takes a
    block of queries, finds each query's pool with a GEMM (in products of at
    most ``_GEMM_MACS`` multiply-adds), recomputes, ranks and certifies the
    pool, and scans the rows that fail."""

    def __init__(self, points, k, pool):
        self.points, self.k, self.pool = points, k, pool
        self.neg2 = np.multiply(points, -2.0, out=_buffer("neg2", points.shape)).T
        self.ny = np.einsum("ij,ij->i", points, points)
        self.ny_max = self.ny.max()

    def __call__(self, block, own):
        (b, d), n, pool = block.shape, self.points.shape[0], self.pool
        h = _buffer("gemm", (b, n))
        cols = max(1, _GEMM_MACS // (b * d))
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the certificate
            for lo in range(0, n, cols):
                np.matmul(block, self.neg2[:, lo:lo + cols], out=h[:, lo:lo + cols])
            h += self.ny
        if own is not None:
            h[np.arange(b), own] = np.inf
        # the pool: GEMM values below each row's (pool+1)-th smallest, which
        # bounds every value outside it from below
        part = _buffer("part", (b, n))
        np.copyto(part, h)
        part.partition(pool, axis=1)
        beyond = part[:, pool].copy()
        mask = np.less(h, beyond[:, None], out=_buffer("mask", (b, n), bool))
        flat = np.flatnonzero(mask)
        full = flat.size == b * pool  # no row ties at its cut
        if full:
            cand = flat.reshape(b, pool) % n
        else:
            row, col = np.divmod(flat, n)
            count = np.bincount(row, minlength=b)
            cand = np.zeros((b, pool), dtype=np.intp)
            cand[row, np.arange(row.size) - (np.cumsum(count) - count)[row]] = col
        diff = np.take(self.points, cand, axis=0, out=_buffer("pool", (b, pool, d)),
                       mode="clip")
        ref = _minkowski(np.subtract(block[:, None, :], diff, out=diff), 2.0)
        if not full:
            ref[np.arange(pool) >= count[:, None]] = np.inf  # empty slots sort last
        # each row's candidates sit in column order, so a stable sort by
        # distance ranks them by distance, then index
        order = np.argsort(ref, axis=1, kind="stable")[:, :self.k]
        idx = np.take_along_axis(cand, order, axis=1)
        dist = np.take_along_axis(ref, order, axis=1)
        nx = np.einsum("ij,ij->i", block, block)
        fail = np.flatnonzero(~_certified(nx, self.ny_max, beyond, dist[:, -1], d))
        if fail.size:
            idx[fail], dist[fail] = _scan(block[fail], self.points, self.k, 2.0,
                                          None if own is None else own[fail])
        return idx, dist
