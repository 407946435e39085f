"""The neighbour kernel against the reference scan it must reproduce bit for bit.

``reference`` is the exact search the certified GEMM path replaced: every
distance by the reference arithmetic, then a full stable argsort. Results are
compared as int64 bit patterns, so a NaN's sign or a one-ulp difference in a
distance fails as surely as a wrong index.
"""

import tracemalloc

import numpy as np
import pytest

from privsynth import distance
from privsynth.data import stratified_split
from privsynth.distance import nearest
from privsynth.surrogate import make_surrogate


def reference(queries, points, k, q=2.0, exclude_self=False):
    queries = np.asarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    idx, dist = [], []
    for start in range(0, len(queries), 64):
        diff = np.abs(queries[start:start + 64, None, :] - points[None, :, :])
        if q == 2.0:
            d = np.sqrt(np.sum(diff * diff, axis=2))
        else:
            d = np.power(np.sum(np.power(diff, q), axis=2), 1.0 / q)
        if exclude_self:
            rows = np.arange(d.shape[0])
            d[rows, start + rows] = np.inf
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        idx.append(order)
        dist.append(np.take_along_axis(d, order, axis=1))
    return np.vstack(idx), np.vstack(dist)


def assert_identical(got, want):
    assert got[0].shape == want[0].shape
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.int64), want[1].view(np.int64))


def _surrogate():
    train, test = stratified_split(make_surrogate(600, seed=5), 0.3, seed=6)
    return test.features, train.features


def _duplicates():
    rng = np.random.default_rng(1)
    return (rng.integers(-1, 4, size=(300, 3)).astype(float),
            rng.integers(0, 3, size=(240, 3)).astype(float))


def _line():
    # integer points on a line; half-integer queries sit midway between two
    rng = np.random.default_rng(2)
    queries = rng.integers(-3, 80, size=(300, 1)) + rng.choice([0.0, 0.5], size=(300, 1))
    return np.hstack([queries, np.zeros((300, 2))]), np.hstack([np.arange(77.0)[:, None],
                                                                np.zeros((77, 2))])


def _rails():
    rng = np.random.default_rng(3)
    points = np.vstack([rng.normal(size=(200, 4)), np.full((25, 4), 55.0),
                        np.full((25, 4), -18.0)])
    queries = np.vstack([rng.normal(size=(250, 4)), rng.choice([55.0, -18.0], size=(50, 4))])
    return queries, points


def _offsets():
    rng = np.random.default_rng(4)
    return 1e9 + rng.uniform(-1e6, 1e6, size=(2, 300, 6))


def _overflow():
    # squared norms of the large rows overflow; their reference distances do not all
    rng = np.random.default_rng(5)
    points = rng.normal(size=(240, 3))
    points[::40] = 1e154 * (1.0 + rng.uniform(size=(6, 3)))
    points[1::40] = points[::40] + rng.normal(size=(6, 3)) * 1e140
    return points[rng.permutation(240)[:200]], points


def _nan_queries():
    rng = np.random.default_rng(6)
    queries, points = rng.normal(size=(300, 9)), rng.normal(size=(240, 9))
    queries[::17] = np.nan
    queries[5::23, 2] = np.nan
    return queries, points


def _nan_points():
    # a NaN point makes max|y|^2 NaN, so no row certifies and all are rescanned
    queries, points = _nan_queries()
    points[7] = np.nan
    return queries, points


TABLES = {
    "surrogate": _surrogate, "duplicates": _duplicates, "line": _line, "rails": _rails,
    "offsets": _offsets, "overflow": _overflow, "nan-queries": _nan_queries,
    "nan-points": _nan_points,
}


@pytest.fixture(params=["default-blocks", "small-blocks"])
def blocks(request, monkeypatch):
    # small blocks put block boundaries inside every table
    if request.param == "small-blocks":
        monkeypatch.setattr(distance, "_CELLS", 2000)
    return request.param


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("exclude_self", [False, True], ids=["cross", "self"])
@pytest.mark.parametrize("name", sorted(TABLES))
def test_identical_to_reference_scan(name, exclude_self, blocks):
    queries, points = TABLES[name]()
    if exclude_self:
        queries = points
    n = len(points)
    for k in (1, 5, n - exclude_self):
        for q in (2.0, 1.0, 3.0):
            want = reference(queries, points, k, q, exclude_self)
            assert_identical(nearest(queries, points, k, q, exclude_self), want)


def _adversarial():
    # at an offset of 1e9 the GEMM's rounding (~u * |x|^2 ~ 1e3) dwarfs the
    # squared gaps between neighbours, so its ranking alone is often wrong
    return 1e9 + np.random.default_rng(7).uniform(0, 100, size=(300, 3))


def test_shrunk_bound_returns_wrong_neighbours(monkeypatch):
    points = _adversarial()
    want = reference(points, points, 5, exclude_self=True)
    assert_identical(nearest(points, points, 5, exclude_self=True), want)
    monkeypatch.setattr(distance, "_bound", lambda d: 0.0)
    got = nearest(points, points, 5, exclude_self=True)
    assert (got[0] != want[0]).any(axis=1).sum() > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["surrogate", "duplicates", "nan-queries"])
def test_forced_fallback_is_identical(name, monkeypatch):
    calls = []

    def reject_all(nx, *args):
        calls.append(len(nx))
        return np.zeros(len(nx), dtype=bool)

    monkeypatch.setattr(distance, "_certified", reject_all)
    queries, points = TABLES[name]()
    for exclude_self in (False, True):
        if exclude_self:
            queries = points
        want = reference(queries, points, 5, exclude_self=exclude_self)
        assert_identical(nearest(queries, points, 5, exclude_self=exclude_self), want)
    assert sum(calls) == len(TABLES[name]()[0]) + len(points)


def test_certified_rows_need_no_fallback_on_continuous_data(monkeypatch):
    # the bound is loose enough to accept every row of well-spread data
    rejected = []
    certified = distance._certified

    def counting(*args):
        ok = certified(*args)
        rejected.append(int((~ok).sum()))
        return ok

    monkeypatch.setattr(distance, "_certified", counting)
    queries, points = _surrogate()
    nearest(queries, points, 5)
    nearest(points, points, 5, exclude_self=True)
    assert rejected and sum(rejected) == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_only_nan_query_rows_fall_back(monkeypatch):
    # NaN query rows reach the certificate with a NaN cut and an empty pool and
    # are rejected there; every finite row certifies
    rejected = []
    certified = distance._certified

    def counting(*args):
        ok = certified(*args)
        rejected.append(int((~ok).sum()))
        return ok

    monkeypatch.setattr(distance, "_certified", counting)
    queries, points = _nan_queries()
    assert_identical(nearest(queries, points, 5), reference(queries, points, 5))
    assert sum(rejected) == np.isnan(queries).any(axis=1).sum() > 0


def _mirrored():
    # each point and its reversed copy lie equally far from a palindromic
    # query, so the ranking of every such pair rests on the last bit of a
    # 23-term sum, which the summation order decides
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(150, 23))
    half = rng.normal(size=(120, 12))
    return np.hstack([half, half[:, 10::-1]]), np.vstack([rows, rows[:, ::-1]])


def layouts(a):
    """``a`` as a C-ordered array, a column-major one and a strided view."""
    return [np.ascontiguousarray(a), np.asfortranarray(a),
            np.asfortranarray(np.repeat(a, 2, axis=0))[::2]]


@pytest.mark.parametrize("exclude_self", [False, True], ids=["cross", "self"])
@pytest.mark.parametrize("q, scan", [(1.0, True), (2.0, False), (2.0, True), (3.0, True)],
                         ids=["q1", "q2", "q2-scan", "q3"])
def test_bits_do_not_follow_the_layout(q, scan, exclude_self, monkeypatch):
    if q == 2.0 and scan:  # every row falls back to the scan
        monkeypatch.setattr(distance, "_certified", lambda nx, *args: np.zeros(len(nx), dtype=bool))
    queries, points = _mirrored()
    want = reference(points if exclude_self else queries, points, 3, q, exclude_self)
    for p in layouts(points):
        for x in [p] if exclude_self else layouts(queries):
            assert_identical(nearest(x, p, 3, q, exclude_self), want)


def test_a_search_keeps_no_memory():
    rng = np.random.default_rng(11)
    queries, points = rng.normal(size=(900, 23)), rng.normal(size=(2800, 23))
    tracemalloc.start()
    try:
        found = nearest(queries, points, 3), nearest(points, points, 3, exclude_self=True)
        del found
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 * 2**10


def test_memory_does_not_grow_with_queries():
    # a full 20000 x 2000 distance matrix would take 320 MB on its own
    rng = np.random.default_rng(8)
    points = rng.normal(size=(2000, 4))
    queries = rng.normal(size=(20000, 4))
    tracemalloc.start()
    try:
        nearest(queries, points, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", [1000, 2000])
def test_scan_memory_does_not_grow_with_points(n):
    # a q = 1 self-search scans every point; a block holds at most _CELLS
    # (row, point) pairs: their d differences, plus a few arrays of one value
    # per pair (sums, powers, the sort order)
    d = 2
    points = np.random.default_rng(10).normal(size=(n, d))
    tracemalloc.start()
    try:
        nearest(points, points, 3, q=1.0, exclude_self=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < distance._CELLS * 8 * (d + 4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_certificate_rejects_scales_that_could_overflow():
    # finite inputs whose GEMM value plus |x|^2 overflows: the rounding bound
    # assumes no intermediate overflows, so such a row is never certified
    args = (np.array([100.0]), np.array([1.0]), 3)
    assert distance._certified(np.array([1.0]), 1.0, *args)[0]
    assert not distance._certified(np.array([1e308]), 1.0, np.array([1e308]), *args[1:])[0]
