"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one verdict line per
criterion. The quantitative criteria run on the bundled generated sensor
table (9000 records, 23 channels, 13 activity classes plus a tiny fault
class) with every seed fixed, so the numbers are reproducible bit for bit.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from privsynth.anonymity import QuasiIdentifierSpec, equivalence_classes, risk_report
from privsynth.data import derive_seed, stratified_split, write_csv
from privsynth.metrics import evaluate, f_measure, precision, recall
from privsynth.classifiers import make_classifier
from privsynth.noise import NoiseConfig, perturb
from privsynth.pipeline import PipelineConfig, SweepGrid, run_stages, run_sweep
from privsynth.smote import (
    SmoteConfig,
    generate_synthetic,
    minkowski_distance,
    nearest_neighbors,
    run_smote,
    synthetic_count,
)
from privsynth.surrogate import make_surrogate

SURROGATE_N = 9000
SURROGATE_SEED = 1729
MASTER_SEED = 20240101
NOISE_LEVELS = (0.0, 0.1, 0.3, 0.6, 1.0)
AMOUNTS = (130, 500)
CLASSIFIERS = ("knn", "nb", "dt")
MINORITY = 12
K = 2


def verdict(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="session")
def surrogate():
    return make_surrogate(SURROGATE_N, seed=SURROGATE_SEED)


@pytest.fixture(scope="session")
def grid_results(surrogate):
    """accuracy[(g, E, clf)] and risk[(g, E)] over the acceptance landscape."""
    cfg = PipelineConfig(
        input="in-memory", schema="in-memory", minority_label=MINORITY,
        smote=SmoteConfig(amount_percent=100, neighbors=5),
        noise=NoiseConfig(level=0.0), k=K, classifiers=CLASSIFIERS,
        test_fraction=0.3, seed=MASTER_SEED,
    )
    accuracy = {}
    risk = {}
    for g in NOISE_LEVELS:
        for amount in AMOUNTS:
            point = replace(
                cfg,
                smote=replace(cfg.smote, amount_percent=amount),
                noise=replace(cfg.noise, level=g),
            )
            seed = derive_seed(MASTER_SEED, "grid", repr(float(g)), amount, K)
            _, point_risk, reports = run_stages(surrogate, point, seed)
            risk[(g, amount)] = point_risk.risk
            for report in reports:
                accuracy[(g, amount, report.classifier)] = report.accuracy
    return accuracy, risk


class TestCriterion1BaselineUtility:
    def test_clean_data_accuracies(self, surrogate):
        started = time.perf_counter()
        train, test = stratified_split(surrogate, 0.3, derive_seed(MASTER_SEED, "split"))
        accs = {
            name: evaluate(make_classifier(name), train, test).accuracy
            for name in CLASSIFIERS
        }
        elapsed = time.perf_counter() - started
        ok = accs["knn"] >= 0.90 and accs["dt"] >= 0.90 and accs["nb"] >= 0.78
        ok = ok and elapsed <= 600.0
        verdict(
            "criterion 1 baseline utility",
            ok,
            f"knn={accs['knn']:.4f} (>=0.90) dt={accs['dt']:.4f} (>=0.90) "
            f"nb={accs['nb']:.4f} (>=0.78) in {elapsed:.0f}s (<=600s)",
        )


class TestCriterion2StabilityAtModerateNoise:
    def test_within_ten_points_of_noiseless(self, grid_results):
        accuracy, _ = grid_results
        gaps = {
            clf: abs(accuracy[(0.3, 500, clf)] - accuracy[(0.0, 500, clf)])
            for clf in CLASSIFIERS
        }
        ok = all(gap <= 0.10 for gap in gaps.values())
        detail = " ".join(f"{c}:|Δ|={g:.4f}" for c, g in gaps.items())
        verdict("criterion 2 stability at g=0.3", ok, detail + " (<=0.10)")


class TestCriterion3DegradationOrdering:
    def test_full_noise_not_better_than_moderate(self, grid_results):
        accuracy, _ = grid_results
        checks = []
        for clf in CLASSIFIERS:
            for amount in AMOUNTS:
                checks.append(
                    accuracy[(1.0, amount, clf)] <= accuracy[(0.3, amount, clf)] + 0.02
                )
        # aggregate sanity: mean accuracy cannot rise from g=0 to g=1
        for amount in AMOUNTS:
            mean0 = np.mean([accuracy[(0.0, amount, c)] for c in CLASSIFIERS])
            mean1 = np.mean([accuracy[(1.0, amount, c)] for c in CLASSIFIERS])
            checks.append(mean1 <= mean0)
        verdict(
            "criterion 3 degradation ordering",
            all(checks),
            f"{sum(checks)}/{len(checks)} orderings hold",
        )


class TestCriterion4RiskTrend:
    def test_more_oversampling_never_raises_risk(self, grid_results):
        _, risk = grid_results
        gaps = {g: risk[(g, 130)] - risk[(g, 500)] for g in (0.1, 0.3, 0.6, 1.0)}
        ok = all(gap >= 0.0 for gap in gaps.values())
        detail = " ".join(f"g={g}:Δ={d:+.4f}" for g, d in gaps.items())
        verdict("criterion 4 risk trend in E", ok, detail)


class TestCriterion5HeadlineOperatingPoint:
    def test_headline_risk(self, grid_results):
        _, risk = grid_results
        headline = risk[(0.3, 500)]
        verdict(
            "criterion 5 headline g=0.3 E=500 k=2",
            headline <= 0.45,
            f"risk={headline:.4f} (<=0.45)",
        )


class TestCriterion6PropertySuites:
    def test_oversampling_properties(self):
        rng = np.random.default_rng(99)
        from privsynth.data import Dataset, Schema

        schema = Schema(tuple((f"f{i}", "numeric") for i in range(4)) + (("label", "label"),))
        points = rng.normal(size=(500, 4))
        minority = Dataset(schema, points, np.array(["m"] * 500, dtype=object))
        table = nearest_neighbors(minority, s=5)
        cfg = SmoteConfig(amount_percent=2000, neighbors=5, seed=17)
        synth = generate_synthetic(minority, table, cfg)
        assert len(synth) == 10_000
        per = 20
        ok = True
        for i in range(len(synth)):
            j = i // per
            row = synth.features[i]
            base = points[j]
            matched = False
            for nn in table.indices[j]:
                other = points[nn]
                lo = np.minimum(base, other) - 1e-12
                hi = np.maximum(base, other) + 1e-12
                if ((row >= lo) & (row <= hi)).all():
                    matched = True
                    break
            if not matched:
                ok = False
                break

        # metric axioms on 1000 random triples
        for _ in range(1000):
            a, b, c = rng.normal(size=(3, 5))
            q = float(rng.uniform(1.0, 3.0))
            dab = minkowski_distance(a, b, q)
            ok = ok and dab >= 0.0
            ok = ok and abs(dab - minkowski_distance(b, a, q)) < 1e-12
            ok = ok and dab <= minkowski_distance(a, c, q) + minkowski_distance(c, b, q) + 1e-9

        # count law across the experiment grid
        data = Dataset(
            schema,
            rng.normal(size=(120, 4)),
            np.array(["m"] * 40 + ["M"] * 80, dtype=object),
        )
        for amount in (100, 130, 220, 370, 500):
            out = run_smote(data, "m", SmoteConfig(amount, 3, seed=amount))
            ok = ok and len(out) == 120 + synthetic_count(amount, 40)

        verdict("criterion 6a oversampling properties", ok,
                "convexity x10^4, metric axioms x10^3, count law")

    def test_noise_properties(self):
        from privsynth.data import Dataset, Schema

        rng = np.random.default_rng(13)
        schema = Schema((("v", "numeric"), ("label", "label")))

        base = rng.normal(0.0, 7.0, size=(100_000, 1))
        data = Dataset(schema, base, np.array(["a"] * 100_000, dtype=object))
        same = perturb(data, NoiseConfig(level=0.0, seed=1))
        ok = np.array_equal(same.features, data.features)

        noisy = perturb(data, NoiseConfig(level=0.4, seed=2))
        target = (0.4 * base.std(ddof=0)) ** 2
        ratio = (noisy.features - base).var(ddof=0) / target
        ok = ok and 0.95 <= ratio <= 1.05

        n = 10_000
        small = Dataset(schema, base[:n], np.array(["a"] * n, dtype=object))
        pert = perturb(small, NoiseConfig(level=0.4, seed=3))
        sigma = 0.4 * small.features.std(ddof=0)
        z = np.sort(((pert.features - small.features) / sigma).ravel())
        grid = np.arange(1, n + 1) / n
        ks = max(np.abs(ndtr(z) - grid).max(), np.abs(ndtr(z) - (grid - 1 / n)).max())
        ok = ok and ks < 1.63 / math.sqrt(n)

        verdict("criterion 6b noise properties", ok,
                f"g=0 identity, var ratio={ratio:.4f}, KS={ks * math.sqrt(n):.3f}/sqrt(n)")

    def test_anonymity_properties(self):
        from privsynth.data import Dataset, Schema

        rng = np.random.default_rng(31)
        schema = Schema(
            (("u", "numeric"), ("v", "numeric"), ("label", "label"))
        )
        ok = True
        for _ in range(200):
            n = int(rng.integers(2, 101))
            feats = rng.normal(size=(n, 2))
            data = Dataset(schema, feats, np.array(["x"] * n, dtype=object))
            spec = QuasiIdentifierSpec(("u", "v"), {"u": 4, "v": 4})
            classes = equivalence_classes(data, spec)

            # brute-force O(n^2) pairwise grouping oracle
            from privsynth.anonymity import generalize

            keys = generalize(data, spec).features
            oracle = []
            assigned = [False] * n
            for i in range(n):
                if assigned[i]:
                    continue
                group = [i]
                assigned[i] = True
                for j in range(i + 1, n):
                    if not assigned[j] and np.array_equal(keys[i], keys[j]):
                        group.append(j)
                        assigned[j] = True
                oracle.append(group)
            got = sorted(sorted(g) for g in classes.groups.values())
            ok = ok and got == sorted(sorted(g) for g in oracle)

            risks = [risk_report(classes, k).risk for k in (1, 2, 3, 5, 8)]
            ok = ok and all(a <= b + 1e-15 for a, b in zip(risks, risks[1:]))

        # coarsening monotonicity on nested bin chains
        for _ in range(30):
            feats = rng.normal(size=(80, 2))
            data = Dataset(schema, feats, np.array(["x"] * 80, dtype=object))
            chain = []
            for bins in (12, 6, 3, 1):
                spec = QuasiIdentifierSpec(("u", "v"), {"u": bins, "v": bins})
                chain.append(risk_report(equivalence_classes(data, spec), 2).risk)
            ok = ok and all(a >= b - 1e-15 for a, b in zip(chain, chain[1:]))

        verdict("criterion 6c anonymity properties", ok,
                "oracle x200 tables, k-monotone, coarsening-monotone")

    def test_metric_properties(self):
        p = precision(8, 2)
        r = recall(8, 4)
        ok = abs(p - 0.8) < 1e-12
        ok = ok and abs(r - 2.0 / 3.0) < 1e-12
        ok = ok and abs(f_measure(p, r) - 8.0 / 11.0) < 1e-12

        rng = np.random.default_rng(55)
        from privsynth.metrics import ConfusionMatrix, report_from_confusion

        for _ in range(200):
            counts = rng.integers(0, 25, size=(3, 3))
            if counts.sum() == 0:
                continue
            cm = ConfusionMatrix(("a", "b", "c"), counts)
            report = report_from_confusion("t", cm)
            for i, label in enumerate(("a", "b", "c")):
                tp = counts[i, i]
                fp = counts[:, i].sum() - tp
                fn = counts[i, :].sum() - tp
                pp = tp / (tp + fp) if tp + fp else 0.0
                rr = tp / (tp + fn) if tp + fn else 0.0
                ff = 2 * pp * rr / (pp + rr) if pp + rr else 0.0
                got = report.per_class[label]
                ok = ok and abs(got["precision"] - pp) < 1e-12
                ok = ok and abs(got["recall"] - rr) < 1e-12
                ok = ok and abs(got["f_measure"] - ff) < 1e-12

        verdict("criterion 6d metric identities", ok,
                "hand case 0.8/0.6667/0.7273, exact recomputation x200")

    def test_sweep_determinism(self, tmp_path):
        data = make_surrogate(700, seed=11)
        csv_path = tmp_path / "data.csv"
        schema_path = tmp_path / "schema.json"
        write_csv(data, csv_path)
        data.schema.save(schema_path)
        grid = SweepGrid((0.0, 0.3), (100, 200), (2,))
        digests = []
        for run in ("one", "two"):
            cfg = PipelineConfig(
                input=str(csv_path), schema=str(schema_path), minority_label=MINORITY,
                smote=SmoteConfig(amount_percent=100, neighbors=3),
                noise=NoiseConfig(level=0.0), k=K, classifiers=("nb", "dt"),
                test_fraction=0.3, seed=5, out_dir=str(tmp_path / run),
            )
            run_sweep(cfg, grid)
            digests.append((Path(cfg.out_dir) / "sweep.csv").read_bytes())
        ok = digests[0] == digests[1]
        verdict("criterion 6e sweep determinism", ok,
                f"{len(digests[0])} bytes, byte-identical={ok}")


class TestCriterion7ComplexityScaling:
    def test_neighbor_search_doubles_to_quadruple(self):
        from privsynth.data import Dataset, Schema

        rng = np.random.default_rng(3)
        d = 23
        schema = Schema(tuple((f"f{i}", "numeric") for i in range(d)) + (("label", "label"),))

        def points(m):
            return Dataset(schema, rng.normal(size=(m, d)), np.array(["m"] * m, dtype=object))

        def timed(pts):
            t0 = time.perf_counter()
            nearest_neighbors(pts, s=5)
            return time.perf_counter() - t0

        small, large = points(1200), points(2400)
        timed(small), timed(large)  # warm up caches and allocator
        # the two sizes run back to back, so a spell of slower machine speed
        # (they last about a second) touches both calls of a pair alike
        pairs = [(timed(small), timed(large)) for _ in range(11)]
        t1, t2 = np.median(pairs, axis=0)
        factor = float(np.median([big / little for little, big in pairs]))
        verdict(
            "criterion 7 neighbor-search scaling",
            3.0 <= factor <= 5.5,
            f"t(M)={t1 * 1e3:.1f}ms t(2M)={t2 * 1e3:.1f}ms factor={factor:.2f} (target~4)",
        )
