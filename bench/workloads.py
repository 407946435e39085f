"""The three benchmark workloads: their inputs, their ops and their output checks.

Each workload generates its inputs from the workload seed in ``setup`` (the
program only ever sees the generated files), then runs *passes*. A pass is
an optional ``prepare`` step, which counts toward the pass wall time but
belongs to no op, plus one call of ``run_op`` per op. Every op's output is checked by ``check``: at the default seed against
the SHA-256 digests in ``reference.json``, recorded from the reference
implementation, and at every seed against invariants that hold for any
input (row and label counts, k-anonymity agreeing with ``risk == 0``).

Why these workloads:

- ``landscape`` is the paper's accuracy/risk figure, the acceptance grid as
  ``run_sweep`` runs it. Classifier fit and predict do nearly all the work;
  oversampling, noise and the audit do almost none.
- ``release`` is the data custodian's path, one ``privsynth synthesize``
  started through ``cli.main``. CSV writing and reading and the SMOTE
  neighbour self-search dominate; KNN and the decision tree are bypassed.
- ``audit`` loads a large perturbed table and groups it under six
  quasi-identifier policies whose class counts run from tens to one class
  per row. Only the CSV reader and the ``anonymity`` layer are exercised.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

DEFAULT_SEED = 1729
MASTER_SEED = 20240101
MINORITY = "12"
TEST_FRACTION = 0.3

# Input rows. ``full`` is what the benchmark measures; ``smoke`` runs the
# same code and checks at toy size for the benchmark's own tests. The
# acceptance landscape proper uses 9000 rows, but its ten grid points then
# take about 85 s on two cores, more than one time-boxed run; at 3000 rows
# the whole grid is one pass of about 15 s and KNN predict is still the
# largest layer. The release input is halved from 36000 rows so that a run
# holds eight or so releases rather than three or four, which steadies its
# median; the neighbour self-search is still its third-largest layer. The
# audit table is the size of a 36000-row release (about 80k rows).
PROFILES = {
    "full": {"landscape": 3000, "release": 18000, "audit": 80000},
    "smoke": {"landscape": 600, "release": 1000, "audit": 1000},
}


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def synthetic_rows(amount_percent: int, minority: int) -> int:
    full, rem = divmod(amount_percent, 100)
    return minority * full + rem * minority // 100


def neighbour_pairs(amount_percent: int, minority: int) -> int:
    """Distance pairs the exact SMOTE self-search computes: M^2 per table built."""
    full, rem = divmod(amount_percent, 100)
    subset = rem * minority // 100
    return (minority ** 2 if full else 0) + (subset ** 2 if subset else 0)


def train_counts(class_counts: dict) -> dict:
    """Per-class training rows left by a stratified split at TEST_FRACTION."""
    return {label: count - int(round(TEST_FRACTION * count))
            for label, count in class_counts.items()}


def csv_labels(path) -> Counter:
    """Label column (the last one) of a CSV written by ``write_csv``."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return Counter(row[-1] for row in reader)


def _risk_problems(risk: dict, rows: int) -> list[str]:
    hist = {int(size): count for size, count in risk["class_size_histogram"].items()}
    problems = []
    if sum(size * count for size, count in hist.items()) != rows or risk["total"] != rows:
        problems.append(f"histogram covers {risk['total']} rows, expected {rows}")
    at_risk = sum(size * count for size, count in hist.items() if size < risk["k"])
    if risk["at_risk_count"] != at_risk:
        problems.append("at-risk count disagrees with the histogram")
    if risk["satisfies_k_anonymity"] != (risk["risk"] == 0):
        problems.append("k-anonymity verdict disagrees with risk == 0")
    return problems


class Workload:
    name = ""

    def __init__(self, m, profile: str, reference: dict, seed: int):
        self.m = m
        self.rows = PROFILES[profile][self.name]
        # digests exist for the default seed only; other seeds get the invariants
        recorded = reference.get("seed") == seed
        self.reference = reference.get(profile, {}).get(self.name, {}) if recorded else {}

    def write_input(self, data, work: Path) -> dict:
        """Write ``input.csv`` and ``schema.json``; return what the checks need."""
        data.schema.save(work / "schema.json")
        self.m["data"].write_csv(data, work / "input.csv")
        counts = Counter(str(label) for label in data.labels.tolist())
        return {"rows": len(data), "class_counts": dict(sorted(counts.items()))}

    def prepare(self, work: Path, info: dict):
        return None

    def expected_counts(self, op, info: dict) -> dict:
        return {}

    def compare(self, op, output) -> list[str]:
        """Digest mismatches against the reference; empty when none is recorded."""
        expected = self.reference.get(self.op_name(op))
        if expected is None:
            return []
        actual = self.digests(op, output)
        return [f"{name} digest differs from the reference"
                for name in expected if actual[name] != expected[name]]


class Landscape(Workload):
    """One op = one grid point of the acceptance landscape through ``run_sweep``."""

    name = "landscape"
    noise_levels = (0.0, 0.1, 0.3, 0.6, 1.0)
    amounts = (130, 500)

    def setup(self, work: Path, seed: int) -> dict:
        return self.write_input(self.m["surrogate"].make_surrogate(self.rows, seed=seed), work)

    def ops(self):
        return [(g, e) for g in self.noise_levels for e in self.amounts]

    def op_name(self, op) -> str:
        g, e = op
        return self.m["pipeline"].point_dir_name(g, e, 2)

    def run_op(self, op, work: Path, state):
        pipeline = self.m["pipeline"]
        g, e = op
        cfg = pipeline.PipelineConfig(
            input=str(work / "input.csv"), schema=str(work / "schema.json"),
            minority_label=int(MINORITY),
            smote=self.m["smote"].SmoteConfig(amount_percent=e, neighbors=5),
            noise=self.m["noise"].NoiseConfig(level=g), k=2,
            classifiers=("knn", "nb", "dt"), test_fraction=TEST_FRACTION,
            seed=MASTER_SEED, out_dir=str(work / "out" / self.op_name(op)),
        )
        pipeline.run_sweep(cfg, pipeline.SweepGrid((g,), (e,), (2,)))
        return Path(cfg.out_dir)

    def _sizes(self, op, info):
        train = train_counts(info["class_counts"])
        n_train = sum(train.values())
        synthetic = synthetic_rows(op[1], train[MINORITY])
        return train, n_train, info["rows"] - n_train, synthetic

    def expected_counts(self, op, info):
        train, n_train, n_test, synthetic = self._sizes(op, info)
        released = n_train + synthetic
        return {
            "data.load_csv.rows": info["rows"],
            "data.write_csv.rows": released,
            "noise.perturb.rows": released,
            "smote.generate_synthetic.rows": synthetic,
            "smote.nearest_neighbors.pairs": neighbour_pairs(op[1], train[MINORITY]),
            "anonymity.equivalence_classes.rows": released,
            "classifiers.knn.pairs": n_test * released,
        }

    def check(self, op, out_dir: Path, info: dict) -> list[str]:
        g, e = op
        train, n_train, n_test, synthetic = self._sizes(op, info)
        point = out_dir / self.op_name(op)
        problems = []
        expected_labels = Counter(train)
        expected_labels[MINORITY] += synthetic
        if csv_labels(point / "released.csv") != expected_labels:
            problems.append("released labels differ from train + synthetic minority rows")
        risk = json.loads((point / "risk.json").read_text(encoding="utf-8"))
        problems += _risk_problems(risk, n_train + synthetic)
        with (out_dir / "sweep.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [r["classifier"] for r in rows] != ["knn", "nb", "dt"]:
            problems.append("sweep.csv does not hold one row per classifier")
        for r in rows:
            if (r["status"] != "ok" or float(r["noise_level"]) != g
                    or int(r["smote_amount"]) != e or not 0 <= float(r["accuracy"]) <= 1
                    or float(r["risk"]) != risk["risk"]
                    or (r["satisfies_k_anonymity"] == "true") != (float(r["risk"]) == 0)):
                problems.append(f"sweep.csv row {r['classifier']} is inconsistent")
        return problems + self.compare(op, out_dir)

    def digests(self, op, out_dir: Path) -> dict:
        point = out_dir / self.op_name(op)
        return {"sweep.csv": sha256_file(out_dir / "sweep.csv"),
                "released.csv": sha256_file(point / "released.csv")}


class Release(Workload):
    """One op = one ``privsynth synthesize`` run through ``cli.main``."""

    name = "release"
    amount = 2000

    def setup(self, work: Path, seed: int) -> dict:
        data = self.m["surrogate"].make_surrogate(self.rows, seed=seed, minority_fraction=0.10)
        return self.write_input(data, work)

    def ops(self):
        return ["synthesize"]

    def op_name(self, op) -> str:
        return op

    def run_op(self, op, work: Path, state):
        out = work / "out"
        argv = ["synthesize", "--input", str(work / "input.csv"),
                "--schema", str(work / "schema.json"), "--minority-label", MINORITY,
                "--smote-amount", str(self.amount), "--neighbors", "5", "--noise", "0.3",
                "--k", "2", "--classifiers", "nb", "--seed", str(MASTER_SEED),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.m["cli"].main(argv)
        return code, out

    def _sizes(self, info):
        train = train_counts(info["class_counts"])
        n_train = sum(train.values())
        return train, n_train, info["rows"] - n_train, synthetic_rows(self.amount,
                                                                     train[MINORITY])

    def expected_counts(self, op, info):
        train, n_train, n_test, synthetic = self._sizes(info)
        released = n_train + synthetic
        return {
            "data.load_csv.rows": info["rows"],
            "data.write_csv.rows": released,
            "noise.perturb.rows": released,
            "smote.generate_synthetic.rows": synthetic,
            "smote.nearest_neighbors.pairs": neighbour_pairs(self.amount, train[MINORITY]),
            "anonymity.equivalence_classes.rows": released,
        }

    def check(self, op, output, info: dict) -> list[str]:
        code, out = output
        if code != 0:
            return [f"privsynth synthesize exited with {code}"]
        train, n_train, n_test, synthetic = self._sizes(info)
        problems = []
        expected_labels = Counter(train)
        expected_labels[MINORITY] += synthetic
        if csv_labels(out / "released.csv") != expected_labels:
            problems.append("released labels differ from train + synthetic minority rows")
        problems += _risk_problems(json.loads((out / "risk.json").read_text(encoding="utf-8")),
                                   n_train + synthetic)
        confusion = json.loads((out / "eval_nb.json").read_text(encoding="utf-8"))["confusion"]
        if sum(map(sum, confusion["counts"])) != n_test:
            problems.append("nb was not scored on the whole held-out split")
        return problems + self.compare(op, output)

    def digests(self, op, output) -> dict:
        code, out = output
        return {f: sha256_file(out / f) for f in ("released.csv", "risk.json")}


class Audit(Workload):
    """One op = one quasi-identifier policy, grouped and reported at k = 2, 5, 10.

    The pass first loads the table with ``load_csv``; that load belongs to
    the pass wall time but to no op.
    """

    name = "audit"
    ks = (2, 5, 10)

    def setup(self, work: Path, seed: int) -> dict:
        m = self.m
        data = m["surrogate"].make_surrogate(self.rows, seed=seed, minority_fraction=0.10)
        noise = m["noise"].NoiseConfig(level=0.3, seed=m["data"].derive_seed(seed, "audit"))
        return self.write_input(m["noise"].perturb(data, noise), work)

    def ops(self):
        return ["bins3", "bins10", "bins25", "identity6", "bins4x8", "bins10x12_drop11"]

    def op_name(self, op) -> str:
        return op

    def policy(self, op, schema):
        names = schema.feature_names
        rules = {
            "bins3": {c: 3 for c in names},
            "bins10": {c: 10 for c in names},
            "bins25": {c: 25 for c in names},
            "identity6": {c: "identity" for c in names[:6]},
            "bins4x8": {c: 4 for c in names[:8]},
            "bins10x12_drop11": {**{c: 10 for c in names[:12]},
                                 **{c: "drop" for c in names[12:]}},
        }[op]
        return self.m["anonymity"].QuasiIdentifierSpec(tuple(rules), rules)

    def prepare(self, work: Path, info: dict):
        schema = self.m["data"].Schema.load(work / "schema.json")
        return self.m["data"].load_csv(work / "input.csv", schema)

    def run_op(self, op, work: Path, data):
        anonymity = self.m["anonymity"]
        classes = anonymity.equivalence_classes(data, self.policy(op, data.schema))
        return [anonymity.risk_report(classes, k).to_dict() for k in self.ks]

    def expected_counts(self, op, info):
        return {"anonymity.equivalence_classes.rows": info["rows"]}

    def check(self, op, reports, info: dict) -> list[str]:
        problems = []
        for report in reports:
            problems += _risk_problems(report, info["rows"])
        risks = [r["risk"] for r in reports]
        if risks != sorted(risks):
            problems.append("risk is not monotone in k")
        return problems + self.compare(op, reports)

    def digests(self, op, reports) -> dict:
        return {"class_size_histograms": sha256_text(json.dumps(reports, sort_keys=True))}


WORKLOADS = {w.name: w for w in (Landscape, Release, Audit)}
