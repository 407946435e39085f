"""End-to-end release pipeline and the parameter-sweep runner.

One pipeline run executes a fixed stage order:

    load -> split -> oversample(train) -> perturb(train + synthetic)
         -> leakage guard -> write artifacts, and meanwhile: audit(released)
            -> train classifiers on released, test on the untouched clean split

The release write starts once the leakage guard has passed. With the header
of ``released.csv`` written, the audit and evaluation run in the calling
process; on two CPUs a forked child formats released rows meanwhile, all of
them for a table of under four codec chunks and the second half of a larger
one (see ``write_csv``'s ``meanwhile``). The risk and evaluation reports are
written after them. Every artifact, here and in the CLI, is written through
one context manager, ``_staged``: each file goes under a temporary name and
the set is moved into place once complete, so a run, sweep table or plot
table that fails leaves no partial artifact and no directory it made. The
audit always sees exactly the dataset that would be released, and the
held-out test split is never touched by oversampling or noise. Every
stochastic stage draws from a sub-seed derived from the master seed and the
stage name, so a (config, seed) pair fully determines every output byte.

The sweep runner repeats the pipeline over a grid of (noise level,
oversampling amount, k) points, isolates failures to their grid point, and
persists one report row per (point, classifier).
"""

from __future__ import annotations

import csv
import json
import numbers
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from itertools import product
from pathlib import Path

from .anonymity import QuasiIdentifierSpec, RiskReport, equivalence_classes, risk_report
from .classifiers import CLASSIFIERS, make_classifier
from .data import (
    Dataset,
    Schema,
    derive_seed,
    load_csv,
    stratified_split,
    write_csv,
)
from .errors import ConfigInvalid, IoFailure, PrivsynthError, StageError, ValidationError
from .metrics import EvalReport, evaluate
from .noise import NoiseConfig, perturb
from .smote import SmoteConfig, run_smote


def _number(kind: type, accepted: type):
    """The cast of a ``kind`` setting: an ``accepted`` number or the text of a
    ``kind``, never a bool; anything else raises :class:`ConfigInvalid`."""
    def cast(value):
        try:
            if isinstance(value, (accepted, str)) and not isinstance(value, bool):
                return kind(value)
        except (ValueError, OverflowError):
            pass
        raise ConfigInvalid(f"expected {kind.__name__}, got {value!r}")
    return cast


_as_int = _number(int, numbers.Integral)
_as_float = _number(float, numbers.Real)

# config key -> the type its value is read as; a key left out takes the
# default of its dataclass field
_CASTS = {"k": _as_int, "classifiers": tuple, "test_fraction": _as_float, "seed": _as_int,
          "out_dir": str}
_SMOTE_CASTS = {"amount_percent": _as_int, "neighbors": _as_int, "minkowski_q": _as_float}
_NOISE_CASTS = {"level": _as_float, "model": str}
# what run_manifest.json adds to the config, derived from ``seed``, and the
# effective_seed that older manifests carry; a manifest read as a config skips them
_DERIVED_KEYS = ("effective_seed", "stage_seeds")


def _cast_fields(section, casts: dict, name: str, uncast=()) -> dict:
    """The keys of ``casts`` that the JSON object ``section`` holds, each cast.
    A key in neither ``casts`` nor ``uncast`` raises :class:`ConfigInvalid`."""
    if not isinstance(section, dict):
        raise TypeError(f"expected a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(casts) - set(uncast))
    if unknown:
        raise ConfigInvalid(f"unknown {name} key(s): {', '.join(unknown)}")
    return {key: cast(section[key]) for key, cast in casts.items() if key in section}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline run needs.

    The seeds inside ``smote`` and ``noise`` are ignored, and a config file
    cannot set them: the pipeline derives stage seeds from ``seed``, so a
    single number reproduces the whole run.
    """

    input: str
    schema: str
    minority_label: object
    smote: SmoteConfig
    noise: NoiseConfig
    k: int = 2
    qi: QuasiIdentifierSpec | None = None  # None = all numeric columns, 10 bins
    classifiers: tuple[str, ...] = ("knn", "nb", "dt")
    test_fraction: float = 0.3
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigInvalid(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.k < 1:
            raise ConfigInvalid(f"k must be >= 1, got {self.k}")
        if not self.classifiers:
            raise ConfigInvalid("at least one classifier required")
        bad = [c for c in self.classifiers if c not in CLASSIFIERS]
        if bad:
            raise ConfigInvalid(f"unknown classifier(s) {bad}; pick from {', '.join(CLASSIFIERS)}")
        object.__setattr__(self, "classifiers", tuple(self.classifiers))

    def to_dict(self) -> dict:
        """Every field as JSON-ready data, less the two stage seeds."""
        payload = asdict(self)
        del payload["smote"]["seed"], payload["noise"]["seed"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        """Inverse of :meth:`to_dict`. A key left out takes the default of its
        field, so the defaults live only on the config types. A payload that
        lacks input, schema or minority_label, holds a value of the wrong type
        or a key that names no field raises :class:`ConfigInvalid`; the keys
        that run_manifest.json derives from ``seed`` are skipped."""
        try:
            known = {field.name for field in fields(cls)} | set(_DERIVED_KEYS)
            cast = _cast_fields(payload, _CASTS, "config", known)
            qi = payload.get("qi")
            return cls(
                **{key: payload[key] for key in ("input", "schema", "minority_label")},
                smote=SmoteConfig(**_cast_fields(payload.get("smote", {}), _SMOTE_CASTS, "smote")),
                noise=NoiseConfig(**_cast_fields(payload.get("noise", {}), _NOISE_CASTS, "noise")),
                qi=QuasiIdentifierSpec.from_dict(qi) if qi else None,
                **cast,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(f"malformed pipeline config: {type(exc).__name__}: {exc}") from None


def point_dir_name(g: float, amount: int, k: int) -> str:
    return f"g{g:g}_E{amount}_k{k}"


@dataclass(frozen=True)
class SweepGrid:
    """Axes of a parameter sweep: noise levels x oversampling amounts x k.

    Every point gets its own output directory, so two points that share one
    (equal values, or noise levels alike to six significant digits) raise
    :class:`ConfigInvalid`.
    """

    noise_levels: tuple[float, ...] = (0.1, 0.3, 0.6, 1.0)
    smote_amounts: tuple[int, ...] = (130, 220, 370, 500)
    k_values: tuple[int, ...] = (PipelineConfig.k,)

    def __post_init__(self):
        try:
            object.__setattr__(self, "noise_levels", tuple(map(_as_float, self.noise_levels)))
            object.__setattr__(self, "smote_amounts", tuple(map(_as_int, self.smote_amounts)))
            object.__setattr__(self, "k_values", tuple(map(_as_int, self.k_values)))
        except TypeError as exc:
            raise ConfigInvalid(f"grid axes must be lists of numbers: {exc}") from None
        if not (self.noise_levels and self.smote_amounts and self.k_values):
            raise ConfigInvalid("grid axes must be non-empty")
        if any(g < 0 for g in self.noise_levels):
            raise ConfigInvalid("noise levels must be >= 0")
        if any(e < 1 for e in self.smote_amounts):
            raise ConfigInvalid("oversampling amounts must be >= 1")
        if any(k < 1 for k in self.k_values):
            raise ConfigInvalid("k values must be >= 1")
        dirs = Counter(point_dir_name(*point) for point in self.points())
        shared = [name for name, count in dirs.items() if count > 1]
        if shared:
            raise ConfigInvalid(f"grid points share output directories: {', '.join(shared)}")

    def points(self):
        """Grid points in stable sorted (g, E, k) order."""
        return list(product(sorted(self.noise_levels), sorted(self.smote_amounts),
                            sorted(self.k_values)))

    def __len__(self):
        return len(self.noise_levels) * len(self.smote_amounts) * len(self.k_values)


@dataclass(frozen=True)
class SweepRow:
    """One (grid point, classifier) outcome."""

    noise_level: float
    smote_amount: int
    k: int
    classifier: str
    status: str  # "ok" | "failed"
    accuracy: float | None = None
    macro_precision: float | None = None
    macro_recall: float | None = None
    macro_f_measure: float | None = None
    risk: float | None = None
    satisfies_k_anonymity: bool | None = None
    wall_seconds: float | None = None
    error: str | None = None


_CSV_FIELDS = tuple(f.name for f in fields(SweepRow) if f.name not in ("wall_seconds", "error"))
# the two plot table families, by file name pattern and header
_PLOT_TABLES = (("accuracy_vs_noise_E{}_k{}.csv", ("g", "classifier", "accuracy")),
                ("risk_vs_smote_g{:g}_k{}.csv", ("smote_percent", "risk")))


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def to_csv(self, path) -> None:
        """Deterministic CSV: one row per (point, classifier), no timings."""
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS)
            for row in self.rows:
                writer.writerow([_cell(getattr(row, name)) for name in _CSV_FIELDS])

    def to_json(self, path) -> None:
        payload = [dict(vars(row)) for row in self.rows]
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load_json(cls, path) -> "SweepReport":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        try:
            return cls(tuple(SweepRow(**entry) for entry in payload))
        except TypeError:
            raise ValidationError(f"{path} does not hold a sweep report") from None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:  # a stage run inside this one keeps its own name
        raise
    except PrivsynthError as exc:
        raise StageError(name, exc) from exc


def _audit_spec(cfg: PipelineConfig, schema: Schema) -> QuasiIdentifierSpec:
    return cfg.qi if cfg.qi is not None else QuasiIdentifierSpec.all_numeric(schema)


def _row_keys(data: Dataset) -> set:
    return {
        (data.features[i].tobytes(), repr(data.labels[i]))
        for i in range(len(data))
    }


def run_stages(
    data: Dataset, cfg: PipelineConfig, seed: int, out_dir: Path | None = None
) -> tuple[Dataset, RiskReport, list[EvalReport]]:
    """Run every stage after ingestion on an already-loaded dataset."""
    train, test = _stage(
        "split", stratified_split, data, cfg.test_fraction, derive_seed(seed, "split")
    )
    merged = _stage(
        "smote",
        run_smote,
        train,
        cfg.minority_label,
        replace(cfg.smote, seed=derive_seed(seed, "smote")),
    )
    released = _stage(
        "perturb", perturb, merged, replace(cfg.noise, seed=derive_seed(seed, "noise"))
    )

    # leakage guard: no test record may enter the table that is perturbed
    # unless the same values also exist in train (duplicate rows can straddle
    # the split); perturb never sees test, so a copy can only enter before it
    leaked = (_row_keys(test) & _row_keys(merged)) - _row_keys(train)
    if leaked:
        raise StageError("perturb", ConfigInvalid("test records leaked into the release"))

    def audit_and_evaluate():
        spec = _stage("audit", _audit_spec, cfg, released.schema)
        classes = _stage("audit", equivalence_classes, released, spec)
        risk = _stage("audit", risk_report, classes, cfg.k)
        reports = []
        for name in cfg.classifiers:
            clf = make_classifier(name, seed=derive_seed(seed, "clf", name))
            reports.append(_stage("evaluate", evaluate, clf, released, test))
        return risk, reports

    if out_dir is None:
        risk, reports = audit_and_evaluate()
    else:
        risk, reports = _stage("write", _write_artifacts, out_dir, cfg, seed, released,
                               audit_and_evaluate)
    return released, risk, reports


@contextmanager
def _staged(out_dir):
    """Write a set of artifacts into ``out_dir`` all or nothing.

    The block gets ``stage(name)``, the temporary path ``out_dir/.<name>.<pid>.tmp``
    to write the artifact ``name`` at. When the block completes, the staged
    files are moved into place with ``os.replace`` in the order they were
    staged. On any failure the temporary files and the directories this
    call made are removed, deepest first, and the exception propagates; an
    ``OSError`` is raised as :class:`IoFailure`.
    """
    out = Path(out_dir)
    made = []  # directories that did not exist, deepest first
    for folder in (out, *out.parents):
        if folder.exists():
            break
        made.append(folder)
    staged = {}  # artifact name -> its temporary path

    def stage(name):
        staged[name] = out / f".{name}.{os.getpid()}.tmp"
        return staged[name]

    try:
        out.mkdir(parents=True, exist_ok=True)
        yield stage
        for name, path in staged.items():
            os.replace(path, out / name)
    except BaseException as exc:
        for path in staged.values():
            path.unlink(missing_ok=True)
        for folder in made:
            try:
                folder.rmdir()
            except OSError:  # something else was put there meanwhile
                break
        if isinstance(exc, OSError):
            raise IoFailure(str(exc)) from exc
        raise


def _write_artifacts(out_dir, cfg, seed, released, meanwhile):
    """Write the artifacts of one run into ``out_dir`` and return what
    ``meanwhile`` (the audit and evaluation, which make the reports) returns.

    ``write_csv`` may run ``meanwhile`` while a forked child formats
    ``released.csv``. The set is staged, ``run_manifest.json`` last, so a
    directory holding a manifest is complete.
    """
    with _staged(out_dir) as stage:
        risk, reports = write_csv(released, stage("released.csv"), meanwhile)
        risk.save(stage("risk.json"))
        for report in reports:
            report.save(stage(f"eval_{report.classifier}.json"))
        manifest = replace(cfg, seed=seed, out_dir=str(out_dir)).to_dict()
        manifest["stage_seeds"] = {
            name: derive_seed(seed, name) for name in ("split", "smote", "noise")
        }
        stage("run_manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return risk, reports


def run_pipeline(cfg: PipelineConfig) -> tuple[Dataset, RiskReport, list[EvalReport]]:
    """Load the input and run the full release pipeline, writing artifacts.

    Returns the released dataset, its audit, and one evaluation report per
    configured classifier. Artifacts land in ``cfg.out_dir``: released.csv,
    risk.json, eval_<classifier>.json, run_manifest.json. An ingestion error
    (a malformed schema or input CSV) is raised unwrapped, as its own
    :class:`ValidationError`; a failing later stage raises :class:`StageError`.
    """
    data = load_csv(cfg.input, Schema.load(cfg.schema))
    return run_stages(data, cfg, cfg.seed, Path(cfg.out_dir))


def run_sweep(cfg: PipelineConfig, grid: SweepGrid) -> SweepReport:
    """Run the pipeline once per grid point and gather a report.

    Each point gets its own derived seed and output directory
    ``<out_dir>/g<g>_E<E>_k<k>``. A point whose stage fails with a library
    error (:class:`StageError`) is recorded with status "failed" and an
    ``error`` of the form ``"<stage>: <error type>: <message>"``, and the
    sweep moves on; any other exception is a bug and propagates. The aggregated
    report is persisted as ``sweep.csv`` (deterministic columns only) and
    ``sweep.json`` (including wall-clock timings), each staged with
    ``_staged`` and moved into place once complete. The input is loaded
    once, before any point runs, and an ingestion error is raised unwrapped,
    as its own :class:`ValidationError`.
    """
    data = load_csv(cfg.input, Schema.load(cfg.schema))
    out_root = Path(cfg.out_dir)

    rows: list[SweepRow] = []
    for g, amount, k in grid.points():
        point_cfg = replace(
            cfg,
            smote=replace(cfg.smote, amount_percent=amount),
            noise=replace(cfg.noise, level=g),
            k=k,
        )
        point_seed = derive_seed(cfg.seed, "grid", repr(float(g)), int(amount), int(k))
        started = time.perf_counter()
        try:
            _, risk, reports = run_stages(
                data, point_cfg, point_seed, out_root / point_dir_name(g, amount, k)
            )
            outcomes = [(r.classifier, dict(
                status="ok", accuracy=r.accuracy, macro_precision=r.macro_precision,
                macro_recall=r.macro_recall, macro_f_measure=r.macro_f_measure,
                risk=risk.risk, satisfies_k_anonymity=risk.satisfies_k_anonymity,
            )) for r in reports]
        except StageError as exc:  # isolate the point, keep sweeping
            error = f"{exc.stage}: {type(exc.cause).__name__}: {exc.cause}"
            outcomes = [(name, dict(status="failed", error=error)) for name in cfg.classifiers]
        elapsed = time.perf_counter() - started
        rows += [
            SweepRow(noise_level=float(g), smote_amount=int(amount), k=int(k),
                     classifier=name, wall_seconds=elapsed, **outcome)
            for name, outcome in outcomes
        ]

    report = SweepReport(tuple(rows))
    with _staged(out_root) as stage:
        report.to_csv(stage("sweep.csv"))
    with _staged(out_root) as stage:  # sweep.csv stands even if sweep.json fails
        report.to_json(stage("sweep.json"))
    return report


def emit_plot_data(report: SweepReport, out_dir) -> list[Path]:
    """Write per-figure CSV tables from a sweep report.

    For every (E, k): ``accuracy_vs_noise_E<E>_k<k>.csv`` with header
    ``g,classifier,accuracy``. For every (g, k):
    ``risk_vs_smote_g<g>_k<k>.csv`` with header ``smote_percent,risk``.
    Failed rows are skipped. Each table is staged with ``_staged`` and moved
    into place once complete.
    """
    rows = [r for r in report.rows if r.status == "ok"]
    if not rows:
        raise ConfigInvalid("report holds no successful rows")
    tables: dict[tuple, dict] = {}  # (family, axis value, k) -> {sort key: CSV line}
    for i, r in enumerate(rows):  # i keeps report order among equal keys
        tables.setdefault((0, r.smote_amount, r.k), {})[r.noise_level, r.classifier, i] = [
            repr(r.noise_level), r.classifier, repr(r.accuracy)]
        # risk is the same for every classifier of a point: the first row's stands
        tables.setdefault((1, r.noise_level, r.k), {}).setdefault(
            r.smote_amount, [r.smote_amount, repr(r.risk)])
    written: list[Path] = []
    for (family, value, k), lines in sorted(tables.items()):
        pattern, header = _PLOT_TABLES[family]
        name = pattern.format(value, k)
        with _staged(out_dir) as stage, stage(name).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(line for _, line in sorted(lines.items()))
        written.append(Path(out_dir) / name)
    return written
