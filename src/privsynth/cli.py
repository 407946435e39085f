"""Command-line front end.

Subcommands:
    synthesize  run the full release pipeline on one parameter setting
    audit       k-anonymity audit of an existing CSV, no synthesis
    evaluate    train/test classifier evaluation on two provided CSVs
    sweep       run the pipeline over a (noise, amount, k) grid
    plotdata    expand a sweep report into per-figure CSV tables

Options may come from flags or from a JSON config file (--config) whose keys
mirror the pipeline configuration; explicit flags win over file values.
Exit codes: 0 success, 1 validation error, 2 runtime stage or I/O error.
Any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .anonymity import QuasiIdentifierSpec, equivalence_classes, risk_report
from .classifiers import make_classifier
from .data import Schema, derive_seed, load_csv, parse_label
from .errors import PrivsynthError, StageError, ValidationError
from .metrics import evaluate
from .pipeline import (
    DEFAULT_CLASSIFIERS,
    PipelineConfig,
    SweepGrid,
    SweepReport,
    emit_plot_data,
    run_pipeline,
    run_sweep,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _add_common_io(p):
    p.add_argument("--input", help="input CSV")
    p.add_argument("--schema", help="schema JSON (column names, kinds, label)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="master seed (default 0)")


def _add_pipeline_flags(p):
    _add_common_io(p)
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--minority-label", help="class to oversample")
    p.add_argument("--smote-amount", type=int, help="oversampling amount E%% (default 100)")
    p.add_argument("--neighbors", type=int, help="neighbour count s (default 5)")
    p.add_argument("--noise", type=float, help="noise level g (default 0)")
    p.add_argument("--noise-model", choices=["diagonal_scaled", "full_covariance"],
                   help="noise shape (default diagonal_scaled)")
    p.add_argument("--qi-columns", help="comma-separated quasi-identifier columns "
                                        "(default: all numeric)")
    p.add_argument("--bins", type=int, help="equal-width bins per QI column (default 10)")
    p.add_argument("--k", type=int, help="anonymity parameter (default 2)")
    p.add_argument("--classifiers", help="comma list from knn,nb,dt,svm (default knn,nb,dt)")
    p.add_argument("--test-fraction", type=float, help="held-out fraction (default 0.3)")


def build_parser() -> _Parser:
    parser = _Parser(prog="privsynth",
                     description="Privacy-preserving tabular data release toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="run the full release pipeline")
    _add_pipeline_flags(p)

    p = sub.add_parser("audit", help="k-anonymity audit of an existing CSV")
    _add_common_io(p)
    p.add_argument("--qi-columns")
    p.add_argument("--bins", type=int)
    p.add_argument("--k", type=int)

    p = sub.add_parser("evaluate", help="classifier evaluation on provided train/test CSVs")
    _add_common_io(p)
    p.add_argument("--test", help="test CSV (same schema as --input)")
    p.add_argument("--classifiers")

    p = sub.add_parser("sweep", help="run the pipeline over a parameter grid")
    _add_pipeline_flags(p)
    p.add_argument("--noise-levels", help="comma list of g values (default 0.1,0.3,0.6,1.0)")
    p.add_argument("--smote-amounts", help="comma list of E values (default 130,220,370,500)")
    p.add_argument("--k-values", help="comma list of k values (default 2)")

    p = sub.add_parser("plotdata", help="per-figure CSV tables from a sweep report")
    p.add_argument("--report", help="sweep.json produced by the sweep command")
    p.add_argument("--out", help="output directory")

    return parser


def _setting(args, name, file_cfg, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if file_cfg is not None and name in file_cfg:
        return file_cfg[name]
    return default


def _require(value, flag):
    if value is None:
        raise ValidationError(f"{flag} is required (flag or config file)")
    return value


def _qi_from_args(args, file_cfg, schema):
    columns = _setting(args, "qi_columns", file_cfg)
    bins = _setting(args, "bins", file_cfg, 10)
    if columns is None:
        return None  # pipeline default: all numeric columns, 10 bins
    if isinstance(columns, str):
        columns = _split_list(columns)
    return QuasiIdentifierSpec(tuple(columns), {c: int(bins) for c in columns})


# flag name -> key path in the PipelineConfig dict; a given flag overrides
# the config-file value
_FLAG_KEYS = {
    "input": ("input",),
    "schema": ("schema",),
    "minority_label": ("minority_label",),
    "smote_amount": ("smote", "amount_percent"),
    "neighbors": ("smote", "neighbors"),
    "noise": ("noise", "level"),
    "noise_model": ("noise", "model"),
    "k": ("k",),
    "classifiers": ("classifiers",),
    "test_fraction": ("test_fraction",),
    "seed": ("seed",),
    "out": ("out_dir",),
}


def _config_file(args) -> dict | None:
    config_path = getattr(args, "config", None)
    if not config_path:
        return None
    return json.loads(Path(config_path).read_text(encoding="utf-8"))


def _pipeline_config(args, file_cfg) -> PipelineConfig:
    """Config-file values overlaid with the given flags; defaults come from
    :meth:`PipelineConfig.from_dict`."""
    payload = dict(file_cfg or {})
    for section in ("smote", "noise"):
        payload[section] = dict(payload.get(section, {}))
    for name, path in _FLAG_KEYS.items():
        value = getattr(args, name, None)
        if value is not None:
            target = payload[path[0]] if len(path) == 2 else payload
            target[path[-1]] = value

    input_path = _require(payload.get("input"), "--input")
    schema_path = _require(payload.get("schema"), "--schema")
    if not Path(input_path).exists():
        raise ValidationError(f"input file not found: {input_path}")
    if not Path(schema_path).exists():
        raise ValidationError(f"schema file not found: {schema_path}")
    schema = Schema.load(schema_path)

    minority = _require(payload.get("minority_label"), "--minority-label")
    if isinstance(minority, str):
        payload["minority_label"] = parse_label(minority)
    if isinstance(payload.get("classifiers"), str):
        payload["classifiers"] = _split_list(payload["classifiers"])
    qi = _qi_from_args(args, file_cfg, schema)
    if qi is not None:
        payload["qi"] = qi.to_dict()

    cfg = PipelineConfig.from_dict(payload)
    if cfg.qi is not None:
        cfg.qi.validate_against(schema)
    return cfg


def _cmd_synthesize(args) -> int:
    cfg = _pipeline_config(args, _config_file(args))
    released, risk, reports = run_pipeline(cfg)
    print(f"released {len(released)} records to {cfg.out_dir}")
    print(f"risk at k={cfg.k}: {risk.risk:.4f} "
          f"(k-anonymous: {risk.satisfies_k_anonymity})")
    for report in reports:
        print(f"{report.classifier}: accuracy {report.accuracy:.4f}, "
              f"macro F {report.macro_f_measure:.4f}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    input_path = _require(args.input, "--input")
    schema_path = _require(args.schema, "--schema")
    if not Path(input_path).exists():
        raise ValidationError(f"input file not found: {input_path}")
    schema = Schema.load(schema_path)
    qi = _qi_from_args(args, None, schema) or QuasiIdentifierSpec.all_numeric(schema)
    qi.validate_against(schema)
    k = args.k if args.k is not None else 2

    try:
        data = load_csv(input_path, schema)
        classes = equivalence_classes(data, qi)
        risk = risk_report(classes, k)
    except ValidationError:
        raise
    except PrivsynthError as exc:
        raise StageError("audit", exc) from exc

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        risk.save(out / "risk.json")
        print(f"wrote {out / 'risk.json'}")
    else:
        sys.stdout.write(risk.to_json())
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    train_path = _require(args.input, "--input")
    test_path = _require(args.test, "--test")
    schema_path = _require(args.schema, "--schema")
    for path in (train_path, test_path):
        if not Path(path).exists():
            raise ValidationError(f"file not found: {path}")
    schema = Schema.load(schema_path)
    names = _split_list(args.classifiers) if args.classifiers else list(DEFAULT_CLASSIFIERS)
    seed = args.seed if args.seed is not None else 0

    try:
        train = load_csv(train_path, schema)
        test = load_csv(test_path, schema)
        reports = [
            evaluate(make_classifier(n, seed=derive_seed(seed, "clf", n)), train, test)
            for n in names
        ]
    except ValidationError:
        raise
    except PrivsynthError as exc:
        raise StageError("evaluate", exc) from exc

    for report in reports:
        print(f"{report.classifier}: accuracy {report.accuracy:.4f}, "
              f"macro P {report.macro_precision:.4f}, "
              f"macro R {report.macro_recall:.4f}, "
              f"macro F {report.macro_f_measure:.4f}")
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            report.save(out / f"eval_{report.classifier}.json")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    file_cfg = _config_file(args)
    cfg = _pipeline_config(args, file_cfg)
    levels = _setting(args, "noise_levels", file_cfg, "0.1,0.3,0.6,1.0")
    amounts = _setting(args, "smote_amounts", file_cfg, "130,220,370,500")
    ks = _setting(args, "k_values", file_cfg, str(cfg.k))
    grid = SweepGrid(
        noise_levels=tuple(float(v) for v in _as_list(levels)),
        smote_amounts=tuple(int(v) for v in _as_list(amounts)),
        k_values=tuple(int(v) for v in _as_list(ks)),
    )
    report = run_sweep(cfg, grid)
    ok = sum(1 for r in report.rows if r.status == "ok")
    failed = len(report.rows) - ok
    print(f"sweep finished: {len(grid)} grid points, {ok} ok rows, {failed} failed rows")
    print(f"report: {Path(cfg.out_dir) / 'sweep.csv'}")
    return EXIT_OK


def _as_list(value):
    if isinstance(value, str):
        return _split_list(value)
    return list(value)


def _cmd_plotdata(args) -> int:
    report_path = _require(args.report, "--report")
    out = _require(args.out, "--out")
    if not Path(report_path).exists():
        raise ValidationError(f"report not found: {report_path}")
    report = SweepReport.load_json(report_path)
    written = emit_plot_data(report, out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "audit": _cmd_audit,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PrivsynthError, OSError) as exc:  # stage and I/O failures; a bug propagates
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
