"""Command-line front end.

Subcommands:
    synthesize  run the full release pipeline on one parameter setting
    audit       k-anonymity audit of an existing CSV, no synthesis
    evaluate    train/test classifier evaluation on two provided CSVs
    sweep       run the pipeline over a (noise, amount, k) grid
    plotdata    expand a sweep report into per-figure CSV tables

Every subcommand reads its settings one way: the JSON config file (--config,
keys mirroring the pipeline configuration) overlaid with each flag given, so
an explicit flag wins over the file; a setting given nowhere takes the default
of its config type.

Exit codes, the same from every subcommand: 0 success; 1 when the command
line or an input CSV, schema or config file is malformed or missing; 2 when a
pipeline stage fails at runtime or on another I/O error. Any other exception
is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .anonymity import DEFAULT_BINS, QuasiIdentifierSpec, equivalence_classes, risk_report
from .classifiers import make_classifier
from .data import Schema, derive_seed, load_csv, parse_label
from .errors import ConfigInvalid, PrivsynthError, ValidationError
from .metrics import evaluate
from .pipeline import (
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


def _require(value, flag):
    if value is None:
        raise ValidationError(f"{flag} is required (flag or config file)")
    return value


def _split_list(value):
    """A flag's comma-separated text as a list; a config file's list as it is."""
    if isinstance(value, str):
        return [part.strip() for part in value.split(",") if part.strip()]
    if not isinstance(value, (list, tuple)):
        raise ConfigInvalid(f"expected a comma list or a JSON list, got {value!r}")
    return value


# flag dest -> key path in the settings; the keys mirror PipelineConfig.to_dict
# plus the QI flags, the grid axes and the audit/evaluate/plotdata file
# arguments. Every flag of every subcommand is here, so a given flag always
# overrides the config-file value the same way.
_FLAG_KEYS = {
    "input": ("input",),
    "schema": ("schema",),
    "test": ("test",),
    "report": ("report",),
    "out": ("out_dir",),
    "seed": ("seed",),
    "minority_label": ("minority_label",),
    "smote_amount": ("smote", "amount_percent"),
    "neighbors": ("smote", "neighbors"),
    "noise": ("noise", "level"),
    "noise_model": ("noise", "model"),
    "qi_columns": ("qi_columns",),
    "bins": ("bins",),
    "k": ("k",),
    "classifiers": ("classifiers",),
    "test_fraction": ("test_fraction",),
    "noise_levels": ("noise_levels",),
    "smote_amounts": ("smote_amounts",),
    "k_values": ("k_values",),
}


def _settings(args) -> dict:
    """The --config file's settings, read once, overlaid with every flag given."""
    settings = {}
    if getattr(args, "config", None):
        settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(settings, dict):
            raise ConfigInvalid(f"config file {args.config} must hold a JSON object")
    for dest, path in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        if len(path) == 1:
            settings[path[0]] = value
            continue
        section = settings.get(path[0], {})
        if not isinstance(section, dict):
            raise ConfigInvalid(f"{path[0]} must be a JSON object, got {section!r}")
        settings[path[0]] = {**section, path[1]: value}
    return settings


def _qi_spec(settings, schema) -> QuasiIdentifierSpec | None:
    """The spec --qi-columns and --bins give: the listed columns, or every
    numeric column when only --bins is given; None when neither is given."""
    columns = settings.get("qi_columns")
    bins = settings.get("bins", DEFAULT_BINS)  # QuasiIdentifierSpec checks the rule
    if columns is None:
        return QuasiIdentifierSpec.all_numeric(schema, bins) if "bins" in settings else None
    columns = _split_list(columns)
    return QuasiIdentifierSpec(tuple(columns), {c: bins for c in columns})


def _pipeline_config(args, settings=None) -> PipelineConfig:
    """The pipeline configuration of ``settings`` (``_settings(args)`` when
    None); what they leave out takes its default from the config types."""
    payload = dict(_settings(args) if settings is None else settings)
    _require(payload.get("input"), "--input")
    schema = Schema.load(_require(payload.get("schema"), "--schema"))
    minority = _require(payload.get("minority_label"), "--minority-label")
    if isinstance(minority, str):
        payload["minority_label"] = parse_label(minority)
    if "classifiers" in payload:
        payload["classifiers"] = _split_list(payload["classifiers"])
    qi = _qi_spec(payload, schema)
    if qi is not None:
        payload["qi"] = qi.to_dict()

    cfg = PipelineConfig.from_dict(payload)
    if cfg.qi is not None:
        cfg.qi.validate_against(schema)
    return cfg


def _cmd_synthesize(args) -> int:
    cfg = _pipeline_config(args)
    released, risk, reports = run_pipeline(cfg)
    print(f"released {len(released)} records to {cfg.out_dir}")
    print(f"risk at k={cfg.k}: {risk.risk:.4f} "
          f"(k-anonymous: {risk.satisfies_k_anonymity})")
    for report in reports:
        print(f"{report.classifier}: accuracy {report.accuracy:.4f}, "
              f"macro F {report.macro_f_measure:.4f}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    settings = _settings(args)
    input_path = _require(settings.get("input"), "--input")
    schema = Schema.load(_require(settings.get("schema"), "--schema"))
    qi = _qi_spec(settings, schema) or QuasiIdentifierSpec.all_numeric(schema)
    qi.validate_against(schema)
    data = load_csv(input_path, schema)
    risk = risk_report(equivalence_classes(data, qi), settings.get("k", PipelineConfig.k))

    if settings.get("out_dir"):
        out = Path(settings["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        risk.save(out / "risk.json")
        print(f"wrote {out / 'risk.json'}")
    else:
        sys.stdout.write(risk.to_json())
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    settings = _settings(args)
    train_path = _require(settings.get("input"), "--input")
    test_path = _require(settings.get("test"), "--test")
    schema = Schema.load(_require(settings.get("schema"), "--schema"))
    names = _split_list(settings.get("classifiers", PipelineConfig.classifiers))
    seed = settings.get("seed", PipelineConfig.seed)

    train = load_csv(train_path, schema)
    test = load_csv(test_path, schema)
    reports = [
        evaluate(make_classifier(n, seed=derive_seed(seed, "clf", n)), train, test)
        for n in names
    ]

    for report in reports:
        print(f"{report.classifier}: accuracy {report.accuracy:.4f}, "
              f"macro P {report.macro_precision:.4f}, "
              f"macro R {report.macro_recall:.4f}, "
              f"macro F {report.macro_f_measure:.4f}")
        if settings.get("out_dir"):
            out = Path(settings["out_dir"])
            out.mkdir(parents=True, exist_ok=True)
            report.save(out / f"eval_{report.classifier}.json")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    settings = _settings(args)
    cfg = _pipeline_config(args, settings)
    grid = SweepGrid(
        noise_levels=_split_list(settings.get("noise_levels", "0.1,0.3,0.6,1.0")),
        smote_amounts=_split_list(settings.get("smote_amounts", "130,220,370,500")),
        k_values=_split_list(settings.get("k_values", [cfg.k])),
    )
    report = run_sweep(cfg, grid)
    ok = sum(1 for r in report.rows if r.status == "ok")
    failed = len(report.rows) - ok
    print(f"sweep finished: {len(grid)} grid points, {ok} ok rows, {failed} failed rows")
    print(f"report: {Path(cfg.out_dir) / 'sweep.csv'}")
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    settings = _settings(args)
    report_path = _require(settings.get("report"), "--report")
    out = _require(settings.get("out_dir"), "--out")
    written = emit_plot_data(SweepReport.load_json(report_path), out)
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
