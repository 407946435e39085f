"""Command-line front end.

Subcommands:
    synthesize  run the full release pipeline on one parameter setting
    audit       k-anonymity audit of an existing CSV, no synthesis
    evaluate    train/test classifier evaluation on two provided CSVs
    sweep       run the pipeline over a (noise, amount, k) grid
    plotdata    expand a sweep report into per-figure CSV tables

Each flag is declared once, in ``_FLAGS``, with the settings key it sets;
``_COMMANDS`` lists the flags each subcommand takes. Every subcommand reads its
settings one way: each flag given overlaid on the JSON config file that
synthesize and sweep accept with --config (keys mirroring the pipeline
configuration), so an explicit flag wins over the file; a setting given
nowhere takes the default of its config type.

Exit codes, the same from every subcommand: 0 success; 1 when the command
line or an input CSV, schema or config file is malformed or missing; 2 when a
pipeline stage fails at runtime or on another I/O error. Any other exception
is a bug and propagates with its traceback. Every file a subcommand writes is
staged (``pipeline._staged``), so a failed write leaves an earlier file as it
was.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .anonymity import DEFAULT_BINS, QuasiIdentifierSpec, equivalence_classes, risk_report
from .classifiers import CLASSIFIERS, make_classifier
from .data import Schema, derive_seed, load_csv, parse_label
from .errors import ConfigInvalid, PrivsynthError, ValidationError
from .metrics import evaluate
from .noise import DIAGONAL_SCALED, FULL_COVARIANCE, NoiseConfig
from .pipeline import (
    PipelineConfig,
    SweepGrid,
    SweepReport,
    _staged,
    emit_plot_data,
    run_pipeline,
    run_sweep,
)
from .smote import SmoteConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


class _Flag(NamedTuple):
    """One flag: the settings key it sets, how argparse reads it, its help and
    the default --help shows, read from the config type that applies it."""

    key: tuple[str, ...] | None  # None only for --config, which names the file
    help: str
    type: type = str
    default: object = None


# every flag of every subcommand, declared once; _COMMANDS says which
# subcommand takes which
_FLAGS = {
    "--config": _Flag(None, "JSON config file; flags override its values"),
    "--input": _Flag(("input",), "input CSV"),
    "--schema": _Flag(("schema",), "schema JSON (column names, kinds, label)"),
    "--test": _Flag(("test",), "test CSV (same schema as --input)"),
    "--report": _Flag(("report",), "sweep.json produced by the sweep command"),
    "--out": _Flag(("out_dir",), "output directory"),
    "--seed": _Flag(("seed",), "master seed", int, PipelineConfig.seed),
    "--minority-label": _Flag(("minority_label",), "class to oversample"),
    "--smote-amount": _Flag(("smote", "amount_percent"), "oversampling amount E%%", int,
                            SmoteConfig.amount_percent),
    "--neighbors": _Flag(("smote", "neighbors"), "neighbour count s", int, SmoteConfig.neighbors),
    "--noise": _Flag(("noise", "level"), "noise level g", float, NoiseConfig.level),
    "--noise-model": _Flag(("noise", "model"), f"noise shape, {DIAGONAL_SCALED} or "
                           f"{FULL_COVARIANCE}", default=NoiseConfig.model),
    "--qi-columns": _Flag(("qi_columns",), "comma-separated quasi-identifier columns",
                          default="every numeric column"),
    "--bins": _Flag(("bins",), "equal-width bins per QI column", int, DEFAULT_BINS),
    "--k": _Flag(("k",), "anonymity parameter", int, PipelineConfig.k),
    "--classifiers": _Flag(("classifiers",), f"comma list from {','.join(CLASSIFIERS)}",
                           default=PipelineConfig.classifiers),
    "--test-fraction": _Flag(("test_fraction",), "held-out fraction", float,
                             PipelineConfig.test_fraction),
    "--noise-levels": _Flag(("noise_levels",), "comma list of g values",
                            default=SweepGrid.noise_levels),
    "--smote-amounts": _Flag(("smote_amounts",), "comma list of E values",
                             default=SweepGrid.smote_amounts),
    "--k-values": _Flag(("k_values",), "comma list of k values", default="the --k value"),
}


def _help(flag: _Flag) -> str:
    shown = ",".join(map(str, flag.default)) if isinstance(flag.default, tuple) else flag.default
    return flag.help if shown is None else f"{flag.help} (default {shown})"


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


def _settings(args) -> dict:
    """The --config file's settings, read once, overlaid with every flag given."""
    settings = {}
    if getattr(args, "config", None):
        settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(settings, dict):
            raise ConfigInvalid(f"config file {args.config} must hold a JSON object")
    for name in _COMMANDS[args.command].flags:
        key, value = _FLAGS[name].key, getattr(args, name[2:].replace("-", "_"))
        if key is None or value is None:
            continue
        if len(key) == 2:  # a key inside a section: smote or noise
            section = settings.get(key[0], {})
            if not isinstance(section, dict):
                raise ConfigInvalid(f"{key[0]} must be a JSON object, got {section!r}")
            value = {**section, key[1]: value}
        settings[key[0]] = value
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


# the settings the CLI reads itself; every other key goes to PipelineConfig
_CLI_KEYS = ("qi_columns", "bins", "noise_levels", "smote_amounts", "k_values")


def _pipeline_config(settings) -> PipelineConfig:
    """The pipeline configuration of ``settings``; what they leave out takes
    its default from the config types."""
    payload = {key: value for key, value in settings.items() if key not in _CLI_KEYS}
    _require(payload.get("input"), "--input")
    schema = Schema.load(_require(payload.get("schema"), "--schema"))
    minority = _require(payload.get("minority_label"), "--minority-label")
    if isinstance(minority, str):
        payload["minority_label"] = parse_label(minority)
    if "classifiers" in payload:
        payload["classifiers"] = _split_list(payload["classifiers"])
    qi = _qi_spec(settings, schema)
    if qi is not None:
        payload["qi"] = qi.to_dict()

    cfg = PipelineConfig.from_dict(payload)
    if cfg.qi is not None:
        cfg.qi.validate_against(schema)
    return cfg


def _cmd_synthesize(args) -> int:
    cfg = _pipeline_config(_settings(args))
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
        with _staged(settings["out_dir"]) as stage:
            risk.save(stage("risk.json"))
        print(f"wrote {Path(settings['out_dir']) / 'risk.json'}")
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
        with _staged(settings["out_dir"]) as stage:
            for report in reports:
                report.save(stage(f"eval_{report.classifier}.json"))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    settings = _settings(args)
    cfg = _pipeline_config(settings)
    axes = {axis: _split_list(settings[axis])
            for axis in ("noise_levels", "smote_amounts") if axis in settings}
    grid = SweepGrid(k_values=_split_list(settings.get("k_values", [cfg.k])), **axes)
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


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple[str, ...]  # keys of _FLAGS, in --help order


_IO = ("--input", "--schema", "--out")  # audit draws nothing at random: no --seed
_PIPELINE = (*_IO, "--seed", "--config", "--minority-label", "--smote-amount", "--neighbors",
             "--noise", "--noise-model", "--qi-columns", "--bins", "--k", "--classifiers",
             "--test-fraction")

_COMMANDS = {
    "synthesize": _Command(_cmd_synthesize, "run the full release pipeline", _PIPELINE),
    "audit": _Command(_cmd_audit, "k-anonymity audit of an existing CSV",
                      (*_IO, "--qi-columns", "--bins", "--k")),
    "evaluate": _Command(_cmd_evaluate, "classifier evaluation on provided train/test CSVs",
                         (*_IO, "--seed", "--test", "--classifiers")),
    "sweep": _Command(_cmd_sweep, "run the pipeline over a parameter grid",
                      (*_PIPELINE, "--noise-levels", "--smote-amounts", "--k-values")),
    "plotdata": _Command(_cmd_plotdata, "per-figure CSV tables from a sweep report",
                         ("--report", "--out")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="privsynth",
                     description="Privacy-preserving tabular data release toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument(flag, type=_FLAGS[flag].type, help=_help(_FLAGS[flag]))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command].run(args)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PrivsynthError, OSError) as exc:  # stage and I/O failures; a bug propagates
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
