import errno
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from privsynth import cli
from privsynth.anonymity import QuasiIdentifierSpec, equivalence_classes, risk_report
from privsynth.cli import _COMMANDS, _FLAGS, _pipeline_config, _settings, build_parser, main
from privsynth.anonymity import RiskReport
from privsynth.data import Schema, load_csv, stratified_split, write_csv
from privsynth.metrics import EvalReport
from privsynth.pipeline import PipelineConfig
from privsynth.surrogate import make_surrogate


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = make_surrogate(700, seed=11)
    write_csv(data, root / "data.csv")
    data.schema.save(root / "schema.json")
    train, test = stratified_split(data, 0.3, seed=1)
    write_csv(train, root / "train.csv")
    write_csv(test, root / "test.csv")
    lines = (root / "data.csv").read_text().splitlines()
    lines[2] = "x" + lines[2][lines[2].index(","):]  # row 3, first column
    (root / "bad.csv").write_text("\n".join(lines) + "\n")
    return root


def run(argv):
    return main([str(a) for a in argv])


class TestSynthesize:
    def test_full_run(self, workspace, tmp_path, capsys):
        code = run([
            "synthesize",
            "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--minority-label", "12",
            "--smote-amount", "200",
            "--neighbors", "3",
            "--noise", "0.3",
            "--k", "2",
            "--classifiers", "nb,dt",
            "--seed", "5",
            "--out", tmp_path / "run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "risk at k=2" in out
        assert (tmp_path / "run" / "released.csv").exists()
        assert (tmp_path / "run" / "eval_nb.json").exists()

    def test_config_file_with_flag_override(self, workspace, tmp_path, capsys):
        cfg = {
            "input": str(workspace / "data.csv"),
            "schema": str(workspace / "schema.json"),
            "minority_label": 12,
            "smote": {"amount_percent": 100, "neighbors": 3},
            "noise": {"level": 0.1},
            "classifiers": ["nb"],
            "seed": 9,
            "out_dir": str(tmp_path / "from-config"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        # flag overrides the config file's noise level
        code = run(["synthesize", "--config", cfg_path, "--noise", "0.0"])
        assert code == 0
        manifest = json.loads((tmp_path / "from-config" / "run_manifest.json").read_text())
        assert manifest["noise"]["level"] == 0.0
        assert manifest["smote"]["amount_percent"] == 100

    def test_flag_defaults_are_the_config_defaults(self, workspace):
        args = build_parser().parse_args([
            "synthesize",
            "--input", str(workspace / "data.csv"),
            "--schema", str(workspace / "schema.json"),
            "--minority-label", " 12 ",  # parsed like a CSV label cell
        ])
        assert _pipeline_config(_settings(args)) == PipelineConfig.from_dict({
            "input": str(workspace / "data.csv"),
            "schema": str(workspace / "schema.json"),
            "minority_label": 12,
        })

    def test_missing_required_flag_is_validation_error(self, workspace, capsys):
        code = run(["synthesize", "--input", workspace / "data.csv"])
        assert code == 1

    def test_missing_file_is_validation_error(self, workspace, tmp_path):
        code = run([
            "synthesize",
            "--input", tmp_path / "absent.csv",
            "--schema", workspace / "schema.json",
            "--minority-label", "12",
        ])
        assert code == 1

    def test_run_manifest_as_config_reproduces_the_run(self, workspace, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        assert run([
            "synthesize",
            "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--minority-label", "12",
            "--smote-amount", "200",
            "--noise", "0.3",
            "--qi-columns", "acc_chest_x,acc_chest_y",
            "--classifiers", "nb",
            "--seed", "5",
            "--out", first,
        ]) == 0
        # the manifest's stage_seeds are derived from its seed, so skipped
        assert run(["synthesize", "--config", first / "run_manifest.json", "--out", again]) == 0
        for name in ("released.csv", "risk.json", "eval_nb.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name
        manifest, rerun = (json.loads((run_dir / "run_manifest.json").read_text())
                           for run_dir in (first, again))
        assert rerun == {**manifest, "out_dir": str(again)}

    def test_stage_failure_is_runtime_error(self, workspace, tmp_path):
        # label 99 is absent: the oversampling stage fails at runtime
        code = run([
            "synthesize",
            "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--minority-label", "99",
            "--out", tmp_path / "x",
        ])
        assert code == 2


class TestAudit:
    def test_prints_risk_json(self, workspace, capsys):
        code = run([
            "audit",
            "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--k", "2",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"k", "risk", "satisfies_k_anonymity", "class_size_histogram"}

    def test_qi_subset_and_outfile(self, workspace, tmp_path, capsys):
        code = run([
            "audit",
            "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--qi-columns", "acc_chest_x,acc_chest_y",
            "--bins", "4",
            "--k", "3",
            "--out", tmp_path / "audit",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "audit" / "risk.json").read_text())
        assert payload["k"] == 3

    def test_bins_without_qi_columns_bin_every_numeric_column(self, workspace, capsys):
        argv = ["audit", "--input", workspace / "data.csv", "--schema", workspace / "schema.json"]
        assert run(argv) == 0
        default = capsys.readouterr().out
        assert run(argv + ["--bins", "3"]) == 0
        binned = capsys.readouterr().out
        schema = Schema.load(workspace / "schema.json")
        data = load_csv(workspace / "data.csv", schema)
        spec = QuasiIdentifierSpec.all_numeric(schema, 3)
        assert binned == risk_report(equivalence_classes(data, spec), 2).to_json()
        assert binned != default

    def test_programming_error_propagates(self, workspace, monkeypatch):
        # only library errors become exit codes; a bug keeps its traceback
        def broken(*args, **kwargs):
            raise TypeError("bug in the audit")

        monkeypatch.setattr(cli, "equivalence_classes", broken)
        with pytest.raises(TypeError):
            run([
                "audit",
                "--input", workspace / "data.csv",
                "--schema", workspace / "schema.json",
            ])

    def test_unknown_qi_column(self, workspace):
        code = run([
            "audit",
            "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--qi-columns", "bogus",
        ])
        assert code == 1

    def test_bin_count_beyond_float64_exits_validation(self, workspace, capsys):
        code = run(["audit", "--input", workspace / "data.csv",
                    "--schema", workspace / "schema.json", "--bins", "1" + "0" * 400])
        assert code == 1
        assert "bin count exceeds" in capsys.readouterr().err

    def test_failed_write_keeps_the_earlier_report(self, workspace, tmp_path, monkeypatch, capsys):
        argv = ["audit", "--input", workspace / "data.csv", "--schema", workspace / "schema.json",
                "--out", tmp_path]
        assert run(argv) == 0
        before = (tmp_path / "risk.json").read_bytes()

        def partial(self, path):
            Path(path).write_text('{"k": ')
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(RiskReport, "save", partial)
        assert run(argv + ["--k", "3"]) == 2
        assert "No space left" in capsys.readouterr().err
        assert (tmp_path / "risk.json").read_bytes() == before
        assert os.listdir(tmp_path) == ["risk.json"]  # no temporary file


class TestEvaluate:
    def test_train_test_reports(self, workspace, tmp_path, capsys):
        code = run([
            "evaluate",
            "--input", workspace / "train.csv",
            "--test", workspace / "test.csv",
            "--schema", workspace / "schema.json",
            "--classifiers", "nb",
            "--out", tmp_path / "eval",
        ])
        assert code == 0
        assert "nb: accuracy" in capsys.readouterr().out
        assert (tmp_path / "eval" / "eval_nb.json").exists()

    def test_failed_save_leaves_no_report(self, workspace, tmp_path, monkeypatch, capsys):
        saved = []
        real = EvalReport.save

        def second_fails(self, path):
            if saved:
                raise OSError(errno.ENOSPC, "No space left on device")
            saved.append(path)
            real(self, path)
        monkeypatch.setattr(EvalReport, "save", second_fails)
        code = run(["evaluate", "--input", workspace / "train.csv", "--test", workspace / "test.csv",
                    "--schema", workspace / "schema.json", "--classifiers", "nb,dt",
                    "--out", tmp_path / "eval"])
        assert code == 2
        assert len(saved) == 1
        assert os.listdir(tmp_path) == []  # no eval_*.json, and no directory made for them

    def test_empty_classifier_list_exits_validation(self, workspace, tmp_path, capsys):
        code = run(["evaluate", "--input", workspace / "train.csv", "--test", workspace / "test.csv",
                    "--schema", workspace / "schema.json", "--classifiers", ",",
                    "--out", tmp_path / "eval"])
        assert code == 1
        assert "at least one classifier required" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_requires_test_file(self, workspace):
        code = run([
            "evaluate",
            "--input", workspace / "train.csv",
            "--schema", workspace / "schema.json",
        ])
        assert code == 1

    def test_every_classifier_name_is_checked_before_a_file_is_read(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        missing = tmp_path / "missing.csv"
        code = run(["evaluate", "--input", missing, "--test", missing,
                    "--schema", workspace / "schema.json", "--classifiers", "bogus"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown classifier 'bogus'" in err and "missing.csv" not in err

        def unread(*args):
            raise AssertionError("a CSV was read before every name was checked")
        monkeypatch.setattr(cli, "load_csv", unread)
        code = run(["evaluate", "--input", workspace / "train.csv", "--test", workspace / "test.csv",
                    "--schema", workspace / "schema.json", "--classifiers", "nb,bogus",
                    "--out", tmp_path / "eval"])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["synthesize", "evaluate"])
def test_svm_is_an_unknown_classifier(workspace, tmp_path, capsys, command):
    extra = (["--minority-label", "12"] if command == "synthesize"
             else ["--test", workspace / "test.csv"])
    assert run([command, "--input", workspace / "train.csv", "--schema", workspace / "schema.json",
                "--classifiers", "svm", "--out", tmp_path / "o", *extra]) == 1
    err = capsys.readouterr().err
    assert "unknown classifier" in err and "'svm'" in err
    assert os.listdir(tmp_path) == []


class TestSweepAndPlotdata:
    def test_sweep_then_plotdata(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run([
            "sweep",
            "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--minority-label", "12",
            "--neighbors", "3",
            "--classifiers", "nb",
            "--noise-levels", "0.1,0.3",
            "--smote-amounts", "100,200",
            "--k-values", "2",
            "--seed", "3",
            "--out", out,
        ])
        assert code == 0
        assert (out / "sweep.csv").exists()
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 4  # header + 2x2 grid x 1 classifier

        plots = tmp_path / "plots"
        code = run(["plotdata", "--report", out / "sweep.json", "--out", plots])
        assert code == 0
        assert (plots / "accuracy_vs_noise_E100_k2.csv").exists()
        assert (plots / "risk_vs_smote_g0.3_k2.csv").exists()

    def test_point_manifest_as_config_reproduces_the_point(self, workspace, tmp_path):
        # each point runs with its own derived seed and directory; its
        # manifest must name both, not the sweep's master seed and root
        out, again = tmp_path / "sweep", tmp_path / "again"
        assert run([
            "sweep",
            "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--minority-label", "12",
            "--classifiers", "nb,dt",
            "--noise-levels", "0.1,0.3",
            "--smote-amounts", "100",
            "--k-values", "2",
            "--seed", "3",
            "--out", out,
        ]) == 0
        point = out / "g0.3_E100_k2"
        assert run(["synthesize", "--config", point / "run_manifest.json", "--out", again]) == 0
        for name in ("released.csv", "risk.json", "eval_nb.json", "eval_dt.json"):
            assert (again / name).read_bytes() == (point / name).read_bytes(), name
        manifest, rerun = (json.loads((run_dir / "run_manifest.json").read_text())
                           for run_dir in (point, again))
        assert manifest["out_dir"] == str(point)
        assert rerun == {**manifest, "out_dir": str(again)}

    @pytest.mark.parametrize("level", ["nan", "inf"])
    def test_non_finite_noise_level_runs_no_point(self, workspace, tmp_path, level):
        out = tmp_path / "sweep"
        code = run([
            "sweep",
            "--input", workspace / "data.csv",
            "--schema", workspace / "schema.json",
            "--minority-label", "12",
            "--classifiers", "nb",
            "--noise-levels", f"0.1,{level}",
            "--smote-amounts", "100",
            "--out", out,
        ])
        assert code == 1
        assert not out.exists() or os.listdir(out) == []

    def test_plotdata_missing_report(self, tmp_path):
        code = run(["plotdata", "--report", tmp_path / "none.json", "--out", tmp_path])
        assert code == 1


@pytest.mark.parametrize("command", ["synthesize", "sweep"])
def test_bins_without_qi_columns_reach_the_pipeline_config(workspace, command):
    argv = [command, "--input", str(workspace / "data.csv"),
            "--schema", str(workspace / "schema.json"), "--minority-label", "12"]
    schema = Schema.load(workspace / "schema.json")
    assert _pipeline_config(_settings(build_parser().parse_args(argv))).qi is None
    cfg = _pipeline_config(_settings(build_parser().parse_args(argv + ["--bins", "3"])))
    assert cfg.qi == QuasiIdentifierSpec.all_numeric(schema, 3)


class _Handed(Exception):
    """Raised in place of running the pipeline; its args are what it was handed."""


def _samples(workspace, tmp_path):
    """For every flag that sets a pipeline or grid setting: its text on the
    command line, then the same setting as a config file holds it."""
    schema = tmp_path / "copy-of-schema.json"
    schema.write_bytes((workspace / "schema.json").read_bytes())
    return {
        "--input": ("elsewhere.csv", "elsewhere.csv"),
        "--schema": (str(schema), str(schema)),
        "--out": ("elsewhere", "elsewhere"),
        "--seed": ("7", 7),
        "--minority-label": ("7", 7),
        "--smote-amount": ("370", 370),
        "--neighbors": ("3", 3),
        "--noise": ("0.6", 0.6),
        "--noise-model": ("full_covariance", "full_covariance"),
        "--qi-columns": ("acc_chest_x,acc_chest_y", ["acc_chest_x", "acc_chest_y"]),
        "--bins": ("4", 4),
        "--k": ("3", 3),
        "--classifiers": ("nb,dt", ["nb", "dt"]),
        "--test-fraction": ("0.25", 0.25),
        "--noise-levels": ("0.1,0.6", [0.1, 0.6]),
        "--smote-amounts": ("130,500", [130, 500]),
        "--k-values": ("2,3", [2, 3]),
    }


@pytest.mark.parametrize("command", ["synthesize", "sweep"])
def test_flag_and_config_key_hand_the_pipeline_the_same_run(
    workspace, tmp_path, monkeypatch, command
):
    def hand(*args):
        raise _Handed(*args)

    monkeypatch.setattr(cli, "run_pipeline", hand)
    monkeypatch.setattr(cli, "run_sweep", hand)

    def handed(config, *flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with pytest.raises(_Handed) as info:
            run([command, "--config", path, *flags])
        return info.value.args  # (config,) for synthesize, (config, grid) for sweep

    base = {"input": str(workspace / "data.csv"), "schema": str(workspace / "schema.json"),
            "minority_label": 12}
    samples = _samples(workspace, tmp_path)
    keyed = [name for name in _COMMANDS[command].flags if _FLAGS[name].key]
    assert set(keyed) <= set(samples), set(keyed) - set(samples)
    for name in keyed:
        text, value = samples[name]
        key = _FLAGS[name].key
        via_flag = {k: v for k, v in base.items() if k != key[0]}
        via_file = {**base, key[0]: {key[1]: value} if len(key) == 2 else value}
        assert handed(via_flag, name, text) == handed(via_file), name
        assert handed(via_file) != handed(base), name  # the sample changes the run


class TestErrorPolicy:
    @pytest.mark.parametrize("command", ["synthesize", "sweep", "audit", "evaluate"])
    def test_bad_cell_exits_validation_from_every_subcommand(
        self, workspace, tmp_path, capsys, command
    ):
        argv = [command, "--input", workspace / "bad.csv", "--schema", workspace / "schema.json"]
        if command in ("synthesize", "sweep"):
            argv += ["--minority-label", "12", "--classifiers", "nb", "--out", tmp_path / "o"]
        if command == "evaluate":
            argv += ["--test", workspace / "test.csv", "--classifiers", "nb"]
        assert run(argv) == 1
        assert "bad cell at row 3, column 'acc_chest_x'" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["unterminated quote", "oversized field", "invalid UTF-8"])
    def test_malformed_csv_exits_validation(self, workspace, tmp_path, capsys, fault):
        lines = (workspace / "data.csv").read_bytes().splitlines(keepends=True)
        body = {
            "unterminated quote": lines[1].replace(b",", b',"', 1) + b"".join(lines[2:]) * 20,
            "oversized field": lines[1][:-3] + b"9" * 200_000 + b"\r\n",
            "invalid UTF-8": lines[1].replace(b",", b",\xff", 1),
        }[fault]
        path = tmp_path / "bad.csv"
        path.write_bytes(lines[0] + body)
        assert run(["audit", "--input", path, "--schema", workspace / "schema.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed CSV")
        assert ("at row 2" in err) == (fault != "invalid UTF-8")

    def test_malformed_schema_exits_validation(self, workspace, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"cols": []}))
        assert run(["audit", "--input", workspace / "data.csv", "--schema", schema]) == 1

    @pytest.mark.parametrize("config", [
        {"k": "two"},
        {"smote": 5},
        {"noise": 5},
        {"noise": {"level": "high"}},
        {"qi": {"cols": ["acc_chest_x"]}},
        {"noise_levels": "0.1,low"},
        {"bins": "many", "qi_columns": ["acc_chest_x"]},
        {"qi_columns": 5},
        [1, 2],
        {"nosie": {"level": 0.3}},
        {"smote": {"neighbours": 3}},
        {"classifier": ["nb"]},
        {"noise": {"seed": 4}},
        {"noise_levels": [0.3, 0.3]},
        {"noise_levels": [0.1, 0.1000001]},
        {"smote": {"amount_percent": 130.5}},
        {"k": True},
        {"seed": 1.9},
        {"smote_amounts": [130.5]},
        {"noise_levels": [True]},
    ], ids=["k-not-int", "flagged-section-not-object", "section-not-object",
            "level-not-float", "qi-without-columns", "grid-value-not-float", "bins-not-int",
            "qi-columns-not-list", "top-level-list", "unknown-key", "unknown-smote-key",
            "classifier-not-classifiers", "stage-seed", "repeated-noise-level",
            "noise-levels-sharing-a-directory", "fractional-amount", "boolean-k",
            "fractional-seed", "fractional-grid-amount", "boolean-grid-level"])
    def test_malformed_config_exits_validation(self, workspace, tmp_path, config):
        if isinstance(config, dict):
            config = {
                "input": str(workspace / "data.csv"),
                "schema": str(workspace / "schema.json"),
                "minority_label": 12,
                "out_dir": str(tmp_path / "o"),
                **config,
            }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run(["sweep", "--config", path, "--neighbors", "3"]) == 1

    @pytest.mark.parametrize("row", [
        {"no_such_field": 1},
        {"noise_level": "x"},
        {"smote_amount": 100.0},
        {"smote_amount": True},
        {"k": "2"},
        {"classifier": 3},
        {"status": "skipped"},
        {"accuracy": None},
        {"risk": "0.5"},
    ], ids=["no_such_field", "text-noise-level", "float-amount", "boolean-amount", "text-k",
            "int-classifier", "unknown-status", "ok-without-accuracy", "text-risk"])
    def test_malformed_report_exits_validation(self, tmp_path, row):
        if "no_such_field" not in row:
            row = {"noise_level": 0.1, "smote_amount": 100, "k": 2, "classifier": "nb",
                   "status": "ok", "accuracy": 0.9, "risk": 0.2, **row}
        report = tmp_path / "sweep.json"
        report.write_text(json.dumps([row]))
        assert run(["plotdata", "--report", report, "--out", tmp_path / "plots"]) == 1
        assert not (tmp_path / "plots").exists()


class TestParser:
    def test_every_flag_goes_through_the_overlay(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        for name, sub in subparsers.items():
            dests = {a.dest for a in sub._actions} - {"help", "config"}
            keyed = {flag[2:].replace("-", "_") for flag, spec in _FLAGS.items() if spec.key}
            assert dests <= keyed, (name, dests - keyed)

    def test_unknown_subcommand_exits_validation(self):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag_exits_validation(self, workspace):
        assert run(["audit", "--nope"]) == 1

    @pytest.mark.parametrize("command", ["audit", "evaluate"])
    def test_seed_flag_is_a_usage_error(self, workspace, command):
        # neither draws anything at random, so neither takes --seed
        argv = [command, "--input", workspace / "data.csv", "--schema", workspace / "schema.json",
                "--seed", "1"]
        if command == "evaluate":
            argv += ["--test", workspace / "test.csv"]
        assert run(argv) == 1

    def test_unknown_noise_model_exits_validation(self, workspace, tmp_path):
        # NoiseConfig, not argparse, is the one check of the model name
        assert run(["synthesize", "--input", workspace / "data.csv",
                    "--schema", workspace / "schema.json", "--minority-label", "12",
                    "--noise-model", "bogus", "--out", tmp_path / "o"]) == 1

    @pytest.mark.parametrize("level", ["nan", "inf"])
    def test_non_finite_noise_exits_validation(self, workspace, tmp_path, level):
        # float() accepts both spellings; NoiseConfig rejects them before any stage runs
        assert run(["synthesize", "--input", workspace / "data.csv",
                    "--schema", workspace / "schema.json", "--minority-label", "12",
                    "--noise", level, "--out", tmp_path / "o"]) == 1
        assert not (tmp_path / "o").exists()

    def test_readme_commands_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        shell = "\n".join(re.findall(r"```bash\n(.*?)```", readme, re.S)).replace("\\\n", " ")
        commands = [shlex.split(line, comments=True) for line in shell.splitlines()
                    if line.startswith("privsynth ")]
        assert commands
        for argv in commands:
            build_parser().parse_args(argv[1:])
