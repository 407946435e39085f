import csv
import errno
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from privsynth import data as data_module
from privsynth import pipeline
from privsynth.anonymity import QuasiIdentifierSpec
from privsynth.data import Dataset, derive_seed, stratified_split, write_csv
from privsynth.errors import ConfigInvalid, IoFailure, StageError, ValidationError
from privsynth.noise import NoiseConfig
from privsynth.pipeline import (
    PipelineConfig,
    SweepGrid,
    SweepReport,
    emit_plot_data,
    point_dir_name,
    run_pipeline,
    run_sweep,
)
from privsynth.smote import SmoteConfig, synthetic_count
from privsynth.surrogate import make_surrogate


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer forks only with os.fork")


class ExitingLabel(int):
    """An int label whose ``str`` ends any process but the one that made it."""

    def __new__(cls, value):
        label = super().__new__(cls, value)
        label.home = os.getpid()
        return label

    def __str__(self):
        if os.getpid() != self.home:
            os._exit(3)
        return int.__str__(self)


@pytest.fixture(scope="module")
def small_table(tmp_path_factory):
    """A small generated sensor table written to disk with its schema."""
    root = tmp_path_factory.mktemp("data")
    data = make_surrogate(700, seed=11)
    csv_path = root / "data.csv"
    schema_path = root / "schema.json"
    write_csv(data, csv_path)
    data.schema.save(schema_path)
    return data, str(csv_path), str(schema_path)


def config(small_table, out_dir, **overrides):
    _, csv_path, schema_path = small_table
    base = dict(
        input=csv_path,
        schema=schema_path,
        minority_label=12,
        smote=SmoteConfig(amount_percent=200, neighbors=3),
        noise=NoiseConfig(level=0.3),
        k=2,
        classifiers=("nb", "dt"),
        test_fraction=0.3,
        seed=77,
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestRunPipeline:
    def test_artifacts_and_shapes(self, small_table, tmp_path):
        data, _, _ = small_table
        cfg = config(small_table, tmp_path / "run")
        released, risk, reports = run_pipeline(cfg)

        # split sizes: per-class round(0.3 * n_c) went to test
        test_size = sum(round(0.3 * c) for c in data.class_counts().values())
        minority_train = data.class_counts()[12] - round(0.3 * data.class_counts()[12])
        expected = (len(data) - test_size) + synthetic_count(200, minority_train)
        assert len(released) == expected

        out = Path(cfg.out_dir)
        assert (out / "released.csv").exists()
        assert (out / "risk.json").exists()
        assert (out / "eval_nb.json").exists()
        assert (out / "eval_dt.json").exists()
        assert (out / "run_manifest.json").exists()
        assert len(reports) == 2
        assert 0.0 <= risk.risk <= 1.0

    def test_zero_noise_released_equals_merged_values(self, small_table, tmp_path):
        cfg = config(small_table, tmp_path / "g0",
                     noise=NoiseConfig(level=0.0),
                     smote=SmoteConfig(amount_percent=100, neighbors=3))
        released, risk, reports = run_pipeline(cfg)
        # original train rows pass through bit-identical at g = 0
        data, _, _ = small_table
        released_keys = {row.tobytes() for row in released.features}
        test_size = sum(round(0.3 * c) for c in data.class_counts().values())
        assert len(released) > len(data) - test_size  # synthetic added
        # audit and eval artifacts still produced
        assert reports and risk is not None

    def test_byte_identical_reruns(self, small_table, tmp_path):
        cfg_a = config(small_table, tmp_path / "a")
        cfg_b = config(small_table, tmp_path / "b")
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        for name in ("released.csv", "risk.json", "eval_nb.json", "eval_dt.json"):
            a = (Path(cfg_a.out_dir) / name).read_bytes()
            b = (Path(cfg_b.out_dir) / name).read_bytes()
            assert a == b, name

    def test_different_seed_changes_release(self, small_table, tmp_path):
        cfg_a = config(small_table, tmp_path / "a2")
        cfg_b = config(small_table, tmp_path / "b2", seed=78)
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        a = (Path(cfg_a.out_dir) / "released.csv").read_bytes()
        b = (Path(cfg_b.out_dir) / "released.csv").read_bytes()
        assert a != b

    def test_stage_error_carries_stage_name(self, small_table, tmp_path):
        cfg = config(small_table, tmp_path / "bad", minority_label="no-such-class")
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "smote"

    def test_test_split_never_released(self, small_table, tmp_path):
        data, _, _ = small_table
        cfg = config(small_table, tmp_path / "guard",
                     noise=NoiseConfig(level=0.0))
        released, _, _ = run_pipeline(cfg)
        # rebuild the split exactly as the pipeline does
        train, test = stratified_split(data, 0.3, derive_seed(77, "split"))
        train_keys = {row.tobytes() for row in train.features}
        released_keys = {row.tobytes() for row in released.features}
        for row in test.features:
            key = row.tobytes()
            if key not in train_keys:  # duplicates may straddle the split
                assert key not in released_keys

    def test_leakage_guard_fires(self, small_table, tmp_path, monkeypatch, two_cpus, forks):
        data, _, _ = small_table
        train, test = stratified_split(data, 0.3, derive_seed(77, "split"))
        train_keys = {row.tobytes() for row in train.features}
        i = next(i for i, row in enumerate(test.features) if row.tobytes() not in train_keys)
        real_smote = pipeline.run_smote

        def leaky(rows, minority_label, cfg):
            merged = real_smote(rows, minority_label, cfg)
            return Dataset(merged.schema, np.vstack([merged.features, test.features[i:i + 1]]),
                           np.append(merged.labels, test.labels[i]))

        monkeypatch.setattr(pipeline, "run_smote", leaky)
        for level in (0.0, 0.3):  # noise on the copy must not hide it
            cfg = config(small_table, tmp_path / "leak", noise=NoiseConfig(level=level))
            with pytest.raises(StageError) as info:
                run_pipeline(cfg)
            assert info.value.stage == "perturb"
            assert not (tmp_path / "leak").exists()  # the guard runs before any write
        assert forks == []  # and before the writer is forked


ARTIFACTS = ["eval_dt.json", "eval_nb.json", "released.csv", "risk.json", "run_manifest.json"]


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the release write overlap the audit and evaluation, on any machine."""
    monkeypatch.setattr(data_module, "_available_cpus", lambda: 2)


@needs_fork
class TestOverlappedWrite:
    """run_stages writes released.csv in a forked child while the audit and
    classifiers run, and leaves a complete artifact set or none."""

    def test_artifact_listing(self, small_table, tmp_path, two_cpus, forks):
        run_pipeline(config(small_table, tmp_path / "run"))
        assert len(forks) == 1
        assert sorted(os.listdir(tmp_path / "run")) == ARTIFACTS  # no temporary file

    def test_write_csv_called_in_this_process(self, small_table, tmp_path, two_cpus, monkeypatch):
        # bench/tracing.py wraps pipeline.write_csv and counts the rows of its
        # first argument; a call made in a child would be lost to it
        data, _, _ = small_table
        calls = []
        real = pipeline.write_csv

        def recorder(*args, **kwargs):
            calls.append((os.getpid(), args[0]))
            return real(*args, **kwargs)
        monkeypatch.setattr(pipeline, "write_csv", recorder)
        cfg = config(small_table, tmp_path / "run")
        for i, seed in enumerate((5, 6)):
            released, _, _ = pipeline.run_stages(data, cfg, seed, tmp_path / f"point{i}")
            assert len(calls) == i + 1
            assert calls[-1][0] == os.getpid()
            assert calls[-1][1] is released

    @pytest.mark.parametrize("stage, target", [("audit", "risk_report"), ("evaluate", "evaluate")])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
    def test_stage_failure_leaves_the_tree(self, small_table, tmp_path, two_cpus, forks,
                                           monkeypatch, stage, target, existing):
        def failing(*args):
            raise ValidationError(f"{target} failed")
        monkeypatch.setattr(pipeline, target, failing)
        out = tmp_path / "root" / "run"
        if existing:
            out.mkdir(parents=True)
            (out / "released.csv").write_text("an earlier release")
        with pytest.raises(StageError) as info:
            run_pipeline(config(small_table, out))
        assert info.value.stage == stage
        assert len(forks) == 1  # the writer had started
        if existing:
            assert os.listdir(out) == ["released.csv"]
            assert (out / "released.csv").read_text() == "an earlier release"
        else:
            assert os.listdir(tmp_path) == []

    def test_writer_killed_leaves_no_artifact(self, small_table, tmp_path, two_cpus):
        data, _, _ = small_table
        cfg = config(small_table, tmp_path / "run")
        dying = Dataset(data.schema, data.features, [ExitingLabel(v) for v in data.labels])
        with pytest.raises(RuntimeError, match="wait status"):
            pipeline.run_stages(dying, cfg, 77, tmp_path / "run")
        assert os.listdir(tmp_path) == []

    def test_landscape_point_bytes_do_not_depend_on_the_cpus(self, tmp_path, monkeypatch, forks):
        files = {}
        for cpus in (1, 2):
            monkeypatch.setattr(data_module, "_available_cpus", lambda: cpus)
            forks.clear()
            files[cpus] = landscape_point(tmp_path, f"cpus{cpus}")
            assert len(forks) == cpus - 1
        assert sorted(files[2]) == ["eval_dt.json", "eval_knn.json", "eval_nb.json",
                                    "released.csv", "risk.json", "sweep.csv"]
        assert files[1] == files[2]

    def test_landscape_point_bytes_without_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_module, "_available_cpus", lambda: 2)
        forked = landscape_point(tmp_path, "forked")
        monkeypatch.delattr(os, "fork")  # the codec forks only where os.fork exists
        assert landscape_point(tmp_path, "serial") == forked


def landscape_point(tmp_path, name):
    """The sweep.csv and point artifacts of one landscape-sized point run
    into ``tmp_path / name``, by file name, less run_manifest.json (it names
    its directory)."""
    if not (tmp_path / "input.csv").exists():
        data = make_surrogate(3000, seed=1729)
        write_csv(data, tmp_path / "input.csv")
        data.schema.save(tmp_path / "schema.json")
    cfg = PipelineConfig(
        input=str(tmp_path / "input.csv"), schema=str(tmp_path / "schema.json"),
        minority_label=12, smote=SmoteConfig(amount_percent=500, neighbors=5),
        noise=NoiseConfig(level=0.3), k=2, classifiers=("knn", "nb", "dt"),
        seed=20240101, out_dir=str(tmp_path / name))
    run_sweep(cfg, SweepGrid((0.3,), (500,), (2,)))
    out = Path(cfg.out_dir)
    point = out / point_dir_name(0.3, 500, 2)
    return {path.name: path.read_bytes() for path in
            [out / "sweep.csv", *point.glob("*.csv"), *point.glob("*.json")]
            if path.name != "run_manifest.json"}


class TestRunSweep:
    def test_singleton_grid_matches_run_pipeline(self, small_table, tmp_path):
        cfg = config(small_table, tmp_path / "sweep1")
        grid = SweepGrid((0.3,), (200,), (2,))
        report = run_sweep(cfg, grid)
        assert len(report.rows) == 2  # one per classifier
        assert {r.classifier for r in report.rows} == {"nb", "dt"}
        assert all(r.status == "ok" for r in report.rows)

        point = Path(cfg.out_dir) / point_dir_name(0.3, 200, 2)
        assert (point / "released.csv").exists()
        eval_nb = json.loads((point / "eval_nb.json").read_text())
        row_nb = next(r for r in report.rows if r.classifier == "nb")
        assert row_nb.accuracy == pytest.approx(eval_nb["accuracy"], abs=1e-12)
        risk = json.loads((point / "risk.json").read_text())
        assert row_nb.risk == pytest.approx(risk["risk"], abs=1e-12)

    def test_row_count_and_order(self, small_table, tmp_path):
        cfg = config(small_table, tmp_path / "sweep2")
        grid = SweepGrid((0.3, 0.1), (100, 200), (2,))
        report = run_sweep(cfg, grid)
        assert len(report.rows) == len(grid) * len(cfg.classifiers)
        coords = [(r.noise_level, r.smote_amount, r.k) for r in report.rows]
        assert coords == sorted(coords)  # stable sorted order, not completion order

    def test_failing_point_isolated(self, small_table, tmp_path):
        # neighbors=5 with a tiny remainder subset fails at E=110 but not E=100
        cfg = config(small_table, tmp_path / "sweep3",
                     smote=SmoteConfig(amount_percent=100, neighbors=5))
        grid = SweepGrid((0.1,), (100, 110), (2,))
        report = run_sweep(cfg, grid)
        by_amount = {}
        for row in report.rows:
            by_amount.setdefault(row.smote_amount, set()).add(row.status)
        assert by_amount[100] == {"ok"}
        assert by_amount[110] == {"failed"}
        failed = next(r for r in report.rows if r.status == "failed")
        assert failed.error.startswith("smote: NotEnoughRecords: "), failed.error
        assert failed.accuracy is None

    def test_programming_error_propagates(self, small_table, tmp_path, monkeypatch):
        # only library errors are isolated per point; a bug must surface
        def broken(*args, **kwargs):
            raise TypeError("bug in a stage")

        monkeypatch.setattr(pipeline, "perturb", broken)
        cfg = config(small_table, tmp_path / "bug")
        with pytest.raises(TypeError):
            run_sweep(cfg, SweepGrid((0.1,), (100,), (2,)))

    def test_csv_deterministic_across_runs(self, small_table, tmp_path):
        grid = SweepGrid((0.0, 0.3), (100,), (2,))
        cfg_a = config(small_table, tmp_path / "da")
        cfg_b = config(small_table, tmp_path / "db")
        run_sweep(cfg_a, grid)
        run_sweep(cfg_b, grid)
        a = (Path(cfg_a.out_dir) / "sweep.csv").read_bytes()
        b = (Path(cfg_b.out_dir) / "sweep.csv").read_bytes()
        assert a == b

    def test_json_round_trip(self, small_table, tmp_path):
        cfg = config(small_table, tmp_path / "sweep4")
        report = run_sweep(cfg, SweepGrid((0.1,), (100,), (2,)))
        loaded = SweepReport.load_json(Path(cfg.out_dir) / "sweep.json")
        assert loaded == report

    @pytest.mark.parametrize("table, method", [("sweep.csv", "to_csv"), ("sweep.json", "to_json")])
    def test_table_failing_partway(self, small_table, tmp_path, monkeypatch, table, method):
        grid = SweepGrid((0.1,), (100,), (2,))
        cfg = config(small_table, tmp_path / "sweep")
        run_sweep(cfg, grid)
        out = Path(cfg.out_dir)
        before = {name: (out / name).read_bytes() for name in ("sweep.csv", "sweep.json")}

        def partial(self, path):
            Path(path).write_text("noise_level,smo")
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(SweepReport, method, partial)
        with pytest.raises(IoFailure, match="No space left"):
            run_sweep(cfg, grid)
        assert {name: (out / name).read_bytes() for name in before} == before
        point = point_dir_name(0.1, 100, 2)
        assert sorted(os.listdir(out)) == [point, "sweep.csv", "sweep.json"]  # no temporary file
        fresh = config(small_table, tmp_path / "fresh")
        with pytest.raises(IoFailure):
            run_sweep(fresh, grid)
        # sweep.csv is written before sweep.json
        assert sorted(os.listdir(fresh.out_dir)) == ([point] if table == "sweep.csv"
                                                     else [point, "sweep.csv"])


class TestSweepGrid:
    @pytest.mark.parametrize("levels, shared", [
        ((0.3, 0.3), "g0.3_E100_k2"),
        ((0.1, 0.1000001), "g0.1_E100_k2"),
    ], ids=["repeated", "alike-to-six-digits"])
    def test_points_sharing_an_output_directory_rejected(self, levels, shared):
        # the second point would overwrite the first one's released.csv and risk.json
        with pytest.raises(ConfigInvalid, match=shared):
            SweepGrid(levels, (100,), (2,))

    def test_distinct_points_accepted(self):
        grid = SweepGrid((0.1, 0.100001), (100, 200), (2, 3))
        assert len({point_dir_name(*point) for point in grid.points()}) == len(grid) == 8


@pytest.fixture(scope="module")
def sweep_report(small_table, tmp_path_factory):
    cfg = config(small_table, tmp_path_factory.mktemp("emit"), classifiers=("nb", "dt"))
    grid = SweepGrid((0.1, 0.3), (100, 200), (2,))
    return run_sweep(cfg, grid)


class TestEmitPlotData:
    def test_file_counts_by_grouping(self, sweep_report, tmp_path):
        written = emit_plot_data(sweep_report, tmp_path)
        names = sorted(p.name for p in written)
        assert names == [
            "accuracy_vs_noise_E100_k2.csv",
            "accuracy_vs_noise_E200_k2.csv",
            "risk_vs_smote_g0.1_k2.csv",
            "risk_vs_smote_g0.3_k2.csv",
        ]

    def test_headers_exact(self, sweep_report, tmp_path):
        emit_plot_data(sweep_report, tmp_path)
        acc_header = (tmp_path / "accuracy_vs_noise_E100_k2.csv").read_text().splitlines()[0]
        risk_header = (tmp_path / "risk_vs_smote_g0.1_k2.csv").read_text().splitlines()[0]
        assert acc_header == "g,classifier,accuracy"
        assert risk_header == "smote_percent,risk"

    def test_round_trip_matches_report(self, sweep_report, tmp_path):
        emit_plot_data(sweep_report, tmp_path)
        with open(tmp_path / "accuracy_vs_noise_E200_k2.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            match = next(
                r for r in sweep_report.rows
                if r.smote_amount == 200 and r.classifier == row["classifier"]
                and r.noise_level == float(row["g"])
            )
            assert abs(match.accuracy - float(row["accuracy"])) < 1e-9
        with open(tmp_path / "risk_vs_smote_g0.3_k2.csv", newline="") as fh:
            risk_rows = list(csv.DictReader(fh))
        for row in risk_rows:
            match = next(
                r for r in sweep_report.rows
                if r.noise_level == 0.3 and r.smote_amount == int(row["smote_percent"])
            )
            assert abs(match.risk - float(row["risk"])) < 1e-9

    def test_empty_report_rejected(self):
        with pytest.raises(ConfigInvalid):
            emit_plot_data(SweepReport(()), ".")

    def test_table_failing_partway(self, sweep_report, tmp_path, monkeypatch):
        complete = {path.name: path.read_bytes() for path in emit_plot_data(sweep_report, tmp_path / "a")}
        first, second = sorted(complete)[:2]
        out = tmp_path / "b"
        out.mkdir()
        (out / second).write_text("an earlier table")
        tables = []

        def writer(fh):  # the second table fails after its header and one row
            real = csv.writer(fh)
            tables.append(fh)
            if len(tables) != 2:
                return real

            def writerows(rows):
                real.writerow(next(iter(rows)))
                raise OSError(errno.ENOSPC, "No space left on device")
            return SimpleNamespace(writerow=real.writerow, writerows=writerows)
        monkeypatch.setattr(pipeline, "csv", SimpleNamespace(writer=writer))
        with pytest.raises(IoFailure, match="No space left"):
            emit_plot_data(sweep_report, out)
        assert sorted(os.listdir(out)) == [first, second]  # no temporary file
        assert (out / first).read_bytes() == complete[first]
        assert (out / second).read_text() == "an earlier table"

    def test_failed_first_table_removes_the_directories_it_made(self, sweep_report, tmp_path,
                                                                monkeypatch):
        def writer(fh):
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(pipeline, "csv", SimpleNamespace(writer=writer))
        with pytest.raises(IoFailure, match="No space left"):
            emit_plot_data(sweep_report, tmp_path / "plots" / "run")
        assert os.listdir(tmp_path) == []


class TestConfigSerialization:
    def test_round_trip(self, small_table, tmp_path):
        cfg = config(small_table, tmp_path / "cfg",
                     qi=QuasiIdentifierSpec(("acc_chest_x",), {"acc_chest_x": 5}))
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize("full", [False, True], ids=["defaults", "fully-specified"])
    def test_round_trip_defaults_and_full(self, full):
        if full:
            cfg = PipelineConfig(
                input="in.csv", schema="schema.json", minority_label="m",
                smote=SmoteConfig(amount_percent=370, neighbors=3, minkowski_q=3.0),
                noise=NoiseConfig(level=0.6, model="full_covariance"),
                k=5, qi=QuasiIdentifierSpec(("a", "b"), {"a": 4, "b": "drop"}),
                classifiers=("svm", "knn"), test_fraction=0.25, seed=11, out_dir="run",
            )
        else:
            # the defaults of from_dict are the defaults of the dataclasses
            cfg = PipelineConfig("in.csv", "schema.json", 12, SmoteConfig(), NoiseConfig())
            assert PipelineConfig.from_dict(
                {"input": "in.csv", "schema": "schema.json", "minority_label": 12}
            ) == cfg
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("extra, named", [
        ({"nosie": {"level": 0.3}}, "nosie"),
        ({"classifier": ["nb"]}, "classifier"),
        ({"smote": {"neighbours": 3}}, "neighbours"),
        ({"smote": {"seed": 4}}, "seed"),
        ({"noise": {"seed": 4}}, "seed"),
    ], ids=["top-level", "singular", "smote", "smote-seed", "noise-seed"])
    def test_unknown_key_rejected(self, extra, named):
        payload = {"input": "in.csv", "schema": "schema.json", "minority_label": 12, **extra}
        with pytest.raises(ConfigInvalid, match=named):
            PipelineConfig.from_dict(payload)

    def test_validation(self, small_table, tmp_path):
        with pytest.raises(ConfigInvalid):
            config(small_table, tmp_path, k=0)
        with pytest.raises(ConfigInvalid):
            config(small_table, tmp_path, classifiers=("mystery",))
        with pytest.raises(ConfigInvalid):
            config(small_table, tmp_path, test_fraction=1.5)


@pytest.mark.parametrize("call, fragment", [
    (lambda: PipelineConfig("in.csv", "schema.json", 1, SmoteConfig(), NoiseConfig(),
                            classifiers=()), "at least one classifier required"),
    (lambda: SweepGrid(noise_levels=0.3), "grid axes must be lists of numbers"),
    (lambda: SweepGrid(noise_levels=()), "grid axes must be non-empty"),
    (lambda: SweepGrid(noise_levels=(-0.1,)), "noise levels must be >= 0"),
    (lambda: SweepGrid(smote_amounts=(0,)), "oversampling amounts must be >= 1"),
    (lambda: SweepGrid(k_values=(0,)), "k values must be >= 1"),
], ids=["no-classifiers", "scalar-axis", "empty-axis", "negative-noise", "zero-amount",
        "zero-k"])
def test_guard_rejects(call, fragment):
    with pytest.raises(ConfigInvalid, match=fragment):
        call()
