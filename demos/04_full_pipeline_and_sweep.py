"""Run the end-to-end pipeline and a small parameter sweep.

The pipeline loads a CSV, splits off a clean test set, oversamples the
minority activity, perturbs the merged table, audits the release, and
evaluates classifiers. The sweep repeats it over a (noise level,
oversampling amount) grid and emits per-figure plot tables.

    python demos/04_full_pipeline_and_sweep.py
"""

import tempfile
from pathlib import Path

from privsynth import (
    NoiseConfig,
    PipelineConfig,
    SmoteConfig,
    SweepGrid,
    emit_plot_data,
    make_surrogate,
    run_pipeline,
    run_sweep,
    write_csv,
)

with tempfile.TemporaryDirectory(prefix="privsynth-demo-") as tmp:
    workdir = Path(tmp)
    data = make_surrogate(3000, seed=7)
    write_csv(data, workdir / "sensors.csv")
    data.schema.save(workdir / "schema.json")
    print(f"wrote input table and schema under {workdir} (removed at exit)")

    cfg = PipelineConfig(
        input=str(workdir / "sensors.csv"),
        schema=str(workdir / "schema.json"),
        minority_label=12,
        smote=SmoteConfig(amount_percent=500, neighbors=5),
        noise=NoiseConfig(level=0.3),
        k=2,
        classifiers=("knn", "nb", "dt"),
        test_fraction=0.3,
        seed=42,
        out_dir=str(workdir / "run"),
    )

    released, risk, reports = run_pipeline(cfg)
    print(f"\nheadline run (level 0.3, E=500%, k=2): released {len(released)} records")
    print(f"  risk={risk.risk:.4f} k-anonymous={risk.satisfies_k_anonymity}")
    for report in reports:
        print(f"  {report.classifier}: accuracy={report.accuracy:.4f}")
    print("  artifacts:", sorted(p.name for p in Path(cfg.out_dir).iterdir()))

    grid = SweepGrid(noise_levels=(0.1, 0.3, 0.6), smote_amounts=(130, 500), k_values=(2,))
    report = run_sweep(
        PipelineConfig(
            input=cfg.input, schema=cfg.schema, minority_label=cfg.minority_label,
            smote=cfg.smote, noise=cfg.noise, k=cfg.k, classifiers=("nb", "dt"),
            test_fraction=cfg.test_fraction, seed=cfg.seed,
            out_dir=str(workdir / "sweep"),
        ),
        grid,
    )
    print(f"\nsweep over {len(grid)} grid points -> {len(report.rows)} report rows")
    for row in report.rows:
        if row.classifier == "dt":
            print(f"  g={row.noise_level} E={row.smote_amount}: "
                  f"dt accuracy={row.accuracy:.4f} risk={row.risk:.4f}")

    plots = emit_plot_data(report, workdir / "plots")
    print("\nplot tables:", sorted(p.name for p in plots))
