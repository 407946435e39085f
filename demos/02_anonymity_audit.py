"""Audit a release with the k-anonymity equivalence-class model.

Continuous channels are generalized by equal-width binning; records that
share every generalized quasi-identifier value form an equivalence class,
and a record is at risk when its class holds fewer than k members.

    python demos/02_anonymity_audit.py
"""

from privsynth import (
    NoiseConfig,
    QuasiIdentifierSpec,
    SmoteConfig,
    check_k_anonymity,
    equivalence_classes,
    make_surrogate,
    perturb,
    risk_report,
    run_smote,
)

data = make_surrogate(3000, seed=7)
released = perturb(run_smote(data, 12, SmoteConfig(500, 5, seed=3)),
                   NoiseConfig(level=0.3, seed=4))

spec = QuasiIdentifierSpec.all_numeric(released.schema)  # every channel, 10 bins
classes = equivalence_classes(released, spec)
print(f"released {len(released)} records -> {len(classes.groups)} equivalence classes")

for k in (1, 2, 5):
    report = risk_report(classes, k)
    print(f"k={k}: risk={report.risk:.4f} at_risk={report.at_risk_count} "
          f"k-anonymous={report.satisfies_k_anonymity}")
    assert check_k_anonymity(classes, k) == report.satisfies_k_anonymity

# coarser bins merge classes and can only lower the risk
print("\ncoarsening the generalization (fewer bins):")
for bins in (10, 5, 2):
    spec = QuasiIdentifierSpec.all_numeric(released.schema, bins=bins)
    report = risk_report(equivalence_classes(released, spec), 2)
    print(f"  {bins:>2} bins per channel: risk={report.risk:.4f}")

# "drop" leaves a channel out of the audit key; the release still carries it
names = released.schema.feature_names
spec = QuasiIdentifierSpec(
    tuple(names), {names[0]: "drop", **{n: 10 for n in names[1:]}}
)
report = risk_report(equivalence_classes(released, spec), 2)
print(f"\nwith {names[0]} dropped: risk={report.risk:.4f}")
