"""Measure how much classifier utility a release retains.

Models train on the released (oversampled + perturbed) data and are tested
on a clean held-out split, the way a data consumer would use the release.

    python demos/03_classifier_utility.py
"""

from privsynth import (
    NoiseConfig,
    SmoteConfig,
    evaluate,
    make_classifier,
    make_surrogate,
    perturb,
    run_smote,
    stratified_split,
)

data = make_surrogate(3000, seed=7)
train, test = stratified_split(data, 0.3, seed=1)

print("clean baselines (train on the raw split):")
for name in ("knn", "nb", "dt"):
    report = evaluate(make_classifier(name), train, test)
    print(f"  {name}: accuracy={report.accuracy:.4f} macro_f={report.macro_f_measure:.4f}")

print("\nutility of the privacy-preserving release (E=500%, level 0.3):")
released = perturb(run_smote(train, 12, SmoteConfig(500, 5, seed=3)),
                   NoiseConfig(level=0.3, seed=4))
for name in ("knn", "nb", "dt"):
    report = evaluate(make_classifier(name), released, test)
    print(f"  {name}: accuracy={report.accuracy:.4f} macro_f={report.macro_f_measure:.4f}")
