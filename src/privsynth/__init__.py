"""privsynth: privacy-preserving tabular data release.

Synthesizes minority-class records by nearest-neighbour interpolation, adds
Gaussian perturbation scaled to the data's own spread, audits the release
with a k-anonymity equivalence-class model, and measures how much classifier
utility the released data retains.
"""

from .anonymity import (
    EquivalenceClasses,
    QuasiIdentifierSpec,
    RiskReport,
    check_k_anonymity,
    equivalence_classes,
    generalize,
    risk_report,
)
from .classifiers import (
    DecisionTreeClassifier,
    DecisionTreeModel,
    KnnClassifier,
    NaiveBayesClassifier,
    make_classifier,
)
from .data import (
    Dataset,
    Schema,
    concat_datasets,
    derive_seed,
    load_csv,
    shuffle_class_subset,
    stratified_split,
    write_csv,
)
from .metrics import ConfusionMatrix, EvalReport, evaluate, f_measure, precision, recall
from .noise import (
    GaussianModel,
    NoiseConfig,
    estimate_covariance,
    perturb,
    sample_noise,
)
from .pipeline import (
    PipelineConfig,
    SweepGrid,
    SweepReport,
    emit_plot_data,
    run_pipeline,
    run_sweep,
)
from .smote import (
    NeighborTable,
    SmoteConfig,
    generate_synthetic,
    minkowski_distance,
    nearest_neighbors,
    run_smote,
    synthetic_count,
)
from .surrogate import make_surrogate, surrogate_schema

__version__ = "0.1.0"

__all__ = [
    "ConfusionMatrix",
    "Dataset",
    "DecisionTreeClassifier",
    "DecisionTreeModel",
    "EquivalenceClasses",
    "EvalReport",
    "GaussianModel",
    "KnnClassifier",
    "NaiveBayesClassifier",
    "NeighborTable",
    "NoiseConfig",
    "PipelineConfig",
    "QuasiIdentifierSpec",
    "RiskReport",
    "Schema",
    "SmoteConfig",
    "SweepGrid",
    "SweepReport",
    "check_k_anonymity",
    "concat_datasets",
    "derive_seed",
    "emit_plot_data",
    "equivalence_classes",
    "estimate_covariance",
    "evaluate",
    "f_measure",
    "generalize",
    "generate_synthetic",
    "load_csv",
    "make_classifier",
    "make_surrogate",
    "minkowski_distance",
    "nearest_neighbors",
    "perturb",
    "precision",
    "recall",
    "risk_report",
    "run_pipeline",
    "run_smote",
    "run_sweep",
    "sample_noise",
    "shuffle_class_subset",
    "stratified_split",
    "surrogate_schema",
    "synthetic_count",
    "write_csv",
]
