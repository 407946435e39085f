"""Gaussian perturbation of numeric tables.

Covers covariance estimation, zero-mean noise sampling through the symmetric
factor each :class:`GaussianModel` holds, and the additive release step
``output = input + noise``. Two noise shapes are supported:

- ``diagonal_scaled`` (default): each attribute gets independent noise with
  standard deviation ``g * sigma_a``, where ``sigma_a`` is that attribute's
  own spread in the input. The level g is therefore a unit-free knob that
  means the same thing for every column.
- ``full_covariance``: noise drawn with covariance ``g^2 * K`` where K is the
  input's estimated covariance matrix.

Labels are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigInvalid, TooFewRecords, ValidationError

DIAGONAL_SCALED = "diagonal_scaled"
FULL_COVARIANCE = "full_covariance"

# an eigenvalue down to -_PSD_TOL times the matrix's scale (its largest
# eigenvalue magnitude, at least 1) is a rounding zero: eigh's backward error is
# about d * eps relative, and an n-row covariance estimate's about n * eps
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class NoiseConfig:
    """Perturbation parameters: finite level g >= 0, noise model, seed."""

    level: float = 0.0
    model: str = DIAGONAL_SCALED
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.level) or self.level < 0:
            raise ConfigInvalid(f"noise level must be finite and >= 0, got {self.level}")
        if self.model not in (DIAGONAL_SCALED, FULL_COVARIANCE):
            raise ConfigInvalid(f"unknown noise model {self.model!r}")


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector and symmetric PSD covariance, as read-only copies, with the
    read-only factor ``A`` (``A A^T = covariance``) that every noise draw uses.
    The one PSD check, relative to the covariance's scale, is made here."""

    mean: np.ndarray
    covariance: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64)
        cov = np.array(self.covariance, dtype=np.float64)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValidationError("mean must be length d and covariance d x d")
        if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
            raise ValidationError("covariance must be symmetric within 1e-12")
        eigvals, eigvecs = np.linalg.eigh(cov)
        lowest = eigvals.min(initial=0.0)
        if lowest < -_PSD_TOL * max(1.0, np.abs(eigvals).max(initial=0.0)):
            raise ValidationError(f"covariance not PSD: min eigenvalue {lowest:.3e}")
        factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        for name, value in (("mean", mean), ("covariance", cov), ("factor", factor)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.mean.size


def estimate_covariance(data: Dataset) -> GaussianModel:
    """Column means and the population covariance (1/n) sum (x-mu)(x-mu)^T.

    Raises:
        TooFewRecords: fewer than 2 records.
    """
    x = data.features
    n = x.shape[0]
    if n < 2:
        raise TooFewRecords(f"covariance needs >= 2 records, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / n
    cov = (cov + cov.T) / 2.0  # kill float asymmetry exactly
    return GaussianModel(mean, cov)


def sample_noise(model: GaussianModel, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` zero-mean Gaussian vectors with the model's covariance.

    The model's mean field is ignored: noise is centred by definition.
    Standard normal deviates are pushed through the model's symmetric factor,
    so any covariance the model accepted works, rank-deficient ones included.
    """
    if count < 0:
        raise ConfigInvalid("count must be non-negative")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, model.dim))
    return z @ model.factor.T


def perturb(data: Dataset, cfg: NoiseConfig) -> Dataset:
    """Release ``data + noise`` with the label column bit-identical.

    With ``level == 0`` the numeric values are returned exactly unchanged.
    In ``diagonal_scaled`` mode attribute ``a`` receives independent noise of
    standard deviation ``level * std(a)``; constant attributes therefore stay
    constant. In ``full_covariance`` mode the noise covariance is
    ``level^2 * K`` with K estimated from the input.
    """
    feats = data.features
    if cfg.level == 0.0:
        return Dataset(data.schema, feats, data.labels)

    if cfg.model == DIAGONAL_SCALED:
        scale = cfg.level * feats.std(axis=0, ddof=0)
        rng = np.random.default_rng(cfg.seed)
        noise = rng.standard_normal(feats.shape) * scale
    else:
        cov = (cfg.level ** 2) * estimate_covariance(data).covariance
        noise = sample_noise(GaussianModel(np.zeros(len(cov)), cov), len(data), cfg.seed)
    return Dataset(data.schema, feats + noise, data.labels)
