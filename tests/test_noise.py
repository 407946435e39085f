import math

import numpy as np
import pytest
from scipy.special import ndtr

from privsynth.data import Dataset, Schema
from privsynth.errors import ConfigInvalid, TooFewRecords, ValidationError
from privsynth.noise import (
    GaussianModel,
    NoiseConfig,
    estimate_covariance,
    perturb,
    sample_noise,
)


def table(feats, labels=None):
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    schema = Schema(
        tuple((f"f{i}", "numeric") for i in range(feats.shape[1])) + (("label", "label"),)
    )
    if labels is None:
        labels = ["a"] * feats.shape[0]
    return Dataset(schema, feats, np.array(labels, dtype=object))


class TestEstimateCovariance:
    def test_identical_records_zero_covariance(self):
        model = estimate_covariance(table([[2.0, 3.0]] * 5))
        assert np.array_equal(model.covariance, np.zeros((2, 2)))
        assert np.array_equal(model.mean, [2.0, 3.0])

    def test_hand_case_two_points(self):
        # {(0,0), (2,2)}: mean (1,1); population covariance [[1,1],[1,1]]
        model = estimate_covariance(table([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(model.mean, [1.0, 1.0], atol=1e-15)
        assert np.allclose(model.covariance, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)

    def test_population_convention(self):
        # divides by n, not n-1
        values = np.array([[0.0], [1.0], [2.0]])
        model = estimate_covariance(table(values))
        assert model.covariance[0, 0] == pytest.approx(values.var(ddof=0), abs=1e-15)

    def test_independent_columns_vanishing_offdiagonal(self):
        n = 10_000
        rng = np.random.default_rng(42)
        model = estimate_covariance(table(rng.normal(size=(n, 3))))
        sigma_stat = 1.0 / math.sqrt(n)
        off = model.covariance[~np.eye(3, dtype=bool)]
        assert (np.abs(off) < 3.0 * sigma_stat).all()

    def test_too_few_records(self):
        with pytest.raises(TooFewRecords):
            estimate_covariance(table([[1.0, 2.0]]))


class TestGaussianModel:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            GaussianModel(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(ValidationError):
            GaussianModel(np.zeros(2), np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_psd_tolerance_scales_with_the_covariance(self):
        # at scale 1e12 the floor is -100: -10 is rounding, -1e3 a real direction
        GaussianModel(np.zeros(2), np.diag([1e12, -10.0]))
        with pytest.raises(ValidationError):
            GaussianModel(np.zeros(2), np.diag([1e12, -1e3]))


class TestSampleNoise:
    def test_zero_covariance_gives_zeros(self):
        model = GaussianModel(np.zeros(3), np.zeros((3, 3)))
        out = sample_noise(model, 10, seed=1)
        assert np.array_equal(out, np.zeros((10, 3)))

    def test_identity_covariance_statistics(self):
        model = GaussianModel(np.zeros(2), np.eye(2))
        out = sample_noise(model, 100_000, seed=7)
        assert np.abs(out.mean(axis=0)).max() < 0.02
        assert np.abs(out.var(axis=0, ddof=0) - 1.0).max() < 0.03

    def test_mean_field_ignored(self):
        model = GaussianModel(np.array([100.0]), np.eye(1))
        out = sample_noise(model, 50_000, seed=3)
        assert abs(out.mean()) < 0.05

    def test_correlated_covariance_recovered(self):
        cov = np.array([[2.0, 1.2], [1.2, 1.0]])
        model = GaussianModel(np.zeros(2), cov)
        out = sample_noise(model, 200_000, seed=11)
        sample_cov = out.T @ out / len(out)
        assert np.allclose(sample_cov, cov, atol=0.05)

    def test_deterministic(self):
        model = GaussianModel(np.zeros(2), np.eye(2))
        assert np.array_equal(sample_noise(model, 5, seed=9), sample_noise(model, 5, seed=9))

    def test_rank_deficient_ok_non_psd_rejected(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = sample_noise(GaussianModel(np.zeros(2), singular), 100, seed=2)
        assert np.allclose(out[:, 0], out[:, 1], atol=1e-12)
        with pytest.raises(ValidationError):
            GaussianModel(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1e-6]]))


class TestPerturb:
    def test_zero_level_is_exact_identity(self):
        data = table(np.random.default_rng(0).normal(size=(50, 3)))
        out = perturb(data, NoiseConfig(level=0.0, seed=5))
        assert np.array_equal(out.features, data.features)

    def test_noise_std_tracks_attribute_spread(self):
        # attribute with sigma 10 at level 0.3 -> noise std 3.0 within 2%
        n = 100_000
        rng = np.random.default_rng(1)
        base = rng.normal(0.0, 10.0, size=(n, 1))
        data = table(base)
        out = perturb(data, NoiseConfig(level=0.3, seed=8))
        noise = out.features - data.features
        expected = 0.3 * base.std(ddof=0)
        assert noise.std(ddof=0) == pytest.approx(expected, rel=0.02)

    def test_constant_attribute_unchanged(self):
        feats = np.column_stack([np.full(200, 7.0), np.random.default_rng(2).normal(size=200)])
        data = table(feats)
        out = perturb(data, NoiseConfig(level=0.8, seed=3))
        assert np.array_equal(out.features[:, 0], feats[:, 0])
        assert not np.array_equal(out.features[:, 1], feats[:, 1])

    def test_labels_bit_identical(self):
        data = table(np.random.default_rng(3).normal(size=(40, 2)),
                     labels=["a", "b"] * 20)
        out = perturb(data, NoiseConfig(level=1.0, seed=4))
        assert out.labels.tolist() == data.labels.tolist()

    def test_mean_shift_bounded(self):
        n = 100_000
        rng = np.random.default_rng(5)
        data = table(rng.normal(size=(n, 2)))
        out = perturb(data, NoiseConfig(level=0.5, seed=6))
        shift = (out.features - data.features).mean(axis=0)
        sigma = data.features.std(axis=0, ddof=0)
        assert (np.abs(shift) < 3.0 * 0.5 * sigma / math.sqrt(n)).all()

    def test_variance_ratio_window(self):
        n = 100_000
        rng = np.random.default_rng(9)
        data = table(rng.normal(0, 4.0, size=(n, 1)))
        out = perturb(data, NoiseConfig(level=0.7, seed=10))
        noise_var = (out.features - data.features).var(ddof=0)
        target = (0.7 * data.features.std(ddof=0)) ** 2
        assert 0.95 <= noise_var / target <= 1.05

    def test_noise_is_normal_ks(self):
        # one-dimensional KS statistic of standardized noise, n = 10^4
        n = 10_000
        rng = np.random.default_rng(12)
        data = table(rng.normal(size=(n, 1)))
        cfg = NoiseConfig(level=0.4, seed=13)
        out = perturb(data, cfg)
        sigma = 0.4 * data.features.std(ddof=0)
        z = np.sort(((out.features - data.features) / sigma).ravel())
        cdf = ndtr(z)
        grid = np.arange(1, n + 1) / n
        ks = max(np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1.0 / n)).max())
        assert ks < 1.63 / math.sqrt(n)

    def test_full_covariance_mode(self):
        rng = np.random.default_rng(14)
        base = rng.multivariate_normal([0, 0], [[4.0, 2.4], [2.4, 2.0]], size=60_000)
        data = table(base)
        out = perturb(data, NoiseConfig(level=0.5, model="full_covariance", seed=15))
        noise = out.features - data.features
        observed = noise.T @ noise / len(noise)
        expected = 0.25 * estimate_covariance(data).covariance
        assert np.allclose(observed, expected, atol=0.05)

    @pytest.mark.parametrize("spread", [1e3, 1e4])
    def test_duplicated_channels_full_covariance(self, spread):
        # a channel logged twice (or rescaled) makes K singular, and the
        # rounding in its zero eigenvalues grows with the scale of K
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(8.0 * spread, spread, 400)
            t, h, z = rng.normal(20, 5, 400), rng.normal(50, 10, 400), rng.normal(size=400)
            for feats in (np.column_stack([x, x, t, h]), np.column_stack([x, 2 * x, x / 3, z])):
                data = table(feats)
                out = perturb(data, NoiseConfig(level=0.3, model="full_covariance", seed=1))
                # the copies get the same noise, up to the square root of a
                # rounding-size eigenvalue
                noise = out.features - feats
                assert np.allclose(noise[:, 1], noise[:, 0] * feats[0, 1] / feats[0, 0],
                                   rtol=0, atol=1e-6 * spread)
                model = estimate_covariance(data)
                scale = np.abs(model.covariance).max()
                assert np.allclose(model.factor @ model.factor.T, model.covariance,
                                   rtol=0, atol=1e-12 * scale)
                for array in (model.mean, model.covariance, model.factor):
                    assert not array.flags.writeable

    def test_deterministic(self):
        data = table(np.random.default_rng(20).normal(size=(30, 2)))
        a = perturb(data, NoiseConfig(level=0.3, seed=21))
        b = perturb(data, NoiseConfig(level=0.3, seed=21))
        assert np.array_equal(a.features, b.features)

    def test_negative_level_rejected(self):
        with pytest.raises(ConfigInvalid):
            NoiseConfig(level=-0.1)

    @pytest.mark.parametrize("level", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_level_rejected(self, level):
        # NaN < 0 is False, so a sign check alone lets NaN through
        with pytest.raises(ConfigInvalid):
            NoiseConfig(level=level)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: GaussianModel(np.zeros(2), np.eye(3)), ValidationError,
     "mean must be length d and covariance d x d"),
    (lambda: sample_noise(GaussianModel(np.zeros(2), np.eye(2)), -1, 0), ConfigInvalid,
     "count must be non-negative"),
], ids=["shape-mismatch", "negative-count"])
def test_guard_rejects(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
