import numpy as np
import pytest

from resfault import nn
from resfault.config import TrainingSettings
from resfault.errors import ComputeError
from resfault.models import (
    AE_KIND,
    OC_KIND,
    ResidualModel,
    io_blocks,
    layer_dims,
    residual_ae,
    residual_oc,
    train,
)
from resfault.preprocess import Standardizer


def unit_standardizer():
    return Standardizer(mean=np.zeros(18), std=np.ones(18))


def identity_ae_net() -> nn.DenseNet:
    """Hand-built net that reproduces positive inputs that are 0 past the
    bottleneck width.

    Each layer embeds the signal in its first units; ReLU is the identity on
    positive values, so forward(net, z) == z for such z.
    """
    dims = layer_dims(AE_KIND)
    weights = []
    biases = []
    for l in range(len(dims) - 1):
        w = np.zeros((dims[l + 1], dims[l]))
        for i in range(min(dims[l + 1], dims[l])):
            w[i, i] = 1.0
        weights.append(w)
        biases.append(np.zeros(dims[l + 1]))
    return nn.DenseNet(weights, biases)


def fleet_rows(w, x):
    """Rows of the fleet layout: ``w`` and ``x`` fill the leading descriptor
    and sensor columns, and the rest are 0."""
    z = np.zeros((len(w), 18))
    z[:, : w.shape[1]] = w
    z[:, 4 : 4 + x.shape[1]] = x
    return z


class TestResidualAe:
    def test_identity_net_zero_residuals(self, rng):
        model = ResidualModel(AE_KIND, net=identity_ae_net(), standardizer=unit_standardizer())
        z = np.zeros((20, 18))
        z[:, :8] = rng.uniform(0.1, 1.0, size=(20, 8))
        np.testing.assert_allclose(residual_ae(model, z), 0.0, atol=1e-15)

    def test_zero_output_net_residual_equals_input(self, rng):
        net = identity_ae_net()
        zeroed = net.with_params([np.zeros_like(p) for p in net.params()])
        model = ResidualModel(AE_KIND, net=zeroed, standardizer=unit_standardizer())
        z = rng.normal(size=(10, 18))
        np.testing.assert_array_equal(residual_ae(model, z), z)

    def test_matches_forward_then_subtract(self, rng):
        net = nn.init_weights(layer_dims(AE_KIND), seed=12)
        model = ResidualModel(AE_KIND, net=net, standardizer=unit_standardizer())
        z = rng.normal(size=(15, 18))
        expected = z - nn.forward(net, z)
        np.testing.assert_allclose(residual_ae(model, z), expected, atol=1e-12)
        assert residual_ae(model, z).shape == (15, 18)

    def test_bottleneck_embedding_width(self, rng):
        net = nn.init_weights(layer_dims(AE_KIND), seed=3)
        model = ResidualModel(AE_KIND, net=net, standardizer=unit_standardizer())
        emb = model.embed(rng.normal(size=(9, 18)))
        assert emb.shape == (9, 8)

    def test_wrong_dims_rejected(self):
        net = nn.init_weights((18, 16, 18), seed=0)
        dims = r"expected layer dims \(18, 128, 8, 128, 18\), got \(18, 16, 18\)"
        with pytest.raises(ComputeError, match=f"AE model: {dims}"):
            ResidualModel(AE_KIND, net=net, standardizer=unit_standardizer())

    def test_unknown_kind_rejected(self):
        net = nn.init_weights(layer_dims(AE_KIND), seed=0)
        with pytest.raises(ValueError, match="unknown model kind"):
            ResidualModel("VAE", net=net, standardizer=unit_standardizer())
        with pytest.raises(ValueError, match="unknown model kind 'VAE'"):
            io_blocks("VAE", np.zeros((2, 18)))


class TestResidualOc:
    def test_exact_match_gives_zeros(self, rng):
        net = nn.init_weights(layer_dims(OC_KIND), seed=5)
        model = ResidualModel(OC_KIND, net=net, standardizer=unit_standardizer())
        w = rng.normal(size=(12, 4))
        x = nn.forward(net, w)
        np.testing.assert_array_equal(residual_oc(model, w, x), 0.0)

    def test_zero_output_net_residual_equals_sensors(self, rng):
        net = nn.init_weights(layer_dims(OC_KIND), seed=1)
        zeroed = net.with_params([np.zeros_like(p) for p in net.params()])
        model = ResidualModel(OC_KIND, net=zeroed, standardizer=unit_standardizer())
        w = rng.normal(size=(8, 4))
        x = rng.normal(size=(8, 14))
        np.testing.assert_array_equal(residual_oc(model, w, x), x)

    def test_matches_independent_evaluation(self, rng):
        net = nn.init_weights(layer_dims(OC_KIND), seed=9)
        model = ResidualModel(OC_KIND, net=net, standardizer=unit_standardizer())
        w = rng.normal(size=(10, 4))
        x = rng.normal(size=(10, 14))
        expected = x - nn.forward(net, w)
        np.testing.assert_allclose(residual_oc(model, w, x), expected, atol=1e-12)
        assert residual_oc(model, w, x).shape == (10, 14)


class TestTrainAe:
    def test_beats_mean_predictor_on_correlated_data(self, rng):
        # 18 channels driven by 2 latent factors: reconstructable through
        # the bottleneck, so the model must beat predicting the mean
        latent = rng.normal(size=(1500, 2))
        mix = rng.normal(size=(2, 18))
        z = latent @ mix + 0.05 * rng.normal(size=(1500, 18))
        z_train, z_val = z[:1200], z[1200:]
        cfg = TrainingSettings(epochs=40, batch_size=64, patience=40, learning_rate=0.01)
        model, result = train(
            AE_KIND, z_train, z_val, cfg, seed=0, standardizer=unit_standardizer()
        )
        mean_predictor_loss = ((z_val - z_train.mean(axis=0)) ** 2).sum(axis=1).mean()
        assert result.val_losses[result.best_epoch] < mean_predictor_loss

    def test_constant_data_near_zero_error(self):
        row = np.zeros(18)
        row[:4] = [0.3, -0.2, 0.5, 0.1]
        z = np.tile(row, (256, 1))
        cfg = TrainingSettings(epochs=70, batch_size=32, patience=70, learning_rate=0.01)
        model, result = train(AE_KIND, z, z[:32], cfg, seed=1, standardizer=unit_standardizer())
        assert result.val_losses[result.best_epoch] < 1e-3

    def test_deterministic(self, rng):
        z = rng.normal(size=(200, 18))
        cfg = TrainingSettings(epochs=3, batch_size=32, patience=3)
        a, _ = train(AE_KIND, z[:160], z[160:], cfg, seed=7, standardizer=unit_standardizer())
        b, _ = train(AE_KIND, z[:160], z[160:], cfg, seed=7, standardizer=unit_standardizer())
        for pa, pb in zip(a.net.params(), b.net.params()):
            np.testing.assert_array_equal(pa, pb)


class TestTrainOc:
    def test_learns_exact_linear_map(self, rng):
        a_map = rng.normal(size=(2, 3))
        w = rng.uniform(-1, 1, size=(2400, 2))
        x = w @ a_map
        cfg = TrainingSettings(epochs=70, batch_size=64, patience=70, learning_rate=0.01)
        z = fleet_rows(w, x)
        model, result = train(
            OC_KIND, z[:2048], z[2048:], cfg, seed=2, standardizer=unit_standardizer()
        )
        assert result.val_losses[result.best_epoch] < 1e-3

    def test_irreducible_noise_floor(self, rng):
        sigma = 0.3
        w = rng.uniform(-1, 1, size=(3000, 4))
        x = sigma * rng.normal(size=(3000, 14))  # independent of w
        cfg = TrainingSettings(epochs=25, batch_size=64, patience=25)
        z = fleet_rows(w, x)
        model, result = train(
            OC_KIND, z[:2400], z[2400:], cfg, seed=3, standardizer=unit_standardizer()
        )
        floor = 14 * sigma**2
        best = result.val_losses[result.best_epoch]
        assert 0.7 * floor < best < 1.3 * floor

    def test_fault_increases_residual_on_injected_channel(self, rng):
        a_map = rng.normal(size=(4, 14))
        w = rng.uniform(-1, 1, size=(1500, 4))
        x = w @ a_map + 0.05 * rng.normal(size=(1500, 14))
        cfg = TrainingSettings(epochs=30, batch_size=64, patience=30, learning_rate=0.01)
        z = fleet_rows(w, x)
        model, _ = train(
            OC_KIND, z[:1200], z[1200:], cfg, seed=4, standardizer=unit_standardizer()
        )
        w_test, x_test = w[1200:], x[1200:]
        healthy = np.abs(residual_oc(model, w_test, x_test)).mean(axis=0)
        x_faulty = x_test.copy()
        x_faulty[:, 1] += 1.0  # far above the 0.05 noise level
        faulty = np.abs(residual_oc(model, w_test, x_faulty)).mean(axis=0)
        assert faulty[1] > healthy[1]

    def test_healthy_residual_mean_is_small(self, rng):
        a_map = rng.normal(size=(4, 14))
        w = rng.uniform(-1, 1, size=(1500, 4))
        x = w @ a_map + 0.05 * rng.normal(size=(1500, 14))
        cfg = TrainingSettings(epochs=30, batch_size=64, patience=30, learning_rate=0.01)
        z = fleet_rows(w, x)
        model, _ = train(
            OC_KIND, z[:1200], z[1200:], cfg, seed=5, standardizer=unit_standardizer()
        )
        r = residual_oc(model, w[1200:], x[1200:])
        mean_mag = np.abs(r.mean(axis=0))
        channel_std = x[1200:].std(axis=0)
        assert np.all(mean_mag < 0.5 * channel_std)
