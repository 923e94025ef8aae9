import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resfault import nn
from resfault.errors import EmptyDataset, NonFiniteLoss, ShapeMismatch
from gradcheck import finite_diff_grad


def random_net(rng, dims=None, max_layers=4, max_width=8):
    if dims is None:
        n_layers = rng.integers(2, max_layers + 1)
        dims = tuple(int(rng.integers(1, max_width + 1)) for _ in range(n_layers + 1))
    net = nn.init_weights(dims, seed=int(rng.integers(0, 2**31)))
    # nonzero biases exercise every gradient path
    for b in net.biases:
        b += rng.normal(0, 0.5, size=b.shape)
    return net


def relative_grad_errors(analytic, numeric):
    errs = []
    for a, f in zip(analytic.params(), numeric.params()):
        diff = np.abs(a - f)
        scale = np.maximum(np.abs(a), np.abs(f))
        ok_abs = diff <= 1e-7
        rel = np.where(ok_abs, 0.0, diff / np.where(scale == 0, 1.0, scale))
        errs.append(rel.max() if rel.size else 0.0)
    return max(errs)


def min_relu_preactivation(net, x):
    pre_acts, _ = nn.forward_activations(net, x)
    worst = np.inf
    for z, tag in zip(pre_acts, net.activations):
        if tag == nn.RELU:
            worst = min(worst, float(np.abs(z).min()))
    return worst


class TestForward:
    def test_zero_net_gives_zero(self):
        net = nn.DenseNet(
            (3, 2),
            [np.zeros((2, 3))],
            [np.zeros(2)],
            (nn.LINEAR,),
        )
        np.testing.assert_array_equal(nn.forward(net, np.ones((4, 3))), 0.0)

    def test_identity_linear_layer(self):
        net = nn.DenseNet((3, 3), [np.eye(3)], [np.zeros(3)], (nn.LINEAR,))
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(nn.forward(net, x), x)

    def test_matches_direct_matrix_arithmetic(self, rng):
        net = random_net(rng, dims=(4, 3, 2))
        x = rng.normal(size=(5, 4))
        # independent evaluation: explicit affine + relu + affine
        h = x @ net.weights[0].T + net.biases[0]
        h = np.where(h > 0, h, 0.0)
        expected = h @ net.weights[1].T + net.biases[1]
        np.testing.assert_allclose(nn.forward(net, x), expected, atol=1e-12)

    def test_single_row_round_trip(self, rng):
        net = random_net(rng, dims=(4, 2))
        x = rng.normal(size=4)
        batch = nn.forward(net, x[None, :])
        np.testing.assert_array_equal(nn.forward(net, x), batch[0])

    def test_width_mismatch(self, rng):
        net = random_net(rng, dims=(4, 2))
        with pytest.raises(ShapeMismatch):
            nn.forward(net, np.zeros((2, 5)))


class TestLossMse:
    def test_zero_when_equal(self, rng):
        x = rng.normal(size=(6, 3))
        assert nn.loss_mse(x, x) == 0.0

    def test_three_four_five(self):
        assert nn.loss_mse(np.array([[3.0, 4.0]]), np.zeros((1, 2))) == 25.0

    def test_matches_elementwise_accumulation(self, rng):
        pred = rng.normal(size=(7, 4))
        target = rng.normal(size=(7, 4))
        total = 0.0
        for i in range(7):
            for j in range(4):
                total += (pred[i, j] - target[i, j]) ** 2
        np.testing.assert_allclose(nn.loss_mse(pred, target), total / 7, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            nn.loss_mse(np.zeros((2, 2)), np.zeros((2, 3)))


class TestBackward:
    def test_zero_gradient_at_exact_fit(self, rng):
        net = random_net(rng, dims=(3, 2))
        x = rng.normal(size=(4, 3))
        target = nn.forward(net, x)
        grads = nn.backward(net, x, target)
        for g in grads.params():
            np.testing.assert_array_equal(g, 0.0)

    def test_single_linear_neuron_closed_form(self):
        # y = w*x, loss (w*x - t)^2, dL/dw = 2x(w*x - t)
        w0, x0, t0 = 1.7, 0.6, -0.9
        net = nn.DenseNet((1, 1), [np.array([[w0]])], [np.zeros(1)], (nn.LINEAR,))
        grads = nn.backward(net, np.array([[x0]]), np.array([[t0]]))
        expected = 2.0 * x0 * (w0 * x0 - t0)
        np.testing.assert_allclose(grads.weights[0][0, 0], expected, rtol=1e-12)

    def test_matches_finite_differences_on_random_nets(self, rng):
        checked = 0
        while checked < 5:
            net = random_net(rng)
            x = rng.normal(size=(3, net.layer_dims[0]))
            t = rng.normal(size=(3, net.layer_dims[-1]))
            if min_relu_preactivation(net, x) < 1e-4:
                continue
            analytic = nn.backward(net, x, t)
            numeric = finite_diff_grad(net, x, t, h=1e-5)
            assert relative_grad_errors(analytic, numeric) < 1e-5
            checked += 1


class TestFiniteDiff:
    def test_exact_on_quadratic(self):
        # single linear weight: loss (w*x - t)^2 is quadratic, central
        # differences are exact up to roundoff
        net = nn.DenseNet((1, 1), [np.array([[2.0]])], [np.zeros(1)], (nn.LINEAR,))
        g = finite_diff_grad(net, np.array([[1.0]]), np.array([[0.5]]), h=1e-3)
        np.testing.assert_allclose(g.weights[0][0, 0], 2 * (2.0 - 0.5), rtol=1e-9)

    def test_near_zero_at_stationary_point(self):
        net = nn.DenseNet((1, 1), [np.array([[3.0]])], [np.zeros(1)], (nn.LINEAR,))
        x = np.array([[1.0]])
        g = finite_diff_grad(net, x, nn.forward(net, x), h=1e-5)
        assert abs(g.weights[0][0, 0]) < 1e-9

    def test_positive_step_required(self, rng):
        net = random_net(rng, dims=(2, 1))
        with pytest.raises(ValueError):
            finite_diff_grad(net, np.zeros((1, 2)), np.zeros((1, 1)), h=0.0)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        for g in (0.37, -12.0, 4e-3):
            params = [np.array([1.0])]
            state = nn.AdamState.init(params)
            out, _ = nn.adam_step(params, [np.array([g])], state)
            delta = out[0][0] - 1.0
            assert abs(delta - (-0.001 * math.copysign(1.0, g))) < 1e-6

    def test_zero_gradient_keeps_params(self):
        params = [np.array([2.0, -1.0])]
        state = nn.AdamState.init(params)
        for _ in range(3):
            params, state = nn.adam_step(params, [np.zeros(2)], state)
        np.testing.assert_array_equal(params[0], [2.0, -1.0])

    def test_two_step_hand_trace(self):
        # explicit arithmetic for two updates with g = 1
        beta1, beta2, lr, eps = 0.9, 0.999, 0.001, 1e-8
        theta = 0.5
        m = v = 0.0
        for t in (1, 2):
            m = beta1 * m + (1 - beta1) * 1.0
            v = beta2 * v + (1 - beta2) * 1.0
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)

        params = [np.array([0.5])]
        state = nn.AdamState.init(params)
        for _ in range(2):
            params, state = nn.adam_step(params, [np.array([1.0])], state)
        assert state.step_count == 2
        np.testing.assert_allclose(params[0][0], theta, atol=1e-12)

    def test_updates_in_place(self):
        params = [np.array([1.0, 2.0])]
        state = nn.AdamState.init(params)
        buffer = params[0]
        out, out_state = nn.adam_step(params, [np.array([0.5, -0.5])], state)
        assert out is params and out[0] is buffer
        assert out_state is state and state.step_count == 1
        g_scale = 1.0 - nn.ADAM_BETA1
        np.testing.assert_array_equal(state.first_moment[0], [g_scale * 0.5, g_scale * -0.5])

    def test_shape_mismatch(self):
        params = [np.zeros(2)]
        state = nn.AdamState.init(params)
        with pytest.raises(ShapeMismatch):
            nn.adam_step(params, [np.zeros(3)], state)


class TestTrain:
    def linear_task(self, rng, n=256):
        x = rng.uniform(-1, 1, size=(n, 1))
        return x, 2.0 * x

    def test_learns_doubling_map(self, rng):
        x, y = self.linear_task(rng, n=8704)
        net = nn.init_weights((1, 1), seed=3, activations=(nn.LINEAR,))
        cfg = nn.TrainConfig(epochs=70, batch_size=64, patience=70, seed=0)
        result = nn.train(net, (x[:8192], y[:8192]), (x[8192:], y[8192:]), cfg)
        assert result.val_losses[result.best_epoch] < 1e-4

    def test_patience_zero_stops_at_first_non_improvement(self, rng):
        x, y = self.linear_task(rng, n=64)
        net = nn.init_weights((1, 4, 1), seed=1)
        cfg = nn.TrainConfig(epochs=50, batch_size=16, patience=0, seed=0, lr=0.5)
        result = nn.train(net, (x, y), (x, y), cfg)
        # the run ends exactly one epoch after the best one
        assert result.epochs_run == result.best_epoch + 2 or result.epochs_run == 50

    def test_same_seed_bit_identical(self, rng):
        x, y = self.linear_task(rng, n=100)
        cfg = nn.TrainConfig(epochs=8, batch_size=16, patience=8, seed=11)
        runs = []
        for _ in range(2):
            net = nn.init_weights((1, 3, 1), seed=5)
            runs.append(nn.train(net, (x[:80], y[:80]), (x[80:], y[80:]), cfg))
        assert runs[0].train_losses == runs[1].train_losses
        assert runs[0].val_losses == runs[1].val_losses
        for a, b in zip(runs[0].net.params(), runs[1].net.params()):
            np.testing.assert_array_equal(a, b)

    def test_final_loss_below_initial(self, rng):
        x = rng.normal(size=(120, 2))
        y = x @ np.array([[1.0], [-0.5]]) + 0.3
        net = nn.init_weights((2, 8, 1), seed=2)
        cfg = nn.TrainConfig(epochs=30, batch_size=32, patience=30, seed=4)
        result = nn.train(net, (x[:100], y[:100]), (x[100:], y[100:]), cfg)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_empty_dataset(self):
        net = nn.init_weights((1, 1), seed=0)
        with pytest.raises(EmptyDataset):
            nn.train(
                net,
                (np.empty((0, 1)), np.empty((0, 1))),
                (np.ones((1, 1)), np.ones((1, 1))),
                nn.TrainConfig(),
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_loss_raises(self, rng):
        # before this check a NaN loss never beat best_val, so train
        # returned the untrained initial weights without complaint
        x, y = self.linear_task(rng, n=64)
        net = nn.init_weights((1, 8, 1), seed=1)
        cfg = nn.TrainConfig(epochs=3, batch_size=16, patience=3, seed=0, lr=1e300)
        with pytest.raises(NonFiniteLoss) as err:
            nn.train(net, (x, y), (x, y), cfg)
        assert "epoch 0" in str(err.value)
        assert err.value.exit_code == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_loss_raises(self, rng):
        x, y = self.linear_task(rng, n=64)
        y_val = y.copy()
        y_val[3, 0] = np.inf
        net = nn.init_weights((1, 4, 1), seed=1)
        cfg = nn.TrainConfig(epochs=3, batch_size=16, patience=3, seed=0)
        with pytest.raises(NonFiniteLoss):
            nn.train(net, (x, y), (x, y_val), cfg)

    def test_backward_returns_batch_loss(self, rng):
        net = random_net(rng)
        x = rng.normal(size=(5, net.layer_dims[0]))
        t = rng.normal(size=(5, net.layer_dims[-1]))
        assert nn.backward(net, x, t).loss == nn.loss_mse(nn.forward(net, x), t)

    def test_returns_best_epoch_weights(self, rng):
        x, y = self.linear_task(rng, n=80)
        net = nn.init_weights((1, 2, 1), seed=9)
        cfg = nn.TrainConfig(epochs=25, batch_size=8, patience=25, seed=2)
        result = nn.train(net, (x[:60], y[:60]), (x[60:], y[60:]), cfg)
        restored_loss = nn.loss_mse(nn.forward(result.net, x[60:]), y[60:])
        np.testing.assert_allclose(restored_loss, min(result.val_losses), rtol=1e-12)


class TestInitWeights:
    def test_deterministic(self):
        a = nn.init_weights((3, 5, 2), seed=42)
        b = nn.init_weights((3, 5, 2), seed=42)
        for pa, pb in zip(a.params(), b.params()):
            np.testing.assert_array_equal(pa, pb)

    def test_fan_in_bound(self):
        net = nn.init_weights((100, 50), seed=0)
        bound = 1.0 / math.sqrt(100)
        assert np.all(np.abs(net.weights[0]) <= bound)
        assert np.all(np.abs(net.weights[0]) <= math.sqrt(6.0 / 100))

    def test_biases_zero(self):
        net = nn.init_weights((4, 4, 4), seed=1)
        for b in net.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_default_activations(self):
        net = nn.init_weights((4, 8, 8, 2), seed=0)
        assert net.activations == (nn.RELU, nn.RELU, nn.LINEAR)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_gradient_property_random_nets(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    x = rng.normal(size=(2, net.layer_dims[0]))
    t = rng.normal(size=(2, net.layer_dims[-1]))
    if min_relu_preactivation(net, x) < 1e-4:
        return
    analytic = nn.backward(net, x, t)
    numeric = finite_diff_grad(net, x, t, h=1e-5)
    assert relative_grad_errors(analytic, numeric) < 1e-5
