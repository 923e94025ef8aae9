import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resfault import nn
from resfault.config import TrainingSettings
from resfault.errors import ComputeError
from gradcheck import backward_fresh, finite_diff_grad


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
    """Smallest |pre-activation| over the hidden (ReLU) layers."""
    pre_acts, _ = nn.forward_activations(net, x)
    worst = np.inf
    for z in pre_acts[:-1]:
        worst = min(worst, float(np.abs(z).min()))
    return worst


class TestForward:
    def test_zero_net_gives_zero(self):
        net = nn.DenseNet([np.zeros((2, 3))], [np.zeros(2)])
        np.testing.assert_array_equal(nn.forward(net, np.ones((4, 3))), 0.0)

    def test_identity_linear_layer(self):
        net = nn.DenseNet([np.eye(3)], [np.zeros(3)])
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


class TestDenseNet:
    def test_widths_follow_from_the_weights(self):
        net = nn.DenseNet([np.zeros((5, 3)), np.zeros((2, 5))], [np.zeros(5), np.zeros(2)])
        assert net.layer_dims == (3, 5, 2)
        assert net.n_layers == 2

    @pytest.mark.parametrize(
        "weights, biases",
        [
            ([], []),
            ([np.zeros((2, 3))], []),
            ([np.zeros((2, 3))], [np.zeros(2), np.zeros(2)]),
            ([np.zeros(3)], [np.zeros(1)]),
            ([np.zeros((2, 3, 1))], [np.zeros(2)]),
            ([np.zeros((4, 3)), np.zeros((2, 5))], [np.zeros(4), np.zeros(2)]),
            ([np.zeros((2, 3))], [np.zeros(3)]),
            ([np.zeros((2, 3))], [np.zeros((2, 1))]),
        ],
    )
    def test_inconsistent_shapes_rejected(self, weights, biases):
        message = "one weight matrix and bias vector per layer required|layer [01]: (weight|bias)"
        with pytest.raises(ComputeError, match=f"^({message})"):
            nn.DenseNet(weights, biases)


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


class TestBackward:
    def test_zero_gradient_at_exact_fit(self, rng):
        net = random_net(rng, dims=(3, 2))
        x = rng.normal(size=(4, 3))
        target = nn.forward(net, x)
        _, grads = backward_fresh(net, x, target)
        for g in grads.params():
            np.testing.assert_array_equal(g, 0.0)

    def test_single_linear_neuron_closed_form(self):
        # y = w*x, loss (w*x - t)^2, dL/dw = 2x(w*x - t)
        w0, x0, t0 = 1.7, 0.6, -0.9
        net = nn.DenseNet([np.array([[w0]])], [np.zeros(1)])
        _, grads = backward_fresh(net, np.array([[x0]]), np.array([[t0]]))
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
            _, analytic = backward_fresh(net, x, t)
            numeric = finite_diff_grad(net, x, t, h=1e-5)
            assert relative_grad_errors(analytic, numeric) < 1e-5
            checked += 1

    def test_relu_derivative_at_exactly_zero_is_zero(self):
        # the hidden unit's pre-activation is exactly 0, so nothing flows
        # back through it: only the output bias gets a gradient
        net = nn.DenseNet([np.zeros((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
        _, grads = backward_fresh(net, np.array([[0.8]]), np.array([[1.0]]))
        np.testing.assert_array_equal(grads.weights[0], 0.0)
        np.testing.assert_array_equal(grads.biases[0], 0.0)
        np.testing.assert_array_equal(grads.weights[1], 0.0)
        np.testing.assert_array_equal(grads.biases[1], -2.0)

    def test_array_likes_taken_like_arrays(self, rng):
        net = random_net(rng, dims=(3, 4, 2))
        x = rng.normal(size=(5, 3))
        t = rng.normal(size=(5, 2))
        loss, want = backward_fresh(net, x, t)
        got_loss, got = backward_fresh(net, x.tolist(), t.tolist())
        assert got_loss == loss
        for a, b in zip(got.params(), want.params()):
            np.testing.assert_array_equal(a, b)

    def test_every_grad_entry_overwritten(self, rng):
        # a NaN-filled buffer must come back holding exactly the gradient a
        # fresh buffer gets: an entry left unwritten would keep its NaN
        net = random_net(rng, dims=(4, 6, 3, 2))
        x = rng.normal(size=(9, 4))
        t = rng.normal(size=(9, 2))
        loss, fresh = backward_fresh(net, x, t)
        grad = net.with_params([np.full_like(p, np.nan) for p in net.params()])
        assert nn.backward(net, x, t, grad) == loss
        for got, want in zip(grad.params(), fresh.params()):
            assert np.isfinite(got).all()
            np.testing.assert_array_equal(got, want)


class TestFiniteDiff:
    def test_exact_on_quadratic(self):
        # single linear weight: loss (w*x - t)^2 is quadratic, central
        # differences are exact up to roundoff
        net = nn.DenseNet([np.array([[2.0]])], [np.zeros(1)])
        g = finite_diff_grad(net, np.array([[1.0]]), np.array([[0.5]]), h=1e-3)
        np.testing.assert_allclose(g.weights[0][0, 0], 2 * (2.0 - 0.5), rtol=1e-9)

    def test_near_zero_at_stationary_point(self):
        net = nn.DenseNet([np.array([[3.0]])], [np.zeros(1)])
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
            param = np.array([1.0])
            state = nn.AdamState.init(param, beta1=0.9, beta2=0.999, lr=0.001)
            out, _ = nn.adam_step(param, np.array([g]), state)
            delta = out[0] - 1.0
            assert abs(delta - (-0.001 * math.copysign(1.0, g))) < 1e-6

    def test_zero_gradient_keeps_params(self):
        param = np.array([2.0, -1.0])
        state = nn.AdamState.init(param, beta1=0.9, beta2=0.999, lr=0.001)
        for _ in range(3):
            param, state = nn.adam_step(param, np.zeros(2), state)
        np.testing.assert_array_equal(param, [2.0, -1.0])

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

        param = np.array([0.5])
        state = nn.AdamState.init(param, beta1=0.9, beta2=0.999, lr=0.001)
        for _ in range(2):
            param, state = nn.adam_step(param, np.array([1.0]), state)
        assert state.step_count == 2
        np.testing.assert_allclose(param[0], theta, atol=1e-12)

    def test_updates_in_place(self):
        buffer = np.array([1.0, 2.0])
        state = nn.AdamState.init(buffer, beta1=0.9, beta2=0.999, lr=0.001)
        out, out_state = nn.adam_step(buffer, np.array([0.5, -0.5]), state)
        assert out is buffer
        assert out_state is state and state.step_count == 1
        g_scale = 1.0 - state.beta1
        np.testing.assert_array_equal(state.first_moment, [g_scale * 0.5, g_scale * -0.5])


class TestTrain:
    def linear_task(self, rng, n=256):
        x = rng.uniform(-1, 1, size=(n, 1))
        return x, 2.0 * x

    def test_learns_doubling_map(self, rng):
        x, y = self.linear_task(rng, n=8704)
        net = nn.init_weights((1, 1), seed=3)
        cfg = TrainingSettings(epochs=70, batch_size=64, patience=70)
        result = nn.train(net, (x[:8192], y[:8192]), (x[8192:], y[8192:]), cfg, seed=0)
        assert result.val_losses[result.best_epoch] < 1e-4

    def test_patience_zero_stops_at_first_non_improvement(self, rng):
        x, y = self.linear_task(rng, n=64)
        net = nn.init_weights((1, 4, 1), seed=1)
        cfg = TrainingSettings(epochs=50, batch_size=16, patience=0, learning_rate=0.5)
        result = nn.train(net, (x, y), (x, y), cfg, seed=0)
        # the run ends exactly one epoch after the best one
        assert result.epochs_run == result.best_epoch + 2 or result.epochs_run == 50

    def test_same_seed_bit_identical(self, rng):
        x, y = self.linear_task(rng, n=100)
        cfg = TrainingSettings(epochs=8, batch_size=16, patience=8)
        runs, nets = [], []
        for _ in range(2):
            nets.append(nn.init_weights((1, 3, 1), seed=5))
            runs.append(nn.train(nets[-1], (x[:80], y[:80]), (x[80:], y[80:]), cfg, seed=11))
        assert runs[0].train_losses == runs[1].train_losses
        assert runs[0].val_losses == runs[1].val_losses
        for a, b in zip(nets[0].params(), nets[1].params()):
            np.testing.assert_array_equal(a, b)

    def test_final_loss_below_initial(self, rng):
        x = rng.normal(size=(120, 2))
        y = x @ np.array([[1.0], [-0.5]]) + 0.3
        net = nn.init_weights((2, 8, 1), seed=2)
        cfg = TrainingSettings(epochs=30, batch_size=32, patience=30)
        result = nn.train(net, (x[:100], y[:100]), (x[100:], y[100:]), cfg, seed=4)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_equal_validation_loss_is_no_improvement(self, rng):
        # an exact fit has a zero gradient, so every epoch repeats the
        # first epoch's validation loss; a tie must count against patience
        x, y = self.linear_task(rng, n=40)
        net = nn.DenseNet([np.array([[2.0]])], [np.zeros(1)])
        cfg = TrainingSettings(epochs=6, batch_size=8, patience=2)
        result = nn.train(net, (x[:30], y[:30]), (x[30:], y[30:]), cfg, seed=0)
        assert result.val_losses == [0.0] * 3
        assert result.best_epoch == 0
        assert result.epochs_run == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_loss_raises(self, rng):
        # before this check a NaN loss never beat best_val, so train
        # returned the untrained initial weights without complaint
        x, y = self.linear_task(rng, n=64)
        net = nn.init_weights((1, 8, 1), seed=1)
        cfg = TrainingSettings(epochs=3, batch_size=16, patience=3, learning_rate=1e300)
        with pytest.raises(ComputeError, match="^epoch 0: training loss") as err:
            nn.train(net, (x, y), (x, y), cfg, seed=0)
        assert "epoch 0" in str(err.value)
        assert err.value.exit_code == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_loss_raises(self, rng):
        x, y = self.linear_task(rng, n=64)
        y_val = y.copy()
        y_val[3, 0] = np.inf
        net = nn.init_weights((1, 4, 1), seed=1)
        cfg = TrainingSettings(epochs=3, batch_size=16, patience=3)
        message = r"^epoch 0: training loss \S+, validation loss inf;"
        with pytest.raises(ComputeError, match=message):
            nn.train(net, (x, y), (x, y_val), cfg, seed=0)

    def test_backward_returns_batch_loss(self, rng):
        net = random_net(rng)
        x = rng.normal(size=(5, net.layer_dims[0]))
        t = rng.normal(size=(5, net.layer_dims[-1]))
        assert backward_fresh(net, x, t)[0] == nn.loss_mse(nn.forward(net, x), t)

    def test_returns_best_epoch_weights(self, rng):
        x, y = self.linear_task(rng, n=80)
        net = nn.init_weights((1, 2, 1), seed=9)
        cfg = TrainingSettings(epochs=25, batch_size=8, patience=25)
        result = nn.train(net, (x[:60], y[:60]), (x[60:], y[60:]), cfg, seed=2)
        restored_loss = nn.loss_mse(nn.forward(net, x[60:]), y[60:])
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

    def test_default_activations(self, rng):
        # ReLU on every hidden layer, linear output
        net = nn.init_weights((4, 8, 8, 2), seed=0)
        assert net.layer_dims == (4, 8, 8, 2) and net.n_layers == 3
        pre_acts, acts = nn.forward_activations(net, rng.normal(size=(50, 4)))
        for z, a in zip(pre_acts[:-1], acts[1:-1]):
            np.testing.assert_array_equal(a, np.maximum(z, 0.0))
        assert (pre_acts[-1] < 0).any()
        np.testing.assert_array_equal(acts[-1], pre_acts[-1])


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_gradient_property_random_nets(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    x = rng.normal(size=(2, net.layer_dims[0]))
    t = rng.normal(size=(2, net.layer_dims[-1]))
    if min_relu_preactivation(net, x) < 1e-4:
        return
    _, analytic = backward_fresh(net, x, t)
    numeric = finite_diff_grad(net, x, t, h=1e-5)
    assert relative_grad_errors(analytic, numeric) < 1e-5
