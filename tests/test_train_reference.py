"""nn.train against the per-tensor training loop it replaced.

The reference below is the earlier implementation: a loss-only forward
pass before every backward pass, a DenseNet rebuilt after every step, and
an Adam update that allocates new parameter and moment arrays. The
current loop takes one forward pass per step and updates one flat buffer
in place, with the same elementwise arithmetic in the same order, so
every parameter and loss must be equal to the last bit.
"""

import numpy as np
import pytest

from resfault import nn
from resfault.config import TrainingSettings
from resfault.models import AE_KIND, OC_KIND, layer_dims


def reference_backward(net, inp, target):
    pre_acts, acts = nn.forward_activations(net, inp)
    n = acts[0].shape[0]
    delta = 2.0 * (acts[-1] - target) / n
    output = net.n_layers - 1
    grads_w = [None] * net.n_layers
    grads_b = [None] * net.n_layers
    for l in range(output, -1, -1):
        if l < output:  # a hidden layer: ReLU
            delta = delta * (pre_acts[l] > 0.0).astype(np.float64)
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ net.weights[l]
    out = []
    for w, b in zip(grads_w, grads_b):
        out.extend([w, b])
    return out


def reference_adam_step(params, grads, moments, t, cfg):
    new_params, new_moments = [], []
    for p, g, (m, v) in zip(params, grads, moments):
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        new_params.append(p - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS))
        new_moments.append((m, v))
    return new_params, new_moments


def reference_train(net, train_set, val_set, cfg, seed):
    x_train, y_train = train_set
    x_val, y_val = val_set
    rng = np.random.default_rng(seed)
    params = [p.copy() for p in net.params()]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    t = 0
    n = x_train.shape[0]
    best_val = np.inf
    best_epoch = 0
    best_params = [p.copy() for p in params]
    bad_streak = 0
    train_losses, val_losses = [], []
    epochs_run = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        running = 0.0
        live = net.with_params(params)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            xb, yb = x_train[batch], y_train[batch]
            running += nn.loss_mse(nn.forward(live, xb), yb) * len(batch)
            grads = reference_backward(live, xb, yb)
            t += 1
            params, moments = reference_adam_step(params, grads, moments, t, cfg)
            live = net.with_params(params)
        train_losses.append(running / n)
        val_loss = nn.loss_mse(nn.forward(live, x_val), y_val)
        val_losses.append(val_loss)
        epochs_run = epoch + 1
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = [p.copy() for p in params]
            bad_streak = 0
        else:
            bad_streak += 1
            if bad_streak >= cfg.patience:
                break
    return best_params, train_losses, val_losses, best_epoch, epochs_run


def assert_same_as_reference(net, train_set, val_set, cfg, seed):
    params, train_losses, val_losses, best_epoch, epochs_run = reference_train(
        net, train_set, val_set, cfg, seed
    )
    result = nn.train(net, train_set, val_set, cfg, seed)
    assert result.train_losses == train_losses
    assert result.val_losses == val_losses
    assert result.best_epoch == best_epoch
    assert result.epochs_run == epochs_run
    got = result.net.params()
    assert len(got) == len(params)
    for a, b in zip(got, params):
        np.testing.assert_array_equal(a, b)
    return result


def ae_data(rng, n_train, n_val, n_z=18):
    z = rng.normal(size=(n_train + n_val, n_z))
    return (z[:n_train], z[:n_train]), (z[n_train:], z[n_train:])


def oc_data(rng, n_train, n_val, n_w=4, n_x=14):
    w = rng.normal(size=(n_train + n_val, n_w))
    x = np.tanh(w @ rng.normal(size=(n_w, n_x))) + 0.1 * rng.normal(size=(len(w), n_x))
    return (w[:n_train], x[:n_train]), (w[n_train:], x[n_train:])


@pytest.mark.parametrize("seed", [0, 7])
def test_ae_dims_ragged_last_batch(rng, seed):
    # 301 rows in batches of 64: the last batch holds 45 rows
    train_set, val_set = ae_data(rng, 301, 60)
    net = nn.init_weights(layer_dims(AE_KIND, 4, 14), seed=seed)
    cfg = TrainingSettings(epochs=6, batch_size=64, patience=6)
    result = assert_same_as_reference(net, train_set, val_set, cfg, seed)
    assert result.epochs_run == 6


@pytest.mark.parametrize("seed", [1, 3])
def test_oc_dims_ragged_last_batch(rng, seed):
    train_set, val_set = oc_data(rng, 250, 50)
    net = nn.init_weights(layer_dims(OC_KIND, 4, 14), seed=seed)
    cfg = TrainingSettings(epochs=5, batch_size=64, patience=5, learning_rate=0.003)
    assert_same_as_reference(net, train_set, val_set, cfg, seed)


def test_early_stopping_fires(rng):
    train_set, val_set = oc_data(rng, 130, 40)
    net = nn.init_weights(layer_dims(OC_KIND, 4, 14), seed=5)
    cfg = TrainingSettings(epochs=40, batch_size=32, patience=1, learning_rate=0.05)
    result = assert_same_as_reference(net, train_set, val_set, cfg, seed=2)
    assert result.epochs_run < cfg.epochs
    assert result.best_epoch < result.epochs_run - 1


def test_unshuffled_single_batch(rng):
    # 40 rows in batches of 64: every epoch is one batch holding all rows,
    # so the shuffle only reorders rows inside that batch
    train_set, val_set = ae_data(rng, 40, 10, n_z=6)
    net = nn.init_weights(layer_dims(AE_KIND, 2, 4), seed=4)
    cfg = TrainingSettings(epochs=4, batch_size=64, patience=4)
    assert_same_as_reference(net, train_set, val_set, cfg, seed=0)
