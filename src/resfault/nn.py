"""Minimal dense feed-forward network trained with Adam.

Everything runs in 64-bit floats and all randomness flows from explicit
seeds, so two runs with the same seed produce bit-identical weights. The
loss is the mean over the batch of squared Euclidean residual norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainingSettings
from .errors import EmptyDataset, NonFiniteLoss, ShapeMismatch

ADAM_EPS = 1e-8


def _interleave(weights: list[np.ndarray], biases: list[np.ndarray]) -> list[np.ndarray]:
    """[W0, b0, W1, b1, ...]: the one parameter order of nets and their gradients."""
    return [p for pair in zip(weights, biases) for p in pair]


@dataclass(frozen=True)
class DenseNet:
    """Fully connected network: weights[l] has shape (d_{l+1}, d_l).

    Every hidden layer is ReLU and the output layer is linear.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ShapeMismatch("one weight matrix and bias vector per layer required")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise ShapeMismatch(f"layer {l}: weight shape {w.shape} is not 2-D")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ShapeMismatch(
                    f"layer {l}: weight shape {w.shape} does not take the "
                    f"{self.weights[l - 1].shape[0]} outputs of layer {l - 1}"
                )
            if b.shape != (w.shape[0],):
                raise ShapeMismatch(f"layer {l}: bias shape {b.shape} != {(w.shape[0],)}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def params(self) -> list[np.ndarray]:
        """Interleaved [W0, b0, W1, b1, ...] view of the parameters."""
        return _interleave(self.weights, self.biases)

    def with_params(self, params: list[np.ndarray]) -> "DenseNet":
        return DenseNet(list(params[0::2]), list(params[1::2]))


def init_weights(layer_dims: tuple[int, ...] | list[int], seed: int) -> DenseNet:
    """Seeded uniform init scaled by 1/sqrt(fan_in), zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if any(d < 1 for d in dims):
        raise ValueError("all layer dims must be >= 1")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for l in range(len(dims) - 1):
        bound = 1.0 / np.sqrt(dims[l])
        weights.append(rng.uniform(-bound, bound, size=(dims[l + 1], dims[l])))
        biases.append(np.zeros(dims[l + 1]))
    return DenseNet(weights, biases)


def _as_batch(arr: np.ndarray, width: int, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ShapeMismatch(f"{what} must be a batch of width {width}, got shape {arr.shape}")
    return arr


def forward(net: DenseNet, inp: np.ndarray) -> np.ndarray:
    """Affine + activation composition over a 2-D batch of rows."""
    a = _as_batch(inp, net.weights[0].shape[1], "input")
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ w.T + b, 0.0)
    return a @ net.weights[-1].T + net.biases[-1]


def forward_activations(net: DenseNet, inp: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass keeping every pre-activation and activation.

    Returns (pre_acts, acts) where acts[0] is the input batch and
    acts[l+1] is ReLU(pre_acts[l]) on a hidden layer, pre_acts[l] at the output.
    """
    a = _as_batch(inp, net.weights[0].shape[1], "input")
    pre_acts: list[np.ndarray] = []
    acts: list[np.ndarray] = [a]
    last = net.n_layers - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        pre_acts.append(z)
        acts.append(np.maximum(z, 0.0) if l < last else z)
    return pre_acts, acts


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over a 2-D batch of squared Euclidean residual norms."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise ShapeMismatch(
            f"pred and target must be 2-D batches of one shape: {pred.shape}, {target.shape}"
        )
    diff = pred - target
    return float(np.sum(diff * diff) / diff.shape[0])


@dataclass
class Gradients:
    """Per-layer weight and bias gradients, shaped like the parameters.

    ``loss`` is the batch loss the gradients were taken at.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss: float

    def params(self) -> list[np.ndarray]:
        """Interleaved like DenseNet.params()."""
        return _interleave(self.weights, self.biases)


def backward(net: DenseNet, inp: np.ndarray, target: np.ndarray) -> Gradients:
    """Gradients of loss_mse(forward(net, inp), target) for every parameter.

    One forward pass gives both the gradients and the loss they belong to.
    """
    target = _as_batch(target, net.weights[-1].shape[0], "target")
    pre_acts, acts = forward_activations(net, inp)
    if acts[-1].shape != target.shape:
        raise ShapeMismatch("input and target batch sizes differ")
    n = acts[0].shape[0]
    diff = acts[-1] - target
    loss = float(np.sum(diff * diff) / n)
    delta = 2.0 * diff / n
    grad_w: list[np.ndarray] = [np.empty(0)] * net.n_layers
    grad_b: list[np.ndarray] = [np.empty(0)] * net.n_layers
    for l in range(net.n_layers - 1, -1, -1):
        if l < net.n_layers - 1:
            # the derivative at exactly 0 is defined as 0
            delta *= pre_acts[l] > 0.0
        grad_w[l] = delta.T @ acts[l]
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ net.weights[l]
    return Gradients(weights=grad_w, biases=grad_b, loss=loss)


@dataclass
class AdamState:
    """Adam optimizer state: hyperparameters, step count, and moments."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    beta1: float
    beta2: float
    lr: float
    step_count: int = 0

    @classmethod
    def init(cls, param: np.ndarray, beta1: float, beta2: float, lr: float) -> "AdamState":
        return cls(np.zeros_like(param), np.zeros_like(param), beta1, beta2, lr)


def adam_step(
    param: np.ndarray, grad: np.ndarray, state: AdamState
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of a parameter array, in place.

    The parameter array, the moments and the step count of ``state`` are
    updated in place; the same array and state are returned. Each element
    goes through the operations of ``m = beta1*m + (1-beta1)*g``,
    ``v = beta2*v + (1-beta2)*(g*g)`` and
    ``p = p - lr*m_hat/(sqrt(v_hat)+eps)`` in that order, so the results
    are bit-identical to those expressions.
    """
    if not param.shape == grad.shape == state.first_moment.shape:
        raise ShapeMismatch(f"param {param.shape}, grad {grad.shape} and state shapes differ")
    t = state.step_count + 1
    m, v = state.first_moment, state.second_moment
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    step = state.lr * (m / (1.0 - state.beta1**t))
    v_hat = v / (1.0 - state.beta2**t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    step /= v_hat
    param -= step
    state.step_count = t
    return param, state


@dataclass
class TrainResult:
    net: DenseNet
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int
    epochs_run: int


def _net_over(net: DenseNet, flat: np.ndarray) -> DenseNet:
    """A net like ``net`` whose parameters are views into the buffer ``flat``."""
    views = []
    offset = 0
    for p in net.params():
        views.append(flat[offset : offset + p.size].reshape(p.shape))
        offset += p.size
    return net.with_params(views)


def train(
    net: DenseNet,
    train_set: tuple[np.ndarray, np.ndarray],
    val_set: tuple[np.ndarray, np.ndarray],
    settings: TrainingSettings,
    seed: int,
) -> TrainResult:
    """Mini-batch Adam training with validation-based early stopping.

    ``seed`` drives the per-epoch shuffle of the training rows. Training
    stops once the validation loss has failed to improve for
    ``settings.patience`` consecutive epochs (or at ``settings.epochs``);
    the returned net carries the parameters of the best-validation epoch.
    Each mini-batch takes one forward pass: ``backward`` returns the batch
    loss with the gradients. The parameters live in one contiguous buffer
    that Adam updates in place. A non-finite training or validation loss
    raises NonFiniteLoss.
    """
    x_train = np.asarray(train_set[0], dtype=np.float64)
    y_train = np.asarray(train_set[1], dtype=np.float64)
    x_val = np.asarray(val_set[0], dtype=np.float64)
    y_val = np.asarray(val_set[1], dtype=np.float64)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise EmptyDataset("training and validation sets must be non-empty")
    if x_train.shape[0] != y_train.shape[0] or x_val.shape[0] != y_val.shape[0]:
        raise ShapeMismatch("inputs and targets must have equal row counts")

    rng = np.random.default_rng(seed)
    flat = np.concatenate([p.ravel() for p in net.params()])
    live = _net_over(net, flat)
    state = AdamState.init(
        flat, beta1=settings.beta1, beta2=settings.beta2, lr=settings.learning_rate
    )
    n = x_train.shape[0]

    best_val = np.inf
    best_epoch = 0
    best_flat = flat.copy()
    bad_streak = 0
    train_losses: list[float] = []
    val_losses: list[float] = []
    epochs_run = 0

    # a diverging run overflows inside the matrix products; the non-finite
    # loss check below reports it as NonFiniteLoss instead
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(settings.epochs):
            order = rng.permutation(n)
            running = 0.0
            for start in range(0, n, settings.batch_size):
                batch = order[start : start + settings.batch_size]
                grads = backward(live, x_train[batch], y_train[batch])
                running += grads.loss * len(batch)
                adam_step(flat, np.concatenate([g.ravel() for g in grads.params()]), state)
            train_loss = running / n
            val_loss = loss_mse(forward(live, x_val), y_val)
            if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
                raise NonFiniteLoss(
                    f"epoch {epoch}: training loss {train_loss}, validation loss "
                    f"{val_loss}; lower the learning rate or check the inputs"
                )
            train_losses.append(train_loss)
            val_losses.append(val_loss)
            epochs_run = epoch + 1
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_flat = flat.copy()
                bad_streak = 0
            else:
                bad_streak += 1
                if bad_streak >= settings.patience:
                    break

    return TrainResult(
        net=_net_over(net, best_flat),
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
        epochs_run=epochs_run,
    )
