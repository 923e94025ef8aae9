"""Minimal dense feed-forward network trained with Adam.

Everything runs in 64-bit floats and all randomness flows from explicit
seeds, so two runs with the same seed produce bit-identical weights. The
loss is the mean over the batch of squared Euclidean residual norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainingSettings
from .errors import ComputeError

ADAM_EPS = 1e-8


@dataclass(frozen=True)
class DenseNet:
    """Fully connected network: weights[l] has shape (d_{l+1}, d_l).

    Every hidden layer is ReLU and the output layer is linear.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ComputeError("one weight matrix and bias vector per layer required")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise ComputeError(f"layer {l}: weight shape {w.shape} is not 2-D")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ComputeError(
                    f"layer {l}: weight shape {w.shape} does not take the "
                    f"{self.weights[l - 1].shape[0]} outputs of layer {l - 1}"
                )
            if b.shape != (w.shape[0],):
                raise ComputeError(f"layer {l}: bias shape {b.shape} != {(w.shape[0],)}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def params(self) -> list[np.ndarray]:
        """Interleaved [W0, b0, W1, b1, ...] view of the parameters."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def with_params(self, params: list[np.ndarray]) -> "DenseNet":
        return DenseNet(list(params[0::2]), list(params[1::2]))


def init_weights(layer_dims: tuple[int, ...] | list[int], seed: int) -> DenseNet:
    """Seeded uniform init scaled by 1/sqrt(fan_in), zero biases, over widths >= 1."""
    dims = tuple(int(d) for d in layer_dims)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for l in range(len(dims) - 1):
        bound = 1.0 / np.sqrt(dims[l])
        weights.append(rng.uniform(-bound, bound, size=(dims[l + 1], dims[l])))
        biases.append(np.zeros(dims[l + 1]))
    return DenseNet(weights, biases)


def forward(net: DenseNet, inp: np.ndarray) -> np.ndarray:
    """Affine + activation composition over a 2-D batch of rows of the input width."""
    a = inp
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(a @ w.T + b, 0.0)
    return a @ net.weights[-1].T + net.biases[-1]


def forward_activations(net: DenseNet, inp: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass keeping every pre-activation and activation.

    Returns (pre_acts, acts) where acts[0] is the input batch and
    acts[l+1] is ReLU(pre_acts[l]) on a hidden layer, pre_acts[l] at the output.
    The caller passes rows of the net's input width.
    """
    pre_acts: list[np.ndarray] = []
    acts: list[np.ndarray] = [inp]
    last = net.n_layers - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        pre_acts.append(z)
        acts.append(np.maximum(z, 0.0) if l < last else z)
    return pre_acts, acts


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over two 2-D batches of one shape of squared Euclidean residual norms."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    diff = pred - target
    return float(np.sum(diff * diff) / diff.shape[0])


def backward(net: DenseNet, inp: np.ndarray, target: np.ndarray, grad: DenseNet) -> float:
    """Gradient of loss_mse(forward(net, inp), target), written into ``grad``.

    ``grad`` is a net of ``net``'s layer dims whose parameters are
    overwritten in place with the gradient of the matching parameters of
    ``net``. One forward pass gives both the gradient and the batch loss it
    belongs to, which is returned. The caller passes input and target
    batches of one row count, of the net's input and output widths.
    """
    pre_acts, acts = forward_activations(net, inp)
    n = len(target)
    diff = acts[-1] - target
    loss = float(np.sum(diff * diff) / n)
    delta = 2.0 * diff / n
    last = net.n_layers - 1
    for l in range(last, -1, -1):
        if l < last:
            delta = delta @ net.weights[l + 1]
            # the derivative at exactly 0 is defined as 0
            delta *= pre_acts[l] > 0.0
        np.matmul(delta.T, acts[l], out=grad.weights[l])
        np.sum(delta, axis=0, out=grad.biases[l])
    return loss


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
    are bit-identical to those expressions. Gradient and state have the
    parameter's shape.
    """
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
    """How one training ended: every epoch's losses and the best epoch."""

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
    """Mini-batch Adam training of ``net``, in place, with early stopping.

    ``seed`` drives the per-epoch shuffle of the training rows. Training
    stops once the validation loss has failed to improve for
    ``settings.patience`` consecutive epochs (or at ``settings.epochs``);
    ``net`` then holds the parameters of the best-validation epoch.
    Each mini-batch takes one forward pass: ``backward`` returns the batch
    loss and writes the gradient. The parameters live in one contiguous
    buffer, a copy of ``net``'s, that Adam updates in place; the gradient
    lives in a second flat buffer of the same layout, reused by every step. A non-finite training
    or validation loss raises ComputeError. The caller passes non-empty
    sets whose inputs and targets have equal row counts.
    """
    x_train = np.asarray(train_set[0], dtype=np.float64)
    y_train = np.asarray(train_set[1], dtype=np.float64)
    x_val = np.asarray(val_set[0], dtype=np.float64)
    y_val = np.asarray(val_set[1], dtype=np.float64)

    rng = np.random.default_rng(seed)
    flat = np.concatenate([p.ravel() for p in net.params()])
    live = _net_over(net, flat)
    grad_flat = np.empty_like(flat)
    grad = _net_over(net, grad_flat)
    state = AdamState.init(
        flat, beta1=settings.beta1, beta2=settings.beta2, lr=settings.learning_rate
    )
    n = x_train.shape[0]

    # settings.epochs >= 1, and the first epoch's loss is finite or raises, so
    # that epoch always sets best_epoch, best_flat and bad_streak
    best_val = np.inf
    train_losses: list[float] = []
    val_losses: list[float] = []

    # a diverging run overflows inside the matrix products; the non-finite
    # loss check below reports it as ComputeError instead
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(settings.epochs):
            order = rng.permutation(n)
            running = 0.0
            for start in range(0, n, settings.batch_size):
                batch = order[start : start + settings.batch_size]
                running += backward(live, x_train[batch], y_train[batch], grad) * len(batch)
                adam_step(flat, grad_flat, state)
            train_loss = running / n
            val_loss = loss_mse(forward(live, x_val), y_val)
            if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
                raise ComputeError(
                    f"epoch {epoch}: training loss {train_loss}, validation loss "
                    f"{val_loss}; lower the learning rate or check the inputs"
                )
            train_losses.append(train_loss)
            val_losses.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_flat = flat.copy()
                bad_streak = 0
            else:
                bad_streak += 1
                if bad_streak >= settings.patience:
                    break

    for param, best in zip(net.params(), _net_over(net, best_flat).params()):
        param[...] = best
    return TrainResult(
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
        epochs_run=len(val_losses),
    )
