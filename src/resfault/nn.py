"""Minimal dense feed-forward network trained with Adam.

Everything runs in 64-bit floats and all randomness flows from explicit
seeds, so two runs with the same seed produce bit-identical weights. The
loss is the mean over the batch of squared Euclidean residual norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, NonFiniteLoss, ShapeMismatch

RELU = "relu"
LINEAR = "linear"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_LR = 0.001
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class DenseNet:
    """Fully connected network: weights[l] has shape (d_{l+1}, d_l)."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        object.__setattr__(self, "activations", tuple(self.activations))
        dims = self.layer_dims
        if len(dims) < 2:
            raise ShapeMismatch("need at least input and output layer dims")
        n_layers = len(dims) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ShapeMismatch("one weight matrix and bias vector per layer required")
        if len(self.activations) != n_layers:
            raise ShapeMismatch("one activation tag per layer required")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l + 1], dims[l]):
                raise ShapeMismatch(
                    f"layer {l}: weight shape {w.shape} != {(dims[l + 1], dims[l])}"
                )
            if b.shape != (dims[l + 1],):
                raise ShapeMismatch(f"layer {l}: bias shape {b.shape} != {(dims[l + 1],)}")
        for tag in self.activations:
            if tag not in (RELU, LINEAR):
                raise ValueError(f"unknown activation tag {tag!r}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def params(self) -> list[np.ndarray]:
        """Interleaved [W0, b0, W1, b1, ...] view of the parameters."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def with_params(self, params: list[np.ndarray]) -> "DenseNet":
        weights = [params[2 * l] for l in range(self.n_layers)]
        biases = [params[2 * l + 1] for l in range(self.n_layers)]
        return DenseNet(self.layer_dims, weights, biases, self.activations)


def default_activations(n_layers: int) -> tuple[str, ...]:
    """ReLU on every hidden layer, linear output."""
    return tuple([RELU] * (n_layers - 1) + [LINEAR])


def init_weights(
    layer_dims: tuple[int, ...] | list[int],
    seed: int,
    activations: tuple[str, ...] | None = None,
) -> DenseNet:
    """Seeded uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    dims = tuple(int(d) for d in layer_dims)
    if any(d < 1 for d in dims):
        raise ValueError("all layer dims must be >= 1")
    n_layers = len(dims) - 1
    if activations is None:
        activations = default_activations(n_layers)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for l in range(n_layers):
        bound = 1.0 / np.sqrt(dims[l])
        weights.append(rng.uniform(-bound, bound, size=(dims[l + 1], dims[l])))
        biases.append(np.zeros(dims[l + 1]))
    return DenseNet(dims, weights, biases, tuple(activations))


def _activate(z: np.ndarray, tag: str) -> np.ndarray:
    if tag == RELU:
        return np.maximum(z, 0.0)
    return z


def _as_batch(arr: np.ndarray, width: int, what: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(arr, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ShapeMismatch(f"{what} must have width {width}, got shape {arr.shape}")
    return arr, single


def forward(net: DenseNet, inp: np.ndarray) -> np.ndarray:
    """Affine + activation composition; accepts a single row or a batch."""
    a, single = _as_batch(inp, net.layer_dims[0], "input")
    for w, b, tag in zip(net.weights, net.biases, net.activations):
        a = _activate(a @ w.T + b, tag)
    return a[0] if single else a


def forward_activations(net: DenseNet, inp: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward pass keeping every pre-activation and activation.

    Returns (pre_acts, acts) where acts[0] is the input batch and
    acts[l+1] = activate(pre_acts[l]).
    """
    a, _ = _as_batch(inp, net.layer_dims[0], "input")
    pre_acts: list[np.ndarray] = []
    acts: list[np.ndarray] = [a]
    for w, b, tag in zip(net.weights, net.biases, net.activations):
        z = acts[-1] @ w.T + b
        pre_acts.append(z)
        acts.append(_activate(z, tag))
    return pre_acts, acts


def loss_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over the batch of squared Euclidean residual norms."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.ndim == 1:
        pred = pred[None, :]
        target = target[None, :]
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
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


def backward(net: DenseNet, inp: np.ndarray, target: np.ndarray) -> Gradients:
    """Gradients of loss_mse(forward(net, inp), target) for every parameter.

    One forward pass gives both the gradients and the loss they belong to.
    """
    target, _ = _as_batch(target, net.layer_dims[-1], "target")
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
        if net.activations[l] == RELU:
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

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    lr: float = ADAM_LR
    eps: float = ADAM_EPS
    step_count: int = 0

    @classmethod
    def init(
        cls,
        params: list[np.ndarray],
        beta1: float = ADAM_BETA1,
        beta2: float = ADAM_BETA2,
        lr: float = ADAM_LR,
        eps: float = ADAM_EPS,
    ) -> "AdamState":
        return cls(
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
            beta1=beta1,
            beta2=beta2,
            lr=lr,
            eps=eps,
            step_count=0,
        )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update over a parameter list, in place.

    The parameter arrays, the moments and the step count of ``state`` are
    updated in place; the same list and state are returned. Each element
    goes through the operations of ``m = beta1*m + (1-beta1)*g``,
    ``v = beta2*v + (1-beta2)*(g*g)`` and
    ``p = p - lr*m_hat/(sqrt(v_hat)+eps)`` in that order, so the results
    are bit-identical to those expressions.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeMismatch("params, grads, and state must have matching structure")
    # check every shape before the first in-place write
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param shape {p.shape} != grad shape {g.shape}")
    t = state.step_count + 1
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        step = state.lr * (m / (1.0 - state.beta1**t))
        v_hat = v / (1.0 - state.beta2**t)
        np.sqrt(v_hat, out=v_hat)
        v_hat += state.eps
        step /= v_hat
        p -= step
    state.step_count = t
    return params, state


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch training schedule with early stopping."""

    epochs: int = 70
    batch_size: int = 64
    patience: int = 10
    seed: int = 0
    shuffle: bool = True
    lr: float = ADAM_LR
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


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
    cfg: TrainConfig,
) -> TrainResult:
    """Mini-batch Adam training with validation-based early stopping.

    Training stops once the validation loss has failed to improve for
    ``patience`` consecutive epochs (or at ``epochs``); the returned net
    carries the parameters of the best-validation epoch. Each mini-batch
    takes one forward pass: ``backward`` returns the batch loss with the
    gradients. The parameters live in one contiguous buffer that Adam
    updates in place. A non-finite training or validation loss raises
    NonFiniteLoss.
    """
    x_train = np.asarray(train_set[0], dtype=np.float64)
    y_train = np.asarray(train_set[1], dtype=np.float64)
    x_val = np.asarray(val_set[0], dtype=np.float64)
    y_val = np.asarray(val_set[1], dtype=np.float64)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise EmptyDataset("training and validation sets must be non-empty")
    if x_train.shape[0] != y_train.shape[0] or x_val.shape[0] != y_val.shape[0]:
        raise ShapeMismatch("inputs and targets must have equal row counts")

    rng = np.random.default_rng(cfg.seed)
    flat = np.concatenate([p.ravel() for p in net.params()])
    live = _net_over(net, flat)
    params = [flat]
    state = AdamState.init(params, beta1=cfg.beta1, beta2=cfg.beta2, lr=cfg.lr)
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
        for epoch in range(cfg.epochs):
            order = rng.permutation(n) if cfg.shuffle else np.arange(n)
            running = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                grads = backward(live, x_train[batch], y_train[batch])
                running += grads.loss * len(batch)
                adam_step(params, [np.concatenate([g.ravel() for g in grads.params()])], state)
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
                if bad_streak >= cfg.patience:
                    break

    return TrainResult(
        net=_net_over(net, best_flat),
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
        epochs_run=epochs_run,
    )
