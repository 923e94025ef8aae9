"""Central-difference gradient oracle for the analytic backward pass."""

import numpy as np

from resfault import nn


def finite_diff_grad(
    net: nn.DenseNet, inp: np.ndarray, target: np.ndarray, h: float = 1e-5
) -> nn.Gradients:
    """Central-difference gradient estimate, one loss pair per parameter."""
    if h <= 0:
        raise ValueError("step h must be positive")
    work = net.with_params([p.copy() for p in net.params()])
    grad_w = []
    grad_b = []
    for group, store in ((work.weights, grad_w), (work.biases, grad_b)):
        for arr in group:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = nn.loss_mse(nn.forward(work, inp), target)
                arr[idx] = orig - h
                down = nn.loss_mse(nn.forward(work, inp), target)
                arr[idx] = orig
                g[idx] = (up - down) / (2.0 * h)
            store.append(g)
    return nn.Gradients(
        weights=grad_w, biases=grad_b, loss=nn.loss_mse(nn.forward(net, inp), target)
    )
