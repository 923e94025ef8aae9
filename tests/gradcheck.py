"""Central-difference gradient oracle for the analytic backward pass."""

import numpy as np

from resfault import nn


def finite_diff_grad(
    net: nn.DenseNet, inp: np.ndarray, target: np.ndarray, h: float = 1e-5
) -> nn.DenseNet:
    """Central-difference gradient estimate, one loss pair per parameter.

    The estimate is returned as a net of ``net``'s shape whose parameters
    are the gradients of the matching parameters of ``net``.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    work = net.with_params([p.copy() for p in net.params()])
    grads = []
    for arr in work.params():
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
        grads.append(g)
    return net.with_params(grads)


def backward_fresh(
    net: nn.DenseNet, inp: np.ndarray, target: np.ndarray
) -> tuple[float, nn.DenseNet]:
    """``nn.backward``'s batch loss, and its gradient written into a newly
    allocated net of ``net``'s shape."""
    grad = net.with_params([np.empty_like(p) for p in net.params()])
    return nn.backward(net, inp, target, grad), grad
