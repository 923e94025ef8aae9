import numpy as np
import pytest

from resfault.data_model import CHANNEL_NAMES, N_W, UnitSeries


def make_unit(
    cycle_of,
    unit_id: str = "u1",
    dataset_id: str = "demo",
    rng: np.random.Generator | None = None,
    w=None,
    x=None,
) -> UnitSeries:
    """Small helper: a unit with given cycle layout and random channels.

    ``w`` and ``x`` may give only the leading descriptor and sensor
    columns; the fleet layout's columns they leave out are 0.
    """
    cycle_of = np.asarray(cycle_of, dtype=np.int64)
    t = len(cycle_of)
    if rng is None:
        rng = np.random.default_rng(0)
    if w is None:
        w = rng.normal(size=(t, N_W)) + 2.0
    if x is None:
        x = rng.normal(size=(t, len(CHANNEL_NAMES) - N_W))
    w, x = np.asarray(w, dtype=np.float64), np.asarray(x, dtype=np.float64)
    z = np.zeros((t, len(CHANNEL_NAMES)))
    z[:, : w.shape[1]] = w
    z[:, N_W : N_W + x.shape[1]] = x
    return UnitSeries(unit_id=unit_id, dataset_id=dataset_id, z=z, cycle_of=cycle_of)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
