import numpy as np
import pytest

from resfault.data_model import UnitSeries


def make_unit(
    cycle_of,
    n_w: int = 2,
    n_x: int = 3,
    unit_id: str = "u1",
    dataset_id: str = "demo",
    rng: np.random.Generator | None = None,
    w=None,
    x=None,
) -> UnitSeries:
    """Small helper: a unit with given cycle layout and random channels."""
    cycle_of = np.asarray(cycle_of, dtype=np.int64)
    t = len(cycle_of)
    if rng is None:
        rng = np.random.default_rng(0)
    if w is None:
        w = rng.normal(size=(t, n_w)) + 2.0
    if x is None:
        x = rng.normal(size=(t, n_x))
    names = tuple(f"w{i}" for i in range(np.shape(w)[1])) + tuple(
        f"x{i}" for i in range(np.shape(x)[1])
    )
    return UnitSeries(
        unit_id=unit_id,
        dataset_id=dataset_id,
        z=np.hstack([np.asarray(w, dtype=np.float64), np.asarray(x, dtype=np.float64)]),
        n_w=np.shape(w)[1],
        cycle_of=cycle_of,
        channel_names=names,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
