"""data_model.split against the per-row split it replaced.

The reference below is the earlier implementation: it lists the owning
unit id of every pooled healthy row and finds each unit's rows again with
one ``==`` scan over that list. The current split hands each unit its
block of the pooled validation mask. Both draw the same
``default_rng(seed).choice`` over the same pool, so the train and
validation rows of every unit, and every error, must be the same.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from resfault.config import SplitSettings
from resfault.data_model import cycle_bounds, split
from resfault.errors import DataError

from conftest import make_unit


def reference_split(fleet, settings, seed):
    seen = set()
    for unit in fleet:
        if unit.unit_id in seen:
            raise ValueError(f"duplicate unit id {unit.unit_id!r} in fleet")
        seen.add(unit.unit_id)

    pool_unit = []
    pool_row = []
    for unit in fleet:
        _, stops = cycle_bounds(unit.cycle_of)
        if len(stops) <= settings.healthy_cycles:
            raise DataError(
                f"unit {unit.unit_id!r} has {len(stops)} cycles; "
                f"needs more than {settings.healthy_cycles}"
            )
        healthy_stop = int(stops[settings.healthy_cycles - 1])
        pool_unit.extend([unit.unit_id] * healthy_stop)
        pool_row.append(np.arange(healthy_stop, dtype=np.int64))

    pool_rows = np.concatenate(pool_row)
    n_pool = len(pool_rows)
    n_val = round(settings.validation_fraction * n_pool)
    if not 0 < n_val < n_pool:
        raise DataError(
            f"split.validation_fraction {settings.validation_fraction} of {n_pool} healthy "
            f"rows leaves {n_val} validation and {n_pool - n_val} training rows"
        )
    rng = np.random.default_rng(seed)
    val_positions = rng.choice(n_pool, size=n_val, replace=False)
    is_val = np.zeros(n_pool, dtype=bool)
    is_val[val_positions] = True

    train = {}
    validation = {}
    pool_unit_arr = np.array(pool_unit)
    for unit in fleet:
        mask = pool_unit_arr == unit.unit_id
        rows = pool_rows[mask]
        val_mask = is_val[mask]
        train[unit.unit_id] = rows[~val_mask]
        validation[unit.unit_id] = rows[val_mask]
    return train, validation


@st.composite
def fleets(draw, healthy_cycles):
    """1 to 4 units of 1 to 4 rows per cycle and cycle ids with gaps.

    Each unit has 0 to 4 cycles past the healthy window, where 0 is too
    short, and a fleet may repeat a unit id.
    """
    ids = [f"u{i}" for i in range(draw(st.integers(1, 4)))]
    if draw(st.integers(0, 9)) == 9:
        ids.insert(draw(st.integers(0, len(ids))), ids[0])
    fleet = []
    for uid in ids:
        n_cycles = healthy_cycles + draw(st.integers(0, 4))
        sizes = draw(st.lists(st.integers(1, 4), min_size=n_cycles, max_size=n_cycles))
        steps = draw(st.lists(st.integers(1, 3), min_size=n_cycles, max_size=n_cycles))
        fleet.append(make_unit(np.repeat(np.cumsum(steps), sizes), unit_id=uid))
    return fleet


def outcome(fn, *args):
    """``fn``'s result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@given(
    data=st.data(),
    healthy_cycles=st.integers(1, 6),
    fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_split_equals_the_per_row_split(data, healthy_cycles, fraction, seed):
    fleet = data.draw(fleets(healthy_cycles))
    spec = SplitSettings(healthy_cycles, fraction)
    expected = outcome(reference_split, fleet, spec, seed)
    got = outcome(split, fleet, spec, seed)
    if isinstance(expected[0], type):
        assert got == expected
        return
    train, validation = expected
    assert list(got.train) == list(train) and list(got.validation) == list(validation)
    for uid in train:
        assert got.train[uid].dtype == got.validation[uid].dtype == np.int64
        np.testing.assert_array_equal(got.train[uid], train[uid])
        np.testing.assert_array_equal(got.validation[uid], validation[uid])
