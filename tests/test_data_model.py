import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resfault.config import SplitSettings
from resfault.data_model import (
    CHANNEL_NAMES,
    DEFAULT_W_CHANNELS,
    DEFAULT_X_CHANNELS,
    N_W,
    UnitSeries,
    cycle_bounds,
    split,
    stack_rows,
)
from resfault.errors import ComputeError, DataError
from resfault.config import SynthSettings
from resfault.synth import FamilyFault, build_sensor_map, gen_unit

from conftest import make_unit


class TestUnitSeries:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ComputeError, match="cycle_of must have one entry per row"):
            UnitSeries("u", "d", np.zeros((3, 18)), np.zeros(2, dtype=int))

    def test_decreasing_cycles_rejected(self):
        with pytest.raises(ComputeError, match="cycle_of must be non-decreasing"):
            make_unit([1, 0])

    def test_channel_names_cover_all_columns(self):
        assert CHANNEL_NAMES == DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS
        assert (N_W, len(CHANNEL_NAMES)) == (4, 18)
        for width in (4, 19):
            with pytest.raises(ComputeError, match="z must be a T x 18 matrix with a row"):
                UnitSeries("u", "d", np.zeros((2, width)), np.zeros(2, dtype=int))

    def test_z_concatenates_w_then_x(self):
        z = np.arange(36.0).reshape(2, 18).copy()
        unit = UnitSeries("u", "d", z, np.array([0, 1]))
        np.testing.assert_array_equal(unit.z, z)
        # w and x are views of z
        np.testing.assert_array_equal(unit.w, z[:, :4])
        np.testing.assert_array_equal(unit.x, z[:, 4:])
        assert unit.w.base is unit.z and unit.x.base is unit.z
        assert (unit.w.shape, unit.x.shape) == ((2, 4), (2, 14))

    def test_fields_are_coerced(self):
        unit = UnitSeries("u", "d", [list(range(18))], [0])
        assert unit.z.dtype == np.float64 and unit.cycle_of.dtype == np.int64

    @pytest.mark.parametrize(
        "z",
        [np.zeros(18), np.zeros((0, 18)), np.zeros((1, 14)), np.zeros((1, 4))],
        ids=["one_dimensional", "no_rows", "no_descriptor", "no_sensor"],
    )
    def test_shape_rejected(self, z):
        with pytest.raises(ComputeError, match="z must be a T x 18 matrix with a row"):
            UnitSeries("u", "d", z, np.zeros(len(z), dtype=int))


def cycle_views(unit):
    """(cycle index, start, stop) per cycle block, from cycle_bounds."""
    starts, stops = cycle_bounds(unit.cycle_of)
    return [(unit.cycle_of[a], a, b) for a, b in zip(starts, stops)]


class TestCycles:
    def test_two_cycle_segmentation(self):
        views = cycle_views(make_unit([0, 0, 1, 1, 1]))
        assert views == [(0, 0, 2), (1, 2, 5)]

    def test_singleton(self):
        views = cycle_views(make_unit([5]))
        assert views == [(5, 0, 1)]

    def test_views_cover_all_rows_in_order(self):
        unit = make_unit([0, 0, 0, 2, 2, 7])
        views = cycle_views(unit)
        assert views[0][1] == 0 and views[-1][2] == unit.n_rows
        for a, b in zip(views, views[1:]):
            assert a[2] == b[1]
            assert a[0] < b[0]

    def test_synth_unit_has_known_boundaries(self):
        settings = SynthSettings(
            n_units=1,
            cycles_per_unit=3,
            rows_per_cycle=100,
            fault_start_lo=2,
            fault_start_hi=2,
        )
        family = FamilyFault(name="f", sensors=("T24",))
        series, _ = gen_unit(settings, family, 3, "u00", build_sensor_map(0))
        starts, stops = cycle_bounds(series.cycle_of)
        assert len(starts) == 3
        assert all(stops - starts == 100)


def fleet_of(n_units: int, n_cycles: int, rows_per_cycle: int = 5):
    rng = np.random.default_rng(7)
    return [
        make_unit(
            np.repeat(np.arange(n_cycles), rows_per_cycle),
            unit_id=f"u{i}",
            rng=rng,
        )
        for i in range(n_units)
    ]


class TestSplit:
    def test_test_set_is_trailing_cycles(self):
        fleet = fleet_of(1, 20)
        result = split(fleet, SplitSettings(16, 0.15), 1)
        unit = fleet[0]
        healthy = np.concatenate([result.train["u0"], result.validation["u0"]])
        rest = np.setdiff1d(np.arange(unit.n_rows), healthy)
        np.testing.assert_array_equal(np.unique(unit.cycle_of[rest]), [16, 17, 18, 19])

    def test_validation_fraction_row_count(self):
        fleet = fleet_of(25, 17, rows_per_cycle=40)  # 25 x 16 x 40 = 16000 healthy rows
        result = split(fleet, SplitSettings(16, 0.15), 1)
        n_val = sum(len(v) for v in result.validation.values())
        healthy_rows_total = n_val + sum(len(v) for v in result.train.values())
        assert n_val == round(0.15 * healthy_rows_total)
        assert healthy_rows_total == 16000

    def test_different_seeds_differ_same_sizes(self):
        fleet = fleet_of(3, 20)
        a = split(fleet, SplitSettings(16, 0.15), 1)
        b = split(fleet, SplitSettings(16, 0.15), 2)
        sizes_a = {u: len(v) for u, v in a.validation.items()}
        total_a = sum(sizes_a.values())
        total_b = sum(len(v) for v in b.validation.values())
        assert total_a == total_b
        flat_a = np.concatenate([a.validation[f"u{i}"] for i in range(3)])
        flat_b = np.concatenate([b.validation[f"u{i}"] for i in range(3)])
        assert not np.array_equal(flat_a, flat_b)

    def test_unit_too_short(self):
        fleet = fleet_of(1, 16)
        with pytest.raises(DataError, match="unit 'u0' has 16 cycles; needs more than 16"):
            split(fleet, SplitSettings(16, 0.15), 0)

    @pytest.mark.parametrize(
        "healthy_cycles, fraction, n_val",
        [(3, 0.1, 0), (1, 0.9, 1)],
        ids=["no_validation_rows", "no_training_rows"],
    )
    def test_empty_side_is_insufficient_data(self, healthy_cycles, fraction, n_val):
        fleet = [make_unit(np.arange(5))]  # one row per cycle
        message = (
            f"validation_fraction {fraction} of {healthy_cycles} healthy rows leaves "
            f"{n_val} validation and {healthy_cycles - n_val} training rows"
        )
        with pytest.raises(DataError, match=message):
            split(fleet, SplitSettings(healthy_cycles, fraction), 0)

    def test_duplicate_unit_ids_rejected(self):
        fleet = fleet_of(1, 20) + fleet_of(1, 20)
        with pytest.raises(ValueError):
            split(fleet, SplitSettings(16, 0.15), 0)

    @given(seed=st.integers(0, 2**32 - 1), n_units=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_partition_and_determinism(self, seed, n_units):
        fleet = fleet_of(n_units, 19, rows_per_cycle=3)
        spec = SplitSettings(16, 0.15)
        a = split(fleet, spec, seed)
        b = split(fleet, spec, seed)
        for unit in fleet:
            uid = unit.unit_id
            train, val = a.train[uid], a.validation[uid]
            healthy_rows = 16 * 3
            # train and validation partition the healthy window
            assert len(set(train) & set(val)) == 0
            assert sorted(set(train) | set(val)) == list(range(healthy_rows))
            # test cycles sit strictly after the healthy window
            test_rows = np.setdiff1d(np.arange(unit.n_rows), np.concatenate([train, val]))
            assert all(c >= 16 for c in unit.cycle_of[test_rows])
            # pure function of the seed
            np.testing.assert_array_equal(train, b.train[uid])
            np.testing.assert_array_equal(val, b.validation[uid])


class TestStackRows:
    def test_stacks_in_fleet_order(self):
        fleet = fleet_of(2, 2, rows_per_cycle=2)
        selection = {"u0": np.array([1]), "u1": np.array([0, 2])}
        out = stack_rows(fleet, selection)
        expected = np.vstack([fleet[0].z[[1]], fleet[1].z[[0, 2]]])
        np.testing.assert_array_equal(out, expected)
