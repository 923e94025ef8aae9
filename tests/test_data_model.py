import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resfault.data_model import SplitSpec, UnitSeries, cycles, split, stack_rows
from resfault.errors import ShapeMismatch, UnitTooShort
from resfault.synth import FamilyFault, SynthConfig, gen_unit

from conftest import make_unit


class TestUnitSeries:
    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            make_unit([0, 0, 1], w=np.zeros((3, 2)), x=np.zeros((2, 3)))

    def test_decreasing_cycles_rejected(self):
        with pytest.raises(ShapeMismatch):
            make_unit([1, 0])

    def test_channel_names_cover_all_columns(self):
        with pytest.raises(ShapeMismatch):
            UnitSeries(
                unit_id="u",
                dataset_id="d",
                w=np.zeros((2, 2)),
                x=np.zeros((2, 2)),
                cycle_of=np.zeros(2, dtype=int),
                channel_names=("a", "b", "c"),
            )

    def test_z_concatenates_w_then_x(self):
        unit = make_unit([0, 1], w=[[1.0, 2.0], [3.0, 4.0]], x=[[5.0], [6.0]])
        np.testing.assert_array_equal(unit.z(), [[1, 2, 5], [3, 4, 6]])


class TestCycles:
    def test_two_cycle_segmentation(self):
        views = cycles(make_unit([0, 0, 1, 1, 1]))
        assert [(v.cycle_index, v.start, v.stop) for v in views] == [(0, 0, 2), (1, 2, 5)]

    def test_singleton(self):
        views = cycles(make_unit([5]))
        assert [(v.cycle_index, v.start, v.stop) for v in views] == [(5, 0, 1)]

    def test_views_cover_all_rows_in_order(self):
        unit = make_unit([0, 0, 0, 2, 2, 7])
        views = cycles(unit)
        assert views[0].start == 0 and views[-1].stop == unit.n_rows
        for a, b in zip(views, views[1:]):
            assert a.stop == b.start
            assert a.cycle_index < b.cycle_index

    def test_synth_unit_has_known_boundaries(self):
        cfg = SynthConfig(
            n_units=1,
            families=(FamilyFault(name="f", sensors=("T24",)),),
            cycles_per_unit=3,
            rows_per_cycle=100,
            fault_start_cycle=2,
            healthy_cycles_per_unit=1,
        )
        series, _ = gen_unit(cfg, cfg.families[0], unit_seed=3)
        views = cycles(series)
        assert len(views) == 3
        assert all(v.n_rows == 100 for v in views)


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
        result = split(fleet, SplitSpec(16, 0.15, seed=1))
        unit = fleet[0]
        healthy = np.concatenate([result.train["u0"], result.validation["u0"]])
        rest = np.setdiff1d(np.arange(unit.n_rows), healthy)
        np.testing.assert_array_equal(np.unique(unit.cycle_of[rest]), [16, 17, 18, 19])

    def test_validation_fraction_row_count(self):
        fleet = fleet_of(25, 17, rows_per_cycle=40)  # 25 x 16 x 40 = 16000 healthy rows
        spec = SplitSpec(16, 0.15, seed=1)
        result = split(fleet, spec)
        n_val = sum(len(v) for v in result.validation.values())
        healthy_rows_total = n_val + sum(len(v) for v in result.train.values())
        assert n_val == round(0.15 * healthy_rows_total)
        assert healthy_rows_total == 16000

    def test_different_seeds_differ_same_sizes(self):
        fleet = fleet_of(3, 20)
        a = split(fleet, SplitSpec(16, 0.15, seed=1))
        b = split(fleet, SplitSpec(16, 0.15, seed=2))
        sizes_a = {u: len(v) for u, v in a.validation.items()}
        total_a = sum(sizes_a.values())
        total_b = sum(len(v) for v in b.validation.values())
        assert total_a == total_b
        flat_a = np.concatenate([a.validation[f"u{i}"] for i in range(3)])
        flat_b = np.concatenate([b.validation[f"u{i}"] for i in range(3)])
        assert not np.array_equal(flat_a, flat_b)

    def test_unit_too_short(self):
        fleet = fleet_of(1, 16)
        with pytest.raises(UnitTooShort):
            split(fleet, SplitSpec(16, 0.15, seed=0))

    def test_duplicate_unit_ids_rejected(self):
        fleet = fleet_of(1, 20) + fleet_of(1, 20)
        with pytest.raises(ValueError):
            split(fleet, SplitSpec(16, 0.15, seed=0))

    @given(seed=st.integers(0, 2**32 - 1), n_units=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_partition_and_determinism(self, seed, n_units):
        fleet = fleet_of(n_units, 19, rows_per_cycle=3)
        spec = SplitSpec(16, 0.15, seed=seed)
        a = split(fleet, spec)
        b = split(fleet, spec)
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
        out = stack_rows(fleet, selection, channels="x")
        expected = np.vstack([fleet[0].x[[1]], fleet[1].x[[0, 2]]])
        np.testing.assert_array_equal(out, expected)

    def test_unknown_channel_block(self):
        fleet = fleet_of(1, 2)
        with pytest.raises(ValueError):
            stack_rows(fleet, {"u0": np.array([0])}, channels="q")
