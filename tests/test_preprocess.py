import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resfault.data_model import cycle_bounds
from resfault.errors import ComputeError, DataError
from resfault.preprocess import (
    Standardizer,
    apply_standardizer,
    cruise_filter,
    downsample,
    fit_standardizer,
)
from resfault.config import SynthSettings
from resfault.synth import FamilyFault, build_sensor_map, gen_unit, segment_rows

from conftest import make_unit


def synth_unit(cycles: int, rows: int, fault_start: int, unit_seed: int):
    """One generated unit with a single-sensor fault family."""
    settings = SynthSettings(
        n_units=1,
        cycles_per_unit=cycles,
        rows_per_cycle=rows,
        fault_start_lo=fault_start,
        fault_start_hi=fault_start,
    )
    family = FamilyFault(name="f", sensors=("T24",))
    series, _ = gen_unit(settings, family, unit_seed, "u00", build_sensor_map(0))
    return series


def cruise_rows(series) -> np.ndarray:
    """Per-row cruise flag of a generated unit, from the generator's cycle layout."""
    starts, stops = cycle_bounds(series.cycle_of)
    return np.concatenate(
        [np.repeat([False, True, False], segment_rows(b - a)) for a, b in zip(starts, stops)]
    )


class TestDownsample:
    def test_hundred_row_cycle_factor_ten(self):
        unit = make_unit(np.repeat([0, 1], 100))
        out = downsample(unit, 10)
        starts, stops = cycle_bounds(out.cycle_of)
        assert list(stops - starts) == [10, 10]

    def test_factor_one_is_identity(self):
        unit = make_unit([0, 0, 1])
        assert downsample(unit, 1) is unit

    def test_stride_arithmetic(self):
        unit = make_unit(np.zeros(10, dtype=int))
        out = downsample(unit, 4)
        np.testing.assert_array_equal(out.x, unit.x[[0, 4, 8]])

    def test_stride_restarts_each_cycle(self):
        unit = make_unit([0, 0, 0, 1, 1, 1, 1])
        out = downsample(unit, 3)
        np.testing.assert_array_equal(out.x, unit.x[[0, 3, 6]])
        np.testing.assert_array_equal(out.cycle_of, [0, 1, 1])


class TestStandardizer:
    def test_two_point_statistics(self):
        std = fit_standardizer(np.array([[1.0], [3.0]]))
        assert std.mean[0] == 2.0
        assert std.std[0] == 1.0

    def test_constant_column(self):
        std = fit_standardizer(np.array([[5.0], [5.0], [5.0]]))
        assert std.mean[0] == 5.0
        assert std.std[0] == 0.0

    def test_roundtrip_refit(self, rng):
        rows = rng.normal(3.0, 2.5, size=(1000, 18))
        std = fit_standardizer(rows)
        refit = fit_standardizer(apply_standardizer(std, rows))
        np.testing.assert_allclose(refit.mean, 0.0, atol=1e-10)
        np.testing.assert_allclose(refit.std, 1.0, atol=1e-10)

    def test_insufficient_rows(self):
        with pytest.raises(DataError, match="need >= 2 rows to fit, got 1"):
            fit_standardizer(np.array([[1.0, 2.0]]))

    def test_apply_simple(self):
        std = Standardizer(mean=np.array([2.0]), std=np.array([1.0]))
        assert apply_standardizer(std, np.array([[3.0]]))[0, 0] == 1.0

    def test_apply_constant_column_guard(self):
        std = fit_standardizer(np.array([[5.0], [5.0]]))
        out = apply_standardizer(std, np.array([[5.0], [5.0], [5.0]]))
        np.testing.assert_array_equal(out, 0.0)

    def test_apply_shape_mismatch(self):
        std = Standardizer(mean=np.zeros(2), std=np.ones(2))
        message = r"standardizer fitted on 2 channels, data has shape \(3, 3\)"
        with pytest.raises(ComputeError, match=message):
            apply_standardizer(std, np.zeros((3, 3)))

    def test_apply_rejects_a_single_row(self):
        std = Standardizer(mean=np.zeros(2), std=np.ones(2))
        message = r"standardizer fitted on 2 channels, data has shape \(2,\)"
        with pytest.raises(ComputeError, match=message):
            apply_standardizer(std, np.zeros(2))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_heldout_rows_stay_finite(self, seed):
        gen = np.random.default_rng(seed)
        train = gen.normal(size=(20, 4)) * gen.uniform(0, 10, size=4)
        held = gen.normal(size=(7, 4)) * 100
        out = apply_standardizer(fit_standardizer(train), held)
        assert np.all(np.isfinite(out))


class TestCruiseFilter:
    def test_keeps_high_altitude_rows(self):
        # 8500 / 10000 is 0.85 exactly, which is not above the threshold
        unit = make_unit(
            [0, 0, 0, 0, 0],
            w=np.array([[0.0, 0], [10000.0, 0], [9000.0, 0], [2000.0, 0], [8500.0, 0]]),
        )
        out = cruise_filter(unit, 0.85)
        np.testing.assert_array_equal(out.w[:, 0], [10000.0, 9000.0])

    def test_constant_altitude_keeps_all(self):
        unit = make_unit([0, 0, 0], w=np.full((3, 2), 7000.0))
        out = cruise_filter(unit, 0.85)
        assert out.n_rows == 3

    def test_non_positive_altitude(self):
        unit = make_unit([0, 0], w=np.array([[0.0, 1], [-5.0, 1]]))
        with pytest.raises(DataError, match="unit 'u1' cycle 0: max altitude 0.0 is not positive"):
            cruise_filter(unit, 0.85)

    def test_matches_generator_cruise_segment(self):
        series = synth_unit(cycles=4, rows=60, fault_start=3, unit_seed=11)
        kept = cruise_filter(series, 0.85)
        expected_rows = np.flatnonzero(cruise_rows(series))
        assert kept.n_rows == len(expected_rows)
        np.testing.assert_array_equal(kept.w, series.w[expected_rows])

    def test_survives_downsampling_first(self):
        # pipeline order: downsample, then cruise-filter the strided rows
        series = synth_unit(cycles=3, rows=100, fault_start=2, unit_seed=2)
        down = downsample(series, 10)
        is_cruise = cruise_rows(series)
        down_cruise = np.concatenate(
            [is_cruise[a:b:10] for a, b in zip(*cycle_bounds(series.cycle_of))]
        )
        kept = cruise_filter(down, 0.85)
        expected = np.flatnonzero(down_cruise)
        np.testing.assert_array_equal(kept.w, down.w[expected])

    def test_output_is_ordered_row_subset(self, rng):
        alt = np.abs(rng.normal(5000, 3000, size=40)) + 1.0
        unit = make_unit(
            np.repeat([0, 1], 20), w=np.column_stack([alt, np.ones(40)])
        )
        out = cruise_filter(unit, 0.5)
        # every kept row appears in the input, in the original order
        positions = [np.flatnonzero((unit.w == row).all(axis=1))[0] for row in out.w]
        assert positions == sorted(positions)


@st.composite
def altitude_cycles(draw):
    """Positive altitudes of 1..6 cycles of 1..12 rows each."""
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    alt = draw(
        st.lists(
            st.floats(0.0, 1e9, exclude_min=True),
            min_size=sum(lengths),
            max_size=sum(lengths),
        )
    )
    return np.repeat(np.arange(len(lengths)), lengths), np.array(alt)


@given(altitude_cycles(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_cruise_filter_keeps_every_cycle_and_the_rows_above_threshold(cycles, threshold):
    cycle_of, alt = cycles
    unit = make_unit(cycle_of, w=np.column_stack([alt, np.ones(len(alt))]))
    kept = cruise_filter(unit, threshold)
    np.testing.assert_array_equal(np.unique(kept.cycle_of), np.unique(cycle_of))
    top = np.array([alt[cycle_of == c].max() for c in cycle_of])
    np.testing.assert_array_equal(kept.w, unit.w[alt / top > threshold])
