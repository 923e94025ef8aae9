import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from resfault.errors import ShapeMismatch
from resfault.health import AGGREGATED, SENSORWISE, HiSeries, aggregated_hi, sensorwise_hi

# magnitudes kept out of the range whose squares underflow to subnormals
residual_elements = st.one_of(
    st.just(0.0),
    st.floats(1e-100, 1e6),
    st.floats(-1e6, -1e-100),
)
residual_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.integers(2, 6)),
    elements=residual_elements,
)


def cycles_for(n):
    return np.zeros(n, dtype=np.int64)


class TestAggregated:
    def test_three_four_five(self):
        hi = aggregated_hi(np.array([[3.0, 4.0]]), cycles_for(1), "OC")
        assert hi.values[0, 0] == 5.0
        assert hi.kind == AGGREGATED
        assert hi.channel_names == (AGGREGATED,)

    def test_zero_residuals(self):
        hi = aggregated_hi(np.zeros((4, 3)), cycles_for(4), "AE")
        np.testing.assert_array_equal(hi.values, 0.0)

    def test_matches_sqrt_sum_squares_oracle(self, rng):
        r = rng.normal(size=(200, 14))
        hi = aggregated_hi(r, cycles_for(200), "OC")
        expected = np.array([np.sqrt(sum(v * v for v in row)) for row in r])
        np.testing.assert_allclose(hi.values[:, 0], expected, atol=1e-12)


class TestSensorwise:
    def test_absolute_values(self):
        hi = sensorwise_hi(np.array([[-2.0, 3.0]]), cycles_for(1), "OC")
        np.testing.assert_array_equal(hi.values, [[2.0, 3.0]])
        assert hi.kind == SENSORWISE

    def test_zeros(self):
        hi = sensorwise_hi(np.zeros((3, 2)), cycles_for(3), "AE")
        np.testing.assert_array_equal(hi.values, 0.0)

    def test_channel_names_carried(self):
        hi = sensorwise_hi(
            np.ones((2, 2)), cycles_for(2), "OC", channel_names=("a", "b")
        )
        assert hi.channel_names == ("a", "b")


class TestHiSeries:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            HiSeries(
                values=np.array([[-1.0, 0.0]]),
                kind=SENSORWISE,
                source_model="OC",
                cycle_of=cycles_for(1),
            )

    def test_width_kind_consistency(self):
        with pytest.raises(ShapeMismatch):
            HiSeries(
                values=np.ones((2, 3)),
                kind=AGGREGATED,
                source_model="OC",
                cycle_of=cycles_for(2),
            )


@given(residual_matrices)
@settings(max_examples=60, deadline=None)
def test_norm_consistency_identity(r):
    cyc = cycles_for(r.shape[0])
    agg = aggregated_hi(r, cyc, "OC").values[:, 0]
    sens = sensorwise_hi(r, cyc, "OC").values
    np.testing.assert_allclose(agg**2, (sens**2).sum(axis=1), rtol=1e-10, atol=1e-10)
    assert np.all(agg >= 0)
    assert np.all(sens >= 0)


@given(
    residual_matrices,
    st.floats(min_value=1.0, max_value=1e6, exclude_min=True, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_monotone_scaling(r, c):
    cyc = cycles_for(r.shape[0])
    base = aggregated_hi(r, cyc, "OC").values
    scaled = aggregated_hi(c * r, cyc, "OC").values
    np.testing.assert_allclose(scaled, c * base, rtol=1e-12)
