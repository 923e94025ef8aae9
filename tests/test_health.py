import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from resfault.health import aggregated_hi, sensorwise_hi

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


class TestAggregated:
    def test_three_four_five(self):
        hi = aggregated_hi(np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(hi, [[5.0]])

    def test_zero_residuals(self):
        hi = aggregated_hi(np.zeros((4, 3)))
        np.testing.assert_array_equal(hi, np.zeros((4, 1)))

    def test_matches_sqrt_sum_squares_oracle(self, rng):
        r = rng.normal(size=(200, 14))
        hi = aggregated_hi(r)
        expected = np.array([np.sqrt(sum(v * v for v in row)) for row in r])
        np.testing.assert_allclose(hi[:, 0], expected, atol=1e-12)


class TestSensorwise:
    def test_absolute_values(self):
        hi = sensorwise_hi(np.array([[-2.0, 3.0]]))
        np.testing.assert_array_equal(hi, [[2.0, 3.0]])

    def test_zeros(self):
        hi = sensorwise_hi(np.zeros((3, 2)))
        np.testing.assert_array_equal(hi, np.zeros((3, 2)))


@given(residual_matrices)
@settings(max_examples=60, deadline=None)
def test_norm_consistency_identity(r):
    agg = aggregated_hi(r)[:, 0]
    sens = sensorwise_hi(r)
    np.testing.assert_allclose(agg**2, (sens**2).sum(axis=1), rtol=1e-10, atol=1e-10)
    assert np.all(agg >= 0)
    assert np.all(sens >= 0)


@given(
    residual_matrices,
    st.floats(min_value=1.0, max_value=1e6, exclude_min=True, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_monotone_scaling(r, c):
    base = aggregated_hi(r)
    scaled = aggregated_hi(c * r)
    np.testing.assert_allclose(scaled, c * base, rtol=1e-12)
