import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from resfault.detector import (
    DetectionReport,
    HealthyStats,
    build_report,
    cycle_average,
    cycle_mean,
    detect,
    detection_delay,
    fit_stats,
)
from resfault.errors import EmptyFleet, InsufficientData, ShapeMismatch
from resfault.experiment import evaluate_group
from resfault.health import AGGREGATED, sensorwise_hi
from resfault.preprocess import fit_standardizer


def brute_force_alarm(exceed: np.ndarray, n_wait: int):
    """Reference: scan every window of n_wait cycles per channel."""
    n_cycles, n_channels = exceed.shape
    for end in range(n_wait - 1, n_cycles):
        for ch in range(n_channels):
            if all(exceed[end - d, ch] for d in range(n_wait)):
                return end
    return None


def stats_for(tau):
    tau = np.asarray(tau, dtype=np.float64)
    return HealthyStats(
        mu=tau, sigma=np.zeros_like(tau), tau=tau, fitted_on=2
    )


class TestFitStats:
    def test_constant_channel(self):
        s = fit_stats(np.array([[1.0], [1.0], [1.0]]))
        assert s.mu[0] == 1.0 and s.sigma[0] == 0.0 and s.tau[0] == 1.0

    def test_zero_two_hand_arithmetic(self):
        s = fit_stats(np.array([[0.0], [2.0]]))
        assert s.mu[0] == 1.0
        assert s.sigma[0] == 1.0
        assert s.tau[0] == 4.0

    def test_matches_two_pass_oracle(self, rng):
        values = rng.exponential(size=(500, 3))
        s = fit_stats(values)
        for ch in range(3):
            mu = sum(values[:, ch]) / 500
            var = sum((v - mu) ** 2 for v in values[:, ch]) / 500
            np.testing.assert_allclose(s.mu[ch], mu, rtol=1e-12)
            np.testing.assert_allclose(s.sigma[ch], np.sqrt(var), rtol=1e-12)
            np.testing.assert_allclose(s.tau[ch], mu + 3 * np.sqrt(var), rtol=1e-12)

    def test_three_sigma_identity(self, rng):
        s = fit_stats(rng.exponential(size=(50, 4)))
        np.testing.assert_array_equal(s.tau - s.mu, 3.0 * s.sigma)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientData):
            fit_stats(np.ones((1, 2)))


class TestCycleAverage:
    def test_two_row_cycle(self):
        hi = sensorwise_hi(np.array([[2.0, 1.0], [4.0, 1.0]]), [0, 0], "OC")
        avg = cycle_average(hi)
        np.testing.assert_array_equal(avg.values, [[3.0, 1.0]])

    def test_single_row_cycle(self):
        hi = sensorwise_hi(np.array([[7.0, 2.0]]), [3], "OC")
        avg = cycle_average(hi)
        np.testing.assert_array_equal(avg.values, [[7.0, 2.0]])
        np.testing.assert_array_equal(avg.cycle_ids, [3])

    def test_matches_groupby_mean_oracle(self, rng):
        cyc = np.repeat([0, 1, 2, 5], [4, 3, 6, 2])
        values = np.abs(rng.normal(size=(15, 3)))
        hi = sensorwise_hi(values, cyc, "AE")
        avg = cycle_average(hi)
        for i, c in enumerate([0, 1, 2, 5]):
            np.testing.assert_allclose(
                avg.values[i], values[cyc == c].mean(axis=0), atol=1e-12
            )


class TestDetect:
    def test_alarm_on_third_consecutive_exceedance(self):
        values = np.array([[0.0], [2.0], [2.0], [2.0], [0.0]])
        outcome = detect(values, stats_for([1.0]), n_wait=3)
        assert outcome.alarm_index == 3
        np.testing.assert_array_equal(outcome.qualifying, [True])

    def test_alternating_never_alarms(self):
        values = np.array([[0.0], [2.0], [0.0], [2.0], [0.0], [2.0]])
        outcome = detect(values, stats_for([1.0]), n_wait=3)
        assert outcome.alarm_index is None
        assert outcome.qualifying is None

    def test_union_across_channels_is_not_enough(self):
        # channels alternate so their union exceeds for 6 straight cycles
        values = np.array(
            [[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0]]
        )
        outcome = detect(values, stats_for([1.0, 1.0]), n_wait=3)
        assert outcome.alarm_index is None

    def test_exceedance_is_strict(self):
        values = np.ones((5, 1))
        outcome = detect(values, stats_for([1.0]), n_wait=1)
        assert outcome.alarm_index is None

    def test_n_wait_one_alarms_at_first_exceedance(self):
        values = np.array([[0.0], [0.0], [3.0], [0.0]])
        outcome = detect(values, stats_for([1.0]), n_wait=1)
        assert outcome.alarm_index == 2

    def test_raising_threshold_never_alarms_earlier(self, rng):
        for _ in range(50):
            values = rng.uniform(0, 2, size=(12, 3))
            low = detect(values, stats_for([0.8, 0.8, 0.8]), n_wait=3).alarm_index
            high = detect(values, stats_for([1.2, 1.2, 1.2]), n_wait=3).alarm_index
            if high is not None:
                assert low is not None and low <= high

    def test_exhaustive_agreement_small(self):
        # all boolean exceedance sequences up to C=6, K=2, several n_wait
        for n_wait in (1, 2, 3, 4):
            for n_cycles in range(1, 7):
                for bits in itertools.product([0.0, 2.0], repeat=2 * n_cycles):
                    values = np.array(bits).reshape(n_cycles, 2)
                    outcome = detect(values, stats_for([1.0, 1.0]), n_wait=n_wait)
                    expected = brute_force_alarm(values > 1.0, n_wait)
                    assert outcome.alarm_index == expected

    def test_invalid_n_wait(self):
        with pytest.raises(ValueError):
            detect(np.ones((2, 1)), stats_for([1.0]), n_wait=0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatch):
            detect(np.ones((2, 2)), stats_for([1.0]), n_wait=1)

    def test_constant_series_with_tau_equal_mu_never_alarms(self):
        s = fit_stats(np.full((10, 1), 3.7))
        assert s.tau[0] == s.mu[0]
        outcome = detect(np.full((50, 1), 3.7), s, n_wait=1)
        assert outcome.alarm_index is None


class TestDelayAndFpr:
    def test_late_detection_positive(self):
        assert detection_delay(40, 24) == 16

    def test_zero_delay(self):
        assert detection_delay(24, 24) == 0

    def test_negative_is_false_positive(self):
        assert detection_delay(20, 24) == -4

    def report(self, unit, delay=None, alarm=None, n_true=30, known=True):
        return DetectionReport(
            unit_id=unit,
            dataset_id="d",
            alarm_cycle=alarm,
            n_true=n_true,
            delay=delay,
            triggered_first=(),
            cycle_ids=np.arange(5),
            exceedance=np.zeros((5, 1), dtype=bool),
            ground_truth_known=known,
        )

    @staticmethod
    def false_positive_rate(reports):
        """The evaluation's rate over one realisation's reports."""
        return evaluate_group("OC", AGGREGATED, [reports]).fpr

    def test_one_negative_among_thirty(self):
        reports = [self.report(f"u{i}", delay=5, alarm=35) for i in range(29)]
        reports.append(self.report("u29", delay=-2, alarm=28))
        assert self.false_positive_rate(reports) == pytest.approx(1 / 30)

    def test_no_negative_delays(self):
        reports = [self.report(f"u{i}", delay=3, alarm=33) for i in range(4)]
        reports.append(self.report("u4"))  # no alarm counts only in denominator
        assert self.false_positive_rate(reports) == 0.0

    def test_all_negative(self):
        reports = [self.report(f"u{i}", delay=-1, alarm=29) for i in range(3)]
        assert self.false_positive_rate(reports) == 1.0

    def test_alarm_on_healthy_unit_counts(self):
        reports = [
            self.report("u0", alarm=12, n_true=None),
            self.report("u1", n_true=None),
        ]
        assert self.false_positive_rate(reports) == 0.5

    def test_empty_fleet(self):
        with pytest.raises(EmptyFleet):
            self.false_positive_rate([])

    def test_unknown_ground_truth_excluded(self):
        unknown = self.report("u0", alarm=12, n_true=None, known=False)
        assert self.false_positive_rate([unknown]) is None
        known = [self.report("u1", delay=-1, alarm=29), self.report("u2", n_true=None)]
        assert self.false_positive_rate([unknown] + known) == 0.5


class TestBuildReport:
    def test_maps_alarm_to_cycle_label(self):
        values = np.abs(np.array([[0.1], [0.1], [5.0], [5.0], [5.0]]))
        hi = sensorwise_hi(
            np.hstack([values, values]), [10, 11, 12, 13, 14], "OC",
            channel_names=("a", "b"),
        )
        avg = cycle_average(hi)
        stats = stats_for([1.0, 9.0])
        rep = build_report("u7", "ds", avg, stats, n_wait=3, n_true=11)
        assert rep.alarm_cycle == 14
        assert rep.delay == 3
        assert rep.triggered_first == ("a",)

    def test_no_alarm_report(self):
        hi = sensorwise_hi(np.zeros((4, 2)), [0, 0, 1, 1], "OC")
        avg = cycle_average(hi)
        rep = build_report("u1", "ds", avg, stats_for([1.0, 1.0]), n_true=2)
        assert rep.alarm_cycle is None
        assert rep.delay is None
        assert not rep.detected


@given(
    st.integers(1, 4),
    st.lists(st.lists(st.booleans(), min_size=2, max_size=2), min_size=1, max_size=10),
)
@settings(max_examples=80, deadline=None)
def test_detect_matches_brute_force_property(n_wait, rows):
    exceed = np.array(rows, dtype=bool)
    values = np.where(exceed, 2.0, 0.0)
    outcome = detect(values, stats_for([1.0, 1.0]), n_wait=n_wait)
    assert outcome.alarm_index == brute_force_alarm(exceed, n_wait)


# bounded so that squares in the variance stay finite
finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 5)),
    elements=st.floats(-1e6, 1e6),
)


@given(finite_matrices, st.data())
@settings(max_examples=80, deadline=None)
def test_fit_stats_and_standardizer_agree_bit_for_bit(values, data):
    # pin a random subset of columns to one value each
    for col in range(values.shape[1]):
        if data.draw(st.booleans()):
            values[:, col] = data.draw(st.floats(-1e6, 1e6))
    stats = fit_stats(values)
    std = fit_standardizer(values)
    assert stats.mu.tobytes() == std.mean.tobytes()
    assert stats.sigma.tobytes() == std.std.tobytes()
    constant = values.min(axis=0) == values.max(axis=0)
    assert np.array_equal(stats.mu[constant], values[0, constant])
    assert np.all(stats.sigma[constant] == 0.0)


@given(finite_matrices, st.data())
@settings(max_examples=80, deadline=None)
def test_cycle_mean_matches_per_cycle_mean(values, data):
    steps = data.draw(st.lists(st.integers(0, 3), min_size=len(values), max_size=len(values)))
    cycle_of = np.cumsum(steps)
    cycle_ids, means = cycle_mean(values, cycle_of)
    np.testing.assert_array_equal(cycle_ids, np.unique(cycle_of))
    for cycle, row in zip(cycle_ids, means):
        block = values[cycle_of == cycle]
        # np.mean may sum in another order; allow the rounding bound of a sum
        bound = 2 * len(block) * np.finfo(np.float64).eps * np.abs(block).mean(axis=0)
        assert np.all(np.abs(row - np.mean(block, axis=0)) <= bound)
