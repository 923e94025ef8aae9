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
    detect,
    fit_stats,
)
from resfault.errors import DataError
from resfault.experiment import evaluate_group
from resfault.health import AGGREGATED
from resfault.preprocess import fit_standardizer


def brute_force_alarm(exceed: np.ndarray, n_wait: int):
    """Reference: scan every window of n_wait cycles per channel."""
    n_cycles, n_channels = exceed.shape
    for end in range(n_wait - 1, n_cycles):
        for ch in range(n_channels):
            if all(exceed[end - d, ch] for d in range(n_wait)):
                return end
    return None


def names_for(n):
    return tuple(f"c{i}" for i in range(n))


def stats_for(tau, names=None):
    tau = np.asarray(tau, dtype=np.float64)
    return HealthyStats(
        mu=tau, sigma=np.zeros_like(tau), tau=tau, fitted_on=2,
        channel_names=names or names_for(len(tau)),
    )


class TestFitStats:
    def test_constant_channel(self):
        s = fit_stats(np.array([[1.0], [1.0], [1.0]]), ("h",))
        assert s.mu[0] == 1.0 and s.sigma[0] == 0.0 and s.tau[0] == 1.0

    def test_zero_two_hand_arithmetic(self):
        s = fit_stats(np.array([[0.0], [2.0]]), ("h",))
        assert s.mu[0] == 1.0
        assert s.sigma[0] == 1.0
        assert s.tau[0] == 4.0

    def test_matches_two_pass_oracle(self, rng):
        values = rng.exponential(size=(500, 3))
        s = fit_stats(values, names_for(3))
        for ch in range(3):
            mu = sum(values[:, ch]) / 500
            var = sum((v - mu) ** 2 for v in values[:, ch]) / 500
            np.testing.assert_allclose(s.mu[ch], mu, rtol=1e-12)
            np.testing.assert_allclose(s.sigma[ch], np.sqrt(var), rtol=1e-12)
            np.testing.assert_allclose(s.tau[ch], mu + 3 * np.sqrt(var), rtol=1e-12)

    def test_three_sigma_identity(self, rng):
        s = fit_stats(rng.exponential(size=(50, 4)), names_for(4))
        np.testing.assert_array_equal(s.tau - s.mu, 3.0 * s.sigma)

    def test_insufficient_rows(self):
        with pytest.raises(DataError, match="need >= 2 rows to fit, got 1"):
            fit_stats(np.ones((1, 2)), names_for(2))


class TestCycleAverage:
    def test_two_row_cycle(self):
        avg = cycle_average(np.array([[2.0, 1.0], [4.0, 1.0]]), [0, 0])
        np.testing.assert_array_equal(avg.values, [[3.0, 1.0]])
        # single-precision rows are summed in double precision
        rows = np.array([[0.1], [0.2], [0.4]], dtype=np.float32)
        avg = cycle_average(rows, [0, 0, 0])
        np.testing.assert_array_equal(avg.values, [[rows.astype(np.float64).sum() / 3]])

    def test_single_row_cycle(self):
        avg = cycle_average(np.array([[7.0, 2.0]]), [3])
        np.testing.assert_array_equal(avg.values, [[7.0, 2.0]])
        np.testing.assert_array_equal(avg.cycle_ids, [3])

    def test_matches_groupby_mean_oracle(self, rng):
        cyc = np.repeat([0, 1, 2, 5], [4, 3, 6, 2])
        values = np.abs(rng.normal(size=(15, 3)))
        avg = cycle_average(values, cyc)
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
        assert detect(values.tolist(), stats_for([1.0]), n_wait=3).alarm_index == 3

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

    def test_constant_series_with_tau_equal_mu_never_alarms(self):
        s = fit_stats(np.full((10, 1), 3.7), ("h",))
        assert s.tau[0] == s.mu[0]
        outcome = detect(np.full((50, 1), 3.7), s, n_wait=1)
        assert outcome.alarm_index is None


class TestDelayAndFpr:
    def test_late_detection_positive(self):
        assert self.report("u", alarm=40, n_true=24).delay == 16

    def test_zero_delay(self):
        assert self.report("u", alarm=24, n_true=24).delay == 0

    def test_negative_is_false_positive(self):
        assert self.report("u", alarm=20, n_true=24).delay == -4

    def test_no_delay_without_both_cycles(self):
        assert self.report("u", alarm=None, n_true=24).delay is None
        assert self.report("u", alarm=20, n_true=None).delay is None

    def report(self, unit, alarm=None, n_true=30, known=True):
        return DetectionReport(
            unit_id=unit,
            dataset_id="d",
            alarm_cycle=alarm,
            n_true=n_true,
            triggered_first=(),
            ground_truth_known=known,
        )

    @staticmethod
    def false_positive_rate(reports):
        """The evaluation's rate over one realisation's reports."""
        return evaluate_group("OC", AGGREGATED, [reports]).fpr

    def test_one_negative_among_thirty(self):
        reports = [self.report(f"u{i}", alarm=35) for i in range(29)]
        reports.append(self.report("u29", alarm=28))
        assert self.false_positive_rate(reports) == pytest.approx(1 / 30)

    def test_no_negative_delays(self):
        reports = [self.report(f"u{i}", alarm=33) for i in range(4)]
        reports.append(self.report("u4"))  # no alarm counts only in denominator
        reports.append(self.report("u5", alarm=30))  # an alarm at the fault
        assert self.false_positive_rate(reports) == 0.0

    def test_all_negative(self):
        reports = [self.report(f"u{i}", alarm=29) for i in range(3)]
        assert self.false_positive_rate(reports) == 1.0

    def test_alarm_on_healthy_unit_counts(self):
        reports = [
            self.report("u0", alarm=12, n_true=None),
            self.report("u1", n_true=None),
        ]
        assert self.false_positive_rate(reports) == 0.5

    def test_empty_fleet(self):
        with pytest.raises(DataError, match="no detection reports to evaluate"):
            self.false_positive_rate([])

    def test_unknown_ground_truth_excluded(self):
        unknown = self.report("u0", alarm=12, n_true=None, known=False)
        assert self.false_positive_rate([unknown]) is None
        known = [self.report("u1", alarm=29), self.report("u2", n_true=None)]
        assert self.false_positive_rate([unknown] + known) == 0.5


class TestBuildReport:
    def test_maps_alarm_to_cycle_label(self):
        values = np.abs(np.array([[0.1], [0.1], [5.0], [5.0], [5.0]]))
        avg = cycle_average(np.hstack([values, values]), [10, 11, 12, 13, 14])
        stats = stats_for([1.0, 9.0], names=("a", "b"))
        rep = build_report("u7", "ds", avg, stats, n_wait=3, n_true=11)
        assert rep.alarm_cycle == 14
        assert rep.delay == 3
        assert rep.triggered_first == ("a",)

    def test_no_alarm_report(self):
        avg = cycle_average(np.zeros((4, 2)), [0, 0, 1, 1])
        rep = build_report("u1", "ds", avg, stats_for([1.0, 1.0]), n_wait=3, n_true=2)
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
    stats = fit_stats(values, names_for(values.shape[1]))
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
    avg = cycle_average(values, cycle_of)
    np.testing.assert_array_equal(avg.cycle_ids, np.unique(cycle_of))
    for cycle, row in zip(avg.cycle_ids, avg.values):
        block = values[cycle_of == cycle]
        # np.mean may sum in another order; allow the rounding bound of a sum
        bound = 2 * len(block) * np.finfo(np.float64).eps * np.abs(block).mean(axis=0)
        assert np.all(np.abs(row - np.mean(block, axis=0)) <= bound)


def alarm_rank(outcome) -> float:
    """Alarm position, with no alarm ranked after every cycle."""
    return np.inf if outcome.alarm_index is None else outcome.alarm_index


cycle_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 12), st.integers(1, 4)),
    elements=st.floats(0.0, 2.0),
)


@given(cycle_matrices, st.data())
@settings(max_examples=100, deadline=None)
def test_raising_any_tau_never_alarms_earlier(values, data):
    n_channels = values.shape[1]
    tau = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n_channels,
                                      max_size=n_channels)))
    channel = data.draw(st.integers(0, n_channels - 1))
    raised = tau.copy()
    raised[channel] += data.draw(st.floats(0.0, 2.0))
    n_wait = data.draw(st.integers(1, 4))
    before = detect(values, stats_for(tau), n_wait=n_wait)
    after = detect(values, stats_for(raised), n_wait=n_wait)
    assert alarm_rank(after) >= alarm_rank(before)


@given(cycle_matrices, st.data())
@settings(max_examples=100, deadline=None)
def test_lowering_n_wait_never_alarms_later(values, data):
    n_channels = values.shape[1]
    stats = stats_for(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n_channels,
                                         max_size=n_channels)))
    n_wait = data.draw(st.integers(2, 5))
    lower = data.draw(st.integers(1, n_wait - 1))
    longer = detect(values, stats, n_wait=n_wait)
    shorter = detect(values, stats, n_wait=lower)
    assert alarm_rank(shorter) <= alarm_rank(longer)
