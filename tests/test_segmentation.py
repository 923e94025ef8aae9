import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from resfault.data_model import DEFAULT_X_CHANNELS
from resfault.detector import (
    CycleAverages,
    HealthyStats,
    build_report,
    cycle_average,
    fit_stats,
)
from resfault.errors import CycleOutOfRange, InsufficientData, SingleCluster
from resfault.health import sensorwise_hi
from resfault.segmentation import (
    NEVER_TRIGGERED,
    pca_2d,
    silhouette,
    silhouette_curve,
    snapshot,
    trigger_timeline,
)
from resfault.config import SynthSettings
from resfault.synth import FamilyFault, build_sensor_map, gen_unit


def averages(values, cycle_ids=None):
    values = np.asarray(values, dtype=np.float64)
    if cycle_ids is None:
        cycle_ids = np.arange(values.shape[0])
    return CycleAverages(cycle_ids=cycle_ids, values=values)


class TestSince:
    def test_view_from_the_alarm_row(self):
        avg = averages(np.arange(12.0).reshape(6, 2), cycle_ids=[3, 4, 5, 7, 8, 9])
        post = avg.since(7)
        np.testing.assert_array_equal(post, [[6.0, 7.0], [8.0, 9.0], [10.0, 11.0]])
        assert np.shares_memory(post, avg.values)
        assert len(avg.since(3)) == 6 and len(avg.since(9)) == 1

    def test_out_of_range(self):
        avg = averages(np.ones((4, 2)), cycle_ids=[2, 3, 5, 6])
        for absent in (1, 4, 7):
            with pytest.raises(CycleOutOfRange):
                avg.since(absent)


class TestSnapshot:
    def test_max_normalization(self):
        values = np.zeros((12, 3))
        values[11] = [2.0, 4.0, 1.0]
        sig = snapshot(averages(values).since(1), k=10)
        np.testing.assert_array_equal(sig, [0.5, 1.0, 0.25])

    def test_all_equal_row_becomes_ones(self):
        values = np.full((5, 4), 3.3)
        sig = snapshot(averages(values).since(0), k=4)
        np.testing.assert_array_equal(sig, 1.0)

    def test_zero_row_stays_zero(self):
        values = np.zeros((3, 2))
        sig = snapshot(averages(values).since(0), k=1)
        np.testing.assert_array_equal(sig, 0.0)

    def test_normalization_leaves_the_averages_unchanged(self):
        avg = averages(np.array([[0.0, 0.0], [2.0, 4.0], [-1.0, -3.0]]))
        before = avg.values.copy()
        for k in range(3):
            snapshot(avg.since(0), k)
        np.testing.assert_array_equal(avg.values, before)

    def test_offset_counts_positions_from_alarm_cycle(self):
        cycle_ids = np.array([7, 8, 9, 10])
        values = np.array([[1.0], [2.0], [6.0], [3.0]])
        # widen to 2 channels so max-normalization is visible
        values = np.hstack([values, values * 0.5])
        sig = snapshot(averages(values, cycle_ids).since(8), k=1)
        np.testing.assert_array_equal(sig, [1.0, 0.5])

    def test_same_family_signatures_are_closer(self, rng):
        # disjoint per-family fault channels, constructed cycle averages
        def sig_for(channels, seed):
            gen = np.random.default_rng(seed)
            values = np.abs(gen.normal(0.05, 0.01, size=(20, 6)))
            values[10:, channels] += np.linspace(0.5, 3.0, 10)[:, None]
            return snapshot(averages(values).since(9), k=10)

        fam_a = [sig_for([0, 1], s) for s in range(3)]
        fam_b = [sig_for([3, 4], s + 10) for s in range(3)]

        def cosine(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        within = [cosine(a, b) for a in fam_a for b in fam_a if a is not b]
        within += [cosine(a, b) for a in fam_b for b in fam_b if a is not b]
        across = [cosine(a, b) for a in fam_a for b in fam_b]
        assert min(within) > max(across)


def power_iteration_top2(matrix, iters=200_000, tol=1e-14):
    """Independent top-2 principal axes by power iteration with deflation."""
    x = matrix - matrix.mean(axis=0)
    cov = x.T @ x / (len(matrix) - 1)
    comps = []
    lams = []
    seed_vec = np.cos(np.arange(cov.shape[0]) + 1.0)
    for _ in range(2):
        v = cov @ seed_vec
        v = v / np.linalg.norm(v)
        for _ in range(iters):
            w = cov @ v
            norm = np.linalg.norm(w)
            if norm == 0:
                break
            w = w / norm
            if np.linalg.norm(w - v) < tol:
                v = w
                break
            v = w
        lam = float(v @ cov @ v)
        pivot = np.argmax(np.abs(v))
        if v[pivot] < 0:
            v = -v
        comps.append(v)
        lams.append(lam)
        cov = cov - lam * np.outer(v, v)
    return np.array(comps), np.array(lams), x @ np.array(comps).T


class TestPca2d:
    def test_rank_one_data_has_tiny_pc2(self, rng):
        direction = rng.normal(size=14)
        points = np.outer(rng.normal(size=20), direction)
        result = pca_2d(points)
        assert np.all(np.abs(result.coords[:, 1]) < 1e-10)

    def test_planar_data_preserves_pairwise_distances(self, rng):
        # points in a 2-D subspace of 14-D: the top-2 projection is an
        # isometry on them
        basis = np.linalg.qr(rng.normal(size=(14, 2)))[0].T
        flat = rng.normal(size=(6, 2))
        points = flat @ basis
        result = pca_2d(points)
        for i in range(6):
            for j in range(6):
                d_orig = np.linalg.norm(points[i] - points[j])
                d_proj = np.linalg.norm(result.coords[i] - result.coords[j])
                np.testing.assert_allclose(d_proj, d_orig, atol=1e-10)

    def test_matches_power_iteration_oracle(self, rng):
        points = rng.normal(size=(30, 14))
        result = pca_2d(points)
        comps, lams, coords = power_iteration_top2(points)
        np.testing.assert_allclose(result.components, comps, atol=1e-8)
        np.testing.assert_allclose(result.coords, coords, atol=1e-8)
        assert result.explained_variance[0] >= result.explained_variance[1]
        assert result.coords[:, 0].var() >= result.coords[:, 1].var() - 1e-12

    def test_requires_three_points(self):
        with pytest.raises(InsufficientData):
            pca_2d(np.ones((2, 4)))

    def test_translation_invariance(self, rng):
        points = rng.normal(size=(10, 5))
        shifted = points + rng.normal(size=5)
        a = pca_2d(points)
        b = pca_2d(shifted)
        np.testing.assert_allclose(a.coords, b.coords, atol=1e-10)


def brute_silhouette(points, labels):
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    dist = [
        [math.sqrt(sum((points[i, k] - points[j, k]) ** 2 for k in range(points.shape[1])))
         for j in range(n)]
        for i in range(n)
    ]
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = sum(dist[i][j] for j in own) / len(own)
        b = min(
            sum(dist[i][j] for j in range(n) if labels[j] == other)
            / sum(1 for j in range(n) if labels[j] == other)
            for other in set(labels)
            if other != labels[i]
        )
        top = max(a, b)
        scores.append((b - a) / top if top > 0 else 0.0)
    return sum(scores) / n


class TestSilhouette:
    def test_well_separated_blobs(self, rng):
        a = rng.normal(0.0, 0.05, size=(20, 3))
        b = rng.normal(0.0, 0.05, size=(20, 3)) + 10.0
        score = silhouette(np.vstack([a, b]), ["a"] * 20 + ["b"] * 20)
        assert score > 0.9

    def test_overlapping_blobs_near_zero(self, rng):
        pts = rng.normal(size=(60, 2))
        score = silhouette(pts, ["a", "b"] * 30)
        assert abs(score) < 0.1

    def test_six_points_hand_computation(self):
        pts = np.array([[0.0, 0], [1, 0], [0, 1], [10, 10], [11, 10], [10, 11]])
        labels = ["l", "l", "l", "r", "r", "r"]
        np.testing.assert_allclose(
            silhouette(pts, labels), brute_silhouette(pts, labels), atol=1e-12
        )

    def test_matches_brute_force_on_random_sets(self, rng):
        for trial in range(8):
            n = int(rng.integers(4, 51))
            pts = rng.normal(size=(n, int(rng.integers(1, 5))))
            labels = [str(v) for v in rng.integers(0, 3, size=n)]
            if len(set(labels)) < 2:
                continue
            np.testing.assert_allclose(
                silhouette(pts, labels), brute_silhouette(pts, labels), atol=1e-12
            )

    def test_single_cluster_rejected(self):
        with pytest.raises(SingleCluster):
            silhouette(np.ones((4, 2)), ["a"] * 4)

    def test_singleton_cluster_scores_zero(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0], [5.0, 6.0]])
        score = silhouette(pts, ["solo", "pair", "pair"])
        expected = brute_silhouette(pts, ["solo", "pair", "pair"])
        np.testing.assert_allclose(score, expected, atol=1e-12)

    def test_identical_points_score_zero(self):
        pts = np.zeros((4, 2))
        assert silhouette(pts, ["a", "a", "b", "b"]) == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_range_and_permutation_invariance(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(4, 20))
        pts = gen.normal(size=(n, 2))
        labels = np.array(["a", "b"] * (n // 2 + 1))[:n]
        base = silhouette(pts, labels)
        assert -1.0 <= base <= 1.0
        perm = gen.permutation(n)
        np.testing.assert_allclose(silhouette(pts[perm], labels[perm]), base, atol=1e-12)


class TestSilhouetteCurve:
    def build_fleet(self, n_per_family=3, n_cycles=25, alarm=10, short_unit=False):
        posts, labels = [], []
        gen = np.random.default_rng(5)
        for fam_idx, (fam, chans) in enumerate((("A", [0, 1]), ("B", [3, 4]))):
            for u in range(n_per_family):
                length = n_cycles - (12 if short_unit and fam_idx == 0 and u == 0 else 0)
                values = np.abs(gen.normal(0.05, 0.01, size=(length, 6)))
                ramp = np.linspace(0.5, 4.0, max(length - alarm, 1))[:, None]
                values[alarm:, chans] += ramp
                posts.append(averages(values).since(alarm))
                labels.append(fam)
        return posts, labels

    def test_scores_finite_over_domain(self):
        posts, labels = self.build_fleet()
        curve = silhouette_curve(posts, labels, k_range=range(0, 7))
        assert [p.k for p in curve] == list(range(7))
        assert all(np.isfinite(p.score) for p in curve)
        assert all(p.n_units == 6 for p in curve)

    def test_separable_families_score_high(self):
        posts, labels = self.build_fleet()
        curve = silhouette_curve(posts, labels, k_range=[10])
        assert curve[0].score > 0.5

    def test_units_dropped_after_series_end(self):
        posts, labels = self.build_fleet(short_unit=True)
        curve = silhouette_curve(posts, labels, k_range=[0, 10])
        assert curve[0].n_units == 6
        assert curve[1].n_units == 5

    def test_single_family_rejected(self):
        posts, labels = self.build_fleet()
        with pytest.raises(SingleCluster):
            silhouette_curve(posts[:3], labels[:3], k_range=[0])


class TestTriggerTimeline:

    def test_categories(self):
        # channel 0 exceeds from the alarm on; channel 1 never; channel 2
        # only from 25 cycles after the alarm
        n = 60
        values = np.full((n, 3), 0.1)
        alarm = 12
        values[alarm:, 0] = 5.0
        values[alarm + 25 :, 2] = 5.0
        avg = averages(values)
        stats = fit_stats(np.array([[0.0, 0.0, 0.0], [0.4, 0.4, 0.4]]), ("c0", "c1", "c2"))
        timeline = trigger_timeline(avg.since(alarm), stats, checkpoints=(10, 20, 30, 40))
        assert timeline["c0"] == 10
        assert timeline["c1"] == NEVER_TRIGGERED
        assert timeline["c2"] == 30

    def test_checkpoints_past_series_end_do_not_trigger(self):
        values = np.full((20, 2), 0.1)
        values[:, 0] = 5.0
        avg = averages(values)
        stats = fit_stats(np.array([[0.0, 0.0], [0.4, 0.4]]), ("c0", "c1"))
        timeline = trigger_timeline(avg.since(15), stats, checkpoints=(10, 20, 30, 40))
        # only the +10 checkpoint cycle falls outside... the series ends at
        # position 19 < 15+10, so nothing is reachable
        assert timeline["c0"] == NEVER_TRIGGERED

    def test_staggered_onsets_from_generator(self):
        family = FamilyFault(
            name="stag",
            sensors=("T24", "T30"),
            rate_multipliers=(1.0, 1.0),
            onset_offsets=(0, 15),
        )
        settings = SynthSettings(
            n_units=1,
            cycles_per_unit=70,
            rows_per_cycle=40,
            fault_start_lo=18,
            fault_start_hi=18,
            noise_std=0.05,
        )
        response = build_sensor_map(21)
        series, truth = gen_unit(settings, family, 99, "u1", response)
        # oracle residuals: the generator's own response map is a perfect
        # operating-conditions model, so residual = noise + injected drift
        residuals = series.x - response.apply(series.w)
        hi = sensorwise_hi(residuals)
        healthy_rows = series.cycle_of < 16
        stats = fit_stats(hi[healthy_rows], DEFAULT_X_CHANNELS)
        avg = cycle_average(hi, series.cycle_of)
        report = build_report("u1", "stag", avg, stats, n_wait=3, n_true=truth.fault_cycle)
        assert report.detected
        timeline = trigger_timeline(
            avg.since(report.alarm_cycle), stats, checkpoints=(10, 20, 30, 40)
        )
        first = timeline["T24"]
        second = timeline["T30"]
        assert first != NEVER_TRIGGERED and second != NEVER_TRIGGERED
        assert second > first


N_CHANNELS = 3


@st.composite
def alarmed_fleets(draw):
    """Post-alarm rows of 1..40 cycles, each unit in one of 2 or 3 families."""
    families = "ABC"[: draw(st.integers(2, 3))]
    labels = [families[i % len(families)] for i in range(draw(st.integers(len(families), 8)))]
    labels = draw(st.permutations(labels))
    posts = [
        draw(arrays(np.float64, (draw(st.integers(1, 40)), N_CHANNELS),
                    elements=st.floats(0.0, 4.0)))
        for _ in labels
    ]
    return posts, labels


def normalized(row):
    return row / row.max() if row.max() > 0 else row


@given(alarmed_fleets())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_curve_scores_the_units_whose_rows_reach_each_offset(fleet):
    posts, labels = fleet
    k_range = range(0, 42)
    curve = silhouette_curve(posts, labels, k_range)
    assert [point.k for point in curve] == list(k_range)
    for k, point in zip(k_range, curve):
        kept = [i for i, post in enumerate(posts) if len(post) > k]
        assert point.n_units == len(kept)
        if len({labels[i] for i in kept}) < 2:
            assert math.isnan(point.score)
        else:
            rows = np.array([normalized(posts[i][k]) for i in kept])
            assert point.score == silhouette(rows, [labels[i] for i in kept])


@given(
    alarmed_fleets(),
    st.lists(st.floats(0.0, 4.0), min_size=N_CHANNELS, max_size=N_CHANNELS),
    st.lists(st.integers(0, 45), max_size=5, unique=True),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_timeline_is_the_first_reachable_checkpoint_above_tau(fleet, tau, checkpoints):
    names = ("c0", "c1", "c2")
    stats = HealthyStats(
        mu=tau, sigma=np.zeros(N_CHANNELS), tau=tau, fitted_on=2, channel_names=names
    )
    for post in fleet[0]:
        timeline = trigger_timeline(post, stats, tuple(checkpoints))
        for ch, name in enumerate(names):
            hits = [c for c in sorted(checkpoints) if c < len(post) and post[c, ch] > tau[ch]]
            assert timeline[name] == (hits[0] if hits else NEVER_TRIGGERED)
