"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; under plain `pytest` the test names themselves carry the verdicts.
The end-to-end criterion trains both models once on a seeded 30-unit
synthetic fleet and reuses the results across its sub-checks.
"""

import dataclasses
import itertools
import math
import os
import time

import numpy as np
import pytest
import yaml

from resfault import experiment, nn
from resfault.cli import main as cli_main
from resfault.config import config_from_dict
from resfault.detector import detect, fit_stats, HealthyStats
from resfault.health import AGGREGATED, SENSORWISE, aggregated_hi, sensorwise_hi
from resfault.segmentation import pca_2d, silhouette, silhouette_curve
from resfault.synth import gen_fleet
from gradcheck import finite_diff_grad


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


# --- criterion 1: gradient correctness ------------------------------------


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    checked = 0
    while checked < 20:
        n_layers = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(1, 9)) for _ in range(n_layers + 1))
        net = nn.init_weights(dims, seed=int(rng.integers(0, 2**31)))
        for b in net.biases:
            b += rng.normal(0, 0.5, size=b.shape)
        x = rng.normal(size=(3, dims[0]))
        t = rng.normal(size=(3, dims[-1]))
        pre_acts, _ = nn.forward_activations(net, x)
        relu_margin = min(
            (float(np.abs(z).min()) for z, tag in zip(pre_acts, net.activations)
             if tag == nn.RELU),
            default=np.inf,
        )
        if relu_margin < 1e-4:
            continue
        analytic = nn.backward(net, x, t)
        numeric = finite_diff_grad(net, x, t, h=1e-5)
        for a, f in zip(analytic.params(), numeric.params()):
            diff = np.abs(a - f)
            scale = np.maximum(np.abs(a), np.abs(f))
            bad = (diff > 1e-7) & (diff > 1e-5 * scale)
            assert not bad.any(), f"gradient mismatch on net {dims}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    ok(1, f"20 random nets, rel err < 1e-5, {elapsed:.2f}s")


# --- criterion 2: Adam oracle ----------------------------------------------


def test_criterion_02_adam_two_step_trace():
    beta1, beta2, lr, eps = 0.9, 0.999, 0.001, 1e-8
    theta = 0.5
    m = v = 0.0
    for t in (1, 2):
        m = beta1 * m + (1 - beta1) * 1.0
        v = beta2 * v + (1 - beta2) * 1.0
        theta -= lr * (m / (1 - beta1**t)) / (math.sqrt(v / (1 - beta2**t)) + eps)

    params = [np.array([0.5])]
    state = nn.AdamState.init(params)
    for _ in range(2):
        params, state = nn.adam_step(params, [np.array([1.0])], state)
    assert abs(params[0][0] - theta) <= 1e-12
    ok(2, f"two-step trace matches hand computation to 1e-12 (theta={theta:.12f})")


# --- criterion 3: threshold math -------------------------------------------


def test_criterion_03_threshold_math():
    s = fit_stats(np.array([[0.0], [2.0]]))
    assert s.mu[0] == 1.0 and s.sigma[0] == 1.0 and s.tau[0] == 4.0

    const = fit_stats(np.full((20, 1), 3.7))
    assert const.tau[0] == const.mu[0]
    outcome = detect(np.full((100, 1), 3.7), const, n_wait=1)
    assert outcome.alarm_index is None
    ok(3, "mu=1 sigma=1 tau=4 exact; constant series never alarms")


# --- criterion 4: waiting-cycle logic, exhaustive ---------------------------


def brute_force_alarm(exceed: np.ndarray, n_wait: int):
    n_cycles, n_channels = exceed.shape
    for end in range(n_wait - 1, n_cycles):
        for ch in range(n_channels):
            if all(exceed[end - d, ch] for d in range(n_wait)):
                return end
    return None


def test_criterion_04_waiting_cycle_exhaustive():
    stats1 = HealthyStats(mu=np.array([1.0]), sigma=np.zeros(1), tau=np.array([1.0]), fitted_on=2)
    stats2 = HealthyStats(mu=np.ones(2), sigma=np.zeros(2), tau=np.ones(2), fitted_on=2)
    cases = 0
    no_alarm_cases = 0
    for n_channels, stats in ((1, stats1), (2, stats2)):
        for n_cycles in range(1, 9):
            for bits in itertools.product((0.0, 2.0), repeat=n_channels * n_cycles):
                values = np.array(bits).reshape(n_cycles, n_channels)
                got = detect(values, stats, n_wait=3).alarm_index
                want = brute_force_alarm(values > 1.0, 3)
                assert got == want, (values, got, want)
                cases += 1
                if want is None:
                    no_alarm_cases += 1
    assert cases == sum(2**c for c in range(1, 9)) + sum(4**c for c in range(1, 9))
    assert no_alarm_cases > 0
    ok(4, f"exhaustive agreement on {cases} boolean matrices (C<=8, K<=2)")


# --- criterion 5: health-indicator identities -------------------------------


def test_criterion_05_hi_identities():
    assert aggregated_hi(np.array([[3.0, 4.0]]), np.zeros(1, dtype=int), "OC").values[0, 0] == 5.0
    rng = np.random.default_rng(7)
    for _ in range(25):
        r = rng.normal(size=(rng.integers(1, 40), rng.integers(2, 20))) * 10
        cyc = np.zeros(r.shape[0], dtype=int)
        agg = aggregated_hi(r, cyc, "OC").values[:, 0]
        sens = sensorwise_hi(r, cyc, "OC").values
        np.testing.assert_allclose(agg**2, (sens**2).sum(axis=1), rtol=1e-10, atol=1e-10)
    ok(5, "aggregated^2 equals sum of sensor-wise^2 to 1e-10; [3,4] -> 5")


# --- criterion 6: silhouette oracle -----------------------------------------


def brute_silhouette(points, labels):
    n = len(points)
    dist = [
        [math.dist(points[i], points[j]) for j in range(n)] for i in range(n)
    ]
    total = 0.0
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue
        a = sum(dist[i][j] for j in own) / len(own)
        b = min(
            sum(dist[i][j] for j in range(n) if labels[j] == other)
            / sum(1 for j in range(n) if labels[j] == other)
            for other in set(labels) if other != labels[i]
        )
        top = max(a, b)
        total += (b - a) / top if top > 0 else 0.0
    return total / n


def test_criterion_06_silhouette_oracle():
    rng = np.random.default_rng(15)
    for _ in range(12):
        n = int(rng.integers(4, 51))
        pts = rng.normal(size=(n, int(rng.integers(1, 6))))
        labels = [str(v) for v in rng.integers(0, 3, size=n)]
        if len(set(labels)) < 2:
            continue
        assert abs(silhouette(pts, labels) - brute_silhouette(pts, labels)) <= 1e-12

    far = np.vstack([rng.normal(0, 0.05, size=(25, 3)), rng.normal(8, 0.05, size=(25, 3))])
    assert silhouette(far, ["a"] * 25 + ["b"] * 25) > 0.9
    overlap = rng.normal(size=(80, 3))
    assert abs(silhouette(overlap, ["a", "b"] * 40)) <= 0.1
    ok(6, "matches brute force to 1e-12; separated > 0.9, overlapped within 0.1 of 0")


# --- criterion 7: PCA oracle -------------------------------------------------


def power_iteration_top2(matrix, iters=200_000, tol=1e-14):
    x = matrix - matrix.mean(axis=0)
    cov = x.T @ x / (len(matrix) - 1)
    comps = []
    seed_vec = np.cos(np.arange(cov.shape[0]) + 1.0)
    for _ in range(2):
        v = cov @ seed_vec
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = cov @ v
            norm = np.linalg.norm(w)
            if norm == 0:
                break
            w /= norm
            if np.linalg.norm(w - v) < tol:
                v = w
                break
            v = w
        pivot = np.argmax(np.abs(v))
        if v[pivot] < 0:
            v = -v
        comps.append(v)
        cov = cov - float(v @ cov @ v) * np.outer(v, v)
    comps = np.array(comps)
    return comps, x @ comps.T


def test_criterion_07_pca_oracle():
    rng = np.random.default_rng(31)
    for _ in range(5):
        pts = rng.normal(size=(30, 14))
        result = pca_2d(pts)
        comps, coords = power_iteration_top2(pts)
        np.testing.assert_allclose(result.components, comps, atol=1e-8)
        np.testing.assert_allclose(result.coords, coords, atol=1e-8)

    line = np.outer(rng.normal(size=25), rng.normal(size=14))
    assert np.all(np.abs(pca_2d(line).coords[:, 1]) < 1e-10)
    ok(7, "projections match power iteration to 1e-8; rank-1 PC2 < 1e-10")


# --- criterion 8: synthetic end-to-end ---------------------------------------


@pytest.fixture(scope="module")
def end_to_end():
    started = time.perf_counter()
    cfg = config_from_dict({"training": {"realisations": 1}})
    synth_cfg = experiment.synth_config_from_run(cfg)
    assert synth_cfg.effective_scale() == pytest.approx(
        6.0 * synth_cfg.noise_std / 10**2
    )
    fleet = gen_fleet(synth_cfg)
    assert len(fleet) == 30
    units = [s for s, _ in fleet]
    truths = {t.unit_id: t for _, t in fleet}

    healthy_cfg = dataclasses.replace(
        synth_cfg,
        severity_scale=0.0,
        n_units=4,
        seed=synth_cfg.seed + 101,
        map_seed=synth_cfg.effective_map_seed(),
        unit_prefix="holdout-",
    )
    healthy_fleet = gen_fleet(healthy_cfg)[:10]
    healthy_units = [s for s, _ in healthy_fleet]
    healthy_truths = {t.unit_id: t for _, t in healthy_fleet}
    assert len(healthy_units) == 10

    pre = experiment.label_fleet(experiment.preprocess_fleet(units, cfg), truths)
    healthy_pre = experiment.label_fleet(
        experiment.preprocess_fleet(healthy_units, cfg), healthy_truths
    )
    prepared = experiment.prepare_fleet(pre, cfg, split_seed=experiment.derive_seed(
        cfg.seed, experiment.SEED_SPLIT, 0))
    train_seed = experiment.derive_seed(cfg.seed, experiment.SEED_TRAIN, 0)

    detections = {}
    healthy_detections = {}
    for kind in experiment.MODEL_KINDS:
        model, _ = experiment.train_model(prepared, kind, cfg, train_seed)
        residuals = experiment.fleet_residuals(model, prepared.units)
        healthy_residuals = experiment.fleet_residuals(model, healthy_pre)
        for hi_kind in experiment.HI_KINDS:
            stats = experiment.fit_fleet_stats(prepared, model, hi_kind, cfg, residuals)
            detections[(kind, hi_kind)] = experiment.detect_with_stats(
                prepared.units, model, hi_kind, stats, cfg, truths, residuals
            )
            healthy_detections[(kind, hi_kind)] = experiment.detect_with_stats(
                healthy_pre, model, hi_kind, stats, cfg, healthy_truths, healthy_residuals
            )

    silhouettes = {}
    for kind in experiment.MODEL_KINDS:
        det = detections[(kind, SENSORWISE)]
        avgs = [det.cycle_averages[r.unit_id] for r in det.reports]
        labels = [truths[r.unit_id].family for r in det.reports]
        curve = silhouette_curve(det.reports, avgs, labels, k_range=[10])
        silhouettes[kind] = curve[0].score

    return {
        "detections": detections,
        "healthy": healthy_detections,
        "silhouettes": silhouettes,
        "elapsed": time.perf_counter() - started,
    }


def mean_delay(reports):
    delays = [r.delay for r in reports if r.delay is not None]
    assert delays, "no detections at all"
    return float(np.mean(delays))


def test_criterion_08a_oc_sensorwise_delay(end_to_end):
    delay = mean_delay(end_to_end["detections"][("OC", SENSORWISE)].reports)
    assert delay <= 15.0
    ok(8, f"(a) OC sensor-wise mean delay {delay:.2f} <= 15 cycles")


def test_criterion_08b_sensorwise_not_later_than_aggregated(end_to_end):
    for kind in experiment.MODEL_KINDS:
        sens = mean_delay(end_to_end["detections"][(kind, SENSORWISE)].reports)
        agg = mean_delay(end_to_end["detections"][(kind, AGGREGATED)].reports)
        assert sens <= agg, f"{kind}: sensor-wise {sens:.2f} > aggregated {agg:.2f}"
    ok(8, "(b) sensor-wise mean delay <= aggregated for both models")


def test_criterion_08c_healthy_fleet_fpr_zero(end_to_end):
    for kind in experiment.MODEL_KINDS:
        reports = end_to_end["healthy"][(kind, AGGREGATED)].reports
        assert len(reports) == 10
        assert all(r.ground_truth_known for r in reports)
        fpr = experiment.evaluate_group(kind, AGGREGATED, [reports]).fpr
        assert fpr == 0.0, f"{kind} aggregated FPR {fpr:.1%} on healthy units"
    ok(8, "(c) FPR 0% on 10 healthy hold-out units for aggregated indicators")


def test_criterion_08d_oc_silhouette_beats_ae(end_to_end):
    oc = end_to_end["silhouettes"]["OC"]
    ae = end_to_end["silhouettes"]["AE"]
    assert oc > ae, f"OC silhouette {oc:.3f} <= AE {ae:.3f}"
    assert oc > 0.5
    ok(8, f"(d) OC silhouette {oc:.3f} > AE {ae:.3f} and > 0.5 at alarm+10")


def test_criterion_08e_runtime(end_to_end):
    assert end_to_end["elapsed"] < 600.0
    ok(8, f"(runtime) end-to-end completed in {end_to_end['elapsed']:.1f}s < 600s")


# --- criterion 9: pipeline determinism ---------------------------------------


def run_pipeline(root, cfg_path):
    data = root / "data"
    assert cli_main(["synth", "--config", cfg_path, "--out", str(data)]) == 0
    reports = []
    for model in ("oc", "ae"):
        ckpt = root / f"{model}.json"
        assert cli_main(
            ["train", "--config", cfg_path, "--data", str(data), "--model", model,
             "--out", str(ckpt)]
        ) == 0
        for hi in (AGGREGATED, SENSORWISE):
            out = root / f"{model}_{hi}.csv"
            assert cli_main(
                ["detect", "--config", cfg_path, "--data", str(data),
                 "--checkpoint", str(ckpt), "--hi", hi, "--out", str(out)]
            ) == 0
            reports.append(out)
    eval_dir = root / "eval"
    assert cli_main(
        ["evaluate", "--reports", *[str(p) for p in reports], "--out", str(eval_dir)]
    ) == 0
    seg_dir = root / "seg"
    assert cli_main(
        ["segment", "--config", cfg_path, "--data", str(data),
         "--checkpoint", str(root / "oc.json"), "--reports", str(root / f"oc_{SENSORWISE}.csv"),
         "--out", str(seg_dir)]
    ) == 0
    csvs = {}
    for path in sorted(root.rglob("*.csv")):
        csvs[str(path.relative_to(root))] = path.read_bytes()
    return csvs


def test_criterion_09_pipeline_determinism(tmp_path):
    cfg_blob = {
        "seed": 321,
        "split": {"healthy_cycles": 6},
        "training": {"epochs": 6, "batch_size": 32, "patience": 6,
                     "learning_rate": 0.01, "realisations": 1},
        "synth": {"n_units": 3, "n_families": 2, "cycles_per_unit": 36,
                  "rows_per_cycle": 100, "fault_start_lo": 8, "fault_start_hi": 10,
                  "noise_std": 0.25},
        "segmentation": {"k_max": 12},
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg_blob))
    first = run_pipeline(tmp_path / "run1", str(cfg_path))
    second = run_pipeline(tmp_path / "run2", str(cfg_path))
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    ok(9, f"two full pipeline runs produced {len(first)} bit-identical CSV files")


# --- criterion 10: optional extended track -----------------------------------


REAL_DATA_ENV = "RESFAULT_REAL_DATA_DIR"


@pytest.mark.skipif(
    REAL_DATA_ENV not in os.environ,
    reason=f"optional: set {REAL_DATA_ENV} to a directory with fleet.csv/ground_truth.csv "
    "converted from real run-to-failure data",
)
def test_criterion_10_real_data_orderings():
    from resfault.persist import load_csv, load_ground_truth

    root = os.environ[REAL_DATA_ENV]
    cfg = config_from_dict({"training": {"realisations": 1}})
    units = load_csv(os.path.join(root, "fleet.csv"))
    truths = load_ground_truth(os.path.join(root, "ground_truth.csv"))
    result = experiment.run_protocol(units, truths, cfg)
    oc_agg = result.evaluations[("OC", AGGREGATED)].mean_delay
    ae_agg = result.evaluations[("AE", AGGREGATED)].mean_delay
    oc_sens = result.evaluations[("OC", SENSORWISE)].mean_delay
    ae_sens = result.evaluations[("AE", SENSORWISE)].mean_delay
    assert oc_agg < ae_agg
    assert oc_sens <= oc_agg
    assert ae_sens <= ae_agg
    ok(10, "real-data ordering reproduced (OC < AE; sensor-wise < aggregated)")
