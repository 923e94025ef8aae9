import dataclasses
import os

import numpy as np
import pytest

from resfault import experiment, parallel, segmentation
from resfault.config import config_from_dict
from resfault.detector import DetectionReport
from resfault.errors import EmptyFleet
from resfault.health import AGGREGATED, SENSORWISE
from resfault.preprocess import apply_standardizer
from resfault.data_model import stack_rows
from resfault.synth import gen_fleet


def mini_cfg(realisations=2):
    return config_from_dict(
        {
            "seed": 11,
            "split": {"healthy_cycles": 6},
            "training": {
                "epochs": 6,
                "batch_size": 32,
                "patience": 6,
                "learning_rate": 0.01,
                "realisations": realisations,
            },
            "synth": {
                "n_units": 2,
                "n_families": 2,
                "cycles_per_unit": 30,
                "rows_per_cycle": 80,
                "fault_start_lo": 8,
                "fault_start_hi": 9,
                "noise_std": 0.25,
            },
        }
    )


@pytest.fixture(scope="module")
def mini_fleet():
    cfg = mini_cfg()
    fleet = gen_fleet(cfg)
    units = [s for s, _ in fleet]
    truths = {t.unit_id: t for _, t in fleet}
    return cfg, units, truths


@pytest.fixture(scope="module")
def mini_preprocessed(mini_fleet):
    """run_protocol's input: the preprocessed mini fleet."""
    cfg, units, truths = mini_fleet
    return cfg, experiment.preprocess_fleet(units, cfg, truths), truths


class TestPreparation:
    def test_preprocess_fleet_stamps_family(self, mini_fleet):
        cfg, units, truths = mini_fleet
        pre = experiment.preprocess_fleet(units, cfg, truths)
        assert {u.dataset_id for u in pre} == {"fan", "hpc"}

    def test_standardizer_fits_train_rows_only(self, mini_fleet):
        cfg, units, truths = mini_fleet
        pre = experiment.preprocess_fleet(units, cfg, truths)
        fleet_split, standardizer = experiment.prepare_fleet(pre, cfg, split_seed=3)
        z_train = apply_standardizer(standardizer, stack_rows(pre, fleet_split.train))
        np.testing.assert_allclose(z_train.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z_train.std(axis=0), 1.0, atol=1e-10)

    def test_healthy_stats_pool_the_validation_rows(self, mini_fleet):
        cfg, units, truths = mini_fleet
        pre = experiment.preprocess_fleet(units, cfg, truths)
        model, _, residuals, stats = experiment.fit_model(
            pre, cfg, "OC", split_seed=3, train_seed=1
        )
        fleet_split, _ = experiment.prepare_fleet(pre, cfg, split_seed=3)
        stats_val = experiment.fit_fleet_stats(pre, fleet_split, model, SENSORWISE, residuals)
        # fit_model fits the same statistics from its own split
        np.testing.assert_equal(
            dataclasses.asdict(stats_val), dataclasses.asdict(stats[SENSORWISE])
        )
        # the pool is the validation rows, and only they
        assert stats_val.fitted_on == sum(len(fleet_split.validation[u.unit_id]) for u in pre)
        assert stats_val.channel_names == pre[0].x_names
        assert stats[AGGREGATED].channel_names == (AGGREGATED,)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        split0, train0 = experiment.realisation_seeds(5, 0)
        assert (split0, train0) == experiment.realisation_seeds(5, 0)
        assert split0 != experiment.realisation_seeds(5, 1)[0]
        assert split0 != train0


class TestProtocol:
    def test_run_protocol_structure_and_averaging(self, mini_preprocessed):
        cfg, units, truths = mini_preprocessed
        result = experiment.run_protocol(units, truths, cfg, workers=1)
        assert [(run.realisation, run.kind) for run in result.runs] == [
            (r, kind) for r in range(2) for kind in experiment.MODEL_KINDS
        ]
        assert set(result.evaluations) == {
            ("AE", AGGREGATED),
            ("AE", SENSORWISE),
            ("OC", AGGREGATED),
            ("OC", SENSORWISE),
        }
        # averaged values equal the mean of per-realisation delays
        evaluation = result.evaluations[("OC", SENSORWISE)]
        for unit_eval in evaluation.units:
            delays = [
                r.delay
                for run in result.runs
                if run.kind == "OC"
                for r in run.detections[SENSORWISE].reports
                if r.unit_id == unit_eval.unit_id and r.delay is not None
            ]
            if delays:
                assert unit_eval.mean_delay == pytest.approx(np.mean(delays))
            else:
                assert unit_eval.mean_delay is None

    def test_one_residual_pass_per_model_and_unit(self, mini_preprocessed, monkeypatch):
        cfg, units, truths = mini_preprocessed
        calls = []
        residuals = experiment.unit_residuals

        def counting(model, unit):
            calls.append((model.kind, unit.unit_id))
            return residuals(model, unit)

        monkeypatch.setattr(experiment, "unit_residuals", counting)
        experiment.run_protocol(units, truths, cfg, workers=1)
        expected = cfg.training.realisations * len(experiment.MODEL_KINDS) * len(units)
        assert len(calls) == expected
        per_pair = {pair: calls.count(pair) for pair in set(calls)}
        assert set(per_pair.values()) == {cfg.training.realisations}

    def test_worker_pool_gives_the_serial_results(self, mini_preprocessed):
        cfg, units, truths = mini_preprocessed
        environ = {var: os.environ.get(var) for var in parallel.BLAS_THREAD_VARS}
        serial = experiment.run_protocol(units, truths, cfg, workers=1)
        pooled = experiment.run_protocol(units, truths, cfg, workers=2)
        # every detection, statistic, cycle average, weight and loss
        np.testing.assert_equal(dataclasses.asdict(pooled), dataclasses.asdict(serial))
        assert {var: os.environ.get(var) for var in parallel.BLAS_THREAD_VARS} == environ

    def test_realisations_use_distinct_splits(self, mini_preprocessed):
        cfg, units, truths = mini_preprocessed
        result = experiment.run_protocol(units, truths, cfg, workers=1)
        seeds = {run.split_seed for run in result.runs}
        assert len(seeds) == 2
        for run in result.runs:
            assert (run.split_seed, run.train_seed) == experiment.realisation_seeds(
                cfg.seed, run.realisation
            )

    def test_heavier_jobs_first_and_each_scores_its_alarms(self, mini_preprocessed, monkeypatch):
        cfg, units, truths = mini_preprocessed
        started = []
        run_realisation = experiment.run_realisation

        def recording(preprocessed, truths, cfg, realisation, kind):
            started.append((realisation, kind))
            return run_realisation(preprocessed, truths, cfg, realisation, kind)

        monkeypatch.setattr(experiment, "run_realisation", recording)
        result = experiment.run_protocol(units, truths, cfg, workers=1)
        # OC maps 4 descriptors through 128, 128 to 14 sensors: 18,688
        # multiply-adds per row against the AE's 6,656
        assert started == [(0, "OC"), (1, "OC"), (0, "AE"), (1, "AE")]
        assert [(run.realisation, run.kind) for run in result.runs] == [
            (r, kind) for r in range(2) for kind in experiment.MODEL_KINDS
        ]
        # each job scores its own sensor-wise alarms
        k_range = range(0, cfg.segmentation.k_max + 1)
        scored = 0
        for run in result.runs:
            _, posts, labels = experiment.alarm_views(run.detections[SENSORWISE])
            if len(set(labels)) < 2:
                assert run.silhouette is None
                continue
            expected = segmentation.silhouette_curve(posts, labels, k_range)
            np.testing.assert_equal(
                [dataclasses.asdict(p) for p in run.silhouette],
                [dataclasses.asdict(p) for p in expected],
            )
            scored += 1
        assert scored > 0


class TestEvaluateGroup:
    def report(self, unit, alarm, n_true=10):
        return DetectionReport(
            unit_id=unit,
            dataset_id="d",
            alarm_cycle=alarm,
            n_true=n_true,
            triggered_first=(),
        )

    def test_partial_detection_averaging(self):
        sets = [
            [self.report("u1", 14)],
            [self.report("u1", None)],
            [self.report("u1", 18)],
        ]
        ev = experiment.evaluate_group("OC", AGGREGATED, sets)
        unit = ev.units[0]
        assert unit.n_detected == 2
        assert unit.mean_delay == pytest.approx(6.0)

    def test_healthy_unit_with_alarm_is_false_positive(self):
        sets = [[self.report("u1", 14, n_true=None)]]
        ev = experiment.evaluate_group("OC", AGGREGATED, sets)
        assert ev.fpr == 1.0
        assert ev.units[0].mean_delay is None

    def test_empty_rejected(self):
        with pytest.raises(EmptyFleet):
            experiment.evaluate_group("OC", AGGREGATED, [])
