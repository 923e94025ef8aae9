import numpy as np
import pytest

from resfault import experiment
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
    fleet = gen_fleet(experiment.synth_config_from_run(cfg))
    units = [s for s, _ in fleet]
    truths = {t.unit_id: t for _, t in fleet}
    return cfg, units, truths


class TestPreparation:
    def test_label_fleet_stamps_family(self, mini_fleet):
        cfg, units, truths = mini_fleet
        pre = experiment.label_fleet(experiment.preprocess_fleet(units, cfg), truths)
        assert {u.dataset_id for u in pre} == {"fan", "hpc"}

    def test_preprocess_order_is_configurable(self, mini_fleet):
        cfg, units, truths = mini_fleet
        default = experiment.preprocess_fleet(units, cfg)
        alt_cfg = config_from_dict({"preprocess": {"order": "cruise_first"}})
        alternative = experiment.preprocess_fleet(units, alt_cfg)
        # cruise-first strides over cruise rows only, so it keeps at least
        # as many rows per cycle and selects a different row set
        assert alternative[0].n_rows >= default[0].n_rows
        assert alternative[0].n_rows != default[0].n_rows or not np.array_equal(
            alternative[0].x, default[0].x
        )

    def test_standardizer_fits_train_rows_only(self, mini_fleet):
        cfg, units, truths = mini_fleet
        pre = experiment.preprocess_fleet(units, cfg)
        prepared = experiment.prepare_fleet(pre, cfg, split_seed=3)
        z_train = apply_standardizer(
            prepared.standardizer, stack_rows(pre, prepared.fleet_split.train)
        )
        np.testing.assert_allclose(z_train.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z_train.std(axis=0), 1.0, atol=1e-10)

    def test_stats_source_config_extends_pool(self, mini_fleet):
        cfg, units, truths = mini_fleet
        pre = experiment.preprocess_fleet(units, cfg)
        prepared = experiment.prepare_fleet(pre, cfg, split_seed=3)
        model, _ = experiment.train_model(prepared, "OC", cfg, train_seed=1)
        residuals = experiment.fleet_residuals(model, pre)
        stats_val = experiment.fit_fleet_stats(prepared, model, SENSORWISE, cfg, residuals)
        both_cfg = config_from_dict(
            {"detection": {"stats_source": "train+validation"}}
        )
        stats_both = experiment.fit_fleet_stats(
            prepared, model, SENSORWISE, both_cfg, residuals
        )
        assert stats_both.fitted_on > stats_val.fitted_on
        n_healthy = sum(
            len(prepared.fleet_split.train[u.unit_id])
            + len(prepared.fleet_split.validation[u.unit_id])
            for u in pre
        )
        assert stats_both.fitted_on == n_healthy


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = experiment.derive_seed(5, experiment.SEED_SPLIT, 0)
        assert a == experiment.derive_seed(5, experiment.SEED_SPLIT, 0)
        assert a != experiment.derive_seed(5, experiment.SEED_SPLIT, 1)
        assert a != experiment.derive_seed(5, experiment.SEED_TRAIN, 0)


class TestProtocol:
    def test_run_protocol_structure_and_averaging(self, mini_fleet):
        cfg, units, truths = mini_fleet
        result = experiment.run_protocol(units, truths, cfg)
        assert len(result.realisations) == 2
        assert set(result.evaluations) == {
            ("AE", AGGREGATED),
            ("AE", SENSORWISE),
            ("OC", AGGREGATED),
            ("OC", SENSORWISE),
        }
        # averaged values equal the mean of per-realisation delays
        key = ("OC", SENSORWISE)
        evaluation = result.evaluations[key]
        for unit_eval in evaluation.units:
            delays = [
                r.delay
                for real in result.realisations
                for r in real.detections[key].reports
                if r.unit_id == unit_eval.unit_id and r.delay is not None
            ]
            if delays:
                assert unit_eval.mean_delay == pytest.approx(np.mean(delays))
            else:
                assert unit_eval.mean_delay is None

    def test_one_residual_pass_per_model_and_unit(self, mini_fleet, monkeypatch):
        cfg, units, truths = mini_fleet
        calls = []
        residuals = experiment.unit_residuals

        def counting(model, unit):
            calls.append((model.kind, unit.unit_id))
            return residuals(model, unit)

        monkeypatch.setattr(experiment, "unit_residuals", counting)
        experiment.run_protocol(units, truths, cfg)
        expected = cfg.training.realisations * len(experiment.MODEL_KINDS) * len(units)
        assert len(calls) == expected
        per_pair = {pair: calls.count(pair) for pair in set(calls)}
        assert set(per_pair.values()) == {cfg.training.realisations}

    def test_realisations_use_distinct_splits(self, mini_fleet):
        cfg, units, truths = mini_fleet
        result = experiment.run_protocol(units, truths, cfg)
        seeds = {r.split_seed for r in result.realisations}
        assert len(seeds) == 2


class TestEvaluateGroup:
    def report(self, unit, alarm, n_true=10):
        return DetectionReport(
            unit_id=unit,
            dataset_id="d",
            alarm_cycle=alarm,
            n_true=n_true,
            delay=None if alarm is None or n_true is None else alarm - n_true,
            triggered_first=(),
            cycle_ids=np.arange(2),
            exceedance=np.zeros((2, 1), dtype=bool),
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
