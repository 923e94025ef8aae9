import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from resfault import parallel, synth
from resfault.cli import main
from resfault.config import RunConfig, SynthSettings, config_from_dict, derive_seed
from resfault.data_model import DEFAULT_X_CHANNELS, cycle_bounds
from resfault.detector import build_report, cycle_average, fit_stats
from resfault.errors import ConfigError
from resfault.health import sensorwise_hi
from resfault.synth import (
    DEFAULT_FAMILIES,
    DRIFT_TARGET_CYCLES,
    DRIFT_TARGET_SIGMA,
    RATE_DECAY,
    _drift_scale,
    build_sensor_map,
    gen_fleet,
    gen_unit,
    save_fleet,
)
from resfault.persist import load_csv, save_csv, twin_path

SEED = 3


def small_cfg(seed=SEED, **overrides):
    base = dict(
        n_units=2,
        n_families=2,
        cycles_per_unit=30,
        rows_per_cycle=40,
        fault_start_lo=18,
        fault_start_hi=20,
        noise_std=0.05,
    )
    base.update(overrides)
    return RunConfig(seed=seed, synth=SynthSettings(**base))


def small_unit(settings, unit_seed, unit_id="u00"):
    """One unit of the first family on the response map of SEED."""
    return gen_unit(settings, DEFAULT_FAMILIES[0], unit_seed, unit_id, build_sensor_map(SEED))


def oracle_residuals(series):
    response = build_sensor_map(SEED)
    return series.x - response.apply(series.w)


class TestConfig:
    def test_distinct_sensor_sets_required(self):
        # families are told apart by their sensors; the fleet's are fixed
        sensor_sets = [frozenset(f.sensors) for f in DEFAULT_FAMILIES]
        assert len(set(sensor_sets)) == len(sensor_sets)

    def test_fault_must_start_after_healthy_window(self):
        with pytest.raises(ConfigError, match="after the healthy window"):
            gen_fleet(small_cfg(fault_start_lo=10, fault_start_hi=12))

    def test_fault_must_start_before_unit_ends(self):
        message = "synth.fault_start_hi must be < synth.cycles_per_unit"
        with pytest.raises(ConfigError, match=message):
            small_cfg(fault_start_lo=18, fault_start_hi=30)

    def test_family_sensors_are_sensor_channels(self):
        for family in DEFAULT_FAMILIES:
            assert family.sensors and set(family.sensors) <= set(DEFAULT_X_CHANNELS)

    def test_auto_calibrated_scale(self):
        settings = small_cfg().synth
        expected = DRIFT_TARGET_SIGMA * settings.noise_std / DRIFT_TARGET_CYCLES**2
        assert _drift_scale(settings) == pytest.approx(expected)

    def test_default_multipliers_descend_from_one(self):
        # the i-th sensor of a family drifts at 1 / RATE_DECAY**i of the full rate
        settings = small_cfg().synth
        faulty, truth = small_unit(settings, unit_seed=13)
        clean, _ = small_unit(dataclasses.replace(settings, severity_scale=0.0), unit_seed=13)
        columns = [DEFAULT_X_CHANNELS.index(name) for name in truth.fault_sensors]
        drift = (faulty.x - clean.x)[-1, columns]
        assert len(drift) == 4
        expected = [1.0 / RATE_DECAY**i for i in range(len(drift))]
        np.testing.assert_allclose(drift / drift[0], expected, rtol=1e-9)


class TestGenUnit:
    def test_shape_and_cycles(self):
        series, truth = small_unit(small_cfg().synth, unit_seed=1, unit_id="u1")
        assert series.n_rows == 30 * 40
        assert len(cycle_bounds(series.cycle_of)[0]) == 30
        assert (series.w.shape[1], series.x.shape[1]) == (4, 14)
        assert truth.fault_cycle is not None
        assert 18 <= truth.fault_cycle <= 20
        assert truth.fault_sensors == DEFAULT_FAMILIES[0].sensors

    def test_noiseless_map_reproduction(self):
        settings = small_cfg(noise_std=0.0, severity_scale=0.0).synth
        series, truth = small_unit(settings, unit_seed=5)
        np.testing.assert_allclose(oracle_residuals(series), 0.0, atol=1e-12)
        assert truth.fault_cycle is None

    def test_zero_scale_unit_never_alarms(self):
        series, truth = small_unit(small_cfg(severity_scale=0.0).synth, unit_seed=8)
        assert truth.fault_cycle is None and truth.fault_sensors == ()
        residuals = oracle_residuals(series)
        hi = sensorwise_hi(residuals)
        healthy = series.cycle_of < 16
        stats = fit_stats(hi[healthy], DEFAULT_X_CHANNELS)
        report = build_report("u", "f", cycle_average(hi, series.cycle_of), stats, n_wait=3)
        assert not report.detected

    def test_drift_is_pure_addition_after_fault_cycle(self):
        settings = small_cfg().synth
        faulty, truth = small_unit(settings, unit_seed=13)
        clean, _ = small_unit(dataclasses.replace(settings, severity_scale=0.0), unit_seed=13)
        # identical flights: the fault only ever adds drift on top
        np.testing.assert_array_equal(faulty.w, clean.w)
        diff = faulty.x - clean.x
        pre_fault = faulty.cycle_of <= truth.fault_cycle
        np.testing.assert_array_equal(diff[pre_fault], 0.0)
        assert np.any(diff[~pre_fault] != 0.0)
        # only the family's sensors are touched
        touched = {DEFAULT_X_CHANNELS[i] for i in np.flatnonzero(np.any(diff != 0, axis=0))}
        assert touched == set(truth.fault_sensors)

    def test_drift_constant_within_cycle_and_nondecreasing(self):
        settings = small_cfg().synth
        faulty, truth = small_unit(settings, unit_seed=21)
        clean, _ = small_unit(dataclasses.replace(settings, severity_scale=0.0), unit_seed=21)
        diff = faulty.x - clean.x
        fastest = DEFAULT_X_CHANNELS.index(truth.fault_sensors[0])
        per_cycle = []
        for start, stop in zip(*cycle_bounds(faulty.cycle_of)):
            block = diff[start:stop, fastest]
            # paired subtraction leaves ~1 ulp of jitter on the constant drift
            np.testing.assert_allclose(block, block[0], rtol=1e-9, atol=1e-15)
            per_cycle.append(block.mean())
        assert np.all(np.diff(per_cycle) >= -1e-12)

    def test_drift_calibration_target(self):
        settings = small_cfg().synth
        faulty, truth = small_unit(settings, unit_seed=2)
        clean, _ = small_unit(dataclasses.replace(settings, severity_scale=0.0), unit_seed=2)
        diff = faulty.x - clean.x
        fastest = DEFAULT_X_CHANNELS.index(truth.fault_sensors[0])
        at_target = faulty.cycle_of == truth.fault_cycle + DRIFT_TARGET_CYCLES
        expected = DRIFT_TARGET_SIGMA * settings.noise_std
        np.testing.assert_allclose(diff[at_target, fastest], expected, rtol=1e-9)

    def test_oracle_detection_within_twelve_cycles(self):
        # calibrated drift must be detectable quickly by sensor-wise
        # indicators computed from oracle residuals
        cfg = small_cfg(n_units=5, n_families=3, cycles_per_unit=40)
        fleet = gen_fleet(cfg)
        healthy_pool = []
        per_unit = []
        for series, truth in fleet:
            residuals = oracle_residuals(series)
            hi = sensorwise_hi(residuals)
            healthy_pool.append(hi[series.cycle_of < 16])
            per_unit.append((series, truth, hi))
        stats = fit_stats(np.vstack(healthy_pool), DEFAULT_X_CHANNELS)
        delays = []
        for series, truth, hi in per_unit:
            report = build_report(
                series.unit_id, series.dataset_id, cycle_average(hi, series.cycle_of), stats,
                n_wait=3, n_true=truth.fault_cycle,
            )
            assert report.detected
            delays.append(report.delay)
        delays = np.array(delays)
        assert np.mean(delays <= 12) >= 0.9
        assert np.all(delays > 0)


class TestGenFleet:
    def test_fleet_layout(self):
        cfg = small_cfg(n_units=10, n_families=3)
        fleet = gen_fleet(cfg)
        assert len(fleet) == 30
        ids = [s.unit_id for s, _ in fleet]
        assert len(set(ids)) == 30
        families = {t.family for _, t in fleet}
        assert families == {"fan", "hpc", "lpt"}

    def test_same_seed_bit_identical(self):
        cfg = small_cfg()
        a = gen_fleet(cfg)
        b = gen_fleet(cfg)
        for (sa, ta), (sb, tb) in zip(a, b):
            np.testing.assert_array_equal(sa.w, sb.w)
            np.testing.assert_array_equal(sa.x, sb.x)
            assert ta.fault_cycle == tb.fault_cycle

    def test_configured_sensor_sets_echoed_and_disjoint(self):
        cfg = small_cfg(n_units=1, n_families=3)
        fleet = gen_fleet(cfg)
        sets = [set(t.fault_sensors) for _, t in fleet]
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                assert a.isdisjoint(b)

    def test_unit_prefix_and_shared_map(self):
        other = small_cfg(seed=SEED + 1, map_seed=SEED, unit_prefix="hold-")
        fleet = gen_fleet(other)
        assert all(s.unit_id.startswith("hold-") for s, _ in fleet)
        # the response map is pinned: oracle residuals stay at noise level
        series, _ = fleet[0]
        residuals = oracle_residuals(series)
        healthy = series.cycle_of < 16
        assert np.abs(residuals[healthy]).mean() < 3 * other.synth.noise_std

    def test_derive_unit_seed_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


# SHA-256 of fleet.csv and ground_truth.csv as `resfault synth --seed 5` wrote
# them from a single process, before the units were written by worker jobs.
PINNED = {
    1: (
        "5fce1331cb5548a90beb3db4927ac24b630a2cc64b5c4bbf64b7ea401bf29e1a",
        "01ef5d9df4a912e4bc70a6fd9b3f580d666ac612f3d84f81f7934527d8ccf59f",
    ),
    2: (
        "7c0376de9a7188358342973b99ab2f376179badf0ad3ece79561d22a23c6156e",
        "d984fd6b650d37e5bd34821c9f0f4d98ec0562d85962fa7aca788a9c7618130b",
    ),
}


def in_process(fn, shared, jobs, workers):
    """parallel.run_jobs with every job run in this process, whatever ``workers``."""
    return [fn(*shared, *args) for args in jobs]


def pinned_settings(n_units):
    return {"seed": 5, "synth": {"n_units": n_units, "rows_per_cycle": 40}}


def pinned_cfg(n_units):
    return config_from_dict(pinned_settings(n_units))


def synth_pinned(tmp_path, n_units, out):
    """Exit code of ``resfault synth`` with pinned_cfg(n_units) into ``out``."""
    cfg = tmp_path / "pinned.yaml"
    cfg.write_text(json.dumps(pinned_settings(n_units)))
    return main(["synth", "--config", str(cfg), "--out", str(out)])


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSaveFleet:
    @pytest.mark.parametrize(
        "n_units, workers",
        # 3 families of 2 units: 1 slice, slices of 3 and 3, of 2, 2 and 2;
        # 3 families of 1 unit on 2 workers: slices of 1 and 2
        [(2, 1), (2, 2), (2, 3), (1, 2)],
    )
    def test_bytes_are_the_single_process_bytes(self, tmp_path, n_units, workers):
        cfg = pinned_cfg(n_units)
        path, truth_path = tmp_path / "fleet.csv", tmp_path / "ground_truth.csv"
        truths = save_fleet(cfg, path, truth_path, workers)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".fleet.csv.npy", "fleet.csv", "ground_truth.csv"
        ]
        assert truths == [truth for _, truth in gen_fleet(cfg)]
        assert (sha256(path), sha256(truth_path)) == PINNED[n_units]

    def test_bytes_are_save_csv_bytes(self, tmp_path):
        cfg = small_cfg(unit_prefix='a "quoted", prefix ')
        save_fleet(cfg, tmp_path / "parts.csv", tmp_path / "truth.csv", 1)
        save_csv([series for series, _ in gen_fleet(cfg)], tmp_path / "whole.csv")
        assert (tmp_path / "parts.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    @pytest.mark.parametrize(
        "workers, prefix",
        # one slice in this process; three slices in this process; two workers
        [(1, ""), (3, ""), (1, 'a,"b" '), (2, "")],
        ids=["one_job", "three_jobs_in_process", "quoted_prefix", "two_workers"],
    )
    def test_twin_is_the_one_load_csv_keeps(self, tmp_path, monkeypatch, workers, prefix):
        if workers == 3:
            monkeypatch.setattr(parallel, "run_jobs", in_process)
        path = tmp_path / "fleet.csv"
        save_fleet(small_cfg(unit_prefix=prefix), path, tmp_path / "truth.csv", workers)
        twin = twin_path(path)
        written = twin.read_bytes()
        twin.unlink()
        load_csv(path)
        assert twin.read_bytes() == written

    def test_failed_fleet_publish_leaves_no_twin(self, tmp_path, monkeypatch, capsys):
        """The twin is published before the fleet; a fleet that cannot then
        be published takes its twin and its ground truth with it."""
        out = tmp_path / "data"
        path = out / "fleet.csv"
        replace, published = os.replace, []

        def fleet_rename_fails(src, dst):
            if Path(dst) == path:
                assert twin_path(path).exists()
                raise OSError(28, "No space left on device")
            published.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(parallel, "worker_count", lambda n_jobs: 2)
        monkeypatch.setattr(os, "replace", fleet_rename_fails)
        assert synth_pinned(tmp_path, 1, out) == 3
        assert capsys.readouterr().err.splitlines() == ["error: [Errno 28] No space left on device"]
        assert published == ["ground_truth.csv", ".fleet.csv.npy"]
        assert list(out.iterdir()) == []

    def test_failed_twin_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        """An error the twin's writer does not leave out ends the join."""

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(parallel, "worker_count", lambda n_jobs: 1)
        monkeypatch.setattr(np.lib.format, "write_array_header_1_0", exhausted)
        out = tmp_path / "data"
        assert synth_pinned(tmp_path, 1, out) == 4
        assert capsys.readouterr().err.splitlines() == ["error: out of memory"]
        assert list(out.iterdir()) == []

    def test_failing_job_leaves_no_part_file(self, tmp_path, monkeypatch):
        made = []

        def failing(settings, family, unit_seed, unit_id, sensor_map):
            if len(made) == 4:
                raise OSError("no space left on device")
            made.append(unit_id)
            return gen_unit(settings, family, unit_seed, unit_id, sensor_map)

        monkeypatch.setattr(synth, "gen_unit", failing)
        # three jobs in this process, so that the first two parts are written
        monkeypatch.setattr(parallel, "run_jobs", in_process)
        with pytest.raises(OSError, match="no space left"):
            save_fleet(pinned_cfg(2), tmp_path / "fleet.csv", tmp_path / "truth.csv", 3)
        assert len(made) == 4
        assert list(tmp_path.iterdir()) == []
