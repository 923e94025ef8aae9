import json

import numpy as np
import pytest

from resfault import nn
from resfault.data_model import DEFAULT_W_CHANNELS, DEFAULT_X_CHANNELS
from resfault.detector import HealthyStats
from resfault.errors import (
    CorruptCheckpoint,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    VersionMismatch,
)
from resfault.models import AeModel, OcModel, ae_layer_dims, oc_layer_dims
from resfault.persist import (
    DataSchema,
    TruthRecord,
    load_checkpoint,
    load_csv,
    load_ground_truth,
    load_reports,
    save_checkpoint,
    save_csv,
    save_cycle_hi_csv,
    save_ground_truth,
    save_reports,
    save_stats,
    stats_from_blob,
    stats_to_blob,
)
from resfault.preprocess import Standardizer
from resfault.synth import SynthConfig, gen_fleet
from resfault.detector import DetectionReport


def small_fleet():
    cfg = SynthConfig(
        n_units=2,
        cycles_per_unit=20,
        rows_per_cycle=25,
        fault_start_cycle=18,
        seed=5,
    )
    return [s for s, _ in gen_fleet(cfg)], [t for _, t in gen_fleet(cfg)]


class TestCsvRoundTrip:
    def test_fleet_round_trips_exactly(self, tmp_path):
        fleet, _ = small_fleet()
        path = tmp_path / "fleet.csv"
        save_csv(fleet, path)
        loaded = load_csv(path)
        assert [u.unit_id for u in loaded] == [u.unit_id for u in fleet]
        for a, b in zip(fleet, loaded):
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.cycle_of, b.cycle_of)

    def test_second_save_is_byte_identical(self, tmp_path):
        fleet, _ = small_fleet()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(fleet, p1)
        save_csv(load_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("unit,cycle,alt\n" "u1,0,100\n")
        with pytest.raises(MissingColumn) as err:
            load_csv(path)
        assert "XM" in str(err.value)

    def test_interleaved_units_regrouped(self, tmp_path):
        header = ",".join(("unit", "cycle") + DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS)
        rows = []
        for cyc in (0, 1):
            for uid in ("a", "b"):
                rows.append(",".join([uid, str(cyc)] + ["1.5"] * 18))
        path = tmp_path / "mix.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        fleet = load_csv(path)
        assert [u.unit_id for u in fleet] == ["a", "b"]
        for unit in fleet:
            np.testing.assert_array_equal(unit.cycle_of, [0, 1])

    def test_non_numeric_cell_located(self, tmp_path):
        header = ",".join(("unit", "cycle") + DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS)
        good = ",".join(["u1", "0"] + ["1.0"] * 18)
        bad = ",".join(["u1", "0"] + ["1.0"] * 17 + ["oops"])
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(path)
        assert "oops" in str(err.value)
        assert "line 3" in str(err.value)
        assert "Wf" in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_cell_located(self, tmp_path, token):
        header = ",".join(("unit", "cycle") + DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS)
        good = ",".join(["u1", "0"] + ["1.0"] * 18)
        bad = ",".join(["u1", "1"] + ["1.0"] * 5 + [token] + ["1.0"] * 12)
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + good + "\n" + good + "\n" + bad + "\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(path)
        assert repr(token) in str(err.value)
        assert "line 4" in str(err.value)
        assert "T30" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text(",".join(("unit", "cycle") + DEFAULT_W_CHANNELS + DEFAULT_X_CHANNELS) + "\n")
        with pytest.raises(EmptyFile):
            load_csv(path)

    def test_duplicate_role_binding_rejected(self):
        with pytest.raises(ValueError):
            DataSchema(unit_column="alt")


class TestGroundTruthSidecar:
    def test_round_trip(self, tmp_path):
        records = [
            TruthRecord("u1", "fan", 20, ("P2", "P21")),
            TruthRecord("u2", "hpc", None, ()),
        ]
        path = tmp_path / "gt.csv"
        save_ground_truth(records, path)
        loaded = load_ground_truth(path)
        assert loaded["u1"].fault_cycle == 20
        assert loaded["u1"].fault_sensors == ("P2", "P21")
        assert loaded["u2"].fault_cycle is None
        assert loaded["u2"].fault_sensors == ()

    def test_missing_column(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("unit,family\nu1,fan\n")
        with pytest.raises(MissingColumn):
            load_ground_truth(path)


def make_models(seed=0):
    n_w, n_x = 4, 14
    n_z = n_w + n_x
    rng = np.random.default_rng(seed)
    std = Standardizer(mean=rng.normal(size=n_z), std=np.abs(rng.normal(size=n_z)) + 0.1)
    ae = AeModel(net=nn.init_weights(ae_layer_dims(n_z), seed=seed), standardizer=std, n_w=n_w)
    oc = OcModel(
        net=nn.init_weights(oc_layer_dims(n_w, n_x), seed=seed + 1), standardizer=std, n_w=n_w
    )
    return ae, oc


class TestCheckpoint:
    def test_forward_bit_exact_after_round_trip(self, tmp_path, rng):
        ae, oc = make_models()
        for model, width in ((ae, 18), (oc, 4)):
            path = tmp_path / f"{model.kind}.json"
            save_checkpoint(model, path, metadata={"seed": 7})
            loaded, metadata = load_checkpoint(path)
            assert metadata == {"seed": 7}
            x = rng.normal(size=(100, width))
            np.testing.assert_array_equal(
                nn.forward(loaded.net, x), nn.forward(model.net, x)
            )
            np.testing.assert_array_equal(loaded.standardizer.mean, model.standardizer.mean)
            np.testing.assert_array_equal(loaded.standardizer.std, model.standardizer.std)

    def test_tampered_version(self, tmp_path):
        ae, _ = make_models()
        path = tmp_path / "ae.json"
        save_checkpoint(ae, path)
        blob = json.loads(path.read_text())
        blob["format_version"] = 99
        path.write_text(json.dumps(blob))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_missing_field(self, tmp_path):
        ae, _ = make_models()
        path = tmp_path / "ae.json"
        save_checkpoint(ae, path)
        blob = json.loads(path.read_text())
        del blob["weights"]
        path.write_text(json.dumps(blob))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_non_finite_weights_refused(self, tmp_path):
        ae, _ = make_models()
        ae.net.weights[0][0, 0] = np.inf
        with pytest.raises(ValueError):
            save_checkpoint(ae, tmp_path / "bad.json")


class TestReportsCsv:
    def make_report(self, unit, alarm=30, n_true=20):
        delay = None if alarm is None or n_true is None else alarm - n_true
        return DetectionReport(
            unit_id=unit,
            dataset_id="fan",
            alarm_cycle=alarm,
            n_true=n_true,
            delay=delay,
            triggered_first=("P2", "Nf") if alarm is not None else (),
            cycle_ids=np.arange(40),
            exceedance=np.zeros((40, 2), dtype=bool),
            ground_truth_known=True,
        )

    def test_round_trip(self, tmp_path):
        reports = [self.make_report("u1"), self.make_report("u2", alarm=None)]
        path = tmp_path / "reports.csv"
        save_reports(reports, "OC", "sensorwise", path)
        groups = load_reports(path)
        loaded = groups[("OC", "sensorwise")]
        assert loaded[0].alarm_cycle == 30
        assert loaded[0].delay == 10
        assert loaded[0].triggered_first == ("P2", "Nf")
        assert loaded[1].alarm_cycle is None
        assert loaded[1].delay is None

    def test_rows_grouped_by_model_and_kind(self, tmp_path):
        path = tmp_path / "reports.csv"
        other = tmp_path / "other.csv"
        save_reports([self.make_report("u1")], "OC", "sensorwise", path)
        save_reports([self.make_report("u1")], "OC", "aggregated", other)
        rows = other.read_text().splitlines(keepends=True)[1:]
        path.write_text(path.read_text() + "".join(rows))
        groups = load_reports(path)
        assert set(groups) == {("OC", "sensorwise"), ("OC", "aggregated")}

    def test_stats_csv_written(self, tmp_path):
        stats = HealthyStats(
            mu=np.array([1.0, 2.0]), sigma=np.array([0.5, 0.25]),
            tau=np.array([2.5, 2.75]), fitted_on=100,
        )
        path = tmp_path / "stats.csv"
        save_stats(stats, ("a", "b"), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "channel,mu,sigma,tau,fitted_on"
        assert len(lines) == 3

    def test_stats_blob_round_trip(self):
        stats = HealthyStats(
            mu=np.array([0.1]), sigma=np.array([0.2]), tau=np.array([0.7]), fitted_on=9
        )
        blob = stats_to_blob(stats, ("only",))
        back, channels = stats_from_blob(json.loads(json.dumps(blob)))
        np.testing.assert_array_equal(back.mu, stats.mu)
        np.testing.assert_array_equal(back.tau, stats.tau)
        assert channels == ("only",)


class TestHiExport:
    def test_cycle_hi_export(self, tmp_path):
        from resfault.detector import cycle_average
        from resfault.health import aggregated_hi

        hi = aggregated_hi(np.array([[0.3, 0.4], [0.45, 0.6]]), [0, 1], "OC")
        avgs = {"u1": cycle_average(hi)}
        path = tmp_path / "cycle_hi.csv"
        save_cycle_hi_csv(avgs, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "unit,cycle,channel,value"
        assert rows[1] == "u1,0,aggregated,0.5"
        assert len(rows) == 3
