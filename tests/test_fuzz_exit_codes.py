"""The exit-code contract of `detect` and `segment` under damaged inputs.

Each example changes one value of a tiny fleet CSV or of a checkpoint JSON,
then runs `detect --hi aggregated`, `detect --hi sensorwise` and `segment`
in process. Whatever the damage, each command exits 0, 2, 3 or 4, lets no
exception escape, and prints one `error:` line exactly when it fails; damage
to the fleet alone gives both indicators the same exit code. The numeric
functions check nothing of their own, so this is the contract that the
config, the readers and the commands keep for them.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from resfault.cli import main

FUZZ_CONFIG = {
    "seed": 11,
    "preprocess": {"downsample_factor": 2},
    "split": {"healthy_cycles": 6, "validation_fraction": 0.15},
    "training": {"epochs": 12, "batch_size": 32, "patience": 12, "learning_rate": 0.01},
    "synth": {
        "n_units": 3,
        "n_families": 2,
        "cycles_per_unit": 20,
        "rows_per_cycle": 40,
        "fault_start_lo": 7,
        "fault_start_hi": 8,
        "noise_std": 0.1,
    },
    "segmentation": {"snapshot_offset": 2, "k_max": 4, "timeline_checkpoints": [1, 3]},
}

# replacement cells of the fleet CSV and replacement values of the checkpoint JSON
CELLS = ["", "nan", "inf", "-inf", "0", "-1", "2.5", "1e308", "-1e308", "1e-320",
         "abc", "999999999999", "fan-u01", "cycle"]
VALUES = [None, True, 0, -1, 1, 2.5, 1e308, -1e308, float("nan"), float("inf"),
          "", "x", "AE", "OC", [], {}, [0.0], [[1.0]], 10**6]


def run(argv: list[str]) -> tuple[int, list[str]]:
    """``main(argv)``'s exit code and the `error:` lines it printed."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A tiny fleet, an OC and an AE checkpoint, and each model's sensor-wise reports."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "fuzz.yaml"
    cfg.write_text(yaml.safe_dump(FUZZ_CONFIG))
    data = root / "data"
    assert run(["synth", "--config", str(cfg), "--out", str(data)]) == (0, [])
    paths = {"config": cfg, "data": data}
    for kind in ("oc", "ae"):
        ckpt = root / f"{kind}.json"
        train = ["train", "--config", str(cfg), "--data", str(data), "--model", kind]
        assert run([*train, "--out", str(ckpt)]) == (0, [])
        reports = root / f"{kind}_reports.csv"
        detect = ["detect", "--config", str(cfg), "--data", str(data), "--checkpoint"]
        assert run([*detect, str(ckpt), "--hi", "sensorwise", "--out", str(reports)]) == (0, [])
        paths[kind] = ckpt, reports
    return paths


def check_commands(base, data: Path, ckpt: Path, reports: Path, out: Path) -> list[int]:
    """Run detect x2 and segment on ``data`` and ``ckpt``; return their exit codes."""
    common = ["--config", str(base["config"]), "--data", str(data), "--checkpoint", str(ckpt)]
    codes = []
    for argv in (
        ["detect", *common, "--hi", "aggregated", "--out", str(out / "agg.csv")],
        ["detect", *common, "--hi", "sensorwise", "--out", str(out / "sens.csv")],
        ["segment", *common, "--reports", str(reports), "--out", str(out / "seg")],
    ):
        code, errors = run(argv)
        assert code in (0, 2, 3, 4), (argv[0], code, errors)
        assert len(errors) == (code != 0), (argv[0], code, errors)
        codes.append(code)
    return codes


def test_the_undamaged_inputs_pass(base, tmp_path):
    for kind in ("oc", "ae"):
        assert check_commands(base, base["data"], *base[kind], tmp_path) == [0, 0, 0]


@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_one_damaged_fleet_cell(base, data):
    lines = (base["data"] / "fleet.csv").read_text().splitlines()
    row = data.draw(st.integers(0, len(lines) - 1), label="line")
    cells = lines[row].split(",")
    col = data.draw(st.integers(0, len(cells) - 1), label="column")
    cells[col] = data.draw(st.sampled_from(CELLS), label="cell")
    lines[row] = ",".join(cells)
    kind = data.draw(st.sampled_from(["oc", "ae"]), label="model")
    with tempfile.TemporaryDirectory() as tmp:
        fleet = Path(tmp) / "data"
        fleet.mkdir()
        (fleet / "fleet.csv").write_text("\n".join(lines) + "\n")
        shutil.copy(base["data"] / "ground_truth.csv", fleet)
        aggregated, sensorwise, _ = check_commands(base, fleet, *base[kind], Path(tmp))
    # the two indicators come from one residual pass, so fleet damage fails both or neither
    assert aggregated == sensorwise


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_one_damaged_checkpoint_value(base, data):
    kind = data.draw(st.sampled_from(["oc", "ae"]), label="model")
    ckpt, reports = base[kind]
    blob = json.loads(ckpt.read_text())
    # walk down from the top, stopping at a leaf or, now and then, at a container
    parent, key = None, None
    node = blob
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)), label="key")
        node = node[key]
        if data.draw(st.integers(0, 4), label="stop") == 0:
            break
    if parent is not None:
        parent[key] = data.draw(st.sampled_from(VALUES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        damaged = Path(tmp) / "model.json"
        damaged.write_text(json.dumps(blob))
        codes = check_commands(base, base["data"], damaged, reports, Path(tmp))
    if parent is blob and key == "n_w":
        # no value of VALUES reads as the fleet's 4 descriptors
        assert codes == [3, 3, 3]


def damaged_inputs(base, tmp: Path, kind: str, fleet_cell=None, **checkpoint):
    """(data, checkpoint, reports) of ``kind``: the base inputs with the first
    data row's ``alt`` cell set to ``fleet_cell`` and the checkpoint's
    top-level fields set to ``checkpoint``."""
    ckpt, reports = base[kind]
    data = tmp / "data"
    shutil.copytree(base["data"], data)
    if fleet_cell is not None:
        lines = (data / "fleet.csv").read_text().splitlines()
        alt = lines[0].split(",").index("alt")
        cells = lines[1].split(",")
        cells[alt] = fleet_cell
        lines[1] = ",".join(cells)
        (data / "fleet.csv").write_text("\n".join(lines) + "\n")
    blob = json.loads(ckpt.read_text())
    blob.update(checkpoint)
    damaged = tmp / "model.json"
    damaged.write_text(json.dumps(blob))
    return data, damaged, reports


@pytest.mark.parametrize("kind", ["oc", "ae"])
def test_an_overflowing_fleet_value_fails_every_command_alike(base, tmp_path, kind):
    data, ckpt, reports = damaged_inputs(base, tmp_path, kind, fleet_cell="1e308")
    assert check_commands(base, data, ckpt, reports, tmp_path) == [4, 4, 4]
    unit = (data / "fleet.csv").read_text().splitlines()[1].split(",")[0]
    common = ["--config", str(base["config"]), "--data", str(data), "--checkpoint", str(ckpt)]
    assert run(["detect", *common, "--hi", "sensorwise", "--out", str(tmp_path / "r.csv")]) == (
        4, [f"error: unit {unit!r} has a residual row whose squared norm is not finite"]
    )


@pytest.mark.parametrize("n_w", [-7, 0, 3, 5, 18])
@pytest.mark.parametrize("kind", ["oc", "ae"])
def test_a_checkpoint_of_another_descriptor_count_exits_3(base, tmp_path, kind, n_w):
    inputs = damaged_inputs(base, tmp_path, kind, n_w=n_w)
    assert check_commands(base, *inputs, tmp_path) == [3, 3, 3]
