"""Each datum has one form, and each rule one place.

A DenseNet is its weights and biases: its layer widths and its activations
(ReLU on every hidden layer, a linear output) follow from them, so no
stored copy can disagree with the weights. A unit is one channel matrix,
whose descriptor and sensor blocks are views of it, in the one fleet
layout that also fixes every model's widths; a detection report's
delay follows from its alarm and fault cycles; and the config's sections
are the fields of RunConfig. `resfault segment` hands the
report file's alarms straight to the segmentation functions instead of
building a detection object only to take it apart again. An alarmed unit
is read through its rows from the alarm cycle on, so an offset past its
series is a length test. A precondition is checked once, where its value
enters the program, not again by each numeric function. And the CLI is
the one place that turns a package error into an exit code, each exit code
having one error type.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from resfault import cli, config, detector, errors, experiment, models, nn, segmentation
from resfault.data_model import UnitSeries

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_FILES = sorted(ROOT.glob("src/resfault/*.py")) + sorted(ROOT.glob("scripts/*.py"))


def test_a_dense_net_is_its_weights_and_biases():
    assert [f.name for f in dataclasses.fields(nn.DenseNet)] == ["weights", "biases"]


def test_a_unit_is_one_channel_matrix():
    assert [f.name for f in dataclasses.fields(UnitSeries)] == [
        "unit_id", "dataset_id", "z", "cycle_of"
    ]


def test_a_model_is_its_kind_net_and_standardizer():
    assert [f.name for f in dataclasses.fields(models.ResidualModel)] == [
        "kind", "net", "standardizer"
    ]


def test_the_fleet_layout_fixes_every_model_width():
    for fn in (models.layer_dims, models.io_blocks, models.train):
        assert "n_w" not in inspect.signature(fn).parameters, fn.__name__
    assert list(inspect.signature(models.layer_dims).parameters) == ["kind"]
    assert list(inspect.signature(models.io_blocks).parameters) == ["kind", "z_rows"]


def test_a_report_derives_its_delay():
    assert "delay" not in {f.name for f in dataclasses.fields(detector.DetectionReport)}
    assert isinstance(detector.DetectionReport.delay, property)


def test_config_sections_are_the_run_config_fields():
    sections = {f.name for f in dataclasses.fields(config.RunConfig)} - {"seed"}
    assert set(config._SECTION_TYPES) == sections
    for name, cls in config._SECTION_TYPES.items():
        assert isinstance(getattr(config.RunConfig(), name), cls)


def test_removed_forms_stay_gone():
    for module, name in (
        (experiment, "build_segmentation"),
        (experiment, "SegmentationBundle"),
        (experiment, "trigger_timelines"),
        (nn, "default_activations"),
        (nn, "_activate"),
        (segmentation, "UnitSignature"),
        (segmentation, "_alarm_position"),
        (segmentation, "NORMALIZE_NONE"),
        (segmentation, "NORMALIZE_MAX"),
        (segmentation, "NORMALIZE_ZSCORE"),
        (config, "STATS_ON_VALIDATION"),
        (config, "STATS_ON_TRAIN_VALIDATION"),
        (config, "DOWNSAMPLE_FIRST"),
        (config, "CRUISE_FIRST"),
        (errors, "NoAlarm"),
        (errors, "EmptyDataset"),
        (errors, "CycleOutOfRange"),
        (errors, "ConfigInvalid"),
        (errors, "UnknownKey"),
        (errors, "UnitTooShort"),
        (errors, "InsufficientData"),
        (errors, "EmptyFleet"),
        (errors, "MissingColumn"),
        (errors, "NonNumericCell"),
        (errors, "RaggedRow"),
        (errors, "EmptyFile"),
        (errors, "NonPositiveAltitude"),
        (errors, "VersionMismatch"),
        (errors, "CorruptCheckpoint"),
        (errors, "ShapeMismatch"),
        (errors, "SingleCluster"),
        (errors, "NonFiniteLoss"),
        (nn, "_as_batch"),
        (detector, "detection_delay"),
        (cli, "_curve_at"),
        (cli, "_load_fleet_dir"),
    ):
        assert not hasattr(module, name), name


def read_names(node: ast.AST) -> set[str]:
    """Every bare or attribute name read inside ``node``."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def test_segment_builds_no_fleet_detection():
    tree = ast.parse((ROOT / "src/resfault/cli.py").read_text())
    (segment,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "cmd_segment"
    ]
    names = read_names(segment)
    assert "unit_residuals" in names
    assert not names & {"FleetDetection", "detect_with_stats", "alarm_views"}


def catchers_of(error_name: str) -> set[str]:
    """The program files with an ``except`` clause naming ``error_name``."""
    catchers = set()
    for path in PROGRAM_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if error_name in read_names(node.type):
                    catchers.add(f"{path.parent.name}/{path.name}")
    return catchers


def test_only_cli_catches_resfault_error():
    assert catchers_of("ResfaultError") == {"resfault/cli.py"}

