"""Indicator channel names have one carrier: the healthy statistics.

Every reader of indicator names (the alarm report, the trigger timeline, the
written tables and the checkpoint) holds the statistics the alarm scan used.
A second name field on an indicator or cycle-average type could disagree
with them, as fleet names once disagreed with a checkpoint's. The fleet's
own channels have one carrier too, the layout data_model.CHANNEL_NAMES: no
unit or model holds a copy of the names or of the descriptor count.
"""

import dataclasses
import inspect

from resfault import data_model, detector, experiment, health, models, segmentation


def dataclasses_of(module) -> list[type]:
    return [
        cls
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    ]


def test_healthy_stats_alone_carry_channel_names():
    named = [
        cls.__name__
        for module in (detector, health, segmentation, experiment)
        for cls in dataclasses_of(module)
        if "channel_names" in {field.name for field in dataclasses.fields(cls)}
    ]
    assert named == ["HealthyStats"]


def test_units_and_models_carry_no_channel_names_or_widths():
    """The fleet layout, data_model.CHANNEL_NAMES, names and counts every channel."""
    carriers = [
        (cls.__name__, field.name)
        for module in (data_model, models)
        for cls in dataclasses_of(module)
        for field in dataclasses.fields(cls)
        if field.name in ("channel_names", "n_w")
    ]
    assert carriers == []
    assert [cls.__name__ for cls in dataclasses_of(models)] == ["ResidualModel"]


def test_health_defines_no_dataclass():
    assert dataclasses_of(health) == []
