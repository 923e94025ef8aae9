"""Indicator channel names have one carrier: the healthy statistics.

Every reader of indicator names (the alarm report, the trigger timeline, the
written tables and the checkpoint) holds the statistics the alarm scan used.
A second name field on an indicator or cycle-average type could disagree
with them, as fleet names once disagreed with a checkpoint's.
"""

import dataclasses
import inspect

from resfault import detector, experiment, health, segmentation


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


def test_health_defines_no_dataclass():
    assert dataclasses_of(health) == []
