"""Each RunConfig setting has one definition: its config section.

Code below the config takes the section itself or a required argument read
from it. A default there would restate the config value and could drift
from it; without one, a caller that forgets a setting fails with a
TypeError. Each section checks its own values when it is built, so there is
no separate validation step to forget.
"""

import inspect

import pytest

from resfault import data_model, detector, models, nn, preprocess, segmentation, synth
from resfault.config import (
    DetectionSettings,
    PreprocessSettings,
    RunConfig,
    SegmentationSettings,
    SplitSettings,
    SynthSettings,
    TrainingSettings,
)
from resfault.errors import ConfigInvalid

# (callable, parameter) pairs that receive a RunConfig value
RECEIVES_SETTING = [
    (detector.detect, "n_wait"),
    (detector.build_report, "n_wait"),
    (segmentation.snapshot, "k"),
    (segmentation.silhouette_curve, "k_range"),
    (segmentation.trigger_timeline, "checkpoints"),
    (preprocess.cruise_filter, "threshold"),
    (preprocess.downsample, "factor"),
    (data_model.split, "settings"),
    (data_model.split, "seed"),
    (nn.train, "settings"),
    (nn.train, "seed"),
    (models.train, "settings"),
    (models.train, "seed"),
    (synth.gen_unit, "settings"),
    (synth.gen_fleet, "cfg"),
    (synth.gen_units, "cfg"),
]


@pytest.mark.parametrize(
    "fn, name",
    RECEIVES_SETTING,
    ids=[f"{fn.__module__}.{fn.__name__}-{name}" for fn, name in RECEIVES_SETTING],
)
def test_setting_parameter_has_no_default(fn, name):
    param = inspect.signature(fn).parameters[name]
    assert param.default is inspect.Parameter.empty


@pytest.mark.parametrize(
    "cls, bad",
    [
        (PreprocessSettings, {"downsample_factor": 0}),
        (SplitSettings, {"validation_fraction": 1.0}),
        (TrainingSettings, {"epochs": 0}),
        (DetectionSettings, {"n_wait": 0}),
        (SegmentationSettings, {"k_max": -1}),
        (SynthSettings, {"n_families": 4}),
        (SynthSettings, {"map_seed": -1}),
        (SynthSettings, {"rows_per_cycle": 19}),
        (SynthSettings, {"fault_start_lo": 21, "fault_start_hi": 20}),
        (SynthSettings, {"fault_start_hi": 48}),
        (SynthSettings, {"noise_std": -0.1}),
        (RunConfig, {"seed": -1}),
        (RunConfig, {"seed": 1.5}),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else next(iter(v)),
)
def test_section_rejects_bad_value_when_built(cls, bad):
    with pytest.raises(ConfigInvalid):
        cls(**bad)


def test_family_bound_is_the_generators_family_count():
    # config cannot import synth, which imports config, so it restates the count
    SynthSettings(n_families=len(synth.DEFAULT_FAMILIES))
    with pytest.raises(ConfigInvalid):
        SynthSettings(n_families=len(synth.DEFAULT_FAMILIES) + 1)
