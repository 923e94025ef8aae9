import dataclasses
import re
from pathlib import Path

import pytest
import yaml

from resfault import config, nn
from resfault.config import (
    RunConfig,
    config_from_dict,
    dump_config,
    load_config,
)
from resfault.errors import ConfigInvalid, UnknownKey


class TestDefaults:
    def test_empty_file_gives_full_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == RunConfig()
        assert cfg.preprocess.downsample_factor == 10
        assert cfg.preprocess.cruise_threshold == 0.85
        assert cfg.detection.n_wait == 3
        assert cfg.split.healthy_cycles == 16
        assert cfg.split.validation_fraction == 0.15
        assert cfg.training.epochs == 70
        assert cfg.training.batch_size == 64
        assert cfg.training.learning_rate == 0.001
        assert cfg.training.beta1 == 0.9
        assert cfg.training.beta2 == 0.999
        assert cfg.training.patience == 10
        assert cfg.training.realisations == 5

    def test_no_path_gives_defaults(self):
        assert load_config(None) == RunConfig()


class TestValidation:
    def test_n_wait_zero_rejected(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict({"detection": {"n_wait": 0}})

    def test_unknown_top_level_key(self):
        with pytest.raises(UnknownKey):
            config_from_dict({"trainnig": {"epochs": 3}})

    def test_unknown_section_key(self):
        with pytest.raises(UnknownKey):
            config_from_dict({"training": {"epoch": 3}})

    def test_type_error_per_field(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict({"training": {"epochs": "many"}})
        with pytest.raises(ConfigInvalid):
            config_from_dict({"training": {"epochs": 1.5}})
        with pytest.raises(ConfigInvalid):
            config_from_dict({"preprocess": {"cruise_threshold": "high"}})
        with pytest.raises(ConfigInvalid):
            config_from_dict({"synth": {"unit_prefix": 4}})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict({"training": {"epochs": True}})

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("a: [1, 2\n")
        with pytest.raises(ConfigInvalid):
            load_config(path)


class TestOverrides:
    def test_learning_rate_override_reaches_training(self, rng):
        x = rng.uniform(-1, 1, size=(96, 1))
        data = (x, 2.0 * x)
        nets = {}
        for lr in (0.001, 0.01):
            cfg = config_from_dict(
                {"training": {"learning_rate": lr, "epochs": 2, "batch_size": 32,
                              "patience": 2, "realisations": 1}}
            )
            assert cfg.training.learning_rate == lr
            net = nn.init_weights((1, 1), seed=0)
            result = nn.train(net, data, data, cfg.training, seed=0)
            nets[lr] = result.net.weights[0][0, 0]
        # a 10x learning rate must move the weight further in 2 epochs
        assert nets[0.001] != nets[0.01]

    def test_seed_and_synth_overrides(self):
        cfg = config_from_dict(
            {"seed": 9, "synth": {"n_units": 2, "severity_scale": 0.0, "unit_prefix": "h-"}}
        )
        assert cfg.seed == 9
        assert cfg.synth.n_units == 2
        assert cfg.synth.severity_scale == 0.0
        assert cfg.synth.unit_prefix == "h-"

    def test_timeline_checkpoints_list(self):
        cfg = config_from_dict({"segmentation": {"timeline_checkpoints": [5, 15]}})
        assert cfg.segmentation.timeline_checkpoints == (5, 15)

    def test_dump_round_trips(self):
        cfg = config_from_dict({"training": {"epochs": 3}, "seed": 4})
        again = config_from_dict(yaml.safe_load(dump_config(cfg)))
        assert again == cfg

    def test_load_of_dump_round_trips(self, tmp_path):
        # "1e3" is a string that the YAML 1.2 float rule would read as a number
        cfg = config_from_dict(
            {"training": {"learning_rate": 1e-5}, "synth": {"unit_prefix": "1e3"}}
        )
        path = tmp_path / "dumped.yaml"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg


class TestYamlNumbers:
    def load(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        return load_config(path)

    def test_exponent_float_without_dot(self, tmp_path):
        cfg = self.load(tmp_path, "training: {learning_rate: 1e-3}\n")
        assert cfg.training.learning_rate == 0.001

    @pytest.mark.parametrize("text", ["-2.5E-4", "-25E-5"])
    def test_negative_exponent_float_reaches_the_range_check(self, tmp_path, text):
        with pytest.raises(ConfigInvalid, match="learning_rate must be positive"):
            self.load(tmp_path, f"training: {{learning_rate: {text}}}\n")

    def test_exponent_is_not_an_integer(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="epochs must be an integer"):
            self.load(tmp_path, "training: {epochs: 1e3}\n")

    def test_global_safe_loader_unchanged(self):
        assert yaml.safe_load("a: 1e-3") == {"a": "1e-3"}


FLOAT_FIELDS = [
    (section, fld.name)
    for section, cls in config._SECTION_TYPES.items()
    for fld in dataclasses.fields(cls)
    if str(fld.type).startswith("float")
]


class TestNonFiniteFloats:
    """No float setting accepts NaN or an infinity; comparisons let NaN through."""

    def test_every_section_float_is_covered(self):
        assert ("training", "learning_rate") in FLOAT_FIELDS
        assert ("synth", "noise_std") in FLOAT_FIELDS
        assert ("synth", "severity_scale") in FLOAT_FIELDS
        assert len(FLOAT_FIELDS) == 8

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("section, name", FLOAT_FIELDS)
    def test_rejected_from_dict_and_by_construction(self, section, name, value):
        with pytest.raises(ConfigInvalid, match=f"{section}.{name}"):
            config_from_dict({section: {name: value}})
        with pytest.raises(ConfigInvalid, match=f"{section}.{name}"):
            config._SECTION_TYPES[section](**{name: value})

    @pytest.mark.parametrize("text", [".nan", ".inf", "-.inf"])
    def test_rejected_from_yaml(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"synth: {{noise_std: {text}}}\n")
        with pytest.raises(ConfigInvalid, match="synth.noise_std"):
            load_config(path)


def test_readme_config_block_is_the_default_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```yaml\n(.*?)```", readme, flags=re.DOTALL)
    path = tmp_path / "readme.yaml"
    path.write_text(block)
    assert load_config(path) == RunConfig()
    blob = yaml.safe_load(block)
    sections = [f.name for f in dataclasses.fields(RunConfig) if f.name != "seed"]
    assert sorted(blob) == sorted(["seed", *sections])
    for name in sections:
        fields = dataclasses.fields(getattr(RunConfig(), name))
        assert sorted(blob[name]) == sorted(f.name for f in fields), name
