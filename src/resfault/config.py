"""Run configuration: defaults for every pipeline constant, YAML overrides.

Each section is the one definition of its settings: the pipeline takes the
section itself (or a required argument read from it), never a copy with
defaults of its own. A section checks its values when it is built, every
float finite, so an invalid section cannot exist. An empty config file
yields the full default configuration. Unknown keys are rejected so typos
never silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError

# the most rows a synthetic fleet may have, about 350 times the default fleet:
# a larger size is refused before synth.unit_plan builds its list of units
MAX_FLEET_ROWS = 10**8


def derive_seed(master_seed: int, *keys: int) -> int:
    """Stable child seed for a labeled purpose (a realisation, a synth unit)."""
    seq = np.random.SeedSequence([master_seed, *keys])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class PreprocessSettings:
    downsample_factor: int = 10
    cruise_threshold: float = 0.85

    def __post_init__(self):
        if self.downsample_factor < 1:
            raise ConfigError("preprocess.downsample_factor must be >= 1")
        if not 0.0 < self.cruise_threshold < 1.0:
            raise ConfigError("preprocess.cruise_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class SplitSettings:
    healthy_cycles: int = 16
    validation_fraction: float = 0.15

    def __post_init__(self):
        if self.healthy_cycles < 1:
            raise ConfigError("split.healthy_cycles must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("split.validation_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class TrainingSettings:
    epochs: int = 70
    batch_size: int = 64
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    patience: int = 10
    realisations: int = 5

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("training.epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("training.batch_size must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("training.learning_rate must be positive and finite")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"training.{name} must lie in [0, 1)")
        if self.patience < 0:
            raise ConfigError("training.patience must be >= 0")
        if self.realisations < 1:
            raise ConfigError("training.realisations must be >= 1")


@dataclass(frozen=True)
class DetectionSettings:
    n_wait: int = 3

    def __post_init__(self):
        if self.n_wait < 1:
            raise ConfigError("detection.n_wait must be >= 1")


@dataclass(frozen=True)
class SegmentationSettings:
    snapshot_offset: int = 10
    k_max: int = 34
    timeline_checkpoints: tuple[int, ...] = (10, 20, 30, 40)

    def __post_init__(self):
        if self.snapshot_offset < 0:
            raise ConfigError("segmentation.snapshot_offset must be >= 0")
        if self.k_max < 0:
            raise ConfigError("segmentation.k_max must be >= 0")
        if any(c < 0 for c in self.timeline_checkpoints):
            raise ConfigError("segmentation.timeline_checkpoints must be >= 0")


@dataclass(frozen=True)
class SynthSettings:
    """The synthetic fleet that synth.gen_units makes, unit by unit.

    ``severity_scale`` is the drift per (cycle - fault cycle) **
    ``severity_exponent`` in sensor units (None: 6 * noise_std ten cycles
    after the fault; 0: healthy). ``map_seed`` (None: the master seed) pins
    the sensor response map, so a second fleet can share the first's physics.
    """

    n_units: int = 10
    n_families: int = 3
    cycles_per_unit: int = 48
    rows_per_cycle: int = 200
    fault_start_lo: int = 18
    fault_start_hi: int = 22
    noise_std: float = 0.05
    severity_scale: float | None = None
    severity_exponent: float = 2.0
    map_seed: int | None = None
    unit_prefix: str = ""

    def __post_init__(self):
        if self.n_units < 1:
            raise ConfigError("synth.n_units must be >= 1")
        # 3 is len(synth.DEFAULT_FAMILIES); synth imports this module, so it is restated
        if not 1 <= self.n_families <= 3:
            raise ConfigError("synth.n_families must lie in 1..3")
        if self.cycles_per_unit < 2:
            raise ConfigError("synth.cycles_per_unit must be >= 2")
        if self.rows_per_cycle < 20:
            raise ConfigError("synth.rows_per_cycle must be >= 20")
        rows = self.n_families * self.n_units * self.cycles_per_unit * self.rows_per_cycle
        if rows > MAX_FLEET_ROWS:
            raise ConfigError(
                "synth.n_families * n_units * cycles_per_unit * rows_per_cycle must be "
                f"<= {MAX_FLEET_ROWS}, got {rows}"
            )
        if self.fault_start_lo > self.fault_start_hi:
            raise ConfigError("synth.fault_start_lo must be <= synth.fault_start_hi")
        if self.fault_start_hi >= self.cycles_per_unit:
            raise ConfigError("synth.fault_start_hi must be < synth.cycles_per_unit")
        if not 0 <= self.noise_std < np.inf:
            raise ConfigError("synth.noise_std must be >= 0 and finite")
        if not 0 < self.severity_exponent < np.inf:
            raise ConfigError("synth.severity_exponent must be positive and finite")
        if self.severity_scale is not None and not 0 <= self.severity_scale < np.inf:
            raise ConfigError("synth.severity_scale must be >= 0 and finite")
        if self.map_seed is not None and self.map_seed < 0:
            raise ConfigError("synth.map_seed must be >= 0")
        try:
            self.unit_prefix.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError("synth.unit_prefix must be UTF-8 text") from None


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    preprocess: PreprocessSettings = field(default_factory=PreprocessSettings)
    split: SplitSettings = field(default_factory=SplitSettings)
    training: TrainingSettings = field(default_factory=TrainingSettings)
    detection: DetectionSettings = field(default_factory=DetectionSettings)
    segmentation: SegmentationSettings = field(default_factory=SegmentationSettings)
    synth: SynthSettings = field(default_factory=SynthSettings)

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# Every field of RunConfig but the seed is a settings section.
_SECTION_TYPES = {
    f.name: f.default_factory for f in dataclasses.fields(RunConfig) if f.name != "seed"
}


def _coerce(section: str, fld: dataclasses.Field, value):
    name = f"{section}.{fld.name}"
    ftype = str(fld.type)
    if value is None:
        if "None" in ftype:
            return None
        raise ConfigError(f"{name} must not be null")
    if ftype.startswith("int"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not -(2**63) <= value < 2**63:
            raise ConfigError(f"{name} is outside the 64-bit integer range")
        return value
    if ftype.startswith("float"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} is too large for a 64-bit float") from None
    if ftype.startswith("str"):
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if ftype.startswith("tuple"):
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{name} must be a list of integers, got {value!r}")
        return tuple(value)
    raise ConfigError(f"{name}: unsupported field type {ftype!r}")


def _build_section(section_name: str, cls, blob) -> object:
    if blob is None:
        blob = {}
    if not isinstance(blob, dict):
        raise ConfigError(f"section {section_name!r} must be a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(blob) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section_name!r}: {sorted(unknown)}")
    kwargs = {
        key: _coerce(section_name, known[key], value) for key, value in blob.items()
    }
    return cls(**kwargs)


def config_from_dict(blob: dict | None) -> RunConfig:
    """Build a validated RunConfig from a nested plain dict."""
    if blob is None:
        blob = {}
    if not isinstance(blob, dict):
        raise ConfigError("config must be a mapping of sections")
    unknown = set(blob) - set(_SECTION_TYPES) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    sections = {
        name: _build_section(name, cls, blob.get(name))
        for name, cls in _SECTION_TYPES.items()
    }
    return RunConfig(seed=blob.get("seed", 0), **sections)


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads a YAML 1.2 float with no dot, such as 1e-3."""


class _Dumper(yaml.SafeDumper):
    """SafeDumper that quotes a string such as "1e3", which _Loader reads as a float."""


for _cls in (_Loader, _Dumper):
    _cls.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+$"),
        list("-+0123456789"),
    )


def load_config(path: str | Path | None) -> RunConfig:
    """Load a YAML config file; an empty or absent file means all defaults."""
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
        ) from None
    try:
        blob = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    return config_from_dict(blob)


def dump_config(cfg: RunConfig) -> str:
    """Render a config back to YAML (used by run manifests)."""
    return yaml.dump(dataclasses.asdict(cfg), Dumper=_Dumper, sort_keys=True)
