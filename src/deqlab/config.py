"""Experiment configuration: YAML document + dotted-key overrides.

The config file is the interface for experiments; command-line
`--set section.key=value` overrides individual entries. The solver and
train sections are the library's own SolverConfig and TrainConfig; every
section checks its field types, and calls the library's owner of each range
rule, on construction, so a config that loads is one the commands can run.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .concentration import check_grid
from .data import check_sphere_shape
from .errors import ConfigError, InputError
from .kernel import check_depth
from .linalg import check_positive
from .model import SolverConfig, check_field_types, check_seed, check_sigma_w2
from .train import TrainConfig

__all__ = [
    "DataConfig",
    "ModelConfig",
    "TrainSection",
    "ConcentrationSection",
    "OutputSection",
    "ExperimentConfig",
    "load_config",
    "apply_overrides",
]


class _Loader(yaml.SafeLoader):
    """YAML 1.1 safe loader that also reads `1e-8` (no dot, as YAML 1.2
    and Python write it) as a float rather than a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9]+(?:\.[0-9]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"))

def _build(section_cls, payload: dict, section: str, **fixed):
    """Construct (and so validate) one section from its mapping; `fixed`
    fields are supplied by other sections, not by the mapping."""
    payload = {} if payload is None else payload
    if not isinstance(payload, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    unknown = set(payload) - {f.name for f in fields(section_cls) if f.name not in fixed}
    if unknown:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")
    try:
        return section_cls(**payload, **fixed)
    except (InputError, TypeError) as exc:
        raise ConfigError(f"section {section!r}: {exc}") from exc


@dataclass(frozen=True)
class DataConfig:
    kind: str = "synthetic"  # synthetic | file
    n: int = 1000            # defaults match the reference synthetic setup
    d: int = 1000
    seed: int = 0
    y_cap: float = 10.0
    matrix: str | None = None      # file: matrix CSV
    labels_csv: str | None = None  # file: labels CSV

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in ("synthetic", "file"):
            raise ConfigError(f"data.kind {self.kind!r} is not one of "
                              f"synthetic|file")
        check_positive(self.y_cap, "y_cap")
        if self.kind == "synthetic":
            check_sphere_shape(self.n, self.d)
        check_seed(self.seed)
        if self.kind == "file":
            for key in ("matrix", "labels_csv"):
                value = getattr(self, key)
                if value is None:
                    raise ConfigError(f"data.kind=file requires data.{key}")
                if not Path(value).exists():
                    raise ConfigError(f"data.{key} path does not exist: {value}")


@dataclass(frozen=True)
class ModelConfig:
    m: int | list[int] = 500  # a list runs a width sweep sharing one step size
    sigma_w2: float = 0.08
    seed: int = 1

    def __post_init__(self):
        check_field_types(self)
        check_grid(self.widths(), name="m")
        check_sigma_w2(self.sigma_w2)
        check_seed(self.seed)

    def widths(self) -> list:
        return [self.m] if isinstance(self.m, int) else list(self.m)


@dataclass(frozen=True)
class TrainSection(TrainConfig):
    """The library's TrainConfig plus the two keys only `deqlab train`
    reads: checkpoint cadence and the checkpoint to resume from."""

    checkpoint_every: int = 0  # 0 disables checkpoints
    resume: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.checkpoint_every < 0:
            raise ConfigError("train.checkpoint_every must be >= 0")
        if self.resume is not None and not Path(self.resume).exists():
            raise ConfigError(f"train.resume: {self.resume} does not exist")


@dataclass(frozen=True)
class ConcentrationSection:
    experiments: list = field(default_factory=lambda: [
        "tied_vs_population", "lambda0_vs_width"])
    m_list: list[int] = field(default_factory=lambda: [100, 400, 1600])
    l: int = 6
    trials: int = 20
    base_seed: int = 123

    KNOWN = ("tied_vs_population", "lambda0_vs_width", "reconstruct")

    def __post_init__(self):
        check_field_types(self)
        if not self.experiments:
            raise ConfigError("concentration.experiments is empty")
        for i, name in enumerate(self.experiments):
            if name not in self.KNOWN:
                raise ConfigError(f"unknown concentration experiment {name!r} in "
                                  f"concentration.experiments; known: "
                                  f"{list(self.KNOWN)}")
            if name in self.experiments[:i]:
                raise ConfigError(f"concentration.experiments repeats {name!r}")
        check_grid(self.m_list, self.trials)
        check_depth(self.l, "l")
        check_seed(self.base_seed, "base_seed")


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"

    def __post_init__(self):
        check_field_types(self)
        # the run's mkdir(parents=True) needs the nearest existing path to be a directory
        path = Path(self.directory)
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output.directory {self.directory}: {existing} "
                              f"is not a directory")


@dataclass(frozen=True)
class ExperimentConfig:
    """All sections of an experiment; `train.solver` is `solver`."""

    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    train: TrainSection = field(default_factory=TrainSection)
    concentration: ConcentrationSection = field(default_factory=ConcentrationSection)
    output: OutputSection = field(default_factory=OutputSection)

    def __post_init__(self):
        if self.train.resume is not None and len(self.model.widths()) > 1:
            raise ConfigError("train.resume only supports a single model.m")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a mapping")
        sections = {
            "data": DataConfig, "model": ModelConfig, "solver": SolverConfig,
            "train": TrainSection, "concentration": ConcentrationSection,
            "output": OutputSection,
        }
        unknown = set(doc) - set(sections)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        built = {}
        for name, section_cls in sections.items():
            # the train section runs on the config the solver section built
            fixed = {"solver": built["solver"]} if name == "train" else {}
            built[name] = _build(section_cls, doc.get(name), name, **fixed)
        return cls(**built)

    def to_dict(self) -> dict:
        """The config echo; `train` leaves out the solver it shares."""
        doc = asdict(self)
        del doc["train"]["solver"]
        return doc


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply `section.key=value` strings; values parse as YAML scalars."""
    if overrides and not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        parts = dotted.strip().split(".")
        if len(parts) != 2:
            raise ConfigError(f"--set key must be section.key, got {dotted!r}")
        section, key = parts
        try:
            value = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse value in {item!r}: {exc}") from exc
        if doc.get(section) is None:  # an absent or empty section
            doc[section] = {}
        if not isinstance(doc[section], dict):
            raise ConfigError(f"section {section!r} is not a mapping")
        doc[section][key] = value
    return doc


def load_config(path, overrides=()) -> tuple:
    """Read YAML, apply overrides, build (and so validate) every section;
    returns (config, plain dict)."""
    if path is None:
        doc = {}
    else:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = yaml.load(p.read_text(), Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
        if doc is None:
            doc = {}
    doc = apply_overrides(doc, overrides)
    cfg = ExperimentConfig.from_dict(doc)
    return cfg, cfg.to_dict()
