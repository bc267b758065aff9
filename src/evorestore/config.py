"""Line-oriented `key = value` configuration with fail-closed validation.

Every key is registered below with its parser; unknown keys — from the file or
from `--set` overrides — raise ConfigError. The same keys back both the config
file and overrides. The `trainer.*`, `eos.*` and `dataset.*` keys are the
fields of TrainConfig, EosConfig and DatasetConfig, each parsed by its
annotation; `degradation.specs` is the one key registered by hand, and each
parameter of a spec is parsed by the annotation of its DegradationSpec field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace

from .degrade import KIND_FIELDS, DegradationSpec, SplitConfig
from .eos import EosConfig
from .errors import ConfigError
from .trainer import TrainConfig


@dataclass(frozen=True)
class DatasetConfig:
    manifest: str = ""
    val_fraction: float = 0.2
    test_fraction: float = 0.0
    split_seed: int = 0

    def split(self) -> SplitConfig:
        return SplitConfig(self.val_fraction, self.test_fraction, self.split_seed)


@dataclass
class AppConfig:
    trainer: TrainConfig = field(default_factory=TrainConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    degradations: tuple = ()


def _parse_optional_int(v: str):
    if v.strip().lower() in ("", "none"):
        return None
    return int(v)


def _parse_freeze(v: str) -> tuple:
    items = tuple(s.strip() for s in v.split(",") if s.strip())
    return items


# field annotation -> parser; annotations are strings (PEP 563)
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "int | None": _parse_optional_int,
    "tuple": _parse_freeze,
}

_SPEC_RE = re.compile(r"^\s*(\w+)\s*\(([^)]*)\)\s*$")
_SPEC_TYPES = {f.name: f.type for f in fields(DegradationSpec)}


def parse_degradation_specs(text: str) -> tuple:
    """E.g. ``noise(sigma=0.098);blur(kernel_sigma=1.5,seed=3)``."""
    specs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _SPEC_RE.match(chunk)
        if not m:
            raise ConfigError(f"malformed degradation spec {chunk!r}")
        kind, arg_text = m.group(1), m.group(2)
        if kind not in KIND_FIELDS:
            raise ConfigError(f"unknown degradation kind {kind!r}")
        kwargs = {}
        for pair in arg_text.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ConfigError(f"degradation parameter {pair!r} must be name=value")
            name, _, raw = pair.partition("=")
            name = name.strip()
            if name not in KIND_FIELDS[kind]:
                raise ConfigError(f"unknown parameter {name!r} for kind {kind!r}")
            kwargs[name] = _PARSERS[_SPEC_TYPES[name]](raw.strip())
        spec = DegradationSpec(kind=kind, **kwargs)
        spec.validate()
        specs.append(spec)
    if not specs:
        raise ConfigError("degradation.specs is empty")
    return tuple(specs)


# key -> (section, field, parser); sections address the nested dataclasses
_KEYS = {"degradation.specs": ("degradation", "specs", parse_degradation_specs)}

for _section, _cls in (("trainer", TrainConfig), ("eos", EosConfig), ("dataset", DatasetConfig)):
    for _f in fields(_cls):
        if _f.name == "eos":  # TrainConfig's nested EosConfig: the eos.* keys
            continue
        if _f.type not in _PARSERS:
            raise TypeError(f"no config parser for {_cls.__name__}.{_f.name}: {_f.type}")
        _KEYS[f"{_section}.{_f.name}"] = (_section, _f.name, _PARSERS[_f.type])


def parse_assignments(lines, source: str) -> dict:
    """Parse `key = value` lines (comments with #) into a raw dict, fail-closed."""
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        raw[key] = value.strip()
    return raw


def load_config(path: str | None, overrides=()) -> AppConfig:
    """Read optional config file, then apply `key=value` override strings."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: config file is not UTF-8 text") from exc
        raw.update(parse_assignments(lines, path))
    for i, ov in enumerate(overrides):
        if "=" not in ov:
            raise ConfigError(f"override #{i + 1} must be key=value, got {ov!r}")
        raw.update(parse_assignments([ov], f"--set[{i}]"))

    sections = {"trainer": {}, "eos": {}, "dataset": {}, "degradation": {}}
    for key, text in raw.items():
        section, name, parser = _KEYS[key]
        try:
            sections[section][name] = parser(text)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc

    eos_cfg = EosConfig(**sections["eos"])
    trainer_cfg = replace(TrainConfig(**sections["trainer"]), eos=eos_cfg)
    trainer_cfg.validate()
    dataset_cfg = DatasetConfig(**sections["dataset"])
    dataset_cfg.split().validate()
    degradations = sections["degradation"].get("specs", ())
    return AppConfig(trainer=trainer_cfg, dataset=dataset_cfg, degradations=degradations)


_HINTS = {
    _parse_optional_int: "int or 'none'",
    _parse_freeze: "comma list of lowpass/spectral/spatial",
    parse_degradation_specs: "kind(name=value,...);...",
}


def documented_keys() -> list:
    """Sorted (key, type hint) pairs for --help and the README table."""
    out = []
    for key, (section, name, parser) in sorted(_KEYS.items()):
        hint = _HINTS.get(parser, getattr(parser, "__name__", "str"))
        out.append((key, hint))
    return out
