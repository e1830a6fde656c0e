"""Run configuration: an INI file with sections, keys typed by a schema.

Unknown sections or keys are rejected so typos surface immediately;
parse -> serialize -> parse is idempotent.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .trainer import TrainConfig

_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _to_bool(s: str) -> bool:
    if s.lower() not in _BOOLS:
        raise ConfigError(f"expected a boolean, got {s!r}")
    return _BOOLS[s.lower()]


def _to_str_list(s: str):
    return tuple(tok.strip() for tok in s.split(",") if tok.strip())


def _to_cutoffs(s: str):
    cutoffs = tuple(int(tok) for tok in s.split(",") if tok.strip())
    if not cutoffs or min(cutoffs) < 1:
        raise ConfigError(f"expected a comma list of positive integers, got {s!r}")
    return cutoffs


# type of the default -> (parse, serialize)
_CODECS = {
    bool: (_to_bool, lambda b: str(b).lower()),
    int: (int, str),
    float: (float, repr),
    str: (str, str),
    tuple: (_to_str_list, ",".join),
}
_MODEL_KEYS = ("aspects", "dim", "hidden", "temp")


def _section(**defaults) -> dict:
    return {key: (*_CODECS[type(default)], default) for key, default in defaults.items()}


# section -> key -> (parse, serialize, default); [model] and [train] are the
# TrainConfig fields, so their defaults live only there
_SCHEMA = {
    "data": _section(path="", format="", min_user_core=1, min_item_core=1),
    "split": _section(train_ratio=0.8, valid_of_test=0.1, seed=0),
    "model": _section(**{f.name: f.default for f in fields(TrainConfig) if f.name in _MODEL_KEYS}),
    "train": _section(**{f.name: f.default for f in fields(TrainConfig)
                         if f.name not in _MODEL_KEYS}),
    "eval": {"cutoffs": (_to_cutoffs, lambda t: ",".join(map(str, t)), (20, 50))},
    "output": _section(dir="runs/out"),
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {s: {k: spec[2] for k, spec in keys.items()} for s, keys in _SCHEMA.items()}
        for section, keys in self.values.items():
            if section not in merged:
                raise ConfigError(f"unknown config section [{section}]")
            for key, val in keys.items():
                if key not in merged[section]:
                    raise ConfigError(f"unknown config key {key!r} in section [{section}]")
                merged[section][key] = val
        self.values = merged

    def __getitem__(self, section_key):
        section, key = section_key
        return self.values[section][key]

    def set(self, section, key, value):
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        self.values[section][key] = value

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.values["model"], **self.values["train"]).validate()


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from e
    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            parse = _SCHEMA[section][key][0]
            try:
                values[section][key] = parse(raw)
            except (ValueError, ConfigError) as e:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {e}") from e
    return RunConfig(values)


def save_config(cfg: RunConfig, path):
    parser = configparser.ConfigParser()
    for section, keys in _SCHEMA.items():
        parser.add_section(section)
        for key, (_, serialize, _default) in keys.items():
            parser.set(section, key, serialize(cfg.values[section][key]))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
