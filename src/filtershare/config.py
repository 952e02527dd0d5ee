"""Experiment configuration: JSON documents validated against a fixed schema.

Configs are diffable experiment artifacts: a file plus --set overrides
resolve to one document, validated (unknown keys rejected) before any work,
and the resolved copy is written next to the outputs so a run can be
reproduced byte for byte.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict
from pathlib import Path

import jsonschema

from .errors import ConfigError
from .regularizers import RegularizerConfig
from .traineval import TrainConfig

_NONNEG = {"type": "number", "minimum": 0}
_POSINT = {"type": "integer", "minimum": 1}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "task": {"enum": ["cifar", "synth3d", "toy"]},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "root": {"type": ["string", "null"]},
                "count": _POSINT,
                "split": {
                    "type": "array",
                    "items": _NONNEG,
                    "minItems": 3,
                    "maxItems": 3,
                },
                "toy_classes": {"type": "integer", "minimum": 1, "maximum": 10},
            },
        },
        "arch": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "levels": {"type": "integer", "minimum": 2},
                "base_channels": _POSINT,
                "input_extent": _POSINT,
            },
        },
        "sharing": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean"},
                "p": _POSINT,
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "optimizer": {"enum": ["sgd", "adam"]},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "batch_size": _POSINT,
                "epochs": {"type": "integer", "minimum": 0},
                "eval_every": {"type": "integer", "minimum": 0},
                "record_seconds": {"type": "boolean"},
            },
        },
        "regularizers": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "unit_norm_seeds": {"type": "boolean"},
                "l1_alpha": _NONNEG,
                "nuclear_alpha": _NONNEG,
                "dropout_p": {"type": "number", "minimum": 0,
                              "exclusiveMaximum": 1},
            },
        },
        "gradcheck": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "coord_budget": _POSINT,
                "fault_injection": {"type": "boolean"},
                "unet_input_extent": _POSINT,
            },
        },
        "params_sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "net": {"enum": ["layer", "unet3d"]},
                "m": _POSINT,
                "n": _POSINT,
                "p": _POSINT,
                "spatial_dims": {"type": "integer", "minimum": 1, "maximum": 3},
                "kernel_extents": {
                    "type": "array", "items": _POSINT, "minItems": 1,
                },
            },
        },
        "subset": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "fractions": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0,
                              "maximum": 1},
                    "minItems": 1,
                },
            },
        },
        "factorize": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "unshared_checkpoint": {"type": ["string", "null"]},
                "shared_checkpoint": {"type": ["string", "null"]},
                "p_grid": {"type": "array", "items": _POSINT},
                "eval_count": _POSINT,
            },
        },
        "resume": {"type": ["string", "null"]},
    },
}

DEFAULTS = {
    "task": "synth3d",
    "seed": 0,
    "output_dir": "out",
    "data": {"root": None, "count": 280, "split": [0.5, 0.25, 0.25],
             "toy_classes": 10},
    "arch": {"levels": 3, "base_channels": 8, "input_extent": 40},
    "sharing": {"enabled": True, "p": 15},
    # the run's seed is the top-level key
    "train": {k: v for k, v in asdict(TrainConfig()).items() if k != "seed"},
    "regularizers": asdict(RegularizerConfig()),
    "gradcheck": {"coord_budget": 10_000, "fault_injection": False,
                  "unet_input_extent": 12},
    "params_sweep": {"net": "layer", "m": 64, "n": 32, "p": 15,
                     "spatial_dims": 3, "kernel_extents": [3, 5, 7, 9]},
    "subset": {"fractions": [0.1, 0.2, 0.35]},
    "factorize": {"unshared_checkpoint": None, "shared_checkpoint": None,
                  "p_grid": [], "eval_count": 16},
    "resume": None,
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_override(item: str) -> tuple[list[str], object]:
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key.path=value")
    key, raw = item.split("=", 1)
    path = key.strip().split(".")
    if not all(path):
        raise ConfigError(f"override {item!r} has an empty key segment")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are fine
    return path, value


def resolve(config_path=None, overrides=()) -> dict:
    """Defaults <- config file <- --set overrides, then schema-validate."""
    doc = copy.deepcopy(DEFAULTS)
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        doc = _deep_merge(doc, loaded)
    for item in overrides:
        path, value = _parse_override(item)
        node = doc
        for segment in path[:-1]:
            nxt = node.get(segment)
            if not isinstance(nxt, dict):
                nxt = {}
                node[segment] = nxt
            node = nxt
        node[path[-1]] = value
    validate(doc)
    return doc


def validate(doc: dict) -> None:
    try:
        jsonschema.validate(doc, SCHEMA)
    except jsonschema.ValidationError as e:
        where = ".".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"config key {where}: {e.message}") from None


def first_difference(a, b) -> str | None:
    """Dotted path (list items by index) of the first leaf, in sorted path
    order, where two JSON documents differ; None if they are equal."""
    la, lb = _leaves(a), _leaves(b)
    return next((k for k in sorted(la.keys() | lb.keys())
                 if k not in la or k not in lb or la[k] != lb[k]), None)


def _leaves(doc, path: str = "") -> dict:
    if not (isinstance(doc, (dict, list)) and doc):
        return {path: doc}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return {leaf: value for key, sub in items
            for leaf, value in _leaves(sub, f"{path}.{key}".lstrip(".")).items()}


def write_resolved(doc: dict, output_dir) -> Path:
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / "config.resolved.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
