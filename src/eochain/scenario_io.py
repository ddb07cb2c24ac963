"""Scenario files: one YAML document per scenario, schema version 1.

The document maps one-to-one onto the Scenario type: field names, nesting
and defaults are read from the dataclasses in ``model``, which are the only
schema.  The schema is closed: a key that is not a field (other than the
top-level ``schema_version``) is an error, and so is a key given twice in
one mapping.  See README for the full schema.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import typing
from collections.abc import Hashable
from enum import Enum
from pathlib import Path
from typing import Any

import yaml

from .model import Scenario, ValidationError

SCHEMA_VERSION = 1

# Each dataclass's field types, resolved once per type, not once per value.
_field_types = functools.cache(typing.get_type_hints)


class _UniqueKeyLoader(yaml.CSafeLoader):
    """libyaml's safe loader, except that a mapping key given twice is an error, not an overwrite."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict[Any, Any]:
        seen: set[Hashable] = set()
        for key_node, _ in node.value:
            # A merge key ``<<`` may repeat; an unhashable key is left for the
            # base loader to report.
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if isinstance(key, Hashable):
                if key in seen:
                    mark = key_node.start_mark  # its name is the path of the file read
                    where = f"{mark.name}:{mark.line + 1}:{mark.column + 1}"
                    raise ValidationError(f"{where}: duplicate key {key!r}")
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _plain(value: Any) -> Any:
    """Dataclasses as dicts in field order, tuples as lists, enums as their values."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value


def _build(tp: Any, value: Any, path: str) -> Any:
    """Convert the document value at ``path`` into the annotated type ``tp``."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValidationError(f"{path or 'scenario'}: expected a mapping")
        prefix = f"{path}." if path else ""
        names = {f.name for f in dataclasses.fields(tp)}
        unknown = [k for k in value if k not in names]
        if unknown:
            raise ValidationError(f"{prefix}{unknown[0]}: unknown field")
        hints = _field_types(tp)
        kwargs = {}
        for f in dataclasses.fields(tp):
            sub = prefix + f.name
            if f.name in value:
                kwargs[f.name] = _build(hints[f.name], value[f.name], sub)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ValidationError(f"malformed scenario document: {sub} is missing")
        return tp(**kwargs)
    origin = typing.get_origin(tp)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{path}: expected a list")
        item = typing.get_args(tp)[0]
        return tuple(_build(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is typing.Union:
        if value is None:
            return None
        tp = next(arg for arg in typing.get_args(tp) if arg is not type(None))
    # bool("false"), int(3.7), float("550"), float(True) and str(5) would
    # succeed; these types take no conversion, other than an int to a float.
    if tp is bool and not isinstance(value, bool):
        raise ValidationError(f"{path}: expected true or false, got {value!r}")
    if tp is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    if tp is float and (isinstance(value, bool) or not isinstance(value, (numbers.Integral, float))):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    if tp is str and not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string, got {value!r}")
    try:
        return tp(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: invalid {tp.__name__} value {value!r}") from exc


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported scenario schema version: {version!r}")
    return _build(Scenario, {k: v for k, v in doc.items() if k != "schema_version"}, "")


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    return {"schema_version": SCHEMA_VERSION, **_plain(s)}


def load_scenario(path: str | Path) -> Scenario:
    # Read as bytes, so the YAML reader also reports a file that is not text.
    with open(path, "rb") as f:
        try:
            doc = yaml.load(f, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else str(path)
            problem = getattr(exc, "problem", None) or getattr(exc, "reason", None) or "malformed document"
            raise ValidationError(f"{where}: invalid YAML: {problem}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("scenario file must contain a single mapping document")
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    with open(path, "w") as f:
        yaml.safe_dump(scenario_to_dict(scenario), f, sort_keys=False)
