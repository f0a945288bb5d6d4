"""Run configuration: a strict JSON schema over the policy inputs.

Every parameter is a design or governance choice, set in one auditable file.
Unknown keys are rejected at every level; an error names its key and constraint.
A key's default is that of its record's constructor (in ``satfeas.model``, or
:class:`RunConfig`), so an empty JSON object is ``RunConfig()``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from .io import read_json
from .model import (
    KAPPA_A,
    KAPPA_C,
    THEME,
    FeasibilityParams,
    ValidationError,
    _Record,
    _require,
    check_kappas,
)


class RunConfig(_Record):
    """Validated policy inputs plus tilt parameters and data-file paths."""

    def __init__(self, params: FeasibilityParams = FeasibilityParams(), kappa_a: float = KAPPA_A,
                 kappa_c: float = KAPPA_C, theme: str = THEME, candidates_path: str | None = None,
                 core_weights_path: str | None = None) -> None:
        _require(isinstance(params, FeasibilityParams), "params must be a FeasibilityParams",
                 "bad_type", "params")
        check_kappas(kappa_a, kappa_c)
        _require(isinstance(theme, str), "theme must be a string", "bad_type", "theme")
        for key, path in (("candidates", candidates_path), ("core_weights", core_weights_path)):
            _require(isinstance(path, (str, type(None))), f"{key} must be a path string",
                     "bad_type", key)
        self.__dict__.update(params=params, kappa_a=kappa_a, kappa_c=kappa_c, theme=theme,
                             candidates_path=candidates_path, core_weights_path=core_weights_path)


def _defaults(cls: type) -> dict[str, Any]:
    """Each field of record ``cls`` with its constructor default (every field has one)."""
    return dict(zip(cls._fields, cls.__init__.__defaults__))


#: The sections: each record field of ``FeasibilityParams`` with its type; then the tilt keys.
_SECTIONS = {name: type(value) for name, value in _defaults(FeasibilityParams).items()
             if isinstance(value, _Record)}
_TILTS = {key: _defaults(RunConfig)[key] for key in ("kappa_a", "kappa_c")}
#: The top-level keys passed to ``RunConfig`` as they are, and the field each fills.
_PASSED = {"theme": "theme", "candidates": "candidates_path", "core_weights": "core_weights_path"}
_SCALARS = [key for key in FeasibilityParams._fields if key not in _SECTIONS]
_KEYS = {*FeasibilityParams._fields, "tilts", *_PASSED}


def _number(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number", code="bad_type", field=key)
    try:
        return float(value)
    except OverflowError:  # an integer past the float range: the model names it not_finite
        return value


def _given(data: Mapping[str, Any], name: str, defaults: dict[str, Any]) -> dict[str, Any]:
    """The keys section ``name`` gives, in ``defaults`` order: numbers, null where defaulted."""
    raw = data.get(name, {})
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{name} must be an object", code="bad_section", field=name)
    for key in raw:
        if key not in defaults:
            raise ValidationError(f"unknown config key '{name}.{key}'",
                                  code="unknown_key", field=f"{name}.{key}")
    return {key: None if raw[key] is None and default is None
            else _number(raw[key], f"{name}.{key}")
            for key, default in defaults.items() if key in raw}


def _prefixed(e: ValidationError, name: str) -> ValidationError:
    """``e``, a record's error (it names no entry), restated for a key inside section ``name``."""
    return ValidationError(f"{name}.{e}", code=e.code, field=f"{name}.{e.field}")


def config_from_dict(data: Mapping[str, Any]) -> RunConfig:
    """Validate an in-memory config mapping (same schema as the file form)."""
    if not isinstance(data, Mapping):
        raise ValidationError("config root must be a JSON object", code="not_an_object",
                              field="config")
    for key in data:
        if key not in _KEYS:
            raise ValidationError(f"unknown config key {key!r}", code="unknown_key", field=key)

    sections = {}
    for name, cls in _SECTIONS.items():
        values = _given(data, name, _defaults(cls))  # its errors name their full key already
        try:
            sections[name] = cls(**values)
        except ValidationError as e:
            raise _prefixed(e, name) from None
    params = FeasibilityParams(**sections, **{key: _number(data[key], key) for key in _SCALARS
                                              if key in data})

    tilts = _given(data, "tilts", _TILTS)
    try:
        return RunConfig(params, **tilts,
                         **{field: data[key] for key, field in _PASSED.items() if key in data})
    except ValidationError as e:
        raise _prefixed(e, "tilts") if e.field in _TILTS else e from None


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file; each failure is a distinct, key-naming error."""
    return config_from_dict(read_json(path, "config"))
