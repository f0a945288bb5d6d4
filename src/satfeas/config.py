"""Run configuration: a strict JSON schema over the policy inputs.

Every parameter is a design or governance choice, so the config is the
single auditable home for all of them. Unknown keys are rejected at every
level; validation failures name the offending key and its constraint.
Sensible small-portfolio defaults ship for every field, so an empty JSON
object is a valid config.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from .io import read_json
from .model import (
    EconParams,
    EntropyParams,
    FeasibilityParams,
    ImpactParams,
    StructuralParams,
    ValidationError,
    _Record,
    check_kappas,
)

DEFAULTS: dict[str, Any] = {
    "aum_usd": 100_000.0,
    "turnover_fraction": 0.5,
    "theme": "unspecified",
    "impact": {"c": 0.1, "delta": 0.5, "impact_cap": 0.01, "participation_cap": None},
    "econ": {"round_trip_cost_bps": 25.0, "min_effect_bps": 2.0},
    "structural": {"loss_tolerance": 0.05, "max_drawdown": 0.5,
                   "alpha_policy_min": 0.10, "alpha_policy_max": 0.15},
    "entropy": {"delta_h_max": 0.5},
    "tilts": {"kappa_a": 1.5, "kappa_c": 0.5},
    "candidates": None,
    "core_weights": None,
}


class RunConfig(_Record):
    """Validated policy inputs plus tilt parameters and data-file paths."""

    def __init__(self, params: FeasibilityParams, kappa_a: float, kappa_c: float, theme: str,
                 candidates_path: str | None = None,
                 core_weights_path: str | None = None) -> None:
        self.__dict__.update(params=params, kappa_a=kappa_a, kappa_c=kappa_c, theme=theme,
                             candidates_path=candidates_path, core_weights_path=core_weights_path)


def _number(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number", code="bad_type", field=key)
    try:
        return float(value)
    except OverflowError:  # an integer past the float range: the model names it not_finite
        return value


def _section(data: Mapping[str, Any], name: str) -> dict[str, float | None]:
    """Section ``name`` over its defaults, each value a number (or null where the default is)."""
    raw = data.get(name, {})
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{name} must be an object", code="bad_section", field=name)
    defaults = DEFAULTS[name]
    for key in raw:
        if key not in defaults:
            raise ValidationError(f"unknown config key '{name}.{key}'",
                                  code="unknown_key", field=f"{name}.{key}")
    merged = {**defaults, **raw}
    return {key: None if value is None and defaults[key] is None
            else _number(value, f"{name}.{key}")
            for key, value in merged.items()}


def _prefixed(e: ValidationError, name: str) -> ValidationError:
    """``e`` restated for a key inside config section ``name``."""
    return ValidationError(f"{name}.{e.args[0]}", code=e.code, field=f"{name}.{e.field}")


def config_from_dict(data: Mapping[str, Any]) -> RunConfig:
    """Validate an in-memory config mapping (same schema as the file form)."""
    if not isinstance(data, Mapping):
        raise ValidationError("config root must be a JSON object", code="not_an_object",
                              field="config")
    for key in data:
        if key not in DEFAULTS:
            raise ValidationError(f"unknown config key {key!r}", code="unknown_key", field=key)

    def section_params(name: str, cls):
        values = _section(data, name)  # its errors name their full key already
        try:
            return cls(**values)
        except ValidationError as e:
            raise _prefixed(e, name) from None

    sections = {name: section_params(name, cls) for name, cls in (
        ("impact", ImpactParams), ("econ", EconParams),
        ("structural", StructuralParams), ("entropy", EntropyParams))}
    top = {**DEFAULTS, **data}
    params = FeasibilityParams(
        aum_usd=_number(top["aum_usd"], "aum_usd"),
        turnover_fraction=_number(top["turnover_fraction"], "turnover_fraction"), **sections)

    tilts = _section(data, "tilts")
    try:
        check_kappas(tilts["kappa_a"], tilts["kappa_c"])
    except ValidationError as e:
        raise _prefixed(e, "tilts") from None

    if not isinstance(top["theme"], str):
        raise ValidationError("theme must be a string", code="bad_type", field="theme")
    for key in ("candidates", "core_weights"):
        if top[key] is not None and not isinstance(top[key], str):
            raise ValidationError(f"{key} must be a path string", code="bad_type", field=key)

    return RunConfig(params=params, kappa_a=tilts["kappa_a"], kappa_c=tilts["kappa_c"],
                     theme=top["theme"], candidates_path=top["candidates"],
                     core_weights_path=top["core_weights"])


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file; each failure is a distinct, key-naming error."""
    return config_from_dict(read_json(path, "config"))
