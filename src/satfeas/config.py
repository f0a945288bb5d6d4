"""Run configuration: a strict JSON schema over the policy inputs.

Every parameter is a design or governance choice, so the config is the
single auditable home for all of them. Unknown keys are rejected at every
level; validation failures name the offending key and its constraint.
Sensible small-portfolio defaults ship for every field, so an empty JSON
object is a valid config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .model import (
    EconParams,
    EntropyParams,
    FeasibilityParams,
    ImpactParams,
    StructuralParams,
    ValidationError,
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


@dataclass(frozen=True)
class RunConfig:
    """Validated policy inputs plus tilt parameters and data-file paths."""

    params: FeasibilityParams
    kappa_a: float
    kappa_c: float
    theme: str
    candidates_path: str | None = None
    core_weights_path: str | None = None

    def to_dict(self) -> dict[str, Any]:
        d = self.params.to_dict()
        d["theme"] = self.theme
        d["tilts"] = {"kappa_a": self.kappa_a, "kappa_c": self.kappa_c}
        if self.candidates_path is not None:
            d["candidates"] = self.candidates_path
        if self.core_weights_path is not None:
            d["core_weights"] = self.core_weights_path
        return d


def _section(data: Mapping[str, Any], name: str, known: set[str]) -> dict[str, Any]:
    raw = data.get(name, {})
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{name} must be an object", code="bad_section", field=name)
    for key in raw:
        if key not in known:
            raise ValidationError(f"unknown config key '{name}.{key}'",
                                  code="unknown_key", field=f"{name}.{key}")
    merged = dict(DEFAULTS[name])
    merged.update(raw)
    return merged


def _number(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number", code="bad_type", field=key)
    return float(value)


def _prefixed(e: ValidationError, name: str) -> ValidationError:
    """``e`` restated for a key inside config section ``name``."""
    return ValidationError(f"{name}.{e.args[0]}", code=e.code, field=f"{name}.{e.field}")


def _build(data: Mapping[str, Any]) -> RunConfig:
    if not isinstance(data, Mapping):
        raise ValidationError("config root must be a JSON object", code="not_an_object",
                              field="config")
    top_known = {"aum_usd", "turnover_fraction", "theme", "impact", "econ",
                 "structural", "entropy", "tilts", "candidates", "core_weights"}
    for key in data:
        if key not in top_known:
            raise ValidationError(f"unknown config key {key!r}", code="unknown_key", field=key)

    def section_params(name: str, cls, keys: set[str], optional_none: set[str] = frozenset()):
        merged = _section(data, name, keys)
        kwargs = {}
        for key in keys:
            v = merged[key]
            if v is None and key in optional_none:
                kwargs[key] = None
            else:
                kwargs[key] = _number(v, f"{name}.{key}")
        try:
            return cls(**kwargs)
        except ValidationError as e:
            raise _prefixed(e, name) from None

    impact = section_params("impact", ImpactParams,
                            {"c", "delta", "impact_cap", "participation_cap"},
                            optional_none={"participation_cap"})
    econ = section_params("econ", EconParams, {"round_trip_cost_bps", "min_effect_bps"})
    structural = section_params("structural", StructuralParams,
                                {"loss_tolerance", "max_drawdown",
                                 "alpha_policy_min", "alpha_policy_max"})
    entropy = section_params("entropy", EntropyParams, {"delta_h_max"})

    try:
        params = FeasibilityParams(
            aum_usd=_number(data.get("aum_usd", DEFAULTS["aum_usd"]), "aum_usd"),
            turnover_fraction=_number(data.get("turnover_fraction",
                                               DEFAULTS["turnover_fraction"]),
                                      "turnover_fraction"),
            impact=impact, econ=econ, structural=structural, entropy=entropy,
        )
    except ValidationError as e:
        raise ValidationError(str(e), code=e.code, field=e.field) from None

    tilts = _section(data, "tilts", {"kappa_a", "kappa_c"})
    kappa_a = _number(tilts["kappa_a"], "tilts.kappa_a")
    kappa_c = _number(tilts["kappa_c"], "tilts.kappa_c")
    try:
        check_kappas(kappa_a, kappa_c)
    except ValidationError as e:
        raise _prefixed(e, "tilts") from None

    theme = data.get("theme", DEFAULTS["theme"])
    if not isinstance(theme, str):
        raise ValidationError("theme must be a string", code="bad_type", field="theme")

    paths = {}
    for key in ("candidates", "core_weights"):
        v = data.get(key, DEFAULTS[key])
        if v is not None and not isinstance(v, str):
            raise ValidationError(f"{key} must be a path string", code="bad_type", field=key)
        paths[key] = v

    return RunConfig(params=params, kappa_a=kappa_a, kappa_c=kappa_c, theme=theme,
                     candidates_path=paths["candidates"],
                     core_weights_path=paths["core_weights"])


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file.

    Missing file, JSON parse failure, unknown keys, and invariant violations
    are all reported as distinct, key-naming errors.
    """
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {p}", code="config_file_missing",
                              field="config")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValidationError(f"config file {p} is not valid JSON: {e}",
                              code="config_parse_error", field="config") from None
    return _build(data)


def config_from_dict(data: Mapping[str, Any]) -> RunConfig:
    """Validate an in-memory config mapping (same schema as the file form)."""
    return _build(data)
