"""Strict-schema config parsing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satfeas import (
    CascadeInput,
    SatelliteDesign,
    TierClass,
    ValidationError,
    config_from_dict,
    load_config,
)
from satfeas.config import RunConfig
from satfeas.layers import effective_alpha
from satfeas.model import (
    EconParams,
    EntropyParams,
    FeasibilityParams,
    ImpactParams,
    StructuralParams,
    to_json,
)
from satfeas.tiering import assign_tier_weights

from conftest import make_asset


class TestLoadConfig:
    def test_minimal_file_gets_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg.params.structural.alpha_policy_min == 0.10
        assert cfg.params.structural.alpha_policy_max == 0.15
        assert cfg.params.aum_usd == 100_000.0
        assert cfg.kappa_a == 1.5 and cfg.kappa_c == 0.5
        assert cfg.candidates_path is None

    def test_invariant_violation_names_dotted_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"impact": {"delta": 1.2}}))
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert "impact.delta must lie in (0,1)" in str(err.value)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"alpha_forecast": 0.2}))
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert err.value.code == "unknown_key"
        assert "alpha_forecast" in str(err.value)

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"econ": {"round_trip_cost_bps": 10, "spread": 1}})
        assert "econ.spread" in str(err.value)

    def test_missing_file_is_distinct_error(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_config(tmp_path / "missing.json")
        assert err.value.code == "file_missing"

    def test_parse_error_is_distinct_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert err.value.code == "bad_json"

    @pytest.mark.parametrize("data,message,code", [
        ([], "config root must be a JSON object", "not_an_object"),
        ({"econ": [1]}, "econ must be an object", "bad_section"),
        # a section's own errors name the full key once
        ({"econ": {"c": 1}}, "unknown config key 'econ.c'", "unknown_key"),
        ({"impact": {"c": "x"}}, "impact.c must be a number", "bad_type"),
        ({"theme": 3}, "theme must be a string", "bad_type"),
        ({"core_weights": 3}, "core_weights must be a path string", "bad_type"),
    ])
    def test_shape_guards(self, data, message, code):
        with pytest.raises(ValidationError) as err:
            config_from_dict(data)
        assert (str(err.value), err.value.code) == (message, code)

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"aum_usd": True})
        assert err.value.code == "bad_type"

    def test_kappa_bounds_checked(self):
        with pytest.raises(ValidationError, match="kappa_a"):
            config_from_dict({"tilts": {"kappa_a": 0.5}})
        with pytest.raises(ValidationError, match="kappa_c"):
            config_from_dict({"tilts": {"kappa_c": 1.5}})

    @pytest.mark.parametrize("data,message", [
        ({"aum_usd": 10**400}, "aum_usd must be a finite number"),
        ({"impact": {"c": -10**400}}, "impact.c must be a finite number"),
        ({"tilts": {"kappa_a": 10**400}}, "tilts.kappa_a must be a finite number"),
    ])
    def test_integer_past_the_float_range_is_not_finite(self, data, message):
        with pytest.raises(ValidationError) as err:
            config_from_dict(data)
        assert (err.value.code, str(err.value)) == ("not_finite", message)

    def test_paths_pass_through(self):
        cfg = config_from_dict({"candidates": "u.csv", "core_weights": "core.csv"})
        assert cfg.candidates_path == "u.csv"
        assert cfg.core_weights_path == "core.csv"

    def test_full_round_trip_through_dict(self):
        data = {
            "aum_usd": 2e5,
            "turnover_fraction": 0.25,
            "theme": "grid",
            "impact": {"c": 0.2, "delta": 0.6, "impact_cap": 0.02,
                       "participation_cap": 0.1},
            "econ": {"round_trip_cost_bps": 30, "min_effect_bps": 1},
            "structural": {"loss_tolerance": 0.04, "max_drawdown": 0.4,
                           "alpha_policy_min": 0.05, "alpha_policy_max": 0.12},
            "entropy": {"delta_h_max": 0.4},
            "tilts": {"kappa_a": 2.0, "kappa_c": 0.8},
            "candidates": "u.csv",
        }
        cfg = config_from_dict(data)
        back = {**to_json(cfg.params), "theme": cfg.theme,
                "tilts": {"kappa_a": cfg.kappa_a, "kappa_c": cfg.kappa_c},
                "candidates": cfg.candidates_path, "core_weights": cfg.core_weights_path}
        assert back == {**data, "core_weights": None}
        assert config_from_dict(back) == cfg


class TestDefaultsHaveOneHome:
    """A knob's default is its record's constructor default, and the config reads it there."""

    def test_an_empty_config_is_the_default_run_config(self):
        assert config_from_dict({}) == RunConfig()

    def test_an_empty_config_has_the_default_params(self):
        assert config_from_dict({}).params == FeasibilityParams()

    def test_a_partial_section_keeps_the_same_defaults_in_the_library(self):
        cfg = config_from_dict({"structural": {"loss_tolerance": 0.1, "max_drawdown": 0.5},
                                "econ": {"round_trip_cost_bps": 25.0}})
        assert cfg.params.structural == StructuralParams(0.1, 0.5)
        assert effective_alpha(StructuralParams(0.1, 0.5)) == 0.15
        assert cfg.params.econ == EconParams(25.0)
        assert EconParams(25.0).min_effect_bps == 2.0

    def test_every_tilted_record_has_the_config_tilts_and_theme(self):
        cfg = RunConfig()
        records = [CascadeInput((), FeasibilityParams()), SatelliteDesign("t", 0.0, ())]
        assert [(r.kappa_a, r.kappa_c) for r in records] == [(cfg.kappa_a, cfg.kappa_c)] * 2
        assert (cfg.kappa_a, cfg.kappa_c, cfg.theme) == (1.5, 0.5, "unspecified")
        assert records[0].theme == cfg.theme
        assets = [make_asset(id="a"), make_asset(id="c", tier=TierClass.C)]
        assert assign_tier_weights(0.1, assets) == assign_tier_weights(0.1, assets, 1.5, 0.5)


#: A valid value of each section key: each policy end on its side of the other's default.
_KNOBS = {
    "impact": {"c": st.floats(0.01, 10.0), "delta": st.floats(0.05, 0.95),
               "impact_cap": st.floats(1e-4, 0.5),
               "participation_cap": st.none() | st.floats(0.01, 1.0)},
    "econ": {"round_trip_cost_bps": st.floats(1.0, 100.0), "min_effect_bps": st.floats(0.0, 10.0)},
    "structural": {"loss_tolerance": st.floats(0.0, 1.0), "max_drawdown": st.floats(0.01, 1.0),
                   "alpha_policy_min": st.floats(0.0, 0.10),
                   "alpha_policy_max": st.floats(0.15, 1.0)},
    "entropy": {"delta_h_max": st.floats(0.0, 5.0)},
}
_RECORDS = {"impact": ImpactParams, "econ": EconParams, "structural": StructuralParams,
            "entropy": EntropyParams}


@settings(max_examples=200, deadline=None)
@given(top=st.fixed_dictionaries({}, optional={"aum_usd": st.floats(1e3, 1e8),
                                               "turnover_fraction": st.floats(0.01, 1.0)}),
       sections=st.fixed_dictionaries({}, optional={
           name: st.fixed_dictionaries({}, optional=knobs) for name, knobs in _KNOBS.items()}),
       tilts=st.fixed_dictionaries({}, optional={"kappa_a": st.floats(1.0, 3.0),
                                                 "kappa_c": st.floats(0.01, 1.0)}))
def test_config_params_are_the_records_built_from_the_same_keywords(top, sections, tilts):
    cfg = config_from_dict({**top, **sections, "tilts": tilts})
    records = {name: cls(**sections.get(name, {})) for name, cls in _RECORDS.items()}
    assert cfg.params == FeasibilityParams(**top, **records)
    assert cfg == RunConfig(FeasibilityParams(**top, **records), **tilts)


class TestRunConfig:
    """``RunConfig`` checks its fields as the config does, so a direct build is checked too."""

    @pytest.mark.parametrize("changes,message,code,field", [
        ({"params": None}, "params must be a FeasibilityParams", "bad_type", "params"),
        ({"params": ImpactParams()}, "params must be a FeasibilityParams", "bad_type", "params"),
        ({"kappa_a": 0.5}, "kappa_a must be >= 1", "kappa_a_out_of_range", "kappa_a"),
        ({"kappa_c": 5.0}, "kappa_c must lie in (0,1]", "kappa_c_out_of_range", "kappa_c"),
        ({"kappa_a": float("nan")}, "kappa_a must be a finite number", "not_finite", "kappa_a"),
        ({"theme": 3}, "theme must be a string", "bad_type", "theme"),
        ({"theme": None}, "theme must be a string", "bad_type", "theme"),
        ({"candidates_path": 3}, "candidates must be a path string", "bad_type", "candidates"),
        ({"core_weights_path": b"c.csv"}, "core_weights must be a path string", "bad_type",
         "core_weights"),
    ])
    def test_each_field_is_checked(self, changes, message, code, field):
        with pytest.raises(ValidationError) as err:
            RunConfig(**changes)
        assert (str(err.value), err.value.code, err.value.field) == (message, code, field)

    def test_fields_are_checked_in_order(self):
        with pytest.raises(ValidationError) as err:
            RunConfig(None, -1.0, 5.0, 3)
        assert err.value.field == "params"
        with pytest.raises(ValidationError) as err:
            RunConfig(FeasibilityParams(), 1.0, 5.0, 3)
        assert err.value.field == "kappa_c"

    def test_only_tilt_errors_are_prefixed_in_a_config(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"tilts": {"kappa_c": 5.0}, "theme": 3})
        assert (str(err.value), err.value.field) == ("tilts.kappa_c must lie in (0,1]",
                                                     "tilts.kappa_c")
        with pytest.raises(ValidationError) as err:
            config_from_dict({"candidates": ["u.csv"]})
        assert (str(err.value), err.value.field) == ("candidates must be a path string",
                                                     "candidates")

    def test_null_paths_pass(self):
        assert RunConfig(candidates_path=None, core_weights_path=None) == RunConfig()
        assert config_from_dict({"candidates": None, "core_weights": None}) == RunConfig()
