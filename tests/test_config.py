"""Strict-schema config parsing."""

import json

import pytest

from satfeas import ValidationError, config_from_dict, load_config
from satfeas.model import to_json


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
