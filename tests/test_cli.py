"""Command-line surface: subcommands, exit codes, stream discipline."""

import contextlib
import csv
import gc
import io as _io
import json
import math
import os
import re
import subprocess
import sys
from collections.abc import Mapping
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satfeas.cascade import _asset_map
from satfeas.cli import main
from satfeas.io import (
    CANDIDATE_HEADER,
    EVENT_HEADER,
    PROPOSAL_HEADER,
    emit_report,
    load_design,
    parse_report,
)
from satfeas.model import UNBOUNDED

from conftest import FIXTURES, GOLDEN, check_cli_json, strict_json


AI_CONFIG = str(FIXTURES / "ai_config.json")
AI_CANDIDATES = str(FIXTURES / "ai_candidates.csv")
AI_REPLAY_TEXT = (
    "replay statistics\n"
    "-----------------\n"
    "events_total                         4\n"
    "trades_proposed                      7\n"
    "trades_executed                      3\n"
    "suppressed[below_action_resolution]  1\n"
    "suppressed[governance_gate]          3\n"
    "gross_turnover_executed              0.047\n"
    "max_participation_observed           0.0004\n")
DEF_CONFIG = str(FIXTURES / "defense_config.json")
DEF_CANDIDATES = str(FIXTURES / "defense_candidates.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    check_cli_json(argv, captured.out)
    return code, captured.out, captured.err


class TestBounds:
    def test_structural_bound_printed(self, capsys):
        code, out, err = run(capsys, "bounds", "--config", AI_CONFIG, "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert abs(doc["alpha_max_structural"] - 0.10) <= 1e-12
        assert doc["alpha_effective"] == pytest.approx(0.10, abs=1e-12)
        assert doc["k_max_econ"] == 12
        assert doc["k_max_entropy"] == 14

    def test_text_format(self, capsys):
        code, out, err = run(capsys, "bounds", "--config", AI_CONFIG)
        assert code == 0
        assert "alpha_max_structural" in out and "0.1" in out

    def test_caps_included_with_candidates(self, capsys):
        code, out, _ = run(capsys, "bounds", "--config", AI_CONFIG,
                           "--candidates", AI_CANDIDATES, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["weight_caps_impact"]) == {"CHIP1", "FAB1", "CLOUD1",
                                                  "PLAT1", "INTEG1"}


class TestDesignAndCheck:
    def test_design_admissible_exits_zero(self, capsys):
        code, out, err = run(capsys, "design", "--config", AI_CONFIG,
                             "--candidates", AI_CANDIDATES, "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["report"]["admissible"] is True
        assert len(doc["design"]["constituents"]) == 5

    def test_check_oversized_alpha_exits_two(self, capsys, tmp_path):
        design = {"theme": "ai", "alpha": 0.12,
                  "constituents": [["CHIP1", 0.12]], "kappa_a": 1.5, "kappa_c": 0.5}
        design_path = tmp_path / "d.json"
        design_path.write_text(json.dumps(design))
        code, out, err = run(capsys, "check", "--config", AI_CONFIG,
                             "--candidates", AI_CANDIDATES,
                             "--design", str(design_path), "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["report"]["admissible"] is False
        assert doc["report"]["binding_layer"] == "structural"

    def test_check_of_synthesized_design_round_trips(self, capsys, tmp_path):
        code, out, _ = run(capsys, "design", "--config", AI_CONFIG,
                           "--candidates", AI_CANDIDATES, "--format", "json")
        assert code == 0
        design = json.loads(out)["design"]
        design_path = tmp_path / "d.json"
        design_path.write_text(json.dumps(design))
        code, out2, _ = run(capsys, "check", "--config", AI_CONFIG,
                            "--candidates", AI_CANDIDATES,
                            "--design", str(design_path), "--format", "json")
        assert code == 0
        assert json.loads(out2)["report"]["admissible"] is True

    def test_check_of_the_report_document_equals_check_of_its_design(self, capsys, tmp_path):
        # the file design prints is checked as it is, as the design extracted from it
        code, out, _ = run(capsys, "design", "--config", AI_CONFIG,
                           "--candidates", AI_CANDIDATES, "--format", "json")
        assert code == 0
        report_path, design_path = tmp_path / "report.json", tmp_path / "d.json"
        report_path.write_text(out)
        design_path.write_text(json.dumps(json.loads(out)["design"]))
        for fmt in ("json", "text"):
            argv = ("check", "--config", AI_CONFIG, "--candidates", AI_CANDIDATES,
                    "--format", fmt, "--design")
            assert run(capsys, *argv, str(report_path)) == run(capsys, *argv, str(design_path))

    def test_check_rejects_a_malformed_report_document(self, capsys, tmp_path):
        _, out, _ = run(capsys, "design", "--config", AI_CONFIG,
                        "--candidates", AI_CANDIDATES, "--format", "json")
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps({**json.loads(out), "report": 5}))
        assert run(capsys, "check", "--config", AI_CONFIG, "--candidates", AI_CANDIDATES,
                   "--design", str(report_path)) == (1, "", "error: report must be an object\n")

    @pytest.mark.parametrize("edit,message", [
        # Python's json reads both tokens; the verdict rejects what no report holds
        (lambda doc: (doc["report"]["layers"]["physical"].update(margin=math.nan),
                      doc["report"]["layers"]["economic"].update(bound=math.inf)),
         "bound must be a number or null"),  # the economic layer is read first
        (lambda doc: doc["report"]["derived_bounds"].update(
            alpha_effective="banana", k_max_econ=-5, weight_caps_impact=[1, 2]),
         "alpha_effective must be a finite number"),
    ], ids=["non-finite verdict numbers", "derived bounds"])
    def test_check_rejects_a_report_with_bad_numbers(self, capsys, tmp_path, edit, message):
        _, out, _ = run(capsys, "design", "--config", AI_CONFIG,
                        "--candidates", AI_CANDIDATES, "--format", "json")
        doc = json.loads(out)
        edit(doc)
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(doc))
        assert run(capsys, "check", "--config", AI_CONFIG, "--candidates", AI_CANDIDATES,
                   "--design", str(report_path)) == (1, "", f"error: {message}\n")

    def test_a_report_with_the_caps_of_non_members_still_loads(self, capsys, tmp_path):
        # a report that also caps candidates outside its design, as every report did before
        # reports carried their members' caps only: those caps are checked, then never read
        golden = (GOLDEN / "defense_report.json").read_text()
        doc = json.loads(golden)
        bounds = doc["report"]["derived_bounds"]
        bounds["weight_caps_impact"].update(DEFETF1=0.19999999999999996, OPAQ1=0.8999999999999999)
        bounds["weight_caps_participation"].update(DEFETF1=1.0, OPAQ1=1.0)
        old = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        report_path = tmp_path / "report.json"
        report_path.write_text(old)
        assert load_design(report_path) == parse_report(golden)[1]
        assert run(capsys, "check", "--config", DEF_CONFIG, "--candidates", DEF_CANDIDATES,
                   "--design", str(report_path), "--format", "json") == (0, golden, "")
        assert emit_report(*parse_report(old), "json") == old.encode()

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "design", "--config", AI_CONFIG,
                         "--candidates", AI_CANDIDATES, "--format", "json")
        _, out2, _ = run(capsys, "design", "--config", AI_CONFIG,
                         "--candidates", AI_CANDIDATES, "--format", "json")
        assert out1 == out2

    def test_core_weights_enable_exact_entropy_diagnostic(self, capsys, tmp_path):
        core = tmp_path / "core.csv"
        core.write_text("id,weight\nCORE1,0.7\nCORE2,0.3\n")
        code, out, _ = run(capsys, "design", "--config", AI_CONFIG,
                           "--candidates", AI_CANDIDATES,
                           "--core-weights", str(core), "--format", "json")
        assert code == 0
        detail = json.loads(out)["report"]["layers"]["epistemic"]["detail"]
        assert "exact" in detail

    def test_candidates_path_from_config(self, capsys, tmp_path):
        cfg = json.loads((FIXTURES / "ai_config.json").read_text())
        cfg["candidates"] = AI_CANDIDATES
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "design", "--config", str(path), "--format", "json")
        assert code == 0


class TestFilterAndReplay:
    def test_filter_rebalance_gate_closed(self, capsys):
        code, out, err = run(capsys, "filter-rebalance", "--config", AI_CONFIG,
                             "--candidates", AI_CANDIDATES,
                             "--proposal", str(FIXTURES / "ai_proposal.csv"),
                             "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["executed"] == []
        assert {reason for _, _, reason in doc["suppressed"]} == {"governance_gate"}

    def test_filter_rebalance_window_open(self, capsys):
        code, out, _ = run(capsys, "filter-rebalance", "--config", AI_CONFIG,
                           "--candidates", AI_CANDIDATES,
                           "--proposal", str(FIXTURES / "ai_proposal.csv"),
                           "--schedule-due", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        # dw_min = 0.2/25 = 0.008: 0.02 and 0.012 clear it, 0.0005 does not
        assert [n for n, _ in doc["executed"]] == ["CHIP1", "INTEG1"]
        assert doc["suppressed"] == [["CLOUD1", -0.0005, "below_action_resolution"]]

    def test_replay_stats(self, capsys):
        code, out, err = run(capsys, "replay", "--config", AI_CONFIG,
                             "--candidates", AI_CANDIDATES,
                             "--events", str(FIXTURES / "ai_events.csv"),
                             "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["events_total"] == 4
        assert doc["trades_proposed"] == 7
        # closed windows suppress 2025-03-31 and 2025-09-30 entirely;
        # open windows execute all but the sub-resolution CLOUD1 trade
        assert doc["trades_suppressed_by_reason"]["governance_gate"] == 3
        assert doc["trades_suppressed_by_reason"]["below_action_resolution"] == 1
        assert doc["trades_executed"] == 3

    def test_replay_text_pinned(self, capsys):
        code, out, err = run(capsys, "replay", "--config", AI_CONFIG,
                             "--candidates", AI_CANDIDATES,
                             "--events", str(FIXTURES / "ai_events.csv"))
        assert code == 0 and err == ""
        # every value starts in one column, past the longest label
        assert out == AI_REPLAY_TEXT

    def test_filter_rebalance_participation_cap(self, capsys, tmp_path):
        # CHIP1 +0.02 clears dw_min and the impact cap; its participation
        # 1e5 * 0.02 / 5e6 = 4e-4 is above the 1e-4 cap
        cfg = json.loads((FIXTURES / "ai_config.json").read_text())
        cfg["impact"]["participation_cap"] = 1e-4
        proposal = tmp_path / "p.csv"
        proposal.write_text("id,delta_w\nCHIP1,0.02\n")
        code, out, err = run(capsys, "filter-rebalance", "--config", write_config(tmp_path, cfg),
                             "--candidates", AI_CANDIDATES, "--proposal", str(proposal),
                             "--schedule-due")
        assert (code, err) == (0, "")
        assert out == "executed 0 of 1 trades\n  suppress  CHIP1       +0.02  (participation_cap)\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_replay_of_a_design_with_an_unknown_id_exits_one(self, capsys, tmp_path, fmt):
        design = tmp_path / "d.json"
        design.write_text(json.dumps({"theme": "t", "alpha": 0.1, "constituents": [["GHOST", 0.1]],
                                      "kappa_a": 1.0, "kappa_c": 1.0}))
        code, out, err = run(capsys, "replay", "--config", AI_CONFIG,
                             "--candidates", AI_CANDIDATES,
                             "--events", str(FIXTURES / "ai_events.csv"),
                             "--design", str(design), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: design references unknown asset id 'GHOST'\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_filter_of_a_trade_with_an_unknown_id_exits_one(self, capsys, tmp_path, fmt):
        proposal = tmp_path / "p.csv"
        proposal.write_text("id,delta_w\nCHIP1,0.02\nGHOST,0.02\n")
        code, out, err = run(capsys, "filter-rebalance", "--config", AI_CONFIG,
                             "--candidates", AI_CANDIDATES, "--proposal", str(proposal),
                             "--schedule-due", "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: proposal references unknown asset id 'GHOST'\n"

    @pytest.mark.parametrize("given", [False, True], ids=["synthesized", "given"])
    def test_replay_indexes_the_universe_once(self, capsys, monkeypatch, tmp_path, given):
        # the input that synthesizes the design hands its index to replay
        _, out, _ = run(capsys, "design", "--config", AI_CONFIG,
                        "--candidates", AI_CANDIDATES, "--format", "json")
        report = tmp_path / "report.json"
        report.write_text(out)
        built = []

        def counted(assets):
            if not isinstance(assets, Mapping):
                built.append(assets)
            return _asset_map(assets)

        for module in ("satfeas.cascade", "satfeas.replay"):  # satfeas.replay names a function
            monkeypatch.setattr(sys.modules[module], "_asset_map", counted)
        code, _, err = run(capsys, "replay", "--config", AI_CONFIG, "--candidates", AI_CANDIDATES,
                           "--events", str(FIXTURES / "ai_events.csv"),
                           *(["--design", str(report)] if given else []))
        assert (code, err, len(built)) == (0, "", 1)

    def test_replay_without_design_skips_the_exact_entropy(self, capsys, monkeypatch,
                                                             tmp_path):
        # the synthesized design's report is discarded, so its diagnostic is never computed
        def fail(*args):
            raise AssertionError("exact entropy computed for a discarded report")

        monkeypatch.setattr("satfeas.cascade.entropy_increment_exact", fail)
        core = tmp_path / "core.csv"
        core.write_text("id,weight\nC1,0.5\nC2,0.5\n")
        cfg = json.loads((FIXTURES / "ai_config.json").read_text())
        cfg["core_weights"] = str(core)
        code, _, err = run(capsys, "replay", "--config", write_config(tmp_path, cfg),
                           "--candidates", AI_CANDIDATES,
                           "--events", str(FIXTURES / "ai_events.csv"))
        assert (code, err) == (0, "")


class TestErrors:
    def test_unknown_subcommand_exits_one(self, capsys):
        code, out, err = run(capsys, "optimize")
        assert code == 1
        assert out == ""
        assert "usage" in err

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "bounds", "--config", AI_CONFIG, "--alpha", "1")
        assert code == 1 and "usage" in err

    def test_missing_config_file_exits_one(self, capsys):
        code, out, err = run(capsys, "bounds", "--config", "/nonexistent.json")
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_invalid_candidates_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "u.csv"
        bad.write_text("id,tier,adv_usd,round_trip_cost_bps,gaer_admissible,exclusion\n"
                       "X,A,-5,,true,none\n")
        code, out, err = run(capsys, "design", "--config", AI_CONFIG,
                             "--candidates", str(bad))
        assert code == 1
        assert out == ""
        assert "row 2" in err

    def test_no_candidates_source_exits_one(self, capsys):
        code, _, err = run(capsys, "design", "--config", AI_CONFIG)
        assert code == 1
        assert "candidates" in err


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_candidates_at_adv_1e12(tmp_path):
    path = tmp_path / "candidates.csv"
    path.write_text("id,tier,adv_usd,round_trip_cost_bps,gaer_admissible,exclusion\n"
                    + "".join(f"{name},{name},1e12,,true,none\n" for name in "ABC"))
    return str(path)


class TestExtremeInputs:
    """Valid inputs at the edge of float range end in a report or a named error."""

    @pytest.mark.parametrize("doc,cap", [
        # aum * tau underflows to zero under adv / (aum * tau) and phi * adv / (aum * tau)
        ({"aum_usd": 5e-324, "turnover_fraction": 0.5}, 1.0),
        ({"aum_usd": 5e-324, "turnover_fraction": 0.5, "impact": {"participation_cap": 0.1}},
         1.0),
        # (1e-300) ** 100 underflows to 0 while adv / (aum * tau) overflows: inf * 0
        ({"aum_usd": 1e-300, "impact": {"c": 1, "delta": 0.01, "impact_cap": 1e-300}}, 0.0),
    ], ids=["envelope_underflow", "envelope_underflow_participation", "inf_times_zero"])
    @pytest.mark.parametrize("command", ["bounds", "design", "check"])
    def test_weight_caps_at_envelope_extremes(self, capsys, tmp_path, doc, cap, command):
        design = tmp_path / "d.json"
        design.write_text(json.dumps({"theme": "t", "alpha": 0.1, "constituents": [["A", 0.1]],
                                      "kappa_a": 1.5, "kappa_c": 0.5}))
        extra = ["--design", str(design)] if command == "check" else []
        code, out, err = run(capsys, command, "--config", write_config(tmp_path, doc),
                             "--candidates", write_candidates_at_adv_1e12(tmp_path),
                             "--format", "json", *extra)
        assert code in (0, 2) and err == ""
        printed = json.loads(out)
        json.dumps(printed, allow_nan=False)
        bounds = printed if command == "bounds" else printed["report"]["derived_bounds"]
        maps = [bounds["weight_caps_impact"], *filter(None, [bounds["weight_caps_participation"]])]
        caps = [value for table in maps for value in table.values()]
        if command == "bounds":  # the table of every candidate
            assert len(caps) in (3, 6)
        else:  # a report's caps are its members'
            ids = {name for name, _ in printed["design"]["constituents"]}
            assert ids and all(table.keys() == ids for table in maps)
        assert set(caps) == {cap}

    @pytest.mark.parametrize("doc,adv,key,law", [
        # (1e-300) ** 2 underflows to zero; the law gives 1e12 / (1e-290 * 0.5) * 1e-600
        ({"aum_usd": 1e-290, "impact": {"c": 1, "delta": 0.5, "impact_cap": 1e-300}}, "1e12",
         "weight_caps_impact", 2e-298),
        # phi * adv = 1e-400 underflows to zero; the law gives 1e-400 / 1e-310
        ({"aum_usd": 1e-300, "turnover_fraction": 1e-10,
          "impact": {"participation_cap": 1e-200}}, "1e-200", "weight_caps_participation",
         1e-90),
    ], ids=["impact_power_underflow", "participation_underflow"])
    def test_weight_caps_past_an_underflow_are_their_law(self, capsys, tmp_path, doc, adv,
                                                          key, law):
        candidates = tmp_path / "candidates.csv"
        candidates.write_text("id,tier,adv_usd,round_trip_cost_bps,gaer_admissible,exclusion\n"
                              f"A,A,{adv},,true,none\n")
        code, out, err = run(capsys, "bounds", "--config", write_config(tmp_path, doc),
                             "--candidates", str(candidates), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)[key]["A"] == pytest.approx(law, rel=1e-12, abs=0)

    @pytest.mark.parametrize("rows", [
        # one date: the exact sleeve sum, 2e308, leaves the float range
        ["2025-01-01,A,1e308", "2025-01-01,B,1e308"],
        # two dates: the gross turnover adds up past the float range
        ["2025-01-01,A,1e308", "2025-01-02,A,1e308"],
        # positions reach inf and -inf, whose sum is nan
        ["2025-01-01,A,1e308", "2025-01-01,B,-1e308", "2025-01-02,A,1e308",
         "2025-01-02,B,-1e308"],
    ], ids=["sleeve_sum_overflow", "turnover_overflow", "inf_minus_inf"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_replay_past_float_range_exits_one(self, capsys, tmp_path, rows, fmt):
        events = tmp_path / "events.csv"
        events.write_text("date,id,delta_w,schedule_due,structural_break\n"
                          + "".join(f"{row},true,false\n" for row in rows))
        code, out, err = run(capsys, "replay", "--config",
                             write_config(tmp_path, {"aum_usd": 1e-300}),
                             "--candidates", write_candidates_at_adv_1e12(tmp_path),
                             "--events", str(events), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: gross_turnover_executed must be a finite number\n"

    @pytest.mark.parametrize("doc", [
        # the economic breadth bound alpha / dw_min overflows a float
        {"econ": {"round_trip_cost_bps": 1, "min_effect_bps": 1e-320}},
        # (impact_cap / c) ** (1 / delta) = 100 ** 1000 overflows a float
        {"impact": {"c": 0.01, "delta": 0.001, "impact_cap": 1.0}},
    ], ids=["econ_bound_overflow", "impact_cap_overflow"])
    @pytest.mark.parametrize("command", ["bounds", "design"])
    def test_overflow_configs_report(self, capsys, tmp_path, doc, command):
        code, out, err = run(capsys, command, "--config", write_config(tmp_path, doc),
                             "--candidates", AI_CANDIDATES, "--format", "json")
        assert code in (0, 2)
        assert "Traceback" not in err
        json.loads(out, parse_constant=pytest.fail)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", ["bounds", "design", "check", "filter-rebalance",
                                         "replay"])
    def test_overflowing_action_threshold_exits_one(self, capsys, tmp_path, command, fmt):
        paths = write_ai_inputs(tmp_path)
        paths["config"].write_text(json.dumps(
            {"econ": {"round_trip_cost_bps": 5e-324, "min_effect_bps": 1}}))
        code, out, err = run(capsys, *argv_for(command, paths, ("--format", fmt)))
        assert (code, out) == (1, "")
        assert err == "error: econ.min_effect_bps / round_trip_cost_bps overflows the float range\n"

    @pytest.mark.parametrize("doc,universe,constituents,layer", [
        # T1's impact cap is 1e-310, so (cap - w) / cap overflows
        ({}, "T1,A,5e-304,,true,none\n", None, "physical"),
        # the loss budget caps alpha at 1e-323
        ({"structural": {"loss_tolerance": 5e-324, "max_drawdown": 0.5,
                         "alpha_policy_min": 0.0, "alpha_policy_max": 0.15}},
         None, [["CHIP1", 0.1]], "structural"),
        # FAB1 weighs 5e-324 against its dw_min of 0.008
        ({}, None, [["CHIP1", 0.1], ["FAB1", 5e-324]], "economic"),
    ], ids=["physical", "structural", "economic"])
    def test_margins_against_a_subnormal_stay_finite(self, capsys, tmp_path, doc, universe,
                                                      constituents, layer):
        config = {**json.loads((FIXTURES / "ai_config.json").read_text()), **doc}
        argv = ["--config", write_config(tmp_path, config), "--format", "json"]
        if universe is None:
            argv += ["--candidates", AI_CANDIDATES]
        else:
            (tmp_path / "u.csv").write_text(
                "id,tier,adv_usd,round_trip_cost_bps,gaer_admissible,exclusion\n" + universe)
            argv += ["--candidates", str(tmp_path / "u.csv")]
        if constituents is not None:
            (tmp_path / "d.json").write_text(json.dumps(
                {"theme": "t", "alpha": 0.1, "constituents": constituents,
                 "kappa_a": 1.0, "kappa_c": 1.0}))
            argv += ["--design", str(tmp_path / "d.json")]
        code, out, err = run(capsys, "design" if constituents is None else "check", *argv)
        assert (code, err) == (2, "")
        verdict = json.loads(out)["report"]["layers"][layer]
        assert verdict["passed"] is False
        assert verdict["normalized_margin"] == -sys.float_info.max

    def test_subnormal_sleeve_reports_its_entropy_increment(self, capsys, tmp_path):
        # alpha / K = 5e-324 / 2 underflows to zero; the increment is taken in log space
        design = tmp_path / "d.json"
        design.write_text(json.dumps({"theme": "t", "alpha": 5e-324,
                                      "constituents": [["CHIP1", 5e-324], ["FAB1", 0.0]],
                                      "kappa_a": 1.0, "kappa_c": 1.0}))
        code, out, err = run(capsys, "check", "--config", AI_CONFIG, "--candidates",
                             AI_CANDIDATES, "--design", str(design), "--format", "json")
        assert (code, err) == (2, "")
        epistemic = json.loads(out)["report"]["layers"]["epistemic"]
        assert epistemic["passed"] is True
        assert "; increment approx 3.68" in epistemic["detail"]  # 5e-324 * ln(2 / 5e-324)

    def test_zero_impact_cap_fails_physical_layer(self, capsys, tmp_path):
        # (0.01 / 0.1) ** 1000 underflows: every weight cap is exactly zero
        cfg = write_config(tmp_path, {"impact": {"c": 0.1, "delta": 0.001,
                                                 "impact_cap": 0.01}})
        code, out, err = run(capsys, "design", "--config", cfg,
                             "--candidates", AI_CANDIDATES, "--format", "json")
        assert code == 2 and "Traceback" not in err
        physical = json.loads(out)["report"]["layers"]["physical"]
        assert physical["passed"] is False
        assert physical["bound"] == 0.0
        assert physical["normalized_margin"] == -1.0

    @pytest.mark.parametrize("constituents", [[["CHIP1", "x"]], 5],
                             ids=["non_numeric_weight", "not_a_list"])
    def test_malformed_design_exits_one(self, capsys, tmp_path, constituents):
        design = tmp_path / "d.json"
        design.write_text(json.dumps({"theme": "ai", "alpha": 0.02,
                                      "constituents": constituents,
                                      "kappa_a": 1.5, "kappa_c": 0.5}))
        code, out, err = run(capsys, "check", "--config", AI_CONFIG,
                             "--candidates", AI_CANDIDATES, "--design", str(design))
        assert code == 1 and out == ""
        assert err.startswith("error: constituents")

    def test_design_weights_past_float_range_exit_one(self, capsys, tmp_path):
        design = tmp_path / "d.json"
        design.write_text(json.dumps({"theme": "ai", "alpha": 0.1,
                                      "constituents": [["CHIP1", 1e308], ["FAB1", 1e308]],
                                      "kappa_a": 1.5, "kappa_c": 0.5}))
        code, out, err = run(capsys, "check", "--config", AI_CONFIG,
                             "--candidates", AI_CANDIDATES, "--design", str(design))
        assert (code, out) == (1, "")
        assert err == "error: constituent weights sum to inf, expected alpha=0.1\n"

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_core_weight_exits_one(self, capsys, tmp_path, weight):
        core = tmp_path / "core.csv"
        core.write_text(f"id,weight\nCORE1,{weight}\n")
        code, out, err = run(capsys, "design", "--config", AI_CONFIG,
                             "--candidates", AI_CANDIDATES, "--core-weights", str(core))
        assert (code, out) == (1, "")
        assert err == "error: core_weights row 2: weight for CORE1 must be a finite number\n"


class TestUnboundedEncoding:
    """A zero minimum effect makes the economic breadth bound vacuous."""

    def config(self, tmp_path):
        cfg = json.loads((FIXTURES / "ai_config.json").read_text())
        cfg["econ"]["min_effect_bps"] = 0
        return write_config(tmp_path, cfg)

    def test_bounds_json_prints_unbounded(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bounds", "--config", self.config(tmp_path),
                           "--format", "json")
        assert code == 0
        assert '  "k_max_econ": "unbounded",' in out.splitlines()

    def test_design_json_round_trips_unbounded(self, capsys, tmp_path):
        code, out, _ = run(capsys, "design", "--config", self.config(tmp_path),
                           "--candidates", AI_CANDIDATES, "--format", "json")
        assert code == 0
        report, _design = parse_report(out)
        assert report.derived_bounds.k_max_econ is UNBOUNDED
        assert report.layer_verdicts["economic"].bound is UNBOUNDED


def write_ai_inputs(tmp_path):
    """Every input file of an AI-fixture invocation, by its flag, as paths in ``tmp_path``."""
    design = json.loads((GOLDEN / "ai_report.json").read_text())["design"]
    texts = {"config": (FIXTURES / "ai_config.json").read_text(),
             "candidates": (FIXTURES / "ai_candidates.csv").read_text(),
             "design": json.dumps(design, indent=2) + "\n",
             "core-weights": "id,weight\nCORE1,0.7\nCORE2,0.3\n",
             "proposal": (FIXTURES / "ai_proposal.csv").read_text(),
             "events": (FIXTURES / "ai_events.csv").read_text()}
    paths = {}
    for flag, text in texts.items():
        paths[flag] = tmp_path / f"{flag}.in"
        paths[flag].write_text(text, encoding="utf-8")
    return paths


#: Subcommand -> the input files it reads, by flag.
COMMAND_INPUTS = {
    "bounds": ("config", "candidates"),
    "design": ("config", "candidates", "core-weights"),
    "check": ("config", "candidates", "design", "core-weights"),
    "filter-rebalance": ("config", "candidates", "proposal"),
    "replay": ("config", "candidates", "events", "design"),
}

#: Flag -> the file name in its error messages.
FILE_NAMES = {"config": "config", "candidates": "candidates", "design": "design",
              "core-weights": "core_weights", "proposal": "proposal", "events": "events"}


def run_isolated(argv):
    """``main(argv)`` with its own streams: (exit code, stdout bytes, stderr text)."""
    out, err = _io.TextIOWrapper(_io.BytesIO(), encoding="utf-8"), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.buffer.getvalue(), err.getvalue()


def argv_for(command, paths, flags=()):
    return [command, *(arg for flag in COMMAND_INPUTS[command]
                       for arg in (f"--{flag}", str(paths[flag]))), *flags]


def write_large_inputs(tmp_path):
    """The AI-fixture inputs grown to 2,005 candidates, 2,002 core weights, 2,003 proposed
    trades and 204 event dates; the config and design are the fixture's."""
    tmp_path.mkdir()
    paths = write_ai_inputs(tmp_path)
    ids = [f"G{i:04d}" for i in range(2000)]
    grown = {"candidates": [f"{name},{'ABC'[i % 3]},{1e6 + i!r},,true,none"
                            for i, name in enumerate(ids)],
             "core-weights": [f"{name},0.0" for name in ids],
             "proposal": [f"{name},{0.001 * (-1) ** i!r}" for i, name in enumerate(ids)],
             "events": [f"{date(2026, 1, 1) + timedelta(days=d)},{ids[(5 * d + t) % 2000]},"
                        f"0.002,{'true' if d % 2 else 'false'},false"
                        for d in range(200) for t in range(5)]}
    for flag, rows in grown.items():
        with paths[flag].open("a", encoding="utf-8") as fh:
            fh.write("".join(row + "\n" for row in rows))
    return paths


def exit_case_argv(tmp_path, case):
    """The argv of one exit path of ``main`` on the AI-fixture inputs; ``case`` names it."""
    paths = write_ai_inputs(tmp_path)
    if case == "inadmissible":
        paths["design"].write_text(json.dumps(
            {"theme": "ai", "alpha": 0.12, "constituents": [["CHIP1", 0.12]],
             "kappa_a": 1.5, "kappa_c": 0.5}))
    return {"report": argv_for("check", paths),
            "inadmissible": argv_for("check", paths),
            "invalid": ["bounds", "--config", write_config(tmp_path, {"impact": {"c": -1}})],
            "usage": ["bounds", "--format", "json"]}[case]


class TestCyclicCollector:
    """``main`` runs a command with the cyclic collector off and gives the caller's setting back;
    the engine builds no cycles, so the garbage a call leaves does not grow with its input."""

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("was_enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case,expected", [
        ("report", 0), ("inadmissible", 2), ("invalid", 1), ("usage", 1)])
    def test_main_restores_the_callers_setting(self, tmp_path, collector, was_enabled,
                                               case, expected):
        argv = exit_case_argv(tmp_path, case)
        (gc.enable if was_enabled else gc.disable)()
        code, _out, err = run_isolated(argv)
        assert gc.isenabled() is was_enabled
        assert gc.get_freeze_count() == 0  # only the process entry freezes, after main
        assert code == expected and ("error: " in err) is (expected == 1)

    @pytest.mark.parametrize("command", sorted(COMMAND_INPUTS))
    def test_garbage_does_not_grow_with_the_input(self, tmp_path, collector, command):
        flags = ["--format", "json", *(["--schedule-due"] if command == "filter-rebalance"
                                       else [])]
        small = argv_for(command, write_ai_inputs(tmp_path), flags)
        large = argv_for(command, write_large_inputs(tmp_path / "large"), flags)
        garbage = []
        for argv in (small, large):
            gc.collect()
            gc.disable()
            code, _out, err = run_isolated(argv)
            garbage.append(gc.collect())
            gc.enable()
            assert code in (0, 2) and err == ""
        assert garbage[0] == garbage[1]


class TestProcessEntry:
    """``python -m satfeas.cli`` runs ``main``, then freezes the heap before it exits: its streams
    and exit code are ``main``'s in process, a large output's included."""

    @pytest.mark.parametrize("case,expected", [
        ("report", 0), ("invalid", 1), ("inadmissible", 2), ("large", 0)])
    def test_a_fresh_process_prints_what_main_prints(self, tmp_path, case, expected):
        if case == "large":  # the bounds JSON of a 2,005-candidate universe, one cap per name
            argv = argv_for("bounds", write_large_inputs(tmp_path / "large"), ["--format", "json"])
        else:
            argv = exit_case_argv(tmp_path, case)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(FIXTURES.parent / "src"), os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", "satfeas.cli", *argv], env=env,
                              capture_output=True)
        code, out, err = run_isolated(argv)
        assert code == expected
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (code, out, err)
        if case == "large":
            assert len(strict_json(out)["weight_caps_impact"]) == 2005


class TestInputFiles:
    """Every input file is read by one reader: a failed read is one named error line."""

    @pytest.mark.parametrize("flag", sorted(FILE_NAMES))
    @pytest.mark.parametrize("fault,message", [
        ("missing", "{what} file not found: {p}"),
        ("directory", "{what} file not found: {p}"),
        ("not utf-8", "{what} file {p} cannot be read: 'utf-8' codec can't decode byte 0xff"),
    ])
    def test_a_failed_read_is_one_error_line(self, tmp_path, flag, fault, message):
        paths = write_ai_inputs(tmp_path)
        command = next(c for c, flags in COMMAND_INPUTS.items() if flag in flags)
        p = paths[flag]
        if fault == "missing":
            p.unlink()
        elif fault == "directory":
            p.unlink()
            p.mkdir()
        else:
            p.write_bytes(b"\xff" + p.read_bytes())
        code, out, err = run_isolated(argv_for(command, paths))
        assert (code, out) == (1, b"")
        assert err.startswith("error: " + message.format(what=FILE_NAMES[flag], p=p))
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("flag", ["config", "design"])
    def test_json_nested_too_deep(self, tmp_path, flag):
        paths = write_ai_inputs(tmp_path)
        paths[flag].write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_isolated(argv_for("check", paths))
        assert (code, out) == (1, b"")
        assert err == (f"error: {flag} file {paths[flag]} cannot be read: maximum recursion "
                       "depth exceeded while decoding a JSON array from a unicode string\n")

    @pytest.mark.parametrize("flag", ["candidates", "core-weights", "proposal", "events"])
    def test_csv_cell_past_the_field_limit(self, tmp_path, flag):
        paths = write_ai_inputs(tmp_path)
        command = next(c for c, flags in COMMAND_INPUTS.items() if flag in flags)
        header, row, *_ = paths[flag].read_text().splitlines()
        paths[flag].write_text(f"{header}\n{'X' * 131_073}{row}\n")
        code, out, err = run_isolated(argv_for(command, paths))
        assert (code, out) == (1, b"")
        assert err == (f"error: {FILE_NAMES[flag]} file {paths[flag]} cannot be read: "
                       "field larger than field limit (131072)\n")

    @pytest.mark.parametrize("flag", ["config", "design"])
    def test_malformed_json(self, tmp_path, flag):
        paths = write_ai_inputs(tmp_path)
        paths[flag].write_text("{not json")
        code, out, err = run_isolated(argv_for("check", paths))
        assert (code, out) == (1, b"")
        assert err.startswith(f"error: {flag} file {paths[flag]} is not valid JSON: ")

    def test_surrogate_theme_prints_escaped(self, tmp_path):
        code, out, err = run_isolated(["design", "--config", write_config(tmp_path, {
            "theme": "\ud800"}), "--candidates", AI_CANDIDATES, "--format", "text"])
        assert (code, err) == (0, "")
        assert b"theme:          \\ud800\n" in out

    @pytest.mark.parametrize("doc", [{"aum_usd": 10**400}, {"tilts": {"kappa_c": -10**400}}],
                             ids=["aum_usd", "kappa_c"])
    def test_config_integer_past_the_float_range(self, tmp_path, doc):
        code, out, err = run_isolated(["bounds", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (1, b"")
        assert err.endswith("must be a finite number\n")

    def test_design_integer_past_the_float_range(self, tmp_path):
        paths = write_ai_inputs(tmp_path)
        design = json.loads(paths["design"].read_text())
        paths["design"].write_text(json.dumps({**design, "kappa_a": 10**400}))
        code, out, err = run_isolated(argv_for("check", paths))
        assert (code, out, err) == (1, b"", "error: kappa_a must be a finite number\n")


class TestTextColumns:
    """Label/value text: each value starts two columns past the longest label."""

    def test_bounds_long_cap_id_keeps_its_space(self, tmp_path):
        # the caps share the report's table, participation caps included
        name = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        candidates = tmp_path / "u.csv"
        candidates.write_text("id,tier,adv_usd,round_trip_cost_bps,gaer_admissible,exclusion\n"
                              f"{name},A,1e5,,true,none\n")
        config = json.loads((FIXTURES / "ai_config.json").read_text())
        config["impact"]["participation_cap"] = 0.05
        code, out, err = run_isolated(["bounds", "--config", write_config(tmp_path, config),
                                       "--candidates", str(candidates)])
        assert (code, err) == (0, "")
        lines = out.decode().splitlines()
        assert lines[2] == "alpha_max_structural  0.1"
        assert lines[-5:] == ["per-asset weight caps", "---------------------",
                              "id".ljust(len(name)) + "  impact  participation",
                              "-" * len(name) + "  ------  -------------",
                              f"{name}  0.02    0.1"]

    def test_bounds_of_an_empty_universe_prints_the_caps_header(self, tmp_path):
        candidates = tmp_path / "u.csv"
        candidates.write_text("id,tier,adv_usd,round_trip_cost_bps,gaer_admissible,exclusion\n")
        code, out, err = run_isolated(["bounds", "--config", AI_CONFIG,
                                       "--candidates", str(candidates)])
        assert (code, err) == (0, "")
        assert out.decode().splitlines()[-6:] == [
            "k_max_entropy         14", "", "per-asset weight caps", "---------------------",
            "id  impact  participation", "--  ------  -------------"]

    #: ids that a format string, a %-format or a byte count would misprint
    TRICKY_IDS = ["{0}", "{:>9}", "}{", "%s", "株A"]

    def tricky_inputs(self, tmp_path):
        """(config, candidates) paths: each tricky id a candidate, both caps set."""
        candidates = tmp_path / "u.csv"
        candidates.write_text(
            "id,tier,adv_usd,round_trip_cost_bps,gaer_admissible,exclusion\n"
            + "".join(f"{name},A,{2e5 * 3 ** i!r},,true,none\n"
                      for i, name in enumerate(self.TRICKY_IDS)), encoding="utf-8")
        config = json.loads((FIXTURES / "ai_config.json").read_text())
        config["impact"]["participation_cap"] = 0.05
        return write_config(tmp_path, config), str(candidates)

    @staticmethod
    def ljust_table(rows):
        """The README's table rule, by ``ljust``: a header row, a rule, then ``rows[1:]``; each
        column as wide as its longest cell, two spaces apart, no trailing space."""
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in rows]
        return [lines[0], "  ".join("-" * w for w in widths), *lines[1:]]

    def caps_table(self, bounds):
        impact, parts = bounds["weight_caps_impact"], bounds["weight_caps_participation"]
        return self.ljust_table([["id", "impact", "participation"]] + [
            [name, format(impact[name], ".10g"), format(parts[name], ".10g")]
            for name in sorted(impact)])

    def test_bounds_tricky_ids_print_as_they_are(self, tmp_path):
        config, candidates = self.tricky_inputs(tmp_path)
        argv = ["bounds", "--config", config, "--candidates", candidates]
        code, doc, err = run_isolated(argv + ["--format", "json"])
        assert (code, err) == (0, "")
        code, out, err = run_isolated(argv + ["--format", "text"])
        assert (code, err) == (0, "")
        lines = out.decode().splitlines()
        assert lines[-7:] == self.caps_table(json.loads(doc))
        assert sorted(line.split("  ")[0] for line in lines[-5:]) == sorted(self.TRICKY_IDS)

    def test_check_tricky_ids_print_as_they_are(self, tmp_path):
        config, candidates = self.tricky_inputs(tmp_path)
        design = tmp_path / "d.json"
        design.write_text(json.dumps({
            "theme": "t", "alpha": 0.12, "kappa_a": 1.0, "kappa_c": 1.0,
            "constituents": [["}{", 0.05], ["株A", 0.04], ["{0}", 0.03]]}))
        core = tmp_path / "core.csv"
        core.write_text("id,weight\nCORE1,0.7\nCORE2,0.3\n")
        argv = ["check", "--config", config, "--candidates", candidates, "--design", str(design),
                "--core-weights", str(core)]
        code, doc, err = run_isolated(argv + ["--format", "json"])
        assert err == ""
        code_text, out, err = run_isolated(argv + ["--format", "text"])
        assert (code_text, err) == (code, "")
        text = out.decode()
        caps = self.caps_table(json.loads(doc)["report"]["derived_bounds"])
        designed = self.ljust_table([["id", "weight"], ["}{", "0.05"], ["株A", "0.04"],
                                     ["{0}", "0.03"]])
        assert "\n".join(["per-asset weight caps", "---------------------", *caps]) in text
        assert text.endswith("\n".join(["design", "------",
                                         "alpha: 0.12  kappa_a: 1  kappa_c: 1", *designed])
                             + "\n")

    def test_filter_long_id_keeps_its_space(self, tmp_path):
        name = "ABCDEFGHIJKL"
        candidates = tmp_path / "u.csv"
        candidates.write_text("id,tier,adv_usd,round_trip_cost_bps,gaer_admissible,exclusion\n"
                              f"{name},A,5e6,,true,none\nB,B,5e6,,true,none\n")
        proposal = tmp_path / "p.csv"
        proposal.write_text(f"id,delta_w\n{name},0.05\nB,0.001\n")
        code, out, err = run_isolated(["filter-rebalance", "--config", AI_CONFIG,
                                       "--candidates", str(candidates),
                                       "--proposal", str(proposal), "--schedule-due"])
        assert (code, err) == (0, "")
        assert out.decode() == ("executed 1 of 2 trades\n"
                                f"  execute   {name} +0.05\n"
                                "  suppress  B            +0.001  (below_action_resolution)\n")


#: Pieces of a replacement line: separators, quotes, NUL, non-ASCII and a JSON surrogate escape.
_LINE_TOKENS = ['"', "'", ",", ":", "{", "}", "[", "]", "\x00", "\\", "\\ud800", "é", "日本",
                "\U0001f600", " ", "-", "1e308", "5e-324", "nan", "0", "0.1", "true", "CHIP1",
                "2025-06-30"]


@st.composite
def drawn_content(draw, valid: bytes):
    """Bytes to put in place of a valid input file, or None for a directory."""
    kind = draw(st.sampled_from(["bytes", "truncated", "line", "byte", "huge integer",
                                 "long cell", "deep json", "directory"]))
    if kind == "bytes":
        return draw(st.binary(max_size=300))
    if kind == "truncated":
        return valid[:draw(st.integers(0, len(valid)))]
    if kind == "line":
        lines = valid.split(b"\n")
        text = draw(st.one_of(st.lists(st.sampled_from(_LINE_TOKENS), max_size=12).map("".join),
                              st.text(max_size=30)))
        lines[draw(st.integers(0, len(lines) - 1))] = text.encode("utf-8")
        return b"\n".join(lines)
    if kind == "byte":
        at = draw(st.integers(0, len(valid) - 1))
        return valid[:at] + bytes([draw(st.integers(0, 255))]) + valid[at + 1:]
    if kind == "huge integer":
        numbers = list(re.finditer(rb"\d+(\.\d+)?([eE]-?\d+)?", valid))
        m = draw(st.sampled_from(numbers))
        return valid[:m.start()] + b"1" + b"0" * 399 + valid[m.end():]
    if kind == "long cell":
        at = draw(st.integers(0, len(valid)))
        return valid[:at] + b"X" * 200_000 + valid[at:]
    if kind == "deep json":
        return b"[" * 100_000 + b"]" * 100_000
    return None


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(COMMAND_INPUTS)), data=st.data())
def test_no_input_file_escapes_main(tmp_path_factory, command, data):
    """One input file replaced by drawn content ends in a report or one named error line."""
    paths = write_ai_inputs(tmp_path_factory.mktemp("fuzz"))
    flag = data.draw(st.sampled_from(COMMAND_INPUTS[command]))
    content = data.draw(drawn_content(paths[flag].read_bytes()))
    if content is None:
        paths[flag].unlink()
        paths[flag].mkdir()
    else:
        paths[flag].write_bytes(content)
    flags = ["--format", data.draw(st.sampled_from(["json", "text"]))]
    flags += ["--schedule-due"] if command == "filter-rebalance" else []
    code, out, err = run_isolated(argv_for(command, paths, flags))
    assert code in (0, 1, 2)
    if code == 1:
        assert out == b""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


def _within(lo, hi, open_lo=False, open_hi=False):
    """A number in the interval from ``lo`` to ``hi``: an end, the float next to an open end,
    5e-324 or 1e308 where they lie inside, or any float between."""
    ends = [math.nextafter(lo, hi) if open_lo else lo, math.nextafter(hi, lo) if open_hi else hi]
    edges = sorted({x for x in (*ends, 5e-324, 1e308) if ends[0] <= x <= ends[1]})
    return st.one_of(st.sampled_from(edges),
                     st.floats(lo, hi, exclude_min=open_lo, exclude_max=open_hi))


_POSITIVE = _within(0.0, sys.float_info.max, open_lo=True)
_UNIT = _within(0.0, 1.0)

#: Configs whose every value lies in its validated range (the action threshold may overflow).
CONFIGS = st.fixed_dictionaries({
    "aum_usd": _POSITIVE,
    "turnover_fraction": _within(0.0, 1.0, open_lo=True),
    "theme": st.just("ai-infrastructure"),
    "impact": st.fixed_dictionaries({
        "c": _POSITIVE, "delta": _within(0.0, 1.0, open_lo=True, open_hi=True),
        "impact_cap": _POSITIVE,
        "participation_cap": st.one_of(st.none(), _within(0.0, 1.0, open_lo=True))}),
    "econ": st.fixed_dictionaries({"round_trip_cost_bps": _POSITIVE,
                                   "min_effect_bps": _within(0.0, sys.float_info.max)}),
    "structural": st.tuples(_UNIT, _within(0.0, 1.0, open_lo=True), _UNIT, _UNIT).map(
        lambda v: {"loss_tolerance": v[0], "max_drawdown": v[1],
                   "alpha_policy_min": min(v[2:]), "alpha_policy_max": max(v[2:])}),
    "entropy": st.fixed_dictionaries({"delta_h_max": _within(0.0, sys.float_info.max)}),
    "tilts": st.fixed_dictionaries({"kappa_a": _within(1.0, sys.float_info.max),
                                    "kappa_c": _within(0.0, 1.0, open_lo=True)}),
})


@settings(max_examples=60, deadline=None)
@given(config=CONFIGS)
def test_every_command_on_a_valid_config(tmp_path_factory, config):
    """Any config in the validated domain, through all five subcommands on the AI fixture."""
    paths = write_ai_inputs(tmp_path_factory.mktemp("config"))
    paths["config"].write_text(json.dumps(config))
    outcomes = {}
    for command in COMMAND_INPUTS:
        for fmt in ("json", "text"):
            flags = ("--format", fmt, *(("--schedule-due",) if command == "filter-rebalance"
                                        else ()))
            argv = argv_for(command, paths, flags)
            code, out, err = outcomes[command, fmt] = run_isolated(argv)
            assert run_isolated(argv) == (code, out, err)
            assert code in (0, 1, 2)
            if code == 1:
                assert out == b"" and err.startswith("error: ") and err.count("\n") == 1
                assert err.endswith("\n")
                continue
            assert err == ""
            if fmt == "json":
                strict_json(out)
                if command in ("design", "check"):
                    assert emit_report(*parse_report(out), "json") == out
    code, out, _ = outcomes["design", "json"]
    if code != 1:  # design then check: the printed design reproduces its own report
        paths["design"].write_text(json.dumps(json.loads(out)["design"]))
        for fmt in ("json", "text"):
            assert run_isolated(argv_for("check", paths, ("--format", fmt))) == \
                outcomes["design", fmt]


#: Cells of each CSV column: (the valid spellings, malformed ones).
_IDS = st.sampled_from(["C0", "C1", "C2", "C3", " C1 ", "株A"])
_ODD_IDS = st.sampled_from(["", " ", "a,b", '"', "\x00", "ghost"])
_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ODD_NUMBERS = st.one_of(st.floats().map(repr), st.sampled_from(
    ["", " ", "x", "1e309", "-1e309", "0x10", "1_0", " 2 ", "-0", "١", "1" + "0" * 400]))
_FLAGS = st.sampled_from(["true", "false"])
_ODD_FLAGS = st.sampled_from(["TRUE", "False", "1", "yes", "", " true"])
_CANDIDATE_CELLS = [
    (_IDS, _ODD_IDS),
    (st.sampled_from(["A", "B", "C"]), st.sampled_from(["a", " b", "D", "", "AB"])),
    (_POSITIVE.map(repr), _ODD_NUMBERS),
    (st.one_of(st.just(""), _within(0.0, sys.float_info.max).map(repr)), _ODD_NUMBERS),
    (_FLAGS, _ODD_FLAGS),
    (st.sampled_from(["none", "pure_play_early_stage", "small_cap_specialist",
                      "regime_opaque_jurisdiction", "thematic_etf"]),
     st.sampled_from(["NONE", "Thematic_ETF", "etf", ""])),
]
_TRADE_CELLS = [(_IDS, _ODD_IDS), (_NUMBER, _ODD_NUMBERS)]
_ODD_DATES = st.sampled_from(["", "2025-02-30", "2025/01/01", "20250101", "2024-12-31",
                              "2025-01-01T00:00"])


@st.composite
def csv_text(draw, header, rows, malformed):
    """``header`` and the ``rows`` drawn, then up to three breaks: a cell replaced by one of
    its column's ``malformed`` cells, a row cut or padded, the rows reversed, a blank line."""
    rows = [list(row) for row in draw(rows)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        kind = draw(st.sampled_from(["cell", "width", "reverse", "blank"]))
        if kind == "cell":
            col = draw(st.integers(0, len(header) - 1))
            row[col:col + 1] = [draw(malformed[col])]
        elif kind == "width":
            del row[draw(st.integers(0, len(row))):]
            row += draw(st.lists(st.sampled_from(["", "x"]), max_size=2))
        elif kind == "reverse":
            rows.reverse()
        else:
            rows.insert(at, [])
    out = _io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def _valid_rows(cells, **kwargs):
    return st.lists(st.tuples(*(valid for valid, _ in cells)), max_size=8, **kwargs)


@st.composite
def event_rows(draw):
    """Rows of strictly increasing dates, each date's rows sharing its flags."""
    rows = []
    for day in sorted(draw(st.sets(st.integers(0, 400), max_size=5))):
        flags = draw(_FLAGS), draw(_FLAGS)
        rows += [[str(date(2025, 1, 1) + timedelta(days=day)), name, dw, *flags]
                 for name, dw in draw(_valid_rows(_TRADE_CELLS, min_size=1))]
    return rows


CSV_INPUTS = st.fixed_dictionaries({
    "candidates": csv_text(CANDIDATE_HEADER, _valid_rows(
        _CANDIDATE_CELLS, unique_by=lambda row: row[0].strip()),
        [odd for _, odd in _CANDIDATE_CELLS]),
    "proposal": csv_text(PROPOSAL_HEADER, _valid_rows(_TRADE_CELLS),
                         [odd for _, odd in _TRADE_CELLS]),
    "events": csv_text(EVENT_HEADER, event_rows(),
                       [_ODD_DATES, _ODD_IDS, _ODD_NUMBERS, _ODD_FLAGS, _ODD_FLAGS]),
})


@settings(max_examples=60, deadline=None)
@given(files=CSV_INPUTS, config=st.one_of(st.none(), CONFIGS),
       flags=st.sampled_from([(), ("--schedule-due",), ("--structural-break",)]))
def test_every_command_on_drawn_csv_files(tmp_path_factory, files, config, flags):
    """Drawn candidate, proposal and events CSVs through four subcommands: each run prints a
    report or one named error line."""
    paths = write_ai_inputs(tmp_path_factory.mktemp("csv"))
    for flag, text in files.items():
        paths[flag].write_text(text, encoding="utf-8")
    if config is not None:
        paths["config"].write_text(json.dumps(config))
    for command in ("bounds", "design", "filter-rebalance", "replay"):
        for fmt in ("json", "text"):
            extra = flags if command == "filter-rebalance" else ()
            # replay synthesizes its design: the AI design names none of the drawn ids
            inputs = [f for f in COMMAND_INPUTS[command] if f != "design"]
            argv = [command, *(arg for f in inputs for arg in (f"--{f}", str(paths[f]))),
                    "--format", fmt, *extra]
            code, out, err = run_isolated(argv)
            if code == 1:
                assert out == b"" and err.startswith("error: ") and err.count("\n") == 1
                assert err.endswith("\n")
                continue
            assert code in (0, 2) and err == ""
            if fmt == "json":
                strict_json(out)


def test_config_error_is_the_same_under_any_hash_seed(tmp_path):
    """Two config errors at once: the one printed does not depend on set or dict order."""
    config = write_config(tmp_path, {"impact": {"c": -1, "delta": 2}})
    src = str(FIXTURES.parent / "src")
    printed = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", "from satfeas.cli import main; "
                               "raise SystemExit(main())", "bounds", "--config", config],
                              env=env, capture_output=True, text=True)
        printed.append((proc.returncode, proc.stdout, proc.stderr))
    assert printed[0] == printed[1] == (1, "", "error: impact.c must be positive\n")
