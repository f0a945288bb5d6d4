"""Cascade composition, binding attribution, and the rebalance filter."""

import json
import math
import random
import sys
from datetime import date

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from satfeas import (
    Asset,
    CascadeInput,
    ExclusionCategory,
    RebalanceEvent,
    RebalanceProposal,
    SatelliteDesign,
    TierClass,
    ValidationError,
    compute_bounds,
    config_from_dict,
    filter_rebalance,
    replay,
    run_cascade,
)
from satfeas.cascade import _asset_map, _binding_layer
from satfeas.io import emit_report, load_candidates, parse_report
from satfeas.layers import impact_cost, min_weight_change
from satfeas.model import (
    UNBOUNDED,
    EconParams,
    EntropyParams,
    FeasibilityParams,
    ImpactParams,
    LayerVerdict,
    StructuralParams,
)

from conftest import FIXTURES, make_asset, make_params, replace, strict_json


def ai_input(eps=2.0, candidates=None, **overrides):
    tiers = [TierClass.A, TierClass.A, TierClass.B, TierClass.B, TierClass.C]
    if candidates is None:
        candidates = tuple(make_asset(id=f"N{i}", tier=t) for i, t in enumerate(tiers))
    params = make_params(min_effect_bps=eps, **overrides)
    return CascadeInput(candidates=candidates, params=params,
                        kappa_a=1.5, kappa_c=0.5, theme="ai")


class TestRunCascadeSynthesis:
    def test_coarse_sleeve_binds_economic(self):
        # min_effect 2 bps at 25 bps round-trip: dw_min 0.08, K_econ 1,
        # K_entropy 14, so one name takes the whole sleeve
        report, design = run_cascade(ai_input(eps=2.0))
        assert design.alpha == pytest.approx(0.10, abs=1e-12)
        assert len(design.constituents) == 1
        assert design.constituents[0][0] == "N0"  # first in input order
        assert design.constituents[0][1] == pytest.approx(0.10, abs=1e-12)
        assert report.admissible
        assert report.binding_layer == "economic"
        assert report.derived_bounds.k_max_econ == 1
        assert report.derived_bounds.k_max_entropy == 14

    def test_fine_resolution_unlocks_breadth(self):
        report, design = run_cascade(ai_input(eps=0.2))
        assert len(design.constituents) == 5
        assert report.admissible
        assert report.derived_bounds.k_max_econ == 12
        # impact caps are fully slack at this scale
        assert report.layer_verdicts["physical"].normalized_margin > 0.9
        assert report.binding_layer in ("economic", "structural", "epistemic")

    def test_empty_candidates_fail_domain(self):
        report, design = run_cascade(CascadeInput(candidates=(), params=make_params()))
        assert not report.admissible
        assert report.binding_layer == "domain"
        assert design.alpha == 0.0 and design.constituents == ()
        # the empty sleeve is what is evaluated, so sizing fails too
        assert report.layer_verdicts["structural"].detail == "empty sleeve (alpha = 0)"

    def test_all_rejected_candidates_fail_domain(self):
        bad = (make_asset(id="a", gaer=False),
               make_asset(id="b", exclusion=ExclusionCategory.THEMATIC_ETF))
        report, design = run_cascade(CascadeInput(candidates=bad, params=make_params()))
        assert not report.admissible
        assert report.binding_layer == "domain"
        assert design.constituents == () and not report.layer_verdicts["structural"].passed

    def test_zero_effective_alpha_fails_structural(self):
        report, design = run_cascade(ai_input(loss_tolerance=0.0))
        assert not report.admissible
        assert report.binding_layer == "structural"
        assert design.alpha == 0.0

    def test_zero_entropy_budget_fails_epistemic(self):
        # the entropy bound admits no name: the one-name sleeve is built and fails it
        report, design = run_cascade(ai_input(eps=0.2, delta_h_max=0.0))
        assert not report.admissible
        assert report.binding_layer == "epistemic"
        assert design.constituents == (("N0", design.alpha),)
        epistemic = report.layer_verdicts["epistemic"]
        assert (epistemic.bound, epistemic.usage) == (0.0, 1.0)

    def test_sleeve_below_action_resolution_fails_economic(self):
        # dw_min = 15/25 = 0.6 > alpha = 0.1: not even one name fits
        report, design = run_cascade(ai_input(eps=15.0))
        assert not report.admissible
        assert report.binding_layer == "economic"
        assert [name for name, _ in design.constituents] == ["N0"]
        economic = report.layer_verdicts["economic"]
        assert (economic.bound, economic.usage) == (0, 1.0)

    def test_selection_takes_first_k_in_input_order(self):
        report, design = run_cascade(ai_input(eps=0.5))  # dw_min 0.02, K_econ 5
        assert report.derived_bounds.k_max_econ == 5
        assert [name for name, _ in design.constituents] == ["N0", "N1", "N2", "N3", "N4"]

    def test_policy_cap_binds_inside_structural_layer(self):
        report, design = run_cascade(ai_input(eps=0.2, loss_tolerance=0.2,
                                              alpha_policy_max=0.12))
        # loss budget would allow 0.4; the policy cap holds alpha at 0.12 and
        # the sizing layer reports itself exactly binding with that detail
        assert design.alpha == pytest.approx(0.12, abs=1e-12)
        structural = report.layer_verdicts["structural"]
        assert structural.passed
        assert structural.normalized_margin == pytest.approx(0.0, abs=1e-12)
        assert "policy" in structural.detail

    def test_alpha_below_policy_min_is_flagged_not_failed(self):
        report, design = run_cascade(ai_input(eps=0.2, loss_tolerance=0.02))
        assert design.alpha == pytest.approx(0.04, abs=1e-12)
        assert report.layer_verdicts["structural"].passed
        assert any("alpha_policy_min" in note for note in report.notes)

    def test_policy_min_within_tolerance_adds_no_note(self):
        # alpha_effective is 0.1: a policy minimum past it by less than WEIGHT_TOL is met
        report, _ = run_cascade(ai_input(eps=0.2, alpha_policy_min=0.1 + 5e-13))
        assert report.derived_bounds.alpha_effective == 0.1
        assert report.notes == ()

    def test_exact_entropy_diagnostic_with_core(self):
        inp = ai_input(eps=0.2)
        with_core = CascadeInput(candidates=inp.candidates, params=inp.params,
                                 kappa_a=1.5, kappa_c=0.5, theme="ai",
                                 core_weights=(0.5, 0.3, 0.2))
        report, _ = run_cascade(with_core)
        assert "exact" in report.layer_verdicts["epistemic"].detail


class TestRunCascadeValidation:
    def test_supplied_admissible_design_fixed_point(self):
        inp = ai_input(eps=0.2)
        report1, design1 = run_cascade(inp)
        assert report1.admissible
        inp2 = CascadeInput(candidates=inp.candidates, params=inp.params,
                            kappa_a=1.5, kappa_c=0.5, theme="ai", design=design1)
        report2, design2 = run_cascade(inp2)
        assert design2 == design1
        assert report2.admissible
        assert report2.derived_bounds == report1.derived_bounds
        assert report2.layer_verdicts == report1.layer_verdicts

    def test_alpha_above_loss_budget_fails_structural(self):
        inp = ai_input(eps=0.2)
        oversized = SatelliteDesign(theme="ai", alpha=0.12,
                                    constituents=(("N0", 0.12),), kappa_a=1.5, kappa_c=0.5)
        report, _ = run_cascade(CascadeInput(candidates=inp.candidates, params=inp.params,
                                             design=oversized))
        assert not report.admissible
        assert report.binding_layer == "structural"

    def test_ineligible_constituent_fails_domain(self):
        cands = (make_asset(id="a"), make_asset(id="b", gaer=False))
        design = SatelliteDesign(theme="t", alpha=0.1,
                                 constituents=(("a", 0.05), ("b", 0.05)))
        report, _ = run_cascade(CascadeInput(candidates=cands, params=make_params(),
                                             design=design))
        assert not report.admissible
        assert report.binding_layer == "domain"
        assert "b" in report.layer_verdicts["domain"].detail

    def test_unknown_constituent_is_an_error(self):
        inp = ai_input()
        design = SatelliteDesign(theme="t", alpha=0.1, constituents=(("GHOST", 0.1),))
        with pytest.raises(ValidationError) as err:
            run_cascade(CascadeInput(candidates=inp.candidates, params=inp.params,
                                     design=design))
        assert err.value.code == "unknown_asset_id"

    def test_duplicate_candidate_ids_rejected(self):
        # the one check of a candidate list, which the filter and replay share
        inp = ai_input()
        with pytest.raises(ValidationError) as err:
            CascadeInput(candidates=(make_asset(id="a"), make_asset(id="a")), params=inp.params)
        assert (str(err.value), err.value.code) == ("candidates entry 2: duplicate id 'a'",
                                                    "duplicate_id")

    def test_design_type_checked(self):
        inp = ai_input()
        with pytest.raises(ValidationError) as err:
            CascadeInput(candidates=inp.candidates, params=inp.params, design=(("N0", 0.1),))
        assert (err.value.code, err.value.field) == ("bad_design", "design")

    def test_too_many_names_fail_epistemic(self):
        cands = tuple(make_asset(id=f"n{i}", tier=TierClass.B) for i in range(20))
        weights = tuple((f"n{i}", 0.1 / 20) for i in range(20))
        design = SatelliteDesign(theme="t", alpha=0.1, constituents=weights)
        report, _ = run_cascade(CascadeInput(
            candidates=cands, params=make_params(min_effect_bps=0.0, delta_h_max=0.3),
            design=design))
        # entropy bound floor(0.1 * e^3) = 2 < 20
        assert not report.admissible
        assert report.binding_layer == "epistemic"

    def test_constituent_below_resolution_fails_economic(self):
        inp = ai_input(eps=2.0)  # dw_min 0.08
        design = SatelliteDesign(theme="t", alpha=0.1,
                                 constituents=(("N0", 0.095), ("N1", 0.005)))
        report, _ = run_cascade(CascadeInput(candidates=inp.candidates, params=inp.params,
                                             design=design))
        assert not report.admissible
        assert report.binding_layer == "economic"

    def test_weight_above_impact_cap_fails_physical(self):
        # thin ADV relative to AUM so the cap bites: cap = (1e4/5e4) * 0.01 = 2e-3
        cands = (make_asset(id="thin", adv_usd=1e4),)
        design = SatelliteDesign(theme="t", alpha=0.1, constituents=(("thin", 0.1),))
        report, _ = run_cascade(CascadeInput(
            candidates=cands, params=make_params(min_effect_bps=0.0, delta_h_max=5.0),
            design=design))
        assert not report.admissible
        assert report.binding_layer == "physical"
        assert "remediation" in report.layer_verdicts["physical"].detail


class TestMarginsAndDeterminism:
    def test_admissible_equals_conjunction(self):
        report, _ = run_cascade(ai_input(eps=0.2))
        assert report.admissible == all(v.passed for v in report.layer_verdicts.values())

    def test_identical_inputs_identical_reports(self):
        r1, d1 = run_cascade(ai_input(eps=0.2))
        r2, d2 = run_cascade(ai_input(eps=0.2))
        assert r1 == r2 and d1 == d2

    def test_layer_independence_on_fixed_design(self):
        # weakening one layer's parameter never flips another layer's verdict
        inp = ai_input(eps=0.2)
        _, design = run_cascade(inp)

        def verdicts(**overrides):
            params = make_params(min_effect_bps=0.2, **overrides)
            report, _ = run_cascade(CascadeInput(candidates=inp.candidates, params=params,
                                                 design=design))
            return {name: v.passed for name, v in report.layer_verdicts.items()}

        base = verdicts()
        for weakened in (verdicts(delta_h_max=5.0),
                         verdicts(loss_tolerance=0.5),
                         verdicts(impact_cap=0.5),
                         verdicts(round_trip_cost_bps=500.0)):
            for layer, ok in base.items():
                if ok:
                    assert weakened[layer], f"{layer} flipped pass -> fail"

    def test_compute_bounds_pure_function_of_params(self):
        params = make_params(min_effect_bps=0.0)
        bounds = compute_bounds(params)
        assert bounds.k_max_econ is UNBOUNDED
        assert bounds.weight_caps_impact is None
        again = compute_bounds(params, candidates=None)
        assert bounds == again


_POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)
_UNIT = st.floats(min_value=5e-324, max_value=1.0)
_CLOSED_UNIT = st.floats(min_value=0.0, max_value=1.0)
_NONNEGATIVE = st.floats(min_value=0.0, max_value=sys.float_info.max)


@st.composite
def feasibility_params(draw):
    """FeasibilityParams anywhere in the validated domain, extreme floats included."""
    lo, hi = sorted((draw(_CLOSED_UNIT), draw(_CLOSED_UNIT)))
    cost, effect = draw(_POSITIVE), draw(_NONNEGATIVE)
    assume(effect / cost <= sys.float_info.max)  # EconParams rejects a larger action threshold
    return FeasibilityParams(
        aum_usd=draw(_POSITIVE), turnover_fraction=draw(_UNIT),
        impact=ImpactParams(c=draw(_POSITIVE),
                            delta=draw(st.floats(min_value=5e-324, max_value=1.0,
                                                 exclude_max=True)),
                            impact_cap=draw(_POSITIVE), participation_cap=draw(st.none() | _UNIT)),
        econ=EconParams(round_trip_cost_bps=cost, min_effect_bps=effect),
        structural=StructuralParams(loss_tolerance=draw(_CLOSED_UNIT), max_drawdown=draw(_UNIT),
                                    alpha_policy_min=lo, alpha_policy_max=hi),
        entropy=EntropyParams(delta_h_max=draw(_NONNEGATIVE)))


@st.composite
def cascade_inputs(draw):
    """A CascadeInput anywhere in the validated domain, extreme floats included."""
    params = draw(feasibility_params())
    candidates = tuple(
        Asset(id=f"N{i}", tier=draw(st.sampled_from(TierClass)), adv_usd=draw(_POSITIVE),
              gaer_admissible=draw(st.just(True) | st.booleans()),
              exclusion=draw(st.just(ExclusionCategory.NONE) | st.sampled_from(ExclusionCategory)),
              round_trip_cost_bps=draw(st.none() | _NONNEGATIVE))
        for i in range(draw(st.integers(min_value=1, max_value=4))))
    kappa_a, kappa_c = draw(st.floats(min_value=1.0, max_value=sys.float_info.max)), draw(_UNIT)
    design = None
    if draw(st.booleans()):
        names = draw(st.lists(st.sampled_from([a.id for a in candidates]), unique=True))
        weights = [draw(st.floats(min_value=0.0, max_value=1.0 / len(candidates)))
                   for _ in names]
        design = SatelliteDesign(theme="t", alpha=min(math.fsum(weights), 1.0),
                                 constituents=tuple(zip(names, weights)),
                                 kappa_a=kappa_a, kappa_c=kappa_c)
    return CascadeInput(candidates=candidates, params=params, kappa_a=kappa_a, kappa_c=kappa_c,
                        design=design, core_weights=draw(st.none() | st.just((0.6, 0.4))))


def checking(pairs, alpha=0.1, **overrides):
    """``ai_input`` at the AI fixture's effect threshold, validating a design of ``pairs``."""
    return replace(ai_input(eps=0.2, **overrides), design=SatelliteDesign(
        theme="t", alpha=alpha, constituents=pairs))


class TestDesignThenCheck:
    """Evaluating the design that synthesis returns reproduces its report."""

    def test_failed_synthesis_checks_to_the_same_report(self):
        # the AI fixture with delta_h_max 0: the entropy bound admits no name, so the
        # one-name sleeve is built, and checking it prints the same report
        cfg = config_from_dict({**json.loads((FIXTURES / "ai_config.json").read_text()),
                                "entropy": {"delta_h_max": 0}})
        inp = CascadeInput(candidates=tuple(load_candidates(FIXTURES / "ai_candidates.csv")),
                           params=cfg.params, kappa_a=cfg.kappa_a, kappa_c=cfg.kappa_c,
                           theme=cfg.theme)
        report, design = run_cascade(inp)
        assert (report.admissible, report.binding_layer) == (False, "epistemic")
        assert report.layer_verdicts["structural"].passed
        assert design.constituents == (("CHIP1", design.alpha),)
        checked = run_cascade(replace(inp, design=design))
        assert emit_report(*checked, "json") == emit_report(report, design, "json")

    @example(inp=ai_input(eps=0.2, delta_h_max=0.0))
    @example(inp=ai_input(eps=15.0))
    @example(inp=ai_input(loss_tolerance=0.0))
    @example(inp=CascadeInput(candidates=(), params=make_params()))
    @given(inp=cascade_inputs())
    @settings(max_examples=150, deadline=None)
    def test_evaluating_the_returned_design_is_a_fixed_point(self, inp):
        report, design = run_cascade(inp)
        assert run_cascade(replace(inp, design=design)) == (report, design)


class TestVerdictDomain:
    # a subnormal physical cap: T1's impact cap is 1e-310
    @example(inp=ai_input(eps=0.2, candidates=(make_asset(id="T1", adv_usd=5e-304),)))
    # a subnormal structural cap: the loss budget allows 1e-323
    @example(inp=checking((("N0", 0.1),), loss_tolerance=5e-324, alpha_policy_min=0.0))
    # a subnormal weight against the economic threshold 0.008
    @example(inp=checking((("N0", 0.1), ("N1", 5e-324))))
    # a subnormal sleeve: alpha / K underflows in the entropy increment
    @example(inp=checking((("N0", 5e-324), ("N1", 0.0)), alpha=5e-324))
    @given(inp=cascade_inputs())
    @settings(max_examples=150, deadline=None)
    def test_every_margin_is_finite_and_reports_are_strict_json(self, inp):
        report, design = run_cascade(inp)
        for verdict in report.layer_verdicts.values():
            for margin in (verdict.margin, verdict.normalized_margin):
                assert margin is None or (isinstance(margin, float) and math.isfinite(margin)
                                          and (margin != 0 or math.copysign(1.0, margin) > 0))
            assert verdict.normalized_margin is None or verdict.normalized_margin <= 1.0
        data = emit_report(report, design, "json")
        strict_json(data)
        assert parse_report(data) == (report, design)

    def test_zero_weight_at_a_zero_cap_fails_with_zero_margin(self):
        # (0.01 / 0.1) ** 1000 underflows: the cap is exactly zero and admits nothing
        inp = checking((("N0", 0.0),), alpha=0.0, c=0.1, delta=0.001, impact_cap=0.01)
        physical = run_cascade(inp)[0].layer_verdicts["physical"]
        assert (physical.passed, physical.bound, physical.margin,
                physical.normalized_margin) == (False, 0.0, 0.0, 0.0)

    def test_zero_weight_against_an_infinite_threshold_has_positive_zero_margin(self):
        # a zero cost override makes Z's dw_min infinite
        free = make_asset(id="Z", round_trip_cost_bps=0.0)
        inp = checking((("N0", 0.1), ("Z", 0.0)), candidates=(make_asset(id="N0"), free))
        economic = run_cascade(inp)[0].layer_verdicts["economic"]
        assert (economic.passed, economic.normalized_margin) == (False, -1.0)
        assert math.copysign(1.0, economic.margin) == 1.0 and economic.margin == 0.0
        assert "Z (dw_min inf)" in economic.detail

    def test_member_exactly_at_its_cap_passes_physical(self):
        thin = make_asset(id="thin", adv_usd=1e4)
        cap = compute_bounds(make_params(), [thin]).weight_caps_impact["thin"]
        inp = checking((("thin", cap),), alpha=cap, candidates=(thin,))
        physical = run_cascade(inp)[0].layer_verdicts["physical"]
        assert (physical.passed, physical.bound, physical.usage) == (True, cap, cap)
        assert (physical.margin, physical.normalized_margin) == (0.0, 0.0)

    def test_member_within_tolerance_above_its_cap_passes_physical(self):
        thin = make_asset(id="thin", adv_usd=2e4)  # impact cap about 0.004
        w = compute_bounds(make_params(), [thin]).weight_caps_impact["thin"] + 5e-13
        physical = run_cascade(checking((("thin", w),), alpha=w,
                                        candidates=(thin,)))[0].layer_verdicts["physical"]
        assert physical.passed and physical.margin < 0

    def test_member_within_tolerance_below_dw_min_passes_economic(self):
        # min_effect_bps 0.2 over 25 bp: dw_min is 0.008
        w = 0.008 - 5e-13
        inp = checking((("N0", w), ("N1", 0.05)), alpha=w + 0.05)
        economic = run_cascade(inp)[0].layer_verdicts["economic"]
        assert economic.passed and economic.margin < 0

    def test_normalized_margins_within_tolerance_tie_in_the_fixed_order(self):
        def passing(normalized):
            return LayerVerdict(passed=True, margin=normalized, normalized_margin=normalized)

        verdicts = {"domain": passing(0.9), "structural": passing(0.5 - 5e-13),
                    "epistemic": passing(0.9), "economic": passing(0.5),
                    "physical": passing(0.9)}
        assert _binding_layer(verdicts) == "economic"


class TestFilterRebalance:
    def test_closed_window_suppresses_everything(self):
        assets = [make_asset(id="a"), make_asset(id="b")]
        proposal = RebalanceProposal(trades=(("a", 0.2), ("b", -0.01)))
        executed, suppressed = filter_rebalance(proposal, make_params(), assets)
        assert executed == []
        assert [reason for _, reason in suppressed] == ["governance_gate"] * 2

    def test_boundary_trade_executes_when_window_open(self):
        assets = [make_asset(id="a", adv_usd=1e9)]
        params = make_params(round_trip_cost_bps=50.0, min_effect_bps=5.0)
        proposal = RebalanceProposal(trades=(("a", 0.1),), schedule_due=True)
        executed, suppressed = filter_rebalance(proposal, params, assets)
        assert executed == [("a", 0.1)] and suppressed == []

    def test_below_resolution_suppressed(self):
        assets = [make_asset(id="a", adv_usd=1e9)]
        params = make_params(round_trip_cost_bps=50.0, min_effect_bps=5.0)
        proposal = RebalanceProposal(trades=(("a", 0.05),), structural_break=True)
        executed, suppressed = filter_rebalance(proposal, params, assets)
        assert executed == []
        assert suppressed == [(("a", 0.05), "below_action_resolution")]

    def test_impact_cap_suppression_uses_delta_notional(self):
        # Q = A * |dw| = 1e7 * 0.1 = 1e6 against ADV 1e6: impact = 0.1 > cap
        assets = [make_asset(id="a", adv_usd=1e6)]
        params = make_params(aum_usd=1e7, round_trip_cost_bps=50.0, min_effect_bps=0.0)
        proposal = RebalanceProposal(trades=(("a", 0.1),), schedule_due=True)
        executed, suppressed = filter_rebalance(proposal, params, assets)
        assert executed == []
        assert suppressed[0][1] == "impact_cap"

    def test_per_asset_cost_override_honored(self):
        cheap = make_asset(id="cheap", adv_usd=1e9, round_trip_cost_bps=500.0)
        dear = make_asset(id="dear", adv_usd=1e9, round_trip_cost_bps=10.0)
        params = make_params(round_trip_cost_bps=50.0, min_effect_bps=5.0)
        proposal = RebalanceProposal(trades=(("cheap", 0.02), ("dear", 0.02)),
                                     schedule_due=True)
        executed, suppressed = filter_rebalance(proposal, params, [cheap, dear])
        # dw_min is 0.01 for the cheap path, 0.5 for the dear one
        assert executed == [("cheap", 0.02)]
        assert suppressed == [(("dear", 0.02), "below_action_resolution")]

    def test_trade_exactly_at_the_impact_cap_executes(self):
        # Q/V = 0.25 and c * sqrt(0.25) = 0.5 exactly: the cost equals the cap
        params = make_params(aum_usd=65536.0, c=1.0, delta=0.5, impact_cap=0.5,
                             min_effect_bps=0.0)
        proposal = RebalanceProposal(trades=(("a", 0.25),), schedule_due=True)
        assert impact_cost(65536.0 * 0.25, 65536.0, params.impact) == 0.5
        assert filter_rebalance(proposal, params, [make_asset(id="a", adv_usd=65536.0)]) == \
            ([("a", 0.25)], [])

    def test_unknown_id_is_an_error(self):
        proposal = RebalanceProposal(trades=(("ghost", 0.1),), schedule_due=True)
        with pytest.raises(ValidationError) as err:
            filter_rebalance(proposal, make_params(), [make_asset(id="a")])
        assert (str(err.value), err.value.code, err.value.field) == \
            ("proposal references unknown asset id 'ghost'", "unknown_asset_id", "proposal")

    def test_unknown_id_is_an_error_with_the_window_closed(self):
        # every id is resolved before the gate suppresses the proposal
        proposal = RebalanceProposal(trades=(("a", 0.1), ("ghost", 0.1)))
        with pytest.raises(ValidationError) as err:
            filter_rebalance(proposal, make_params(), [make_asset(id="a")])
        assert (str(err.value), err.value.code, err.value.field) == \
            ("proposal references unknown asset id 'ghost'", "unknown_asset_id", "proposal")

    def test_partition_property(self):
        rng = random.Random(99)
        assets = [make_asset(id=f"a{i}", adv_usd=rng.uniform(1e5, 1e9)) for i in range(30)]
        for _ in range(200):
            trades = tuple((f"a{i}", rng.uniform(-0.3, 0.3))
                           for i in rng.sample(range(30), rng.randint(1, 10)))
            proposal = RebalanceProposal(
                trades=trades,
                schedule_due=rng.random() < 0.5,
                structural_break=rng.random() < 0.3,
            )
            params = make_params(round_trip_cost_bps=rng.uniform(5, 100),
                                 min_effect_bps=rng.uniform(0, 10))
            executed, suppressed = filter_rebalance(proposal, params, assets)
            merged = list(executed) + [t for t, _ in suppressed]
            assert sorted(merged) == sorted(trades)
            assert len(executed) + len(suppressed) == len(trades)

    def test_no_leakage_through_filter(self):
        rng = random.Random(4242)
        assets = {f"a{i}": make_asset(id=f"a{i}", adv_usd=rng.uniform(1e5, 1e8))
                  for i in range(20)}
        for _ in range(500):
            params = make_params(aum_usd=rng.uniform(1e4, 1e7),
                                 round_trip_cost_bps=rng.uniform(5, 100),
                                 min_effect_bps=rng.uniform(0, 10))
            trades = tuple((f"a{i}", rng.uniform(-0.5, 0.5))
                           for i in rng.sample(range(20), rng.randint(1, 8)))
            proposal = RebalanceProposal(trades=trades, schedule_due=True)
            executed, suppressed = filter_rebalance(proposal, params, assets.values())
            econ = params.econ
            for (_name, dw), reason in suppressed:
                if reason == "below_action_resolution":
                    assert abs(dw) * econ.round_trip_cost_bps < econ.min_effect_bps * (1 + 1e-12)
            for name, dw in executed:
                assert abs(dw) * econ.round_trip_cost_bps >= econ.min_effect_bps * (1 - 1e-12)
                impact = impact_cost(params.aum_usd * abs(dw), assets[name].adv_usd,
                                     params.impact)
                assert impact <= params.impact.impact_cap


@given(params=feasibility_params(), adv=_POSITIVE, cost=st.none() | _NONNEGATIVE,
       factor=st.none() | st.floats(min_value=1.0, max_value=1e300), data=st.data())
@settings(max_examples=300, deadline=None)
def test_an_executed_trade_stays_executed_when_a_limit_loosens(params, adv, cost, factor, data):
    # a higher impact cap or participation cap (at most 1), or a smaller AUM, each raised or
    # lowered by one ulp (factor None) or by the factor
    asset = make_asset(id="A", adv_usd=adv, round_trip_cost_bps=cost)
    dw_min = min_weight_change(params.econ, cost)  # trades just above it reach the caps
    near = (st.floats(min_value=dw_min, max_value=min(4 * dw_min, sys.float_info.max))
            if dw_min < math.inf else st.nothing())
    dw = data.draw(near | st.floats(min_value=-1.0, max_value=1.0)
                   | st.floats(allow_nan=False, allow_infinity=False), label="dw")
    proposal = RebalanceProposal(trades=(("A", dw),), schedule_due=True)
    executed = filter_rebalance(proposal, params, [asset])
    if executed != ([("A", dw)], []):
        return

    def up(x, limit):
        return min(math.nextafter(x, math.inf) if factor is None else x * factor, limit)

    impact = params.impact
    aum = math.nextafter(params.aum_usd, 0.0) if factor is None else params.aum_usd / factor
    looser = [
        replace(params, impact=replace(
            impact, impact_cap=up(impact.impact_cap, sys.float_info.max))),
        replace(params, aum_usd=max(aum, 5e-324)),
    ]
    if impact.participation_cap is not None:
        looser.append(replace(params, impact=replace(
            impact, participation_cap=up(impact.participation_cap, 1.0))))
    for loose in looser:
        assert filter_rebalance(proposal, loose, [asset]) == executed


@given(inp=cascade_inputs())
@settings(max_examples=100, deadline=None)
def test_a_reports_caps_are_its_members_rows_of_the_bounds_table(inp):
    report, design = run_cascade(inp)
    table = compute_bounds(inp.params, inp.candidates)
    bounds = report.derived_bounds
    ids = {name for name, _ in design.constituents}
    for key in ("weight_caps_impact", "weight_caps_participation"):
        caps, rows = getattr(bounds, key), getattr(table, key)
        assert caps is None if rows is None else caps.keys() == ids
        for name, cap in (caps or {}).items():
            assert cap.hex() == rows[name].hex()
    no_caps = {"weight_caps_impact": None, "weight_caps_participation": None}
    assert replace(bounds, **no_caps) == replace(table, **no_caps)


_SWITCH = make_params(aum_usd=180678072.5746075, turnover_fraction=0.5035854973339161,
                      c=1.147528455760593, delta=0.9792020758872617,
                      impact_cap=0.04744014744303143)
_AT_SWITCH = 2.2250738585072626e-308  # one ulp less AUM gives the cap 2.2250738585072014e-308


# the impact cap falls as AUM falls by one ulp past its switch to log space: the member at its
# cap still passes
@example(inp=CascadeInput(candidates=(make_asset(id="A", adv_usd=5.239961538813079e-299),),
                          params=_SWITCH, design=SatelliteDesign(
                              theme="t", alpha=_AT_SWITCH, constituents=(("A", _AT_SWITCH),))),
         factor=None)
@given(inp=cascade_inputs(), factor=st.none() | st.floats(min_value=1.0, max_value=1e300))
@settings(max_examples=100, deadline=None)
def test_a_passing_layer_stays_passing_when_a_knob_loosens(inp, factor):
    # on the check path, a fixed design against a higher impact cap, participation cap (at
    # most 1), loss tolerance or policy cap (each at most 1), entropy budget or sleeve cost, or
    # a smaller AUM or effect threshold, each moved by one ulp (factor None) or by the factor
    report, design = run_cascade(inp)
    inp = replace(inp, design=design)

    def up(x, limit):
        return min(math.nextafter(x, math.inf) if factor is None else x * factor, limit)

    def down(x, limit):
        return max(math.nextafter(x, 0.0) if factor is None else x / factor, limit)

    params = inp.params
    impact, econ, structural = params.impact, params.econ, params.structural
    top = sys.float_info.max
    looser = [
        replace(params, impact=replace(
            impact, impact_cap=up(impact.impact_cap, top))),
        replace(params, aum_usd=down(params.aum_usd, 5e-324)),
        replace(params, structural=replace(
            structural, loss_tolerance=up(structural.loss_tolerance, 1.0))),
        replace(params, structural=replace(
            structural, alpha_policy_max=up(structural.alpha_policy_max, 1.0))),
        replace(params, entropy=EntropyParams(
            delta_h_max=up(params.entropy.delta_h_max, top))),
        replace(params, econ=replace(
            econ, min_effect_bps=down(econ.min_effect_bps, 0.0))),
        replace(params, econ=replace(
            econ, round_trip_cost_bps=up(econ.round_trip_cost_bps, top))),
    ]
    if impact.participation_cap is not None:
        looser.append(replace(params, impact=replace(
            impact, participation_cap=up(impact.participation_cap, 1.0))))
    passed = [name for name, verdict in report.layer_verdicts.items() if verdict.passed]
    for loose in looser:
        verdicts = run_cascade(replace(inp, params=loose))[0].layer_verdicts
        assert [name for name in passed if not verdicts[name].passed] == []


_DUE = RebalanceProposal(trades=(("A", 0.1),), schedule_due=True)
_DUE_EVENTS = [RebalanceEvent(date(2025, 6, 30), _DUE)]
_EMPTY = SatelliteDesign(theme="t", alpha=0.0, constituents=())

#: Every library entry point that takes a candidate list, called on one.
CANDIDATE_ENTRY_POINTS = {
    "CascadeInput": lambda assets: CascadeInput(candidates=assets, params=make_params()),
    "compute_bounds": lambda assets: compute_bounds(make_params(), assets),
    "filter_rebalance": lambda assets: filter_rebalance(_DUE, make_params(), assets),
    "replay": lambda assets: replay(_DUE_EVENTS, make_params(), _EMPTY, assets),
}

_LIQUID, _ILLIQUID = make_asset(id="A", adv_usd=1e12), make_asset(id="A", adv_usd=1.0)


@pytest.mark.parametrize("entry", CANDIDATE_ENTRY_POINTS)
@pytest.mark.parametrize("assets,message,code", [
    # which of the two A's a trade of A would meet decides whether it executes
    ([_LIQUID, _ILLIQUID], "candidates entry 2: duplicate id 'A'", "duplicate_id"),
    ([_ILLIQUID, _LIQUID], "candidates entry 2: duplicate id 'A'", "duplicate_id"),
    ([_LIQUID, "B"], "candidates must be Asset instances", "bad_candidate"),
    # a mapping iterates as its keys, so no key can name the asset a trade of it meets
    ({"A": _LIQUID, "B": "B"}, "candidates must be Asset instances", "bad_candidate"),
    ({"B": _LIQUID}, "candidates must be Asset instances", "bad_candidate"),
    ({"A": _LIQUID}, "candidates must be Asset instances", "bad_candidate"),
], ids=["duplicate, liquid first", "duplicate, illiquid first", "not an Asset",
        "a mapping to not an Asset", "a mapping not keyed by id", "a mapping keyed by id"])
def test_every_entry_point_checks_candidates_alike(entry, assets, message, code):
    with pytest.raises(ValidationError) as err:
        CANDIDATE_ENTRY_POINTS[entry](assets)
    assert (str(err.value), err.value.code, err.value.field) == (message, code, "candidates")


@pytest.mark.parametrize("entry", CANDIDATE_ENTRY_POINTS)
def test_every_entry_point_takes_an_indexed_mapping(entry):
    # the index the candidate check builds gives the list's result; a plain mapping is
    # bad_candidate (above)
    call = CANDIDATE_ENTRY_POINTS[entry]
    assert call(_asset_map([_LIQUID])) == call([_LIQUID])
