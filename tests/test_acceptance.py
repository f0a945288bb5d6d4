"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success (run ``pytest -s`` to see them);
a failing assertion is the FAIL line. All randomness is seeded, so the
suite is deterministic end to end.
"""

import json
import math
import random

import pytest

from satfeas import (
    CascadeInput,
    ExclusionCategory,
    RebalanceEvent,
    RebalanceProposal,
    SatelliteDesign,
    TierClass,
    filter_rebalance,
    replay,
    run_cascade,
)
from satfeas.cli import main
from satfeas.io import emit_report
from satfeas.layers import (
    breadth_bound_entropy,
    entropy_increment_approx,
    entropy_increment_exact,
    impact_cost,
    max_weight_impact,
    weight_entropy,
)
from satfeas.model import EntropyParams

from conftest import FIXTURES, GOLDEN, check_cli_json, make_asset, make_params


def _pass(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    check_cli_json(argv, captured.out)
    return code, captured.out, captured.err


def test_criterion_1_structural_bound_reproduction(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--config",
                           str(FIXTURES / "ai_config.json"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["alpha_max_structural"] - 0.10) <= 1e-12
    assert 0.10 <= doc["alpha_max_structural"] <= 0.15  # inside the policy range
    _pass(1, "bounds reports alpha_max_structural 0.10 to 1e-12 for L=0.05, D_max=0.5")


def test_criterion_2_epistemic_bound_oracle_equivalence():
    rng = random.Random(20260809)
    linear_checked = 0
    boundary_checked = 0
    for _ in range(1000):
        alpha = rng.uniform(0.01, 0.5)
        dh = rng.uniform(0.0, 2.0)
        got = breadth_bound_entropy(alpha, EntropyParams(dh))
        if got <= 5000:
            # literal brute-force linear search for the largest admissible K
            k = 0
            while entropy_increment_approx(alpha, k + 1) <= dh:
                k += 1
            assert got == k, (alpha, dh, got, k)
            linear_checked += 1
        else:
            # linear search is infeasible here (bounds reach ~1e84); the
            # increment is monotone in K, so the boundary pair characterizes
            # the largest admissible K exactly
            assert entropy_increment_approx(alpha, got) <= dh
            assert entropy_increment_approx(alpha, got + 1) > dh
            boundary_checked += 1
    assert linear_checked + boundary_checked == 1000
    _pass(2, f"breadth bound equals brute-force largest K on 1000 pairs, 0 mismatches "
             f"({linear_checked} linear, {boundary_checked} boundary-checked)")


def test_criterion_3_economic_no_trade_region():
    rng = random.Random(31337)
    assets = {}
    for i in range(40):
        override = rng.uniform(5.0, 120.0) if i % 3 == 0 else None
        assets[f"a{i}"] = make_asset(id=f"a{i}", adv_usd=rng.uniform(1e6, 1e10),
                                     round_trip_cost_bps=override)
    checked = 0
    boundary_seen = 0
    for _ in range(10_000):
        params = make_params(aum_usd=rng.uniform(1e4, 1e6),
                             round_trip_cost_bps=rng.uniform(5.0, 120.0),
                             min_effect_bps=rng.uniform(0.0, 10.0))
        eps = params.econ.min_effect_bps
        names = rng.sample(sorted(assets), rng.randint(1, 8))
        trades = []
        for name in names:
            crt = assets[name].round_trip_cost_bps or params.econ.round_trip_cost_bps
            if rng.random() < 0.15:
                dw = eps / crt  # exactly on the no-trade boundary
            else:
                dw = rng.uniform(-0.4, 0.4)
            trades.append((name, dw))
        proposal = RebalanceProposal(trades=tuple(trades), schedule_due=True)
        executed, suppressed = filter_rebalance(proposal, params, assets.values())
        for name, dw in executed:
            crt = assets[name].round_trip_cost_bps or params.econ.round_trip_cost_bps
            assert abs(dw) * crt >= eps * (1 - 1e-12)
            # no leakage: an executed trade passes the filter on its own too
            alone = RebalanceProposal(trades=((name, dw),), schedule_due=True)
            assert filter_rebalance(alone, params, assets.values()) == ([(name, dw)], [])
            assert impact_cost(params.aum_usd * abs(dw), assets[name].adv_usd,
                               params.impact) <= params.impact.impact_cap
            checked += 1
        for (name, dw), reason in suppressed:
            if reason != "below_action_resolution":
                continue
            crt = assets[name].round_trip_cost_bps or params.econ.round_trip_cost_bps
            assert abs(dw) * crt < eps * (1 + 1e-12)
            checked += 1
        suppression_reason = {trade: reason for trade, reason in suppressed}
        for name, dw in trades:
            crt = assets[name].round_trip_cost_bps or params.econ.round_trip_cost_bps
            if dw == eps / crt:
                # boundary equality is economically admissible: it may only be
                # stopped further down the cascade, by the impact check
                reason = suppression_reason.get((name, dw))
                assert reason != "below_action_resolution"
                if reason is None:
                    assert (name, dw) in executed
                    boundary_seen += 1
    assert boundary_seen > 1000 and checked > 10_000
    _pass(3, f"no-trade region verified on {checked} trades across 10000 proposals, "
             f"{boundary_seen} exact-boundary trades executed")


def test_criterion_4_physical_inverse_consistency():
    rng = random.Random(77)
    checked = 0
    while checked < 1000:
        params = make_params(
            aum_usd=rng.uniform(1e5, 1e9),
            turnover_fraction=rng.uniform(0.05, 1.0),
            c=rng.uniform(0.05, 1.0),
            delta=rng.uniform(0.15, 0.9),
            impact_cap=rng.uniform(1e-4, 0.05),
        )
        asset = make_asset(adv_usd=rng.uniform(1e5, 1e9))
        cap = max_weight_impact([asset], params)[asset.id]
        if not 0.0 < cap < 1.0:
            continue  # clamp active: the inverse identity is out of scope
        traded = params.aum_usd * cap * params.turnover_fraction
        cost = impact_cost(traded, asset.adv_usd, params.impact)
        assert abs(cost - params.impact.impact_cap) <= 1e-9
        checked += 1
    _pass(4, "impact at the cap weight returns the impact tolerance within 1e-9, "
             "1000 unclamped samples")


def test_criterion_5_tier_weight_contract():
    from satfeas.tiering import assign_tier_weights

    rng = random.Random(555)
    for _ in range(1000):
        n_a, n_b, n_c = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        if n_a + n_b + n_c == 0:
            n_b = 1
        alpha = rng.uniform(1e-4, 1.0)
        kappa_a = rng.uniform(1.0, 3.0)
        kappa_c = rng.uniform(1e-6, 1.0)
        tiers = [TierClass.A] * n_a + [TierClass.B] * n_b + [TierClass.C] * n_c
        rng.shuffle(tiers)
        assets = [make_asset(id=f"n{i}", tier=t) for i, t in enumerate(tiers)]
        weights = assign_tier_weights(alpha, assets, kappa_a, kappa_c)
        assert abs(math.fsum(w for _, w in weights) - alpha) <= 1e-12
        by_tier: dict[TierClass, set[float]] = {}
        for asset, (_, w) in zip(assets, weights):
            by_tier.setdefault(asset.tier, set()).add(w)
        assert all(len(ws) == 1 for ws in by_tier.values())
        ordered = [next(iter(by_tier[t])) for t in (TierClass.A, TierClass.B, TierClass.C)
                   if t in by_tier]
        assert ordered == sorted(ordered, reverse=True)
    _pass(5, "tier weights sum to alpha within 1e-12 with intra-tier equality and "
             "A >= B >= C over 1000 fuzzed sleeves")


def test_criterion_6_entropy_approximation_gap():
    rng = random.Random(60609)
    for _ in range(1000):
        n = rng.randint(1, 40)
        raw = [rng.random() + 1e-9 for _ in range(n)]
        total = math.fsum(raw)
        core = [x / total for x in raw]
        alpha = rng.uniform(1e-3, 0.95)
        k = rng.randint(1, 25)
        h_core = weight_entropy(core)
        exact = entropy_increment_exact(core, alpha, k)
        approx = entropy_increment_approx(alpha, k)
        dropped = (1 - alpha) * (-math.log(1 - alpha)) - alpha * h_core
        assert abs((exact - approx) - dropped) <= 1e-9
        assert abs(exact - approx) <= alpha * h_core + (1 - alpha) * (-math.log(1 - alpha)) + 1e-9
    _pass(6, "exact-minus-approx increment matches the dropped rescaling terms "
             "within 1e-9 on 1000 random cores")


def test_criterion_7_small_portfolio_binding_regime(capsys):
    args = ("design", "--config", str(FIXTURES / "ai_config.json"),
            "--candidates", str(FIXTURES / "ai_candidates.csv"), "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == 0 and code2 == 0
    assert out1 == out2  # deterministic reproduction
    doc = json.loads(out1)
    physical = doc["report"]["layers"]["physical"]["normalized_margin"]
    assert physical > 0.9
    assert doc["report"]["binding_layer"] in ("economic", "structural", "epistemic")
    _pass(7, f"physical margin {physical:.4f} > 0.9 while binding layer is "
             f"{doc['report']['binding_layer']} on the small-portfolio fixture")


def _fuzz_cascade_input(rng: random.Random) -> CascadeInput:
    n = rng.randint(0, 10)
    candidates = []
    for i in range(n):
        exclusion = rng.choice([ExclusionCategory.NONE] * 4 + [
            ExclusionCategory.THEMATIC_ETF, ExclusionCategory.PURE_PLAY_EARLY_STAGE,
            ExclusionCategory.SMALL_CAP_SPECIALIST,
            ExclusionCategory.REGIME_OPAQUE_JURISDICTION])
        candidates.append(make_asset(
            id=f"c{i}", tier=rng.choice(list(TierClass)),
            adv_usd=rng.uniform(1e4, 1e10), gaer=rng.random() < 0.8,
            exclusion=exclusion,
            round_trip_cost_bps=rng.uniform(1.0, 100.0) if rng.random() < 0.3 else None))
    params = make_params(
        aum_usd=rng.uniform(1e4, 1e8),
        turnover_fraction=rng.uniform(0.05, 1.0),
        c=rng.uniform(0.02, 1.0),
        delta=rng.uniform(0.1, 0.9),
        impact_cap=rng.uniform(1e-4, 0.1),
        participation_cap=rng.uniform(0.01, 1.0) if rng.random() < 0.5 else None,
        round_trip_cost_bps=rng.uniform(1.0, 200.0),
        min_effect_bps=rng.uniform(0.0, 20.0),
        loss_tolerance=rng.uniform(0.0, 0.5),
        max_drawdown=rng.uniform(0.1, 1.0),
        alpha_policy_min=0.0,
        alpha_policy_max=rng.uniform(0.0, 0.5),
        delta_h_max=rng.uniform(0.0, 2.0),
    )
    return CascadeInput(candidates=tuple(candidates), params=params,
                        kappa_a=rng.uniform(1.0, 3.0), kappa_c=rng.uniform(0.1, 1.0),
                        theme="fuzz")


def test_criterion_8_cascade_conjunction_and_determinism():
    rng = random.Random(88888)
    for _ in range(1000):
        inp = _fuzz_cascade_input(rng)
        report1, design1 = run_cascade(inp)
        report2, design2 = run_cascade(inp)
        assert report1.admissible == all(v.passed for v in report1.layer_verdicts.values())
        assert emit_report(report1, design1, "json") == emit_report(report2, design2, "json")
    _pass(8, "admissible equals the conjunction of layer verdicts and reruns emit "
             "byte-identical JSON over 1000 fuzzed inputs")


def test_criterion_9_governance_gate():
    rng = random.Random(9)
    from datetime import date, timedelta

    assets = [make_asset(id=f"a{i}", adv_usd=rng.uniform(1e5, 1e9)) for i in range(12)]
    design = SatelliteDesign(theme="t", alpha=0.1, constituents=(("a0", 0.1),))
    total_trades = 0
    for _ in range(100):
        day = date(2025, 1, 1) + timedelta(days=rng.randint(0, 30))
        events = []
        for _ in range(rng.randint(0, 12)):
            trades = tuple((f"a{i}", rng.uniform(-0.5, 0.5))
                           for i in rng.sample(range(12), rng.randint(1, 6)))
            events.append(RebalanceEvent(date=day, proposal=RebalanceProposal(
                trades=trades, schedule_due=False, structural_break=False)))
            day += timedelta(days=rng.randint(1, 60))
        params = make_params(min_effect_bps=rng.uniform(0.0, 10.0))
        stats = replay(events, params, design, assets)
        assert stats.trades_executed == 0
        assert stats.gross_turnover_executed == 0.0
        suppressed = stats.trades_suppressed_by_reason
        assert set(suppressed) <= {"governance_gate"}
        assert suppressed.get("governance_gate", 0) == stats.trades_proposed
        total_trades += stats.trades_proposed
    assert total_trades > 1000
    _pass(9, f"all {total_trades} trades across closed-window streams suppressed by "
             f"the governance gate, zero executed")


def test_criterion_10_worked_example_fixtures(capsys):
    for name in ("ai", "defense"):
        config = str(FIXTURES / f"{name}_config.json")
        candidates = str(FIXTURES / f"{name}_candidates.csv")
        for fmt, suffix in (("json", "json"), ("text", "txt")):
            code, out, err = run_cli(capsys, "design", "--config", config,
                                     "--candidates", candidates, "--format", fmt)
            assert code == 0, f"{name} fixture should be admissible (exit 0)"
            assert err == ""
            golden = (GOLDEN / f"{name}_report.{suffix}").read_text()
            assert out == golden, f"{name} {fmt} report deviates from the golden file"
        doc = json.loads((GOLDEN / f"{name}_report.json").read_text())
        assert doc["report"]["admissible"] is True
    _pass(10, "ai and defense fixtures admissible with exit 0 and reports matching "
              "the golden files byte for byte")
