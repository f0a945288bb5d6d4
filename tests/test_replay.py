"""Deterministic event replay and its suppression statistics."""

import math
import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satfeas import (
    CascadeInput,
    RebalanceEvent,
    RebalanceProposal,
    SatelliteDesign,
    ValidationError,
    filter_rebalance,
    replay,
    run_cascade,
)
from satfeas.config import load_config
from satfeas.io import load_candidates, load_events
from satfeas.replay import ReplayStats

from conftest import FIXTURES, make_asset, make_params


def make_design(alpha=0.1):
    return SatelliteDesign(theme="t", alpha=alpha,
                           constituents=(("a0", alpha / 2), ("a1", alpha / 2)))


def make_assets(n=6, adv=1e9):
    return [make_asset(id=f"a{i}", adv_usd=adv) for i in range(n)]


def event(day, trades, schedule_due=False, structural_break=False):
    return RebalanceEvent(
        date=day,
        proposal=RebalanceProposal(trades=tuple(trades), schedule_due=schedule_due,
                                   structural_break=structural_break))


class TestReplay:
    def test_closed_window_every_quarter(self):
        days = [date(2025, 3, 31), date(2025, 6, 30), date(2025, 9, 30),
                date(2025, 12, 31)]
        events = [event(d, [("a0", 0.05), ("a1", -0.02)]) for d in days]
        stats = replay(events, make_params(), make_design(), make_assets())
        assert stats.events_total == 4
        assert stats.trades_proposed == 8
        assert stats.trades_executed == 0
        assert stats.trades_suppressed_by_reason == {"governance_gate": 8}
        assert stats.gross_turnover_executed == 0.0
        assert stats.max_participation_observed == 0.0

    def test_resolution_split_when_window_open(self):
        params = make_params(round_trip_cost_bps=50.0, min_effect_bps=5.0)
        events = [event(date(2025, 6, 30),
                        [("a0", 0.12), ("a1", 0.05), ("a2", -0.11)],
                        schedule_due=True)]
        stats = replay(events, params, make_design(), make_assets())
        assert stats.trades_executed == 2
        assert stats.trades_suppressed_by_reason == {"below_action_resolution": 1}
        assert stats.gross_turnover_executed == pytest.approx(0.23, abs=1e-12)

    def test_empty_stream_all_zero(self):
        stats = replay([], make_params(), make_design(), make_assets())
        assert stats == ReplayStats(events_total=0, trades_proposed=0, trades_executed=0,
                                    trades_suppressed_by_reason={},
                                    gross_turnover_executed=0.0,
                                    max_participation_observed=0.0)

    def test_out_of_order_events_rejected(self):
        events = [event(date(2025, 6, 30), [("a0", 0.01)]),
                  event(date(2025, 3, 31), [("a1", 0.01)])]
        with pytest.raises(ValidationError) as err:
            replay(events, make_params(), make_design(), make_assets())
        assert err.value.code == "events_out_of_order"

    def test_unknown_design_id_rejected(self):
        design = SatelliteDesign(theme="t", alpha=0.1, constituents=(("GHOST", 0.1),))
        with pytest.raises(ValidationError) as err:
            replay([], make_params(), design, make_assets())
        assert (str(err.value), err.value.code, err.value.field) == \
            ("design references unknown asset id 'GHOST'", "unknown_asset_id", "design")

    def test_unknown_trade_id_rejected(self):
        events = [event(date(2025, 6, 30), [("ghost", 0.01)])]
        with pytest.raises(ValidationError) as err:
            replay(events, make_params(), make_design(), make_assets())
        assert (str(err.value), err.value.code) == \
            ("proposal references unknown asset id 'ghost'", "unknown_asset_id")

    @pytest.mark.parametrize("day,proposal,code", [
        ("2025-06-30", RebalanceProposal(trades=()), "bad_date"),
        (date(2025, 6, 30), (("a0", 0.01),), "bad_proposal"),
    ])
    def test_event_types_checked(self, day, proposal, code):
        with pytest.raises(ValidationError) as err:
            RebalanceEvent(date=day, proposal=proposal)
        assert err.value.code == code

    def test_max_participation_observed(self):
        params = make_params(aum_usd=1e6, round_trip_cost_bps=50.0, min_effect_bps=0.0,
                             impact_cap=0.05)
        assets = [make_asset(id="a0", adv_usd=1e6), make_asset(id="a1", adv_usd=1e7)]
        events = [event(date(2025, 6, 30), [("a0", 0.1), ("a1", -0.2)],
                        schedule_due=True)]
        stats = replay(events, params, make_design(), assets)
        # participations: 1e6*0.1/1e6 = 0.1 and 1e6*0.2/1e7 = 0.02
        assert stats.max_participation_observed == pytest.approx(0.1, abs=1e-12)

    def test_participation_cap_suppresses_at_trade_time(self):
        params = make_params(aum_usd=1e6, round_trip_cost_bps=50.0, min_effect_bps=0.0,
                             impact_cap=0.05, participation_cap=0.05)
        assets = [make_asset(id="a0", adv_usd=1e6), make_asset(id="a1", adv_usd=1e7)]
        events = [event(date(2025, 6, 30), [("a0", 0.1), ("a1", -0.2)],
                        schedule_due=True)]
        stats = replay(events, params, make_design(), assets)
        # a0 participates at 0.1 > 0.05 and is suppressed; a1 at 0.02 executes
        assert (stats.trades_executed, stats.trades_suppressed_by_reason) == \
            (1, {"participation_cap": 1})
        assert stats.max_participation_observed == pytest.approx(0.02, abs=1e-12)

    def test_suppression_monotone_in_effect_threshold(self):
        rng = random.Random(23)
        assets = make_assets(10)
        events = []
        day = date(2025, 1, 31)
        for _ in range(30):
            trades = [(f"a{i}", rng.uniform(-0.2, 0.2))
                      for i in rng.sample(range(10), rng.randint(1, 6))]
            events.append(event(day, trades, schedule_due=True))
            day += timedelta(days=7)
        counts = []
        for eps in (0.0, 1.0, 2.0, 5.0, 10.0, 20.0):
            params = make_params(round_trip_cost_bps=50.0, min_effect_bps=eps)
            stats = replay(events, params, make_design(), assets)
            counts.append(stats.trades_suppressed_by_reason.get(
                "below_action_resolution", 0))
        assert counts == sorted(counts)

    def test_replay_is_deterministic(self):
        rng = random.Random(5)
        assets = make_assets(5)
        events = [event(date(2025, 1, 31) + timedelta(days=30 * i),
                        [(f"a{j}", rng.uniform(-0.1, 0.1)) for j in range(3)],
                        schedule_due=True)
                  for i in range(10)]
        params = make_params(min_effect_bps=1.0)
        first = replay(events, params, make_design(), assets)
        second = replay(events, params, make_design(), assets)
        assert first == second

    def test_an_iterator_of_events_gives_the_stats_of_the_list(self):
        # the AI fixture from its synthesized design: replay counts events as it reads them
        cfg = load_config(FIXTURES / "ai_config.json")
        assets = load_candidates(FIXTURES / "ai_candidates.csv")
        events = load_events(FIXTURES / "ai_events.csv")
        _, design = run_cascade(CascadeInput(candidates=assets, params=cfg.params))
        stats = replay(events, cfg.params, design, assets)
        assert stats.events_total == 4
        assert replay(iter(events), cfg.params, design, assets) == stats

    def test_date_order_is_checked_before_the_trades(self):
        # the late event also trades an unknown id: replay names the date first
        events = [event(date(2025, 6, 30), [("a0", 0.01)]),
                  event(date(2025, 6, 30), [("ghost", 0.01)], schedule_due=True)]
        with pytest.raises(ValidationError) as err:
            replay(events, make_params(), make_design(), make_assets())
        assert (str(err.value), err.value.code, err.value.field) == (
            "events must be strictly increasing by date (2025-06-30 after 2025-06-30)",
            "events_out_of_order", "events")

    def test_stats_invariant_enforced(self):
        with pytest.raises(ValidationError):
            ReplayStats(events_total=1, trades_proposed=3, trades_executed=1,
                        trades_suppressed_by_reason={"governance_gate": 1},
                        gross_turnover_executed=0.0, max_participation_observed=0.0)


# Streams for the property tests: each event is (window open, {id: trade}),
# where a trade is (sell, |dw|) or None for a sell of the whole position.
# Ten ids against a two-name initial sleeve, so names enter mid-stream.
POOL = [f"a{i}" for i in range(10)]
TRADE = st.one_of(st.none(),
                  st.tuples(st.booleans(), st.floats(min_value=1e-300, max_value=0.3)))
STREAM = st.lists(st.tuples(st.booleans(),
                            st.dictionaries(st.sampled_from(POOL), TRADE,
                                            min_size=1, max_size=6)),
                  max_size=15)


def build_events(stream, initial):
    """Events of ``stream``; a whole-position sell is sized as if every
    trade in an open window executes."""
    sat = dict(initial.constituents)
    events = []
    for i, (window_open, trades) in enumerate(stream):
        proposal = []
        for name, trade in trades.items():
            if trade is None:
                dw = -sat.get(name, 0.0)
            else:
                sell, size = trade
                dw = -size if sell else size
            proposal.append((name, dw))
            if window_open:
                sat[name] = sat.get(name, 0.0) + dw
        events.append(event(date(2025, 1, 1) + timedelta(days=i), proposal,
                            schedule_due=window_open))
    return events


def binding_inputs():
    """Params and POOL assets under which every suppression reason occurs: dw_min is 0.08
    (0.02 with the cost override) and the impact cap binds above 0.01 * adv / 1e6."""
    params = make_params(aum_usd=1e6, min_effect_bps=2.0)
    assets = [make_asset(id=name, adv_usd=10.0 ** (6 + i % 4),
                         round_trip_cost_bps=100.0 if i % 3 == 0 else None)
              for i, name in enumerate(POOL)]
    return params, assets


class TestReplayProperties:
    @given(stream=STREAM)
    @settings(max_examples=60, deadline=None)
    def test_stats_equal_naive_per_event_filter(self, stream):
        params, assets = binding_inputs()
        initial = make_design()
        events = build_events(stream, initial)
        proposed = executed = 0
        by_reason: dict[str, int] = {}
        turnover = max_participation = 0.0
        for ev in events:
            done, skipped = filter_rebalance(ev.proposal, params, assets)
            proposed += len(ev.proposal.trades)
            executed += len(done)
            for _trade, reason in skipped:
                by_reason[reason] = by_reason.get(reason, 0) + 1
            turnover += math.fsum(abs(dw) for _, dw in done)
            for name, dw in done:
                adv = next(a.adv_usd for a in assets if a.id == name)
                max_participation = max(max_participation, params.aum_usd * abs(dw) / adv)
        naive = ReplayStats(events_total=len(events), trades_proposed=proposed,
                            trades_executed=executed, trades_suppressed_by_reason=by_reason,
                            gross_turnover_executed=turnover,
                            max_participation_observed=max_participation)
        assert replay(events, params, initial, assets) == naive
