"""Deterministic replay of dated rebalance proposals through the trade filter.

Replay starts from a satellite design: no trade decision or statistic
depends on the core. Each event runs the governance-gated filter, and its
executed and suppressed trades are counted. There are no price dynamics.
Replays over the same inputs produce identical statistics.
"""

from __future__ import annotations

from datetime import date
from operator import itemgetter
from typing import Iterable

from .cascade import _asset_map, _members, filter_rebalance
from .model import (
    Asset,
    FeasibilityParams,
    RebalanceProposal,
    SatelliteDesign,
    ValidationError,
    _finite,
    _Record,
    weight_sum,
)


_date = date  # the type: RebalanceEvent's ``date`` parameter shadows the name


class RebalanceEvent(_Record):
    """One dated rebalance proposal; streams must be strictly date-increasing."""

    def __init__(self, date: date, proposal: RebalanceProposal) -> None:
        if not isinstance(date, _date):
            raise ValidationError("event date must be a datetime.date",
                                  code="bad_date", field="date")
        if not isinstance(proposal, RebalanceProposal):
            raise ValidationError("event proposal must be a RebalanceProposal",
                                  code="bad_proposal", field="proposal")
        self.__dict__.update(date=date, proposal=proposal)


class ReplayStats(_Record):
    """Aggregate turnover-suppression statistics over an event stream."""

    def __init__(self, events_total: int, trades_proposed: int, trades_executed: int,
                 trades_suppressed_by_reason: dict[str, int], gross_turnover_executed: float,
                 max_participation_observed: float) -> None:
        suppressed = sum(trades_suppressed_by_reason.values())
        if trades_executed + suppressed != trades_proposed:
            raise ValidationError(
                "executed plus suppressed trade counts must equal proposed",
                code="stats_inconsistent", field="trades_proposed")
        _finite(gross_turnover_executed, "gross_turnover_executed")
        _finite(max_participation_observed, "max_participation_observed")
        self.__dict__.update(events_total=events_total, trades_proposed=trades_proposed,
                             trades_executed=trades_executed,
                             trades_suppressed_by_reason=trades_suppressed_by_reason,
                             gross_turnover_executed=gross_turnover_executed,
                             max_participation_observed=max_participation_observed)


def replay(
    events: Iterable[RebalanceEvent],
    params: FeasibilityParams,
    initial: SatelliteDesign,
    assets: Iterable[Asset],
) -> ReplayStats:
    """Aggregate an event stream, any iterable of events read once, into suppression statistics.

    Every constituent of ``initial`` must be in ``assets``: the design's ids are checked once,
    then each event's date before its trades. Each event's filter split is folded straight into
    the counters. One id map serves every filter call, so the cost is linear in the trades
    replayed.
    """
    by_id = _asset_map(assets)
    _members(initial.constituents, by_id, "design")  # raises on a held id the universe lacks
    asset = by_id.__getitem__  # as in cascade._members
    events_n = proposed = executed_n = 0
    by_reason: dict[str, int] = {}
    turnover = max_participation = 0.0
    previous: date | None = None
    for event in events:
        if previous is not None and event.date <= previous:
            raise ValidationError(
                f"events must be strictly increasing by date ({event.date} after {previous})",
                code="events_out_of_order", field="events")
        previous = event.date
        executed, suppressed = filter_rebalance(event.proposal, params, by_id)
        events_n += 1
        proposed += len(event.proposal.trades)
        executed_n += len(executed)
        for _trade, reason in suppressed:
            by_reason[reason] = by_reason.get(reason, 0) + 1
        turnover += weight_sum(map(abs, map(itemgetter(1), executed)))
        for name, dw in executed:
            max_participation = max(max_participation,
                                    params.aum_usd * abs(dw) / asset(name).adv_usd)
    return ReplayStats(events_total=events_n, trades_proposed=proposed, trades_executed=executed_n,
                       trades_suppressed_by_reason=by_reason, gross_turnover_executed=turnover,
                       max_participation_observed=max_participation)
