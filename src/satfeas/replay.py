"""Deterministic replay of dated rebalance proposals through the trade filter.

Replay starts from a satellite design: the sleeve is the whole state, since
no trade decision or statistic depends on the core. Each event runs the
governance-gated filter, and executed trades move the sleeve weights.
There are no price dynamics: weights move only when trades execute.
Replays over the same inputs produce identical statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Iterator, Mapping

from .cascade import _asset_map, _AssetIndex, _members, filter_rebalance
from .model import (
    Asset,
    FeasibilityParams,
    RebalanceProposal,
    SatelliteDesign,
    ValidationError,
    _finite,
    weight_sum,
)


@dataclass(frozen=True)
class RebalanceEvent:
    """One dated rebalance proposal; streams must be strictly date-increasing."""

    date: date
    proposal: RebalanceProposal

    def __post_init__(self):
        if not isinstance(self.date, date):
            raise ValidationError("event date must be a datetime.date",
                                  code="bad_date", field="date")
        if not isinstance(self.proposal, RebalanceProposal):
            raise ValidationError("event proposal must be a RebalanceProposal",
                                  code="bad_proposal", field="proposal")


@dataclass(frozen=True)
class ReplayStats:
    """Aggregate turnover-suppression statistics over an event stream."""

    events_total: int
    trades_proposed: int
    trades_executed: int
    trades_suppressed_by_reason: dict[str, int]
    gross_turnover_executed: float
    max_participation_observed: float

    def __post_init__(self):
        suppressed = sum(self.trades_suppressed_by_reason.values())
        if self.trades_executed + suppressed != self.trades_proposed:
            raise ValidationError(
                "executed plus suppressed trade counts must equal proposed",
                code="stats_inconsistent", field="trades_proposed")
        _finite(self.gross_turnover_executed, "gross_turnover_executed")
        _finite(self.max_participation_observed, "max_participation_observed")


@dataclass(frozen=True)
class ReplayStep:
    """State after one event: what ran, what was suppressed, and the sleeve size."""

    event: RebalanceEvent
    executed: tuple[tuple[str, float], ...]
    suppressed: tuple[tuple[tuple[str, float], str], ...]
    sleeve_alpha: float


#: 1.0 in the fixed point of the exact sleeve sum, whose unit is 2**-1074,
#: the smallest positive float: every finite float is a whole number of units.
_FIXED_ONE = 1 << 1074


def _fixed(x: float) -> int:
    """``x`` as an exact integer count of 2**-1074; raises on inf and nan."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _filtered(events: Iterable[RebalanceEvent], params: FeasibilityParams,
              initial: SatelliteDesign, by_id: _AssetIndex) -> Iterator[tuple]:
    """(event, executed, suppressed) of each event, split by ``filter_rebalance``: the one loop of
    both replays. It checks the design's ids, then each event's date before its trades."""
    _members(initial.constituents, by_id, "design")  # raises on a held id the universe lacks
    previous: date | None = None
    for event in events:
        if previous is not None and event.date <= previous:
            raise ValidationError(
                f"events must be strictly increasing by date ({event.date} after {previous})",
                code="events_out_of_order", field="events")
        previous = event.date
        yield event, *filter_rebalance(event.proposal, params, by_id)


def replay_steps(
    events: Iterable[RebalanceEvent],
    params: FeasibilityParams,
    initial: SatelliteDesign,
    assets: Iterable[Asset] | Mapping[str, Asset],
) -> Iterator[ReplayStep]:
    """Drive the filter event by event from the ``initial`` design, yielding per-event outcomes.

    Every constituent of ``initial`` must be in ``assets``; sleeve weights move with executed
    trades only. Only the steps carry ``sleeve_alpha``, the sleeve sum ``fsum(sleeve)`` kept as
    an exact integer multiple of 2**-1074, updated per executed trade and rounded once per
    event. Both it and ``fsum`` are the correctly rounded exact sum, so the result is the same
    float at a cost linear in the trades rather than in the sleeve size. Where ``fsum`` would
    raise, the sum is an infinity past the float range and ``nan`` for inf - inf.
    """
    sat = dict(initial.constituents)
    exact: int | None = sum(_fixed(w) for w in sat.values())
    for event, executed, suppressed in _filtered(events, params, initial, _asset_map(assets)):
        for name, dw in executed:
            old = sat.get(name, 0.0)
            sat[name] = new = old + dw
            if exact is not None:
                try:
                    exact += _fixed(new) - _fixed(old)
                except (OverflowError, ValueError):
                    exact = None  # a position is no longer finite: it sets the sum from here on
        if exact is None:  # a position is inf or nan: the finite ones cannot move the sum
            sleeve = sum(w for w in sat.values() if not math.isfinite(w))
        else:
            try:
                sleeve = exact / _FIXED_ONE
            except OverflowError:  # past the float range, as in weight_sum
                sleeve = math.inf if exact > 0 else -math.inf
        yield ReplayStep(event=event, executed=tuple(executed),
                         suppressed=tuple(suppressed), sleeve_alpha=sleeve)


def replay(
    events: Iterable[RebalanceEvent],
    params: FeasibilityParams,
    initial: SatelliteDesign,
    assets: Iterable[Asset] | Mapping[str, Asset],
) -> ReplayStats:
    """Aggregate an event stream, any iterable of events read once, into suppression statistics.

    Each event's filter split is folded straight into the counters: no step and no sleeve sum
    is built. One id map serves every filter call, so the cost is linear in the trades replayed.
    """
    by_id = _asset_map(assets)
    asset = by_id.__getitem__  # as in cascade._members
    events_n = proposed = executed_n = 0
    by_reason: dict[str, int] = {}
    turnover = max_participation = 0.0
    for event, executed, suppressed in _filtered(events, params, initial, by_id):
        events_n += 1
        proposed += len(event.proposal.trades)
        executed_n += len(executed)
        for _trade, reason in suppressed:
            by_reason[reason] = by_reason.get(reason, 0) + 1
        turnover += weight_sum(abs(dw) for _, dw in executed)
        for name, dw in executed:
            max_participation = max(max_participation,
                                    params.aum_usd * abs(dw) / asset(name).adv_usd)
    return ReplayStats(events_total=events_n, trades_proposed=proposed, trades_executed=executed_n,
                       trades_suppressed_by_reason=by_reason, gross_turnover_executed=turnover,
                       max_participation_observed=max_participation)
