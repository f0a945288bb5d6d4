"""Seeded inputs and invocation plans for the benchmark workloads.

Each workload writes its input files (CSV and JSON only) into a work
directory, asserts the input mix it promises, computes the trade outcomes
the CLI must reproduce, and returns a :class:`Plan`: the invocations to run
once before timing and the invocations that make up one timed round.

Every workload runs all five subcommands, so every end-to-end metric is
measured on every workload; what differs is the input each one stresses.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Callable

import checks

FIXTURES = Path("fixtures")
GOLDEN = Path("tests") / "golden"

#: Input sizes of the timed workloads; the self-test passes smaller ones.
SIZES = {
    "fixtures": {"core": 50},
    "universe": {"candidates": 50_000, "design": 10_000, "core": 50_000,
                 "proposal": 1_000, "dates": 200, "per_date": 5},
    "trades": {"candidates": 10_000, "design": 10, "core": 10_000, "proposal": 10_000,
               "dates": 5_000, "per_date": 25},
}

#: Policy config shared by the generated workloads. The economic threshold
#: (min_effect_bps / round_trip_cost_bps = 0.002) and per-asset overrides of
#: at least the sleeve cost keep every synthesized 14-name design admissible
#: whatever the tier mix, so each invocation's exit code is known in advance.
GENERATED_CONFIG = {
    "aum_usd": 100000,
    "turnover_fraction": 0.5,
    "theme": "bench",
    "impact": {"c": 0.1, "delta": 0.5, "impact_cap": 0.01, "participation_cap": 0.02},
    "econ": {"round_trip_cost_bps": 25, "min_effect_bps": 0.05},
    "structural": {"loss_tolerance": 0.05, "max_drawdown": 0.5,
                   "alpha_policy_min": 0.10, "alpha_policy_max": 0.15},
    "entropy": {"delta_h_max": 0.5},
    "tilts": {"kappa_a": 1.5, "kappa_c": 0.5},
}
ALPHA = 0.1  # alpha_effective of GENERATED_CONFIG

#: Stated input mix: (expected share, absolute tolerance at full size).
UNIVERSE_MIX = {"eligible": (0.81, 0.02), "override": (0.20, 0.02)}
TRADE_MIX = {
    "dense": {"executed": (0.535, 0.03), "below_action_resolution": (0.29, 0.03),
              "impact_cap": (0.17, 0.03)},
    "events": {"governance_gate": (0.40, 0.03), "executed": (0.32, 0.03),
               "below_action_resolution": (0.175, 0.03), "impact_cap": (0.10, 0.03)},
}

EXCLUSIONS = ("pure_play_early_stage", "small_cap_specialist",
              "regime_opaque_jurisdiction", "thematic_etf")


@dataclass
class Invocation:
    """One CLI call: its arguments, the exit code it must return and its checks."""

    key: str
    command: str
    argv: list[str]
    expect_code: int
    rows: int
    checks: list[Callable[[bytes], None]] = field(default_factory=list)
    after: Callable[[bytes], None] | None = None


@dataclass
class Plan:
    prepare: list[Invocation]
    round: list[Invocation]


def build(name: str, seed: int, work: Path, sizes: dict | None = None) -> Plan:
    sizes = sizes or SIZES[name]
    rng = random.Random(f"satfeas-bench/{name}/{seed}")
    if name == "fixtures":
        return _fixtures(rng, work, sizes)
    if name == "universe":
        # parsing, cap computation and report emission dominate; check
        # validates 1e4 names (exit 2: far beyond the breadth bounds)
        return _generated(rng, work, sizes, name, adv=(1e6, 1e9), check_code=2,
                          design_formats=("json", "text"))
    # the trade filter and replay dominate; trade sizes straddle dw_min and
    # the impact cap of these ADVs
    return _generated(rng, work, sizes, name, adv=(1e5, 1e7), check_code=0,
                      design_formats=("json",), trade_mix=TRADE_MIX)


# --- file writers -----------------------------------------------------------

def _write_csv(path: Path, header: list[str], rows) -> int:
    n = 0
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
            n += 1
    return n


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def _count_rows(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _core(rng: random.Random, path: Path, n: int) -> int:
    raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = math.fsum(raw)
    return _write_csv(path, ["id", "weight"],
                      ((f"K{i:06d}", repr(w / total)) for i, w in enumerate(raw)))


def _universe_rows(rng: random.Random, n: int, adv_lo: float, adv_hi: float) -> list[list]:
    rows = []
    for i in range(n):
        gaer = rng.random() >= 0.10
        exclusion = rng.choice(EXCLUSIONS) if rng.random() < 0.10 else "none"
        override = repr(round(rng.uniform(25.0, 100.0), 3)) if rng.random() < 0.20 else ""
        rows.append([f"U{i:06d}", rng.choice("ABC"), repr(_log_uniform(rng, adv_lo, adv_hi)),
                     override, "true" if gaer else "false", exclusion])
    n_eligible = sum(1 for r in rows if r[4] == "true" and r[5] == "none")
    _assert_share("eligible", n_eligible, n, *UNIVERSE_MIX["eligible"])
    _assert_share("override", sum(1 for r in rows if r[3]), n, *UNIVERSE_MIX["override"])
    return rows


def _assert_share(what: str, count: int, n: int, expected: float, tol: float) -> None:
    """Fail before timing if the generated mix misses its stated share.

    The allowance widens by five binomial standard deviations so that small
    self-test inputs pass while a wrong generator still fails at full size.
    """
    share = count / n
    allowance = tol + 5 * math.sqrt(expected * (1 - expected) / n)
    if abs(share - expected) > allowance:
        raise AssertionError(f"input mix: {what} share {share:.4f} is not within "
                             f"{allowance:.4f} of {expected}")


def _design(ids: list[str], theme: str) -> dict:
    w = ALPHA / len(ids)
    return {"theme": theme, "alpha": ALPHA, "constituents": [[i, w] for i in ids],
            "kappa_a": 1.5, "kappa_c": 0.5}


def _trade_size(rng: random.Random) -> float:
    return rng.choice((1.0, -1.0)) * _log_uniform(rng, 2e-4, 0.3)


# --- expected trade outcomes ------------------------------------------------

@dataclass
class Outcome:
    proposed: int = 0
    executed: int = 0
    by_reason: dict = field(default_factory=dict)

    def add(self, executed, suppressed) -> None:
        self.proposed += len(executed) + len(suppressed)
        self.executed += len(executed)
        for _trade, reason in suppressed:
            self.by_reason[reason] = self.by_reason.get(reason, 0) + 1


def _filter_outcome(params, by_id, events) -> Outcome:
    """Run the library's trade filter on each (trades, flags) event."""
    from satfeas import RebalanceProposal, filter_rebalance

    out = Outcome()
    for trades, schedule_due, structural_break in events:
        proposal = RebalanceProposal(trades=tuple(trades), schedule_due=schedule_due,
                                     structural_break=structural_break)
        out.add(*filter_rebalance(proposal, params, [by_id[n] for n, _ in trades]))
    return out


def _assert_mix(what: str, outcome: Outcome, mix: dict) -> None:
    for key, (expected, tol) in mix.items():
        count = outcome.executed if key == "executed" else outcome.by_reason.get(key, 0)
        _assert_share(f"{what} {key}", count, outcome.proposed, expected, tol)


def _read_events(path: Path) -> list:
    events: dict[str, tuple[list, bool, bool]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            trades, _, _ = events.setdefault(
                row["date"], ([], row["schedule_due"] == "true",
                              row["structural_break"] == "true"))
            trades.append((row["id"], float(row["delta_w"])))
    return list(events.values())


def _read_proposal(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return [(r["id"], float(r["delta_w"])) for r in csv.DictReader(fh)]


def _library_inputs(config: Path, candidates: Path):
    from satfeas import load_config
    from satfeas.io import load_candidates

    return load_config(config).params, {a.id: a for a in load_candidates(candidates)}


# --- invocation builders ----------------------------------------------------

def _common(config: Path, candidates: Path, fmt: str) -> list[str]:
    return ["--config", str(config), "--candidates", str(candidates), "--format", fmt]


def _bounds(tag, config, candidates, fmt, n_candidates) -> Invocation:
    chk = (checks.bounds_json(n_candidates) if fmt == "json" else checks.bounds_text())
    return Invocation(f"{tag}/bounds/{fmt}", "bounds",
                      ["bounds", *_common(config, candidates, fmt)], 0, n_candidates, [chk])


def _report(tag, command, config, candidates, fmt, code, rows, extra=(),
            golden: Path | None = None) -> Invocation:
    argv = [command, *_common(config, candidates, fmt), *extra]
    if fmt == "json":
        chks = [checks.report_json(admissible=code == 0), checks.report_round_trip]
    else:
        chks = [checks.report_text(admissible=code == 0)]
    if golden is not None:
        chks.insert(0, checks.golden(golden))
    return Invocation(f"{tag}/{command}/{fmt}{'/core' if extra else ''}", command, argv,
                      code, rows, chks)


def _filter(tag, config, candidates, proposal, fmt, flags, expected, rows) -> Invocation:
    argv = ["filter-rebalance", *_common(config, candidates, fmt), "--proposal",
            str(proposal), *flags]
    chk = checks.filter_json(expected) if fmt == "json" else checks.filter_text(expected)
    label = "open" if flags else "closed"
    return Invocation(f"{tag}/filter/{fmt}/{label}", "filter-rebalance", argv, 0, rows, [chk])


def _replay(tag, config, candidates, events, fmt, expected, rows, extra=()) -> Invocation:
    argv = ["replay", *_common(config, candidates, fmt), "--events", str(events), *extra]
    chk = checks.replay_json(expected) if fmt == "json" else checks.replay_text(expected)
    return Invocation(f"{tag}/replay/{fmt}", "replay", argv, 0, rows, [chk])


# --- workloads --------------------------------------------------------------

def _fixtures(rng: random.Random, work: Path, sizes: dict) -> Plan:
    """The shipped AI and defense fixtures; the seed draws a small core and
    the order of invocations in each round."""
    core = work / "fixture_core.csv"
    n_core = _core(rng, core, sizes["core"])
    prepare, rnd = [], []
    for theme in ("ai", "defense"):
        config = FIXTURES / f"{theme}_config.json"
        candidates = FIXTURES / f"{theme}_candidates.csv"
        n_cand = _count_rows(candidates)
        design_file = work / f"{theme}_design.json"

        def extract(out: bytes, path=design_file) -> None:
            path.write_text(json.dumps(json.loads(out)["design"]) + "\n", encoding="utf-8")

        extractor = _report(theme, "design", config, candidates, "json", 0, n_cand,
                            golden=GOLDEN / f"{theme}_report.json")
        extractor.key += "/prepare"
        extractor.after = extract
        prepare.append(extractor)
        for fmt, suffix in (("json", "json"), ("text", "txt")):
            rnd.append(_bounds(theme, config, candidates, fmt, n_cand))
            rnd.append(_report(theme, "design", config, candidates, fmt, 0, n_cand,
                               golden=GOLDEN / f"{theme}_report.{suffix}"))
            rnd.append(_report(theme, "check", config, candidates, fmt, 0, n_cand + n_core,
                               extra=("--design", str(design_file),
                                      "--core-weights", str(core))))

    config = FIXTURES / "ai_config.json"
    candidates = FIXTURES / "ai_candidates.csv"
    n_cand = _count_rows(candidates)
    params, by_id = _library_inputs(config, candidates)
    proposal = FIXTURES / "ai_proposal.csv"
    trades = _read_proposal(proposal)
    events = FIXTURES / "ai_events.csv"
    event_groups = _read_events(events)
    replayed = _filter_outcome(params, by_id, event_groups)
    for fmt in ("json", "text"):
        for flags, due in (((), False), (("--schedule-due",), True)):
            expected = _filter_outcome(params, by_id, [(trades, due, False)])
            rnd.append(_filter("ai", config, candidates, proposal, fmt, flags, expected,
                               n_cand + len(trades)))
        rnd.append(_replay("ai", config, candidates, events, fmt, replayed,
                           n_cand + replayed.proposed))
    return Plan(prepare, rnd)


def _generated(rng: random.Random, work: Path, sizes: dict, tag: str,
               adv: tuple[float, float], check_code: int, design_formats: tuple[str, ...],
               trade_mix: dict | None = None) -> Plan:
    """A seeded universe run through all five subcommands.

    ``check`` validates a supplied equal-weight design of eligible names
    against a seeded core; ``replay`` starts from the same design, so it
    skips the cascade.
    """
    n = sizes["candidates"]
    rows = _universe_rows(rng, n, *adv)
    config, candidates = work / "config.json", work / "candidates.csv"
    _write_json(config, GENERATED_CONFIG)
    _write_csv(candidates, ["id", "tier", "adv_usd", "round_trip_cost_bps",
                            "gaer_admissible", "exclusion"], rows)
    ids = [r[0] for r in rows]
    eligible = [r[0] for r in rows if r[4] == "true" and r[5] == "none"]
    chosen = set(rng.sample(eligible, sizes["design"]))
    design = work / "design.json"
    _write_json(design, _design([i for i in eligible if i in chosen], f"bench-{tag}"))
    core = work / "core.csv"
    n_core = _core(rng, core, sizes["core"])

    proposal = work / "proposal.csv"
    trades = [(i, _trade_size(rng)) for i in rng.sample(ids, sizes["proposal"])]
    _write_csv(proposal, ["id", "delta_w"], ((i, repr(dw)) for i, dw in trades))
    events = work / "events.csv"
    groups = _event_groups(rng, ids, sizes["dates"], sizes["per_date"])
    _write_events(events, groups)

    params, by_id = _library_inputs(config, candidates)
    filtered = _filter_outcome(params, by_id, [(trades, True, False)])
    replayed = _filter_outcome(params, by_id, groups)
    if trade_mix is not None:
        _assert_mix("dense proposal", filtered, trade_mix["dense"])
        _assert_mix("event stream", replayed, trade_mix["events"])
    return Plan([], [
        _bounds(tag, config, candidates, "json", n),
        *(_report(tag, "design", config, candidates, fmt, 0, n) for fmt in design_formats),
        _report(tag, "check", config, candidates, "json", check_code, n + n_core,
                extra=("--design", str(design), "--core-weights", str(core))),
        _filter(tag, config, candidates, proposal, "json", ("--schedule-due",),
                filtered, n + len(trades)),
        _replay(tag, config, candidates, events, "json", replayed,
                n + replayed.proposed, extra=("--design", str(design))),
    ])


def _event_groups(rng: random.Random, ids: list[str], n_dates: int, per_date: int) -> list:
    """Dated proposals; 40% of dates have a closed window, the rest open by
    schedule (mostly) or by a declared structural break."""
    groups = []
    for _ in range(n_dates):
        trades = [(i, _trade_size(rng)) for i in rng.sample(ids, per_date)]
        if rng.random() < 0.40:
            groups.append((trades, False, False))
        elif rng.random() < 0.9:
            groups.append((trades, True, False))
        else:
            groups.append((trades, False, True))
    return groups


def _write_events(path: Path, groups: list) -> None:
    start = date(2000, 1, 3)

    def rows():
        for k, (trades, due, brk) in enumerate(groups):
            day = (start + timedelta(days=k)).isoformat()
            for i, dw in trades:
                yield day, i, repr(dw), "true" if due else "false", "true" if brk else "false"

    _write_csv(path, ["date", "id", "delta_w", "schedule_due", "structural_break"], rows())
