"""Command-line surface for the feasibility engine.

Subcommands mirror the operating procedure: ``bounds`` prints the
closed-form design bounds from a config alone, ``design`` synthesizes and
evaluates a sleeve, ``check`` validates a supplied design, and
``filter-rebalance`` / ``replay`` drive the governance-gated trade filter.
Exit codes: 0 success (and admissible for check/design), 2 inadmissible,
1 any error. Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from .cascade import CascadeInput, compute_bounds, filter_rebalance, run_cascade
from .config import RunConfig, load_config
from .io import (
    bounds_lines,
    emit_report,
    json_bytes,
    load_candidates,
    load_core_weights,
    load_events,
    load_proposal_trades,
)
from .model import (
    Portfolio,
    RebalanceProposal,
    SatelliteDesign,
    ValidationError,
    to_json,
)
from .replay import replay


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="satfeas",
                     description="Feasibility gating for thematic satellite sleeves")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--candidates", help="candidate universe CSV "
                                            "(overrides the config path)")
        p.add_argument("--format", choices=("json", "text"), default="text",
                       help="output format (default: text)")

    p_bounds = sub.add_parser("bounds", help="print closed-form design bounds")
    add_common(p_bounds)

    p_design = sub.add_parser("design", help="synthesize a sleeve and evaluate it")
    add_common(p_design)
    p_design.add_argument("--core-weights", help="normalized core CSV for the exact "
                                                 "entropy diagnostic")

    p_check = sub.add_parser("check", help="evaluate a supplied sleeve design")
    add_common(p_check)
    p_check.add_argument("--design", required=True, help="design JSON file")
    p_check.add_argument("--core-weights", help="normalized core CSV for the exact "
                                                "entropy diagnostic")

    p_filter = sub.add_parser("filter-rebalance", help="apply the trade filter to a proposal")
    add_common(p_filter)
    p_filter.add_argument("--proposal", required=True, help="proposal CSV (id,delta_w)")
    p_filter.add_argument("--schedule-due", action="store_true",
                          help="the scheduled rebalance window is open")
    p_filter.add_argument("--structural-break", action="store_true",
                          help="a governance structural break was declared")

    p_replay = sub.add_parser("replay", help="replay a dated event stream")
    add_common(p_replay)
    p_replay.add_argument("--events", required=True,
                          help="event CSV (date,id,delta_w,schedule_due,structural_break)")
    p_replay.add_argument("--design", help="design JSON for the initial sleeve "
                                           "(default: synthesize)")
    p_replay.add_argument("--core-weights", help="normalized core CSV for initial weights")
    return parser


def _load_universe(cfg: RunConfig, args, required: bool = True) -> list | None:
    path = args.candidates or cfg.candidates_path
    if path is None:
        if not required:
            return None
        raise ValidationError("no candidates file given (use --candidates or the "
                              "'candidates' config key)", code="candidates_missing",
                              field="candidates")
    return load_candidates(path)


def _load_core(cfg: RunConfig, args) -> list[tuple[str, float]] | None:
    path = args.core_weights or cfg.core_weights_path
    return None if path is None else load_core_weights(path)


def _emit(data: bytes) -> None:
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    bounds = compute_bounds(cfg.params, _load_universe(cfg, args, required=False))
    if args.format == "json":
        _emit(json_bytes(to_json(bounds)))
    else:
        lines = bounds_lines(bounds)
        if bounds.weight_caps_impact is not None:
            lines.append("")
            lines.append("per-asset impact caps")
            for name in sorted(bounds.weight_caps_impact):
                lines.append(f"{name:<22}{format(bounds.weight_caps_impact[name], '.10g')}")
        _emit(("\n".join(lines) + "\n").encode())
    return 0


def _load_design(path: str) -> SatelliteDesign:
    with open(path, encoding="utf-8") as fh:
        return SatelliteDesign.from_dict(json.load(fh))


def _cascade(cfg: RunConfig, candidates, design: SatelliteDesign | None, core):
    core_weights = tuple(w for _, w in core) if core is not None else None
    return run_cascade(CascadeInput(
        candidates=tuple(candidates), params=cfg.params, kappa_a=cfg.kappa_a,
        kappa_c=cfg.kappa_c, theme=cfg.theme, design=design, core_weights=core_weights))


def _cmd_report(args) -> int:
    """``design`` synthesizes a sleeve, ``check`` evaluates ``--design``; both print the report."""
    cfg = load_config(args.config)
    design = _load_design(args.design) if args.command == "check" else None
    report, design = _cascade(cfg, _load_universe(cfg, args), design, _load_core(cfg, args))
    _emit(emit_report(report, design, args.format))
    return 0 if report.admissible else 2


def _cmd_filter(args) -> int:
    cfg = load_config(args.config)
    assets = _load_universe(cfg, args)
    trades = load_proposal_trades(args.proposal)
    proposal = RebalanceProposal(trades=tuple(trades), schedule_due=args.schedule_due,
                                 structural_break=args.structural_break)
    executed, suppressed = filter_rebalance(proposal, cfg.params, assets)
    if args.format == "json":
        doc = {"executed": [[n, dw] for n, dw in executed],
               "suppressed": [[n, dw, reason] for (n, dw), reason in suppressed]}
        _emit(json_bytes(doc))
    else:
        lines = [f"executed {len(executed)} of {len(proposal.trades)} trades"]
        for name, dw in executed:
            lines.append(f"  execute   {name:<12}{format(dw, '+.10g')}")
        for (name, dw), reason in suppressed:
            lines.append(f"  suppress  {name:<12}{format(dw, '+.10g')}  ({reason})")
        _emit(("\n".join(lines) + "\n").encode())
    return 0


def _cmd_replay(args) -> int:
    cfg = load_config(args.config)
    assets = _load_universe(cfg, args)
    events = load_events(args.events)
    core = _load_core(cfg, args)
    if args.design is not None:
        design = _load_design(args.design)
    else:
        _report, design = _cascade(cfg, assets, None, None)  # no core: the report is unused
    remainder = 1.0 - design.alpha
    if core is not None:
        # the core file may sum to one within a looser tolerance than a
        # Portfolio accepts; scaling by its own sum closes the gap
        scale = remainder / math.fsum(w for _, w in core)
        core_pairs = tuple((name, w * scale) for name, w in core)
    else:
        core_pairs = (("CORE", remainder),) if remainder > 0 else ()
    portfolio = Portfolio(core_weights=core_pairs, satellite=design)
    stats = replay(events, cfg.params, portfolio, assets)
    d = to_json(stats)
    if args.format == "json":
        _emit(json_bytes(d))
    else:
        rows = [(key, str(d[key]))
                for key in ("events_total", "trades_proposed", "trades_executed")]
        rows += [(f"suppressed[{reason}]", str(count))
                 for reason, count in sorted(d["trades_suppressed_by_reason"].items())]
        rows += [(key, format(d[key], ".10g"))
                 for key in ("gross_turnover_executed", "max_participation_observed")]
        width = max(len(label) for label, _ in rows) + 2  # every value in one column
        lines = ["replay statistics", "-----------------"]
        lines += [label.ljust(width) + value for label, value in rows]
        _emit(("\n".join(lines) + "\n").encode())
    return 0


_COMMANDS = {
    "bounds": _cmd_bounds,
    "design": _cmd_report,
    "check": _cmd_report,
    "filter-rebalance": _cmd_filter,
    "replay": _cmd_replay,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
