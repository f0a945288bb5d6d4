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
import gc
import sys
from typing import NoReturn, Sequence

from .cascade import CascadeInput, compute_bounds, filter_rebalance, run_cascade
from .config import RunConfig, load_config
from .io import (
    emit_bounds,
    emit_filter,
    emit_replay,
    emit_report,
    load_candidates,
    load_core_weights,
    load_design,
    load_events,
    load_proposal_trades,
)
from .model import SatelliteDesign, ValidationError
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
    core_help = "normalized core CSV for the exact entropy diagnostic"
    p_design.add_argument("--core-weights", help=core_help)

    p_check = sub.add_parser("check", help="evaluate a supplied sleeve design")
    add_common(p_check)
    p_check.add_argument("--design", required=True, help="design JSON file")
    p_check.add_argument("--core-weights", help=core_help)

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


def _cmd_bounds(args) -> tuple[int, bytes]:
    cfg = load_config(args.config)
    bounds = compute_bounds(cfg.params, _load_universe(cfg, args, required=False))
    return 0, emit_bounds(bounds, args.format)


def _cascade_input(cfg: RunConfig, candidates, design: SatelliteDesign | None,
                   core_path=None) -> CascadeInput:
    core = None if core_path is None else tuple(w for _, w in load_core_weights(core_path))
    return CascadeInput(candidates=tuple(candidates), params=cfg.params, kappa_a=cfg.kappa_a,
                        kappa_c=cfg.kappa_c, theme=cfg.theme, design=design, core_weights=core)


def _cmd_report(args) -> tuple[int, bytes]:
    """``design`` synthesizes a sleeve, ``check`` evaluates ``--design``; both print the report."""
    cfg = load_config(args.config)
    design = load_design(args.design) if args.command == "check" else None
    report, design = run_cascade(_cascade_input(cfg, _load_universe(cfg, args), design,
                                                args.core_weights or cfg.core_weights_path))
    return 0 if report.admissible else 2, emit_report(report, design, args.format)


def _cmd_filter(args) -> tuple[int, bytes]:
    cfg = load_config(args.config)
    assets = _load_universe(cfg, args)
    proposal = load_proposal_trades(args.proposal, args.schedule_due, args.structural_break)
    return 0, emit_filter(*filter_rebalance(proposal, cfg.params, assets), args.format)


def _cmd_replay(args) -> tuple[int, bytes]:
    cfg = load_config(args.config)
    assets = _load_universe(cfg, args)
    events = load_events(args.events)
    if args.design is not None:
        design = load_design(args.design)
    else:  # no core: the report is unused; replay reads the universe the input indexed
        inp = _cascade_input(cfg, assets, None)
        _report, design = run_cascade(inp)
        assets = inp._by_id
    stats = replay(events, cfg.params, design, assets)
    return 0, emit_replay(stats, args.format)


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
    # The engine builds only acyclic data, so the cyclic collector would rescan every
    # loaded row and free nothing it built; the caller's setting is restored on every exit.
    enabled = gc.isenabled()
    gc.disable()
    try:
        code, out = _COMMANDS[args.command](args)
        sys.stdout.buffer.write(out)
        sys.stdout.buffer.flush()
    except (ValidationError, OSError) as e:  # OSError: the write to stdout
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()
    return code


def entry() -> NoReturn:
    """The process entry of ``python -m satfeas.cli`` and the ``satfeas`` script: exit with
    :func:`main`'s code.

    The heap is frozen first, so the interpreter's exit collections skip every object that
    start-up and the command left, which reference counting frees as modules are torn down.
    ``main`` never freezes: an in-process caller keeps a normal heap.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
