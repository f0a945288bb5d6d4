"""Files: the one reader of every input, the loaders, and every output format.

No other module opens a file. A failed read is a named ``ValidationError``;
CSV schemas are strict (exact headers, row-numbered errors); each loader
returns the object the engine takes. Every output is stable-key-ordered
JSON that round-trips, or text in which each value starts two columns past
the longest label.
"""

from __future__ import annotations

import csv
import json
from array import array
from contextlib import contextmanager
from datetime import date
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from .model import (
    LAYERS,
    Asset,
    DerivedBounds,
    ExclusionCategory,
    FeasibilityReport,
    RebalanceProposal,
    SatelliteDesign,
    TierClass,
    Unbounded,
    ValidationError,
    _strict_keys,
    check_normalized,
    check_pairs,
    entry_error,
    from_json,
    to_json,
)
from .replay import RebalanceEvent, ReplayStats

CANDIDATE_HEADER = ["id", "tier", "adv_usd", "round_trip_cost_bps",
                    "gaer_admissible", "exclusion"]
PROPOSAL_HEADER = ["id", "delta_w"]
EVENT_HEADER = ["date", "id", "delta_w", "schedule_due", "structural_break"]
CORE_HEADER = ["id", "weight"]


#: What a failed read raises, and so what :func:`_opened` words as ``unreadable_file``.
_READ_ERRORS = (OSError, UnicodeDecodeError, csv.Error, RecursionError)


@contextmanager
def _opened(p: Path, what: str) -> Iterator[TextIO]:
    """Input file ``what`` as UTF-8 text; a missing file or a failed read is a named error."""
    if not p.is_file():
        raise ValidationError(f"{what} file not found: {p}", code="file_missing", field=what)
    try:
        with p.open(newline="", encoding="utf-8") as fh:
            yield fh
    except _READ_ERRORS as e:
        raise ValidationError(f"{what} file {p} cannot be read: {e}", code="unreadable_file",
                              field=what) from None


def read_json(path: str | Path, what: str) -> Any:
    """The JSON document in input file ``what``; malformed JSON is ``bad_json``."""
    p = Path(path)
    with _opened(p, what) as fh:
        text = fh.read()
        try:
            return json.loads(text)
        except ValueError as e:  # malformed, or an integer past the digit limit
            raise ValidationError(f"{what} file {p} is not valid JSON: {e}", code="bad_json",
                                  field=what) from None


def load_design(path: str | Path) -> SatelliteDesign:
    """Read and validate a design JSON file, or the design of a report ``design`` printed."""
    doc = read_json(path, "design")
    if isinstance(doc, dict) and "report" in doc:  # the report document is checked whole
        return parse_report(doc)[1]
    return SatelliteDesign.from_dict(doc)


@contextmanager
def _csv_rows(path: str | Path, header: list[str], what: str) -> Iterator[Iterator[list[str]]]:
    """The CSV reader of input file ``what`` past its header: the one header rule of every CSV
    input. A missing file or a failed read is worded by :func:`_opened`."""
    p = Path(path)
    with _opened(p, what) as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None:
            raise ValidationError(f"{what} file {p} is empty", code="bad_header", field=what)
        if [h.strip() for h in got] != header:
            raise ValidationError(
                f"{what} file {p} must have header {','.join(header)!r}, got {','.join(got)!r}",
                code="bad_header", field=what)
        yield reader


def _cells(line: int, row: list[str], width: int, what: str) -> tuple[str, ...] | None:
    """The stripped cells of data row ``line``, or ``None`` if all are blank: such a row is
    skipped but counted. A nonblank row of another width is ``bad_row``."""
    cells = tuple(map(str.strip, row))
    if not any(cells):
        return None
    if len(cells) != width:
        raise ValidationError(f"{what} row {line} has {len(cells)} fields, expected {width}",
                              code="bad_row", field=what)
    return cells


def _row_error(rows: Iterable[tuple[int, list[str]]], e: ValidationError, what: str, line: int,
               width: int) -> ValidationError:
    """``e`` worded at row ``line`` of file ``what``, once the rest of ``rows`` is read: a
    malformed row or unreadable byte there wins. An entry error, or one naming no field, names
    the file."""
    for later, row in rows:
        _cells(later, row, width, what)
    field = what if e.index is not None or e.field is None else e.field
    return ValidationError(f"{what} row {line}: {e.args[0]}", e.code, field)


def _built(rows: Iterable[tuple[int, list[str]]], what: str, lines: array, width: int,
           build: Callable, *args: Any) -> Any:
    """``build(*args)``: an entry's error is worded at its row, ``lines[e.index]``, once the
    rest of ``rows`` is read; any other error is raised as it is."""
    try:
        return build(*args)
    except ValidationError as e:
        raise (e if e.index is None else _row_error(rows, e, what, lines[e.index], width)) from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{text!r} is not a number", "bad_number") from None


#: The one spelling rule of flag, tier and exclusion cells: each map is keyed in its cells' case.
_BOOLS = {"true": True, "false": False}
_TIERS, _EXCLUSIONS = TierClass._value2member_map_, ExclusionCategory._value2member_map_


def _parse_bool(text: str) -> bool:
    value = _BOOLS.get(text.lower())
    if value is None:
        raise ValidationError(f"expected true or false, got {text!r}", "bad_boolean")
    return value


def _parse_member(values: dict[str, Any], key: str, text: str, name: str, code: str) -> Any:
    """The value that cell ``text`` spells as ``key``, or an error listing every spelling."""
    if key not in values:
        raise ValidationError(f"{name} must be one of {', '.join(values)} (got {text!r})", code,
                              name)
    return values[key]


def load_candidates(path: str | Path) -> list[Asset]:
    """Read the candidate universe CSV in one pass, one validated asset per row.

    An empty ``round_trip_cost_bps`` cell means the sleeve-level cost applies. Each row is
    built by one expression of builtins, which strips only the id and looks the tier, flag and
    exclusion cells up as spelled, in maps of this load. A row that fails it is skipped if
    blank, and else parsed again to word its first error: the id, then cost, tier, ``adv_usd``,
    flag, exclusion. Its raw cells then join the load's maps: each spelling is checked once.
    """
    assets, seen, width = [], set(), len(CANDIDATE_HEADER)
    tiers, bools, exclusions = dict(_TIERS), dict(_BOOLS), dict(_EXCLUSIONS)  # raw spellings
    with _csv_rows(path, CANDIDATE_HEADER, "candidates") as reader:
        rows, strip = enumerate(reader, start=2), str.strip
        for line, row in rows:
            try:
                name, tier, adv, cost, gaer, exclusion = row
                name = strip(name)
                if not name or name in seen:  # worded below, before any cell
                    raise KeyError(name)
                asset = Asset(name, tiers[tier], float(adv), bools[gaer], exclusions[exclusion],
                              float(cost) if cost else None)
            except (KeyError, ValueError):  # a ValidationError is a ValueError
                cells = _cells(line, row, width, "candidates")
                if cells is None:
                    continue
                name, tier, adv, cost, gaer, exclusion = cells
                try:
                    if not name or name in seen:
                        raise entry_error("candidates", 0, name, seen=seen)
                    override = _parse_float(cost) if cost else None
                    tier = _parse_member(_TIERS, tier.upper(), tier, "tier", "bad_tier")
                    asset = Asset(name, tier, _parse_float(adv), _parse_bool(gaer),
                                  _parse_member(_EXCLUSIONS, exclusion.lower(), exclusion,
                                                "exclusion", "bad_exclusion"), override)
                except ValidationError as e:
                    raise _row_error(rows, e, "candidates", line, width) from None
                tiers[row[1]], bools[row[4]] = asset.tier, asset.gaer_admissible
                exclusions[row[5]] = asset.exclusion
            seen.add(name)
            assets.append(asset)
    return assets


def _load_pairs(path: str | Path, header: list[str], what: str, build: Callable) -> Any:
    """``build`` of the (id, number) rows of a CSV, read in one pass: every number is parsed
    before ``build`` checks an id, and any error is worded at its row."""
    width, pairs, lines = len(header), [], array("l")  # row numbers kept for an entry error
    with _csv_rows(path, header, what) as reader:
        rows, strip = enumerate(reader, start=2), str.strip
        for line, row in rows:
            try:
                name, text = row
                pairs.append((strip(name), float(text)))
            except ValueError:
                cells = _cells(line, row, width, what)
                if cells is None:
                    continue
                try:
                    pairs.append((cells[0], _parse_float(cells[1])))
                except ValidationError as e:
                    raise _row_error(rows, e, what, line, width) from None
            lines.append(line)
    return _built((), what, lines, width, build, pairs)


def load_core_weights(path: str | Path) -> tuple[tuple[str, float], ...]:
    """Read a core composition CSV, normalized to sum to one within NORMALIZED_SUM_TOL."""
    return _load_pairs(path, CORE_HEADER, "core_weights", _core_weights)


def _core_weights(pairs: Iterable[tuple[str, float]]) -> tuple[tuple[str, float], ...]:
    """The build of a core file: its checked pairs, whose weights sum to one."""
    core = check_pairs(pairs, "core_weights")
    check_normalized((w for _, w in core), "core_weights")
    return core


def load_proposal_trades(path: str | Path, schedule_due: bool = False,
                         structural_break: bool = False) -> RebalanceProposal:
    """Read a rebalance proposal CSV of per-asset weight changes, with its governance flags."""
    return _load_pairs(path, PROPOSAL_HEADER, "proposal",
                       lambda pairs: RebalanceProposal(pairs, schedule_due, structural_break))


def load_events(path: str | Path) -> list[RebalanceEvent]:
    """Read an event-stream CSV in one pass, one event per run of rows with one date.

    Governance flags must agree within a date; dates must be strictly increasing. A row that
    spells its date as the last checked row did, and its flags so too or as any checked row
    spelled the open date's values, is built by one expression. Any other row is checked in
    place: a new date builds the last date's event, then parses its date and flags, and a row
    of the same date must agree with them.
    """
    events: list[RebalanceEvent] = []
    width, trades, lines = len(EVENT_HEADER), [], array("l")  # trades and rows of the open date
    text, spelled = None, (None, None, None)  # its date; the last checked row's raw date, flags
    bools = dict(_BOOLS)  # each checked raw flag cell's value
    with _csv_rows(path, EVENT_HEADER, "events") as reader:
        rows, strip = enumerate(reader, start=2), str.strip
        for line, row in rows:
            try:
                day_cell, name, dw, due, brk = row
                if day_cell != spelled[0] or (due != spelled[1] or brk != spelled[2]) and (
                        bools.get(due) is not flags[0] or bools.get(brk) is not flags[1]):
                    raise ValueError
                trades.append((strip(name), float(dw)))
            except ValueError:
                cells = _cells(line, row, width, "events")
                if cells is None:
                    continue
                if cells[0] != text and trades:  # its entry error wins over this row's cells
                    events.append(RebalanceEvent(day, _built(
                        rows, "events", lines, width, RebalanceProposal, trades, *flags)))
                    trades, lines = [], array("l")
                day_cell, name, dw, due, brk = cells
                try:
                    if not trades:
                        try:
                            day = date.fromisoformat(day_cell)
                        except ValueError:
                            raise ValidationError(f"bad date {day_cell!r}", "bad_date") from None
                        if events and day <= events[-1].date:
                            raise ValidationError("dates must be strictly increasing",
                                                  "events_out_of_order")
                        flags = _parse_bool(due), _parse_bool(brk)
                    elif _parse_bool(due) != flags[0] or _parse_bool(brk) != flags[1]:
                        raise ValidationError(f"governance flags differ within date {text}",
                                              "inconsistent_flags")
                    trades.append((name, _parse_float(dw)))
                except ValidationError as e:
                    raise _row_error(rows, e, "events", line, width) from None
                text, spelled = day_cell, (row[0], row[3], row[4])
                bools[row[3]], bools[row[4]] = flags
            lines.append(line)
        if trades:
            events.append(RebalanceEvent(day, _built(
                rows, "events", lines, width, RebalanceProposal, trades, *flags)))
    return events


_SCALARS = {str, int, float, bool, type(None)}  # exact types: a subclass is walked


def _indented(value: Any, pad: str) -> str:
    """``value`` (dataclasses by to_json) as ``json_bytes`` words it at indent ``pad``: each
    container of scalars, or list of nonempty rows of scalars, is one C encoder call."""
    value = to_json(value)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner, is_dict = pad + "  ", isinstance(value, dict)
    if {*map(type, value.values() if is_dict else value)} <= _SCALARS:
        text = json.dumps(value, sort_keys=True, separators=(",\n" + inner, ": "))
    elif is_dict:
        text = "{" + (",\n" + inner).join(f"{encode_basestring_ascii(key)}: {_indented(v, inner)}"
                                          for key, v in sorted(value.items())) + "}"
    elif ({*map(type, value)} <= {list, tuple} and all(value)
          and {*map(type, chain.from_iterable(value))} <= _SCALARS):
        row = inner + "  "  # a raw newline is a separator, so "],\n" + row + "[" ends a row
        text = "[[\n" + row + json.dumps(value, separators=(",\n" + row, ": "))[2:-2].replace(
            "],\n" + row + "[", f"\n{inner}],\n{inner}[\n{row}") + "\n" + inner + "]]"
    else:
        text = "[" + (",\n" + inner).join(_indented(m, inner) for m in value) + "]"
    return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"


def json_bytes(doc: Any) -> bytes:
    """``doc`` as stable-key-ordered, indented JSON ending in a newline (dataclasses by to_json).

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2, default=to_json)``
    (mapping keys are strings), but mostly from the C encoder, which ``indent`` turns off:
    an encoded string never holds a raw newline, so a newline only comes from a separator.
    """
    return (_indented(doc, "") + "\n").encode("utf-8")


def _render(fmt: str, doc: Any, text: Callable[[], list[str]]) -> bytes:
    """The one output switch: ``doc`` as JSON, or the ``text`` lines, any lone surrogate escaped."""
    if fmt == "json":
        return json_bytes(doc)
    if fmt == "text":
        return ("\n".join(text()) + "\n").encode("utf-8", "backslashreplace")
    raise ValidationError(f"unknown report format {fmt!r}", code="bad_format", field="format")


def emit_report(report: FeasibilityReport, design: SatelliteDesign,
                fmt: str = "text") -> bytes:
    """Render a report plus its design as stable JSON or a fixed-width table."""
    return _render(fmt, {"design": to_json(design), "report": to_json(report)},
                   lambda: _report_lines(report, design))


def emit_bounds(bounds: DerivedBounds, fmt: str = "text") -> bytes:
    """Render the closed-form bounds, with any per-asset weight caps."""
    return _render(fmt, to_json(bounds), lambda: _bounds_lines(bounds))


def emit_filter(executed: Sequence[tuple[str, float]],
                suppressed: Sequence[tuple[tuple[str, float], str]], fmt: str = "text") -> bytes:
    """Render a filtered proposal: the executed trades, then the suppressed ones with reasons."""
    def text() -> list[str]:
        names = [name for name, _ in executed] + [name for (name, _), _ in suppressed]
        width = max([12, *(len(name) + 1 for name in names)])
        lines = [f"executed {len(executed)} of {len(names)} trades"]
        lines += [f"  execute   {name.ljust(width)}{dw:+.10g}" for name, dw in executed]
        lines += [f"  suppress  {name.ljust(width)}{dw:+.10g}  ({reason})"
                  for (name, dw), reason in suppressed]
        return lines

    return _render(fmt, {"executed": executed,  # pairs encode as JSON arrays as they are
                         "suppressed": [[n, dw, reason] for (n, dw), reason in suppressed]}, text)


def emit_replay(stats: ReplayStats, fmt: str = "text") -> bytes:
    """Render replay statistics, suppression reasons in sorted order."""
    def text() -> list[str]:
        rows = [(key, str(getattr(stats, key)))
                for key in ("events_total", "trades_proposed", "trades_executed")]
        rows += [(f"suppressed[{reason}]", str(count))
                 for reason, count in sorted(stats.trades_suppressed_by_reason.items())]
        rows += [(key, format(getattr(stats, key), ".10g"))
                 for key in ("gross_turnover_executed", "max_participation_observed")]
        width = _label_width(label for label, _ in rows)
        return ["replay statistics", "-----------------",
                *(label.ljust(width) + value for label, value in rows)]

    return _render(fmt, to_json(stats), text)


def parse_report(data: Any) -> tuple[FeasibilityReport, SatelliteDesign]:
    """Inverse of :func:`emit_report` for JSON (text, or its decoded document); a malformed
    shape raises ValidationError."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    doc = _strict_keys(json.loads(data) if isinstance(data, str) else data, {"design", "report"},
                       "report document")
    return (from_json(FeasibilityReport, doc["report"], "report"),
            SatelliteDesign.from_dict(doc["design"]))


def _cell(value: Any) -> str:
    if isinstance(value, float):  # first: a caps table holds two floats per asset
        return format(value, ".10g")
    if value is None:
        return "-"
    if isinstance(value, Unbounded):
        return "unbounded"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _label_width(labels: Iterable[str]) -> int:
    """The column rule of label/value text: each value starts two columns past the longest label."""
    return max(map(len, labels)) + 2


def _table(headers: list[str], columns: list[Sequence[str]]) -> list[str]:
    """The lines of a fixed-width table of ``columns``: each as wide as its longest cell or its
    header, two spaces apart, each line right-stripped. A cell is a format argument, never
    part of the format, so a brace in an id prints as it is."""
    widths = [max([len(h), *map(len, column)]) for h, column in zip(headers, columns)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return [fmt.format(*headers).rstrip(), "  ".join("-" * w for w in widths),
            *map(str.rstrip, map(fmt.format, *columns))]


_BOUND_KEYS = ("alpha_max_structural", "alpha_effective", "delta_w_min", "k_max_econ",
               "k_max_entropy")


def _bounds_lines(b: DerivedBounds) -> list[str]:
    """The titled text block of the closed-form bounds, then any per-asset weight caps table."""
    width = _label_width(_BOUND_KEYS)
    lines = ["derived bounds", "--------------",
             *(key.ljust(width) + _cell(getattr(b, key)) for key in _BOUND_KEYS)]
    caps = b.weight_caps_impact
    if caps is not None:
        names = sorted(caps)
        parts = b.weight_caps_participation or {}
        lines += ["", "per-asset weight caps", "---------------------"]
        lines += _table(["id", "impact", "participation"],
                        [names, [*map(_cell, map(caps.__getitem__, names))],
                         [*map(_cell, map(parts.get, names))]])
    return lines


def _report_lines(report: FeasibilityReport, design: SatelliteDesign) -> list[str]:
    head = [("theme:", design.theme), ("admissible:", _cell(report.admissible)),
            ("binding layer:", report.binding_layer)]
    width = _label_width(label for label, _ in head)
    lines = ["satellite feasibility report", "============================",
             *(label.ljust(width) + value for label, value in head), ""]
    rows = [(name, "pass" if v.passed else "FAIL", _cell(v.margin), _cell(v.normalized_margin),
             _cell(v.bound), _cell(v.usage), v.detail or "-")
            for name, v in zip(LAYERS, map(report.layer_verdicts.__getitem__, LAYERS))]
    lines += _table(["layer", "verdict", "margin", "normalized", "bound", "usage", "detail"],
                    [*zip(*rows)])

    lines += ["", *_bounds_lines(report.derived_bounds), "", "design",
              "------",
              f"alpha: {_cell(design.alpha)}  kappa_a: {_cell(design.kappa_a)}  "
              f"kappa_c: {_cell(design.kappa_c)}"]
    if design.constituents:
        names, weights = zip(*design.constituents)
        lines += _table(["id", "weight"], [names, [*map(_cell, weights)]])
    else:
        lines.append("(empty sleeve)")

    if report.notes:
        lines += ["", "notes", "-----"]
        lines += [f"- {note}" for note in report.notes]
    return lines
