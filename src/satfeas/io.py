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
from itertools import chain, groupby
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


@contextmanager
def _opened(p: Path, what: str) -> Iterator[TextIO]:
    """Input file ``what`` as UTF-8 text; a missing file or a failed read is a named error."""
    if not p.is_file():
        raise ValidationError(f"{what} file not found: {p}", code="file_missing", field=what)
    try:
        with p.open(newline="", encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error, RecursionError) as e:
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


def _read_rows(path: str | Path, header: list[str],
               what: str) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Each nonblank data row as ``(row number, stripped cells)``, as the file is read.

    The header is checked before the first row is yielded, and each row's
    field count as it is read. A loader that fails on a row words its error
    by :func:`_row_error`, which reads the rest first, so a later malformed
    row or unreadable byte is still reported ahead of a bad value.
    """
    p = Path(path)
    width = len(header)
    with _opened(p, what) as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None:
            raise ValidationError(f"{what} file {p} is empty", code="bad_header", field=what)
        if [h.strip() for h in got] != header:
            raise ValidationError(
                f"{what} file {p} must have header {','.join(header)!r}, got {','.join(got)!r}",
                code="bad_header", field=what)
        strip = str.strip
        for lineno, row in enumerate(reader, start=2):
            cells = tuple(map(strip, row))
            if not any(cells):
                continue
            if len(cells) != width:
                raise ValidationError(f"{what} row {lineno} has {len(cells)} fields, "
                                      f"expected {width}", code="bad_row", field=what)
            yield lineno, cells


def _row_error(rows: Iterator, e: ValidationError, what: str, line: int) -> ValidationError:
    """``e`` worded at row ``line`` of file ``what``, once the rest of ``rows`` is read: a
    malformed row or unreadable byte there wins. An entry error, or one naming no field, names
    the file."""
    for _ in rows:
        pass
    field = what if e.index is not None or e.field is None else e.field
    return ValidationError(f"{what} row {line}: {e.args[0]}", e.code, field)


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
    """Read the candidate universe CSV, one validated asset per row.

    An empty ``round_trip_cost_bps`` cell means the sleeve-level cost
    applies. Errors carry the offending row number.
    """
    assets: list[Asset] = []
    seen: set[str] = set()
    rows = _read_rows(path, CANDIDATE_HEADER, "candidates")
    for line, (name, tier, adv, cost, gaer, exclusion) in rows:
        try:
            if not name or name in seen:  # the id comes first, before any cell is parsed
                raise entry_error("candidates", 0, name, seen=seen)
            seen.add(name)
            try:  # each cell parsed once; no message is built unless a check fails
                asset = Asset(name, _TIERS[tier.upper()], float(adv), _BOOLS[gaer.lower()],
                              _EXCLUSIONS[exclusion.lower()], float(cost) if cost else None)
            except (KeyError, ValueError):  # parse the row again, in order, to name its error
                override = _parse_float(cost) if cost else None
                asset = Asset(name, _parse_member(_TIERS, tier.upper(), tier, "tier", "bad_tier"),
                              _parse_float(adv), _parse_bool(gaer),
                              _parse_member(_EXCLUSIONS, exclusion.lower(), exclusion,
                                            "exclusion", "bad_exclusion"), override)
        except ValidationError as e:
            raise _row_error(rows, e, "candidates", line) from None
        assets.append(asset)
    return assets


def _load_pairs(path: str | Path, header: list[str], what: str, build: Callable) -> Any:
    """``build`` of the (id, number) rows of a CSV, each number parsed before ``build`` checks
    an id; errors at their row."""
    rows = _read_rows(path, header, what)
    pairs, lines = [], array("l")  # row numbers unboxed: kept only to word an entry error
    for line, (name, text) in rows:
        try:
            pairs.append((name, _parse_float(text)))
        except ValidationError as e:
            raise _row_error(rows, e, what, line) from None
        lines.append(line)
    try:
        return build(pairs)
    except ValidationError as e:  # an entry's error at its row; any other as it is
        raise (e if e.index is None else _row_error(rows, e, what, lines[e.index])) from None


def load_core_weights(path: str | Path) -> tuple[tuple[str, float], ...]:
    """Read a core composition CSV, normalized to sum to one within NORMALIZED_SUM_TOL."""
    core = _load_pairs(path, CORE_HEADER, "core_weights",
                       lambda pairs: check_pairs(pairs, "core_weights"))
    check_normalized((w for _, w in core), "core_weights")
    return core


def load_proposal_trades(path: str | Path, schedule_due: bool = False,
                         structural_break: bool = False) -> RebalanceProposal:
    """Read a rebalance proposal CSV of per-asset weight changes, with its governance flags."""
    return _load_pairs(path, PROPOSAL_HEADER, "proposal",
                       lambda pairs: RebalanceProposal(pairs, schedule_due, structural_break))


def load_events(path: str | Path) -> list[RebalanceEvent]:
    """Read an event-stream CSV in one pass, one event per run of rows with one date.

    Governance flags must agree within a date; dates must be strictly
    increasing. Rows are grouped as they are read, never copied; each cell
    is parsed once, and a date's trades are checked once, by its
    ``RebalanceProposal``.
    """
    events: list[RebalanceEvent] = []
    rows = _read_rows(path, EVENT_HEADER, "events")
    for day_text, group in groupby(rows, key=lambda row: row[1][0]):
        trades, lines = [], []
        for line, (_, name, dw, due, brk) in group:
            try:
                if not lines:  # the date's first row sets its date and flags
                    try:
                        day = date.fromisoformat(day_text)
                    except ValueError:
                        raise ValidationError(f"bad date {day_text!r}", "bad_date") from None
                    if events and day <= events[-1].date:
                        raise ValidationError("dates must be strictly increasing",
                                              "events_out_of_order")
                    flags = (due, brk)
                    schedule_due, structural_break = _parse_bool(due), _parse_bool(brk)
                elif (due, brk) != flags and (_parse_bool(due) != schedule_due
                                              or _parse_bool(brk) != structural_break):
                    raise ValidationError(f"governance flags differ within date {day_text}",
                                          "inconsistent_flags")
                try:
                    trades.append((name, float(dw)))
                except ValueError:
                    _parse_float(dw)  # words the error
            except ValidationError as e:
                raise _row_error(rows, e, "events", line) from None
            lines.append(line)
        try:
            proposal = RebalanceProposal(trades, schedule_due, structural_break)
        except ValidationError as e:  # as in _load_pairs
            raise (e if e.index is None
                   else _row_error(rows, e, "events", lines[e.index])) from None
        events.append(RebalanceEvent(day, proposal))
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
    if value is None:
        return "-"
    if isinstance(value, Unbounded):
        return "unbounded"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _label_width(labels: Iterable[str]) -> int:
    """The column rule of label/value text: each value starts two columns past the longest label."""
    return max(map(len, labels)) + 2


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


_BOUND_KEYS = ("alpha_max_structural", "alpha_effective", "delta_w_min", "k_max_econ",
               "k_max_entropy")


def _bounds_lines(b: DerivedBounds) -> list[str]:
    """The titled text block of the closed-form bounds, then any per-asset weight caps table."""
    width = _label_width(_BOUND_KEYS)
    lines = ["derived bounds", "--------------",
             *(key.ljust(width) + _cell(getattr(b, key)) for key in _BOUND_KEYS)]
    if b.weight_caps_impact is not None:
        parts = b.weight_caps_participation or {}
        cap_rows = [[name, _cell(cap), _cell(parts.get(name))]
                    for name, cap in sorted(b.weight_caps_impact.items())]
        lines += ["", "per-asset weight caps", "---------------------"]
        lines += _table(["id", "impact", "participation"], cap_rows)
    return lines


def _report_lines(report: FeasibilityReport, design: SatelliteDesign) -> list[str]:
    head = [("theme:", design.theme), ("admissible:", _cell(report.admissible)),
            ("binding layer:", report.binding_layer)]
    width = _label_width(label for label, _ in head)
    lines = ["satellite feasibility report", "============================",
             *(label.ljust(width) + value for label, value in head), ""]
    rows = []
    for name in LAYERS:
        v = report.layer_verdicts[name]
        rows.append([name, "pass" if v.passed else "FAIL", _cell(v.margin),
                     _cell(v.normalized_margin), _cell(v.bound), _cell(v.usage),
                     v.detail or "-"])
    lines += _table(["layer", "verdict", "margin", "normalized", "bound", "usage", "detail"],
                    rows)

    lines += ["", *_bounds_lines(report.derived_bounds), "", "design",
              "------",
              f"alpha: {_cell(design.alpha)}  kappa_a: {_cell(design.kappa_a)}  "
              f"kappa_c: {_cell(design.kappa_c)}"]
    if design.constituents:
        lines += _table(["id", "weight"],
                        [[name, _cell(w)] for name, w in design.constituents])
    else:
        lines.append("(empty sleeve)")

    if report.notes:
        lines += ["", "notes", "-----"]
        lines += [f"- {note}" for note in report.notes]
    return lines
