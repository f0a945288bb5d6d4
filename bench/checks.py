"""Output checks applied to every benchmark invocation.

Each check takes the invocation's stdout bytes and raises
:class:`CheckFailed` when the output is wrong. The runner adds two checks of
its own: the exit code must equal the recorded one, and stdout must be
byte-identical every time the same invocation repeats within a run.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import Counter
from pathlib import Path


class CheckFailed(Exception):
    """An output did not meet its check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _reject_constant(token: str):
    raise CheckFailed(f"JSON holds the non-finite number {token}")


def strict_json(out: bytes):
    """Parse stdout as UTF-8 JSON, refusing NaN and Infinity."""
    try:
        return json.loads(out.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckFailed(f"stdout is not strict JSON: {e}") from None


def golden(path: Path):
    def check(out: bytes) -> None:
        _require(out == path.read_bytes(), f"output differs from {path}")
    return check


def report_json(admissible: bool):
    def check(out: bytes) -> None:
        doc = strict_json(out)
        _require(set(doc) == {"design", "report"}, "report JSON lacks design/report")
        _require(doc["report"]["admissible"] is admissible,
                 f"report admissible is not {admissible}")
    return check


def report_round_trip(out: bytes) -> None:
    """The JSON report must re-emit byte for byte through parse_report."""
    from satfeas.io import emit_report, parse_report

    try:
        report, design = parse_report(out)
    except (ValueError, KeyError, TypeError) as e:
        raise CheckFailed(f"parse_report rejects the report: {e}") from None
    _require(emit_report(report, design, "json") == out,
             "report does not round-trip through parse_report")


def report_text(admissible: bool):
    def check(out: bytes) -> None:
        lines = out.decode("utf-8").splitlines()
        _require(lines[:1] == ["satellite feasibility report"], "text report header missing")
        want = f"admissible:     {'yes' if admissible else 'no'}"
        _require(want in lines, f"text report lacks {want!r}")
    return check


_BOUND_KEYS = ("alpha_max_structural", "alpha_effective", "delta_w_min",
               "k_max_econ", "k_max_entropy")


def bounds_json(n_candidates: int):
    def check(out: bytes) -> None:
        doc = strict_json(out)
        _require(all(k in doc for k in _BOUND_KEYS), "bounds JSON lacks a derived bound")
        _require(len(doc.get("weight_caps_impact") or ()) == n_candidates,
                 f"bounds JSON does not cap all {n_candidates} candidates")
    return check


def bounds_text():
    def check(out: bytes) -> None:
        lines = out.decode("utf-8").splitlines()
        _require(lines[:2] == ["derived bounds", "--------------"], "bounds header missing")
        keys = [line.split()[0] for line in lines[2:2 + len(_BOUND_KEYS)]]
        _require(tuple(keys) == _BOUND_KEYS, "bounds text lacks a derived bound")
    return check


def _same_outcome(expected, executed: int, by_reason: dict, proposed: int) -> None:
    _require(executed + sum(by_reason.values()) == proposed,
             f"executed {executed} plus suppressed {sum(by_reason.values())} "
             f"is not proposed {proposed}")
    _require(proposed == expected.proposed, f"{proposed} trades, expected {expected.proposed}")
    _require(executed == expected.executed,
             f"{executed} trades executed, expected {expected.executed}")
    _require(by_reason == expected.by_reason,
             f"suppressed {by_reason}, expected {expected.by_reason}")


def filter_json(expected):
    def check(out: bytes) -> None:
        doc = strict_json(out)
        reasons = dict(Counter(item[2] for item in doc["suppressed"]))
        _same_outcome(expected, len(doc["executed"]), reasons,
                      len(doc["executed"]) + len(doc["suppressed"]))
    return check


def filter_text(expected):
    def check(out: bytes) -> None:
        lines = out.decode("utf-8").splitlines()
        head = lines[0].split() if lines else []
        _require(len(head) == 5 and head[0] == "executed" and head[2] == "of",
                 "filter text header missing")
        executed = [line for line in lines[1:] if line.startswith("  execute ")]
        reasons = dict(Counter(line.rsplit("(", 1)[1].rstrip(")")
                               for line in lines[1:] if line.startswith("  suppress ")))
        _require(int(head[1]) == len(executed), "filter text header disagrees with its rows")
        _same_outcome(expected, len(executed), reasons, int(head[3]))
    return check


def replay_json(expected):
    def check(out: bytes) -> None:
        doc = strict_json(out)
        _same_outcome(expected, doc["trades_executed"], doc["trades_suppressed_by_reason"],
                      doc["trades_proposed"])
    return check


_REPLAY_LINE = re.compile(r"(suppressed\[[^\]]*\]|\S+)\s*(\S+)")


def replay_text(expected):
    def check(out: bytes) -> None:
        # a long suppression key runs into its count: "suppressed[...]1"
        fields = dict(_REPLAY_LINE.fullmatch(line).groups()
                      for line in out.decode("utf-8").splitlines()[2:])
        reasons = {k[len("suppressed["):-1]: int(v) for k, v in fields.items()
                   if k.startswith("suppressed[")}
        _same_outcome(expected, int(fields["trades_executed"]), reasons,
                      int(fields["trades_proposed"]))
    return check


class Verifier:
    """Counts invocations and failures, and holds each invocation to its
    recorded exit code, its checks and its first output.

    Checks run on the first output of each invocation; a later output must
    match it byte for byte (the engine's determinism claim) and inherits its
    verdict, so repetitions cost one hash each.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._first: dict[str, tuple[bytes, str | None]] = {}

    def verify(self, inv, code: int, out: bytes) -> bool:
        self.attempted += 1
        problem = None
        if code != inv.expect_code:
            problem = f"exit code {code}, expected {inv.expect_code}"
        else:
            digest = hashlib.sha256(out).digest()
            if inv.key not in self._first:
                self._first[inv.key] = (digest, first_problem(inv.checks, out))
            first, problem = self._first[inv.key]
            if digest != first:
                problem = "stdout differs from an earlier repetition"
        if problem is not None:
            self.failed += 1
            print(f"FAIL {inv.key}: {problem}", file=sys.stderr)
        return problem is None


def first_problem(check_fns, out: bytes) -> str | None:
    for fn in check_fns:
        try:
            fn(out)
        except (CheckFailed, ValueError, KeyError, IndexError, TypeError, AttributeError) as e:
            return str(e) or type(e).__name__
    return None
