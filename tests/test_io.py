"""CSV ingestion and report emission."""

import csv
import io as _io
import json
import math
import sys
import tracemalloc
from collections import namedtuple
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satfeas.io
from satfeas import (
    Asset,
    CascadeInput,
    ExclusionCategory,
    RebalanceEvent,
    RebalanceProposal,
    SatelliteDesign,
    TierClass,
    ValidationError,
    compute_bounds,
    filter_rebalance,
    replay,
    run_cascade,
)
from satfeas.io import (
    emit_bounds,
    emit_filter,
    emit_replay,
    emit_report,
    json_bytes,
    load_candidates,
    load_core_weights,
    load_events,
    load_proposal_trades,
    parse_report,
)
from satfeas.model import UNBOUNDED, LayerVerdict, to_json

from conftest import FIXTURES, make_asset, make_params


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


CANDIDATE_HEADER = "id,tier,adv_usd,round_trip_cost_bps,gaer_admissible,exclusion\n"


def dump_candidates(assets):
    """Assets as candidate CSV, each number by its ``repr``: the text the loader inverts."""
    buf = _io.StringIO()
    buf.write(CANDIDATE_HEADER)
    writer = csv.writer(buf, lineterminator="\n")
    for a in assets:
        override = "" if a.round_trip_cost_bps is None else repr(a.round_trip_cost_bps)
        writer.writerow([a.id, a.tier.value, repr(a.adv_usd), override,
                         "true" if a.gaer_admissible else "false", a.exclusion.value])
    return buf.getvalue()


class TestLoadCandidates:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "u.csv", CANDIDATE_HEADER +
                     "CHIP1,A,5000000,,true,none\n")
        (asset,) = load_candidates(path)
        assert asset.tier is TierClass.A
        assert asset.adv_usd == 5e6
        assert asset.round_trip_cost_bps is None
        assert asset.gaer_admissible and asset.exclusion is ExclusionCategory.NONE

    def test_exclusion_category_parsed(self, tmp_path):
        path = write(tmp_path, "u.csv", CANDIDATE_HEADER +
                     "ETF9,B,2000000,,true,thematic_etf\n")
        (asset,) = load_candidates(path)
        assert asset.exclusion is ExclusionCategory.THEMATIC_ETF

    def test_row_level_error_carries_row_number(self, tmp_path):
        path = write(tmp_path, "u.csv", CANDIDATE_HEADER +
                     "OK1,A,5000000,,true,none\nX,A,-5,,true,none\n")
        with pytest.raises(ValidationError) as err:
            load_candidates(path)
        assert "row 3" in str(err.value)

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path, "u.csv", "id,tier,adv\nX,A,5\n")
        with pytest.raises(ValidationError) as err:
            load_candidates(path)
        assert err.value.code == "bad_header"

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path, "u.csv", CANDIDATE_HEADER +
                     "A1,A,1000,,true,none\nA1,B,2000,,true,none\n")
        with pytest.raises(ValidationError) as err:
            load_candidates(path)
        assert err.value.code == "duplicate_id"

    def test_case_insensitive_enums(self, tmp_path):
        path = write(tmp_path, "u.csv", CANDIDATE_HEADER +
                     "A1,a,1000,,TRUE,None\n")
        (asset,) = load_candidates(path)
        assert asset.tier is TierClass.A and asset.gaer_admissible

    def test_cost_override_parsed(self, tmp_path):
        path = write(tmp_path, "u.csv", CANDIDATE_HEADER +
                     "A1,C,1000,12.5,false,none\n")
        (asset,) = load_candidates(path)
        assert asset.round_trip_cost_bps == 12.5 and not asset.gaer_admissible

    def test_round_trip_through_dump(self, tmp_path):
        assets = [make_asset(id="A1", tier=TierClass.B, adv_usd=1234567.89,
                             round_trip_cost_bps=7.25),
                  make_asset(id="A2", tier=TierClass.C, adv_usd=5e6, gaer=False,
                             exclusion=ExclusionCategory.SMALL_CAP_SPECIALIST)]
        path = write(tmp_path, "u.csv", dump_candidates(assets))
        assert load_candidates(path) == assets


OK_ROW = "A,A,5e6,,true,none\n"
EXCLUSIONS = ("pure_play_early_stage, small_cap_specialist, regime_opaque_jurisdiction, "
              "thematic_etf, none")

#: (case, file body, error code, message, field); rows count the header as row 1 and
#: ``{path}`` stands for the file's path. A row with two bad cells reports the
#: first in this order: id, cost, tier, adv_usd, gaer_admissible, exclusion,
#: then the range checks of ``Asset`` (adv_usd before the cost).
LOAD_CANDIDATES_ERRORS = [
    ("empty file", "", "bad_header", "candidates file {path} is empty", "candidates"),
    ("bad header", "id,tier,adv\nX,A,5\n", "bad_header",
     "candidates file {path} must have header "
     "'id,tier,adv_usd,round_trip_cost_bps,gaer_admissible,exclusion', got 'id,tier,adv'",
     "candidates"),
    ("field count", CANDIDATE_HEADER + OK_ROW + "B,A,5e6,,true\n", "bad_row",
     "candidates row 3 has 5 fields, expected 6", "candidates"),
    ("field count before a bad value", CANDIDATE_HEADER + "B,D,x,y,maybe,z\nC,A\n", "bad_row",
     "candidates row 3 has 2 fields, expected 6", "candidates"),
    ("blank rows are skipped but counted",
     CANDIDATE_HEADER + "\n" + OK_ROW + " , ,,,,\n\nB,A,x,,true,none\n", "bad_number",
     "candidates row 6: 'x' is not a number", "candidates"),
    ("empty id", CANDIDATE_HEADER + OK_ROW + ",A,5e6,,true,none\n", "bad_id",
     "candidates row 3: id must be a nonempty string", "candidates"),
    ("empty id before a bad cost", CANDIDATE_HEADER + " ,A,5e6,x,true,none\n", "bad_id",
     "candidates row 2: id must be a nonempty string", "candidates"),
    ("duplicate id", CANDIDATE_HEADER + OK_ROW + "A,B,1e6,,false,none\n", "duplicate_id",
     "candidates row 3: duplicate id 'A'", "candidates"),
    ("duplicate id before a bad cost", CANDIDATE_HEADER + OK_ROW + "A,A,5e6,x,true,none\n",
     "duplicate_id", "candidates row 3: duplicate id 'A'", "candidates"),
    ("bad cost", CANDIDATE_HEADER + "A,A,5e6,cheap,true,none\n", "bad_number",
     "candidates row 2: 'cheap' is not a number", "candidates"),
    ("bad cost before a bad tier", CANDIDATE_HEADER + "A,D,5e6,cheap,true,none\n", "bad_number",
     "candidates row 2: 'cheap' is not a number", "candidates"),
    ("bad tier", CANDIDATE_HEADER + "A,D,5e6,,true,none\n", "bad_tier",
     "candidates row 2: tier must be one of A, B, C (got 'D')", "tier"),
    ("bad tier before a bad adv_usd", CANDIDATE_HEADER + "A,AB,abc,,true,none\n", "bad_tier",
     "candidates row 2: tier must be one of A, B, C (got 'AB')", "tier"),
    ("bad adv_usd", CANDIDATE_HEADER + "A,A,abc,,true,none\n", "bad_number",
     "candidates row 2: 'abc' is not a number", "candidates"),
    ("bad adv_usd before a bad flag", CANDIDATE_HEADER + "A,A,abc,,maybe,none\n", "bad_number",
     "candidates row 2: 'abc' is not a number", "candidates"),
    ("bad flag", CANDIDATE_HEADER + "A,A,5e6,,yes,none\n", "bad_boolean",
     "candidates row 2: expected true or false, got 'yes'", "candidates"),
    ("bad flag before a bad exclusion", CANDIDATE_HEADER + "A,A,5e6,,1,etf\n", "bad_boolean",
     "candidates row 2: expected true or false, got '1'", "candidates"),
    ("bad exclusion", CANDIDATE_HEADER + "A,A,5e6,,true,etf\n", "bad_exclusion",
     f"candidates row 2: exclusion must be one of {EXCLUSIONS} (got 'etf')", "exclusion"),
    ("bad exclusion before a range check", CANDIDATE_HEADER + "A,A,-1,-1,true,etf\n",
     "bad_exclusion", f"candidates row 2: exclusion must be one of {EXCLUSIONS} (got 'etf')",
     "exclusion"),
    ("nan adv_usd", CANDIDATE_HEADER + "A,A,nan,,true,none\n", "not_finite",
     "candidates row 2: adv_usd must be a finite number", "adv_usd"),
    ("infinite adv_usd before a negative cost", CANDIDATE_HEADER + "A,A,inf,-1,true,none\n",
     "not_finite", "candidates row 2: adv_usd must be a finite number", "adv_usd"),
    ("zero adv_usd", CANDIDATE_HEADER + "A,A,0,,true,none\n", "adv_must_be_positive",
     "candidates row 2: adv_usd must be positive", "adv_usd"),
    ("negative adv_usd before a nan cost", CANDIDATE_HEADER + "A,A,-5,nan,true,none\n",
     "adv_must_be_positive", "candidates row 2: adv_usd must be positive", "adv_usd"),
    ("infinite cost", CANDIDATE_HEADER + "A,A,5e6,-inf,true,none\n", "not_finite",
     "candidates row 2: round_trip_cost_bps must be a finite number", "round_trip_cost_bps"),
    ("negative cost", CANDIDATE_HEADER + "A,A,5e6,-0.5,true,none\n", "cost_must_be_nonnegative",
     "candidates row 2: round_trip_cost_bps must be nonnegative when present",
     "round_trip_cost_bps"),
]


@pytest.mark.parametrize("body,code,message,field",
                         [case[1:] for case in LOAD_CANDIDATES_ERRORS],
                         ids=[case[0] for case in LOAD_CANDIDATES_ERRORS])
def test_load_candidates_error_table(tmp_path, body, code, message, field):
    path = write(tmp_path, "u.csv", body)
    with pytest.raises(ValidationError) as err:
        load_candidates(path)
    assert err.value.code == code
    assert str(err.value) == message.format(path=path)
    assert err.value.field == field


_ASSET_IDS = st.text("ABCXYZabcxyz0123456789_.-", min_size=1, max_size=8)
_ADVS = st.one_of(st.sampled_from([5e-324, 2.2e-310, 1e308, sys.float_info.max]),
                  st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False))
_COSTS = st.one_of(st.none(), st.just(0.0),
                   st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
_ASSETS = st.lists(
    st.builds(Asset, id=_ASSET_IDS, tier=st.sampled_from(TierClass), adv_usd=_ADVS,
              gaer_admissible=st.booleans(), exclusion=st.sampled_from(ExclusionCategory),
              round_trip_cost_bps=_COSTS),
    max_size=12, unique_by=lambda a: a.id)
_CASES = st.sampled_from([str.upper, str.lower, str.title, str.swapcase])


@settings(max_examples=150, deadline=None)
@given(assets=_ASSETS, cases=st.lists(st.tuples(_CASES, _CASES, _CASES), min_size=12,
                                      max_size=12))
def test_load_candidates_inverts_dump(tmp_path_factory, assets, cases):
    """Every asset survives a dump and load; enum and flag cells in any case parse."""
    rows = list(csv.reader(_io.StringIO(dump_candidates(assets))))
    for row, (tier_case, flag_case, exclusion_case) in zip(rows[1:], cases):
        row[1], row[4], row[5] = tier_case(row[1]), flag_case(row[4]), exclusion_case(row[5])
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path = tmp_path_factory.mktemp("dump") / "u.csv"
    path.write_text(buf.getvalue())
    assert load_candidates(path) == assets


class TestOtherLoaders:
    def test_core_weights_normalized(self, tmp_path):
        path = write(tmp_path, "core.csv", "id,weight\nC1,0.6\nC2,0.4\n")
        assert load_core_weights(path) == (("C1", 0.6), ("C2", 0.4))

    def test_core_weights_must_sum_to_one(self, tmp_path):
        path = write(tmp_path, "core.csv", "id,weight\nC1,0.6\nC2,0.3\n")
        with pytest.raises(ValidationError) as err:
            load_core_weights(path)
        assert err.value.code == "weights_not_normalized"

    def test_core_weights_sum_past_float_range(self, tmp_path):
        path = write(tmp_path, "core.csv", "id,weight\nC1,1e308\nC2,1e308\n")
        with pytest.raises(ValidationError) as err:
            load_core_weights(path)
        assert err.value.code == "weights_not_normalized"
        assert "sum to inf" in str(err.value)

    @pytest.mark.parametrize("loader,header,message", [
        (load_core_weights, "id,weight", "core_weights row 3: weight for C2"),
        (load_proposal_trades, "id,delta_w", "proposal row 3: delta_w for C2"),
    ], ids=["core", "proposal"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_at_its_row(self, tmp_path, loader, header,
                                                  message, value):
        path = write(tmp_path, "f.csv", f"{header}\nC1,1.0\nC2,{value}\n")
        with pytest.raises(ValidationError) as err:
            loader(path)
        assert err.value.code == "not_finite"
        assert str(err.value) == f"{message} must be a finite number"

    @pytest.mark.parametrize("loader,header,what", [
        (load_core_weights, "id,weight", "core_weights"),
        (load_proposal_trades, "id,delta_w", "proposal"),
    ], ids=["core", "proposal"])
    def test_empty_id_rejected_at_its_row(self, tmp_path, loader, header, what):
        path = write(tmp_path, "f.csv", f"{header}\nC1,0.5\n,0.5\n")
        with pytest.raises(ValidationError) as err:
            loader(path)
        assert err.value.code == "bad_id"
        assert str(err.value) == f"{what} row 3: id must be a nonempty string"

    def test_proposal_loader(self, tmp_path):
        path = write(tmp_path, "p.csv", "id,delta_w\nA1,0.02\nA2,-0.01\n")
        assert load_proposal_trades(path).trades == (("A1", 0.02), ("A2", -0.01))

    def test_proposal_loader_sets_the_flags(self, tmp_path):
        path = write(tmp_path, "p.csv", "id,delta_w\nA1,0.02\n")
        proposal = load_proposal_trades(path, schedule_due=True)
        assert (proposal.schedule_due, proposal.structural_break) == (True, False)
        with pytest.raises(ValidationError) as err:  # an error of no entry is not given a row
            load_proposal_trades(path, structural_break="yes")
        assert (str(err.value), err.value.field) == ("structural_break must be a boolean",
                                                     "structural_break")

    def test_events_grouped_by_date(self, tmp_path):
        path = write(tmp_path, "e.csv",
                     "date,id,delta_w,schedule_due,structural_break\n"
                     "2025-03-31,A1,0.01,false,false\n"
                     "2025-03-31,A2,-0.02,false,false\n"
                     "2025-06-30,A1,0.03,true,false\n")
        events = load_events(path)
        assert len(events) == 2
        assert events[0].proposal.trades == (("A1", 0.01), ("A2", -0.02))
        assert not events[0].proposal.schedule_due
        assert events[1].proposal.schedule_due

    def test_events_flags_must_agree_within_date(self, tmp_path):
        path = write(tmp_path, "e.csv",
                     "date,id,delta_w,schedule_due,structural_break\n"
                     "2025-03-31,A1,0.01,false,false\n"
                     "2025-03-31,A2,-0.02,true,false\n")
        with pytest.raises(ValidationError) as err:
            load_events(path)
        assert err.value.code == "inconsistent_flags"

    def test_events_out_of_order_rejected(self, tmp_path):
        path = write(tmp_path, "e.csv",
                     "date,id,delta_w,schedule_due,structural_break\n"
                     "2025-06-30,A1,0.01,false,false\n"
                     "2025-03-31,A2,-0.02,false,false\n")
        with pytest.raises(ValidationError) as err:
            load_events(path)
        assert err.value.code == "events_out_of_order"



EVENT_HEADER = "date,id,delta_w,schedule_due,structural_break\n"
ROW_A = "2025-01-01,A,0.1,true,false\n"

#: (case, file body, error code, message, field); rows count the header as row 1.
LOAD_EVENTS_ERRORS = [
    ("empty file", "", "bad_header", "is empty", "events"),
    ("bad header", "date,id,dw,schedule_due,structural_break\n" + ROW_A, "bad_header",
     "must have header 'date,id,delta_w,schedule_due,structural_break', "
     "got 'date,id,dw,schedule_due,structural_break'", "events"),
    ("field count", EVENT_HEADER + ROW_A + "2025-01-01,B,0.1,true\n", "bad_row",
     "events row 3 has 4 fields, expected 5", "events"),
    ("field count before a bad value",
     EVENT_HEADER + "2025-13-01,A,x,maybe,false\n2025-01-02,B,0.1\n", "bad_row",
     "events row 3 has 3 fields, expected 5", "events"),
    ("blank rows are skipped but counted",
     EVENT_HEADER + "\n" + ROW_A + " , ,,,\n\n2025-01-02,B,x,true,false\n", "bad_number",
     "events row 6: 'x' is not a number", "events"),
    ("bad date", EVENT_HEADER + ROW_A + "2025-13-01,B,0.1,true,false\n", "bad_date",
     "events row 3: bad date '2025-13-01'", "events"),
    # Python 3.11's date.fromisoformat reads both; a date is YYYY-MM-DD on every version
    ("compact date", EVENT_HEADER + ROW_A + "20250102,B,0.1,true,false\n", "bad_date",
     "events row 3: bad date '20250102'", "events"),
    ("week date", EVENT_HEADER + "2025-W14-1,A,0.1,true,false\n", "bad_date",
     "events row 2: bad date '2025-W14-1'", "events"),
    ("bad boolean on a group's first row", EVENT_HEADER + "2025-01-01,A,0.1,true,nope\n",
     "bad_boolean", "events row 2: expected true or false, got 'nope'", "events"),
    ("bad boolean later in a group", EVENT_HEADER + ROW_A + "2025-01-01,B,0.1,yes,false\n",
     "bad_boolean", "events row 3: expected true or false, got 'yes'", "events"),
    ("flags differ within a date", EVENT_HEADER + ROW_A + "2025-01-01,B,0.1,TRUE,true\n",
     "inconsistent_flags", "events row 3: governance flags differ within date 2025-01-01",
     "events"),
    ("bad number", EVENT_HEADER + ROW_A + "2025-01-01,B,abc,true,false\n", "bad_number",
     "events row 3: 'abc' is not a number", "events"),
    ("date out of order",
     EVENT_HEADER + "2025-02-01,A,0.1,true,false\n" + "2025-01-01,B,0.1,true,false\n"
     "2025-01-01,C,0.1,true,false\n", "events_out_of_order",
     "events row 3: dates must be strictly increasing", "events"),
    ("date repeated after another date",
     EVENT_HEADER + ROW_A + "2025-01-02,B,0.1,true,false\n2025-01-01,C,0.1,true,false\n",
     "events_out_of_order", "events row 4: dates must be strictly increasing", "events"),
    ("empty id", EVENT_HEADER + ROW_A + "2025-01-01, ,0.1,true,false\n", "bad_id",
     "events row 3: id must be a nonempty string", "events"),
    ("duplicate id within a date", EVENT_HEADER + ROW_A + "2025-01-01,A,0.2,true,false\n",
     "duplicate_id", "events row 3: duplicate id 'A'", "events"),
    ("nan delta_w", EVENT_HEADER + ROW_A + "2025-01-01,B,nan,true,false\n", "not_finite",
     "events row 3: delta_w for B must be a finite number", "events"),
    ("inf delta_w", EVENT_HEADER + "2025-01-01,A,-inf,true,false\n", "not_finite",
     "events row 2: delta_w for A must be a finite number", "events"),
    ("an entry error wins over a bad cell in the next date",
     EVENT_HEADER + ROW_A + "2025-01-01,A,0.2,true,false\n2025-01-02,B,x,true,false\n",
     "duplicate_id", "events row 3: duplicate id 'A'", "events"),
    ("a short row in the next date wins over an entry error",
     EVENT_HEADER + ROW_A + "2025-01-01,A,0.2,true,false\n2025-01-02,B\n", "bad_row",
     "events row 4 has 2 fields, expected 5", "events"),
]


@pytest.mark.parametrize("body,code,message,field",
                         [case[1:] for case in LOAD_EVENTS_ERRORS],
                         ids=[case[0] for case in LOAD_EVENTS_ERRORS])
def test_load_events_error_table(tmp_path, body, code, message, field):
    path = write(tmp_path, "e.csv", body)
    with pytest.raises(ValidationError) as err:
        load_events(path)
    assert err.value.code == code
    assert message in str(err.value)
    assert err.value.field == field


#: kind -> (loader, file name in messages, header, a valid row: ``{id}``, ``{value}`` and
#: ``{date}`` filled in per row); the fault -> the code it raises.
_FAULT_FILES = {
    "candidates": (load_candidates, "candidates", CANDIDATE_HEADER.strip(),
                   "{id},A,{value},,true,none"),
    "core": (load_core_weights, "core_weights", "id,weight", "{id},{value}"),
    "proposal": (load_proposal_trades, "proposal", "id,delta_w", "{id},{value}"),
    "events": (load_events, "events", EVENT_HEADER.strip(), "{date},{id},{value},true,false"),
}
_FAULT_CODES = {"empty id": "bad_id", "duplicate": "duplicate_id", "nan": "not_finite",
                "inf": "not_finite", "-inf": "not_finite", "negative": "weight_must_be_nonnegative",
                "x1": "bad_number", "bad tier": "bad_tier", "zero adv": "adv_must_be_positive",
                "negative cost": "cost_must_be_nonnegative", "bad flag": "bad_boolean",
                "bad exclusion": "bad_exclusion"}


#: the faults of one candidate cell, by name: (cell index, its text).
_CANDIDATE_CELL_FAULTS = {"bad tier": (1, "D"), "zero adv": (2, "0"), "negative cost": (3, "-1"),
                          "bad flag": (4, "maybe"), "bad exclusion": (5, "etf")}
#: blank rows, skipped but counted, that push what follows past the reader's first chunk
_PADDING = [" " * 200] * 60


def _draw_one_fault(kind, data):
    """A valid file of ``kind`` with one drawn bad cell: (its lines, the fault, its line)."""
    header, template = _FAULT_FILES[kind][2:]
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                      if kind == "events" else st.integers(1, 8).map(lambda n: [n]))
    entries = [(group, j) for group, size in enumerate(sizes) for j in range(size)]
    at = data.draw(st.integers(0, len(entries) - 1))
    faults = ["empty id", "nan", "inf", "-inf", "x1"]
    faults += ["negative"] if kind == "core" else []
    faults += sorted(_CANDIDATE_CELL_FAULTS) if kind == "candidates" else []
    faults += ["duplicate"] if entries[at][1] > 0 else []  # an earlier id of its group
    fault = data.draw(st.sampled_from(faults))
    lines = [header]
    for i, (group, j) in enumerate(entries):
        if data.draw(st.booleans()):
            lines.append("")  # a blank line is skipped but counted
        name, value = f"N{j}", "0.1"
        if i == at:
            if fault == "empty id":
                name = ""
            elif fault == "duplicate":
                name = f"N{data.draw(st.integers(0, j - 1))}"
            elif fault not in _CANDIDATE_CELL_FAULTS:
                value = "-0.1" if fault == "negative" else fault
        cells = template.format(date=f"2025-01-{group + 1:02d}", id=name, value=value).split(",")
        if i == at and fault in _CANDIDATE_CELL_FAULTS:
            index, text = _CANDIDATE_CELL_FAULTS[fault]
            cells[index] = text
        lines.append(",".join(cells))
        if i == at:
            line = len(lines)
    return lines, fault, line


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_FAULT_FILES)), data=st.data())
def test_one_fault_is_reported_at_its_row(tmp_path_factory, kind, data):
    """A valid file with one bad cell fails with the fault's code, at the fault's row."""
    loader, what = _FAULT_FILES[kind][:2]
    lines, fault, line = _draw_one_fault(kind, data)
    path = tmp_path_factory.mktemp("fault") / "f.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as err:
        loader(path)
    assert err.value.code == _FAULT_CODES[fault]
    assert str(err.value).startswith(f"{what} row {line}: ")


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(_FAULT_FILES)),
       later=st.sampled_from(["short row", "bad bytes"]), data=st.data())
def test_a_later_malformed_row_is_reported_before_a_fault(tmp_path_factory, kind, later, data):
    """A malformed row or an unreadable byte after a bad cell, past the reader's first chunk,
    is reported instead of the bad cell."""
    loader, what, header = _FAULT_FILES[kind][:3]
    lines, _, _ = _draw_one_fault(kind, data)
    body = "\n".join(lines + _PADDING) + "\n"
    path = tmp_path_factory.mktemp("fault") / "f.csv"
    path.write_bytes(body.encode() + {"short row": b"Z\n", "bad bytes": b"Z\xff\n"}[later])
    with pytest.raises(ValidationError) as err:
        loader(path)
    if later == "short row":
        width = header.count(",") + 1
        assert (err.value.code, str(err.value)) == (
            "bad_row", f"{what} row {len(lines) + len(_PADDING) + 1} has 1 fields, "
                       f"expected {width}")
    else:
        assert err.value.code == "unreadable_file"


def _generated_csv(kind, n):
    """A valid ``n``-row file for loader ``kind``; events hold 25 trades a date."""
    header = _FAULT_FILES[kind][2]
    if kind == "candidates":
        rows = (f"N{i},{'ABC'[i % 3]},{1e6 + 7.5 * i!r},{'' if i % 5 else 2.5},"
                f"{'true' if i % 7 else 'false'},none" for i in range(n))
    elif kind == "events":
        rows = (f"{date.fromordinal(730000 + i // 25)},N{i % 25},{(i % 9 - 4) / 1e3!r},"
                f"{'true' if i // 25 % 2 else 'false'},false" for i in range(n))
    else:
        rows = (f"N{i},{1 / n!r}" for i in range(n))
    return "\n".join([header, *rows]) + "\n"


#: the most traced memory a loader may allocate at once, as a multiple of what its result
#: keeps: each row is parsed as it is read, and no copy of the file's rows is held
_PEAK_RATIOS = {"candidates": 2.5, "core": 2.2, "proposal": 2.2, "events": 1.5}


@pytest.mark.parametrize("kind", sorted(_PEAK_RATIOS))
def test_loader_peak_memory_is_near_its_result(tmp_path, kind):
    loader = _FAULT_FILES[kind][0]
    path = write(tmp_path, "f.csv", _generated_csv(kind, 20_000))
    loader(path)  # any first-call cache is filled before tracing
    tracemalloc.start()  # counts from zero
    try:
        result = loader(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.trades if kind == "proposal" else result) == (800 if kind == "events"
                                                                      else 20_000)
    assert peak / kept <= _PEAK_RATIOS[kind]


def _outcome(load, path):
    """What ``load`` makes of ``path``: its result, or its error's (code, message, field)."""
    try:
        return load(path)
    except ValidationError as e:
        return e.code, str(e), e.field


#: the error a draw implies: its code, worded at row ``line``
_Fault = namedtuple("_Fault", "code line")


def _assert_loads_as_drawn(kind, lines, path, expected):
    """Loader ``kind`` reads ``lines`` as the draw implies: ``expected`` is the object built from
    the drawn cells, or the :data:`_Fault` it raises."""
    path.write_text("\n".join(lines) + "\n")
    loader, what = _FAULT_FILES[kind][:2]
    if isinstance(expected, _Fault):
        with pytest.raises(ValidationError) as err:
            loader(path)
        assert err.value.code == expected.code
        assert str(err.value).startswith(f"{what} row {expected.line}: ")
    else:
        assert loader(path) == expected


def _padded(data, cell):
    return " " * data.draw(st.integers(0, 2)) + cell + " " * data.draw(st.integers(0, 2))


def _drawn_fault(kind, data):
    """The lines of a valid ``kind`` file with one bad cell, and its fault."""
    lines, fault, line = _draw_one_fault(kind, data)
    return lines, _Fault(_FAULT_CODES[fault], line)


def _draw_event_lines(kind, data):
    """A valid events file with blank rows, padded cells and mixed-case flags (``valid``), the
    same with dates that may repeat or be spelled compactly (``dates``), or one fault; and the
    outcome it implies. Each row has its own id and each date its own flags, so a run of rows
    with one spelled date is one event; the first run whose date is compact or not past the
    last is an error."""
    if kind == "fault":
        return _drawn_fault("events", data)
    days = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    if kind == "valid":
        days = sorted(set(days))
    lines, runs = [EVENT_HEADER.strip()], []  # runs: [spelled date, its row, day, trades, flags]
    flags = {day: [data.draw(st.sampled_from(["true", "false"])) for _ in range(2)]
             for day in days}
    for day in days:
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):
                lines.append(data.draw(st.sampled_from(["", "   ", " , ,,,", ",,,,", " \t"])))
            spelled = (f"2025010{day}" if kind == "dates" and data.draw(st.booleans())
                       else f"2025-01-0{day}")
            name, dw = f"N{len(lines)}", data.draw(st.floats(-1, 1))
            cases = [data.draw(st.sampled_from([str.lower, str.upper, str.title]))(flag)
                     for flag in flags[day]]
            lines.append(",".join(_padded(data, cell)
                                  for cell in [spelled, name, repr(dw), *cases]))
            if not runs or runs[-1][0] != spelled:
                runs.append([spelled, len(lines), date(2025, 1, day), [], flags[day]])
            runs[-1][3].append((name, dw))
    for before, run in zip([None, *runs], runs):
        if run[0] != run[2].isoformat():
            return lines, _Fault("bad_date", run[1])
        if before is not None and run[2] <= before[2]:
            return lines, _Fault("events_out_of_order", run[1])
    return lines, [RebalanceEvent(day, RebalanceProposal(trades, *(f == "true" for f in flags)))
                   for _, _, day, trades, flags in runs]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["valid", "dates", "fault"]), data=st.data())
def test_load_events_builds_what_was_drawn(tmp_path_factory, kind, data):
    """The events loader gives the events of the drawn runs, or the error the draw implies."""
    lines, expected = _draw_event_lines(kind, data)
    _assert_loads_as_drawn("events", lines, tmp_path_factory.mktemp("events") / "e.csv", expected)


#: cells a valid file may hold, each drawn in any case where a spelling map reads it
_SPELLED = {"tier": ["A", "B", "C"], "flag": ["true", "false"],
            "exclusion": ["none", "thematic_etf", "small_cap_specialist"]}


def _draw_pair_lines(kind, form, data):
    """A valid file of ``kind`` (not events) with empty lines, padded cells and spellings in
    mixed case (``valid``); the same with whitespace-only rows too (``spaced``); or one fault;
    and the outcome it implies."""
    if form == "fault":
        return _drawn_fault(kind, data)
    case = st.sampled_from([str.lower, str.upper, str.title, str.swapcase])
    n = data.draw(st.integers(1, 6))
    lines, built = [_FAULT_FILES[kind][2]], []
    for i in range(n):
        blanks = ["", " ", " ,  ", ",,,,,", "\t"] if form == "spaced" else [""]
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(blanks)))
        if kind == "candidates":
            tier, flag, exclusion = (data.draw(st.sampled_from(_SPELLED[key]))
                                     for key in ("tier", "flag", "exclusion"))
            adv, cost = data.draw(st.floats(1, 1e12)), data.draw(st.none() | st.floats(0, 100))
            cells = [f"N{i}", data.draw(case)(tier), repr(adv), "" if cost is None else repr(cost),
                     data.draw(case)(flag), data.draw(case)(exclusion)]
            built.append(Asset(f"N{i}", TierClass(tier), adv, flag == "true",
                               ExclusionCategory(exclusion), cost))
        else:
            cells = [f"N{i}", repr(1 / n if kind == "core" else data.draw(st.floats(-1, 1)))]
            built.append((cells[0], float(cells[1])))
        lines.append(",".join(_padded(data, cell) for cell in cells))
    return lines, {"core": tuple, "proposal": RebalanceProposal}.get(kind, list)(built)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["candidates", "core", "proposal"]),
       form=st.sampled_from(["valid", "spaced", "fault"]), data=st.data())
def test_each_loader_builds_what_was_drawn(tmp_path_factory, kind, form, data):
    """The candidates, core and proposal loaders give the assets or pairs of the drawn cells,
    or the error the draw implies."""
    lines, expected = _draw_pair_lines(kind, form, data)
    _assert_loads_as_drawn(kind, lines, tmp_path_factory.mktemp(kind) / "f.csv", expected)


def test_a_short_row_wins_over_an_unreadable_byte_later_in_its_date(tmp_path):
    # each row is checked as it is read: the read error later in the date, past the reader's
    # first chunk, must not hide the short row before it
    rows = b"".join(b"2025-01-01,N%d,0.1,true,false\n" % i for i in range(600))
    path = tmp_path / "e.csv"
    path.write_bytes(EVENT_HEADER.encode() + ROW_A.encode() + b"2025-01-01,B\n" + rows
                     + b"2025-01-01,\xff,0.1,true,false\n")
    with pytest.raises(ValidationError) as err:
        load_events(path)
    assert (err.value.code, str(err.value)) == ("bad_row", "events row 3 has 2 fields, expected 5")


def test_a_plain_events_file_checks_one_row_a_date(tmp_path, monkeypatch):
    # a row spelled as the last checked row is built without a check: in a plain file only
    # each date's first row is checked
    path = write(tmp_path, "e.csv", _generated_csv("events", 20_000))
    checked, real = [], satfeas.io._cells

    def counted(*args):
        checked.append(args)
        return real(*args)

    monkeypatch.setattr(satfeas.io, "_cells", counted)
    assert len(load_events(path)) == 800
    assert len(checked) <= 800


def _counted_cells(monkeypatch):
    """The argument tuples of each ``io._cells`` call from now on: each is one checked row."""
    checked, real = [], satfeas.io._cells

    def counted(*args):
        checked.append(args)
        return real(*args)

    monkeypatch.setattr(satfeas.io, "_cells", counted)
    return checked


def test_an_events_file_of_alternating_flag_case_checks_one_row_a_date(tmp_path, monkeypatch):
    # a flag cell spelled as any checked row spelled it, with the open date's value, is built
    # without a check: past the first row of each new spelling, one row a date is checked
    header, *rows = _generated_csv("events", 20_000).splitlines()
    alternating = [row.upper() if i % 2 else row for i, row in enumerate(rows)]
    plain = load_events(write(tmp_path, "plain.csv", "\n".join([header, *rows]) + "\n"))
    checked = _counted_cells(monkeypatch)
    path = write(tmp_path, "e.csv", "\n".join([header, *alternating]) + "\n")
    assert load_events(path) == plain
    assert len(plain) == 800
    assert len(checked) <= 800 + 2  # and one row for each of "TRUE" and "FALSE"


#: spellings of the tier, flag and exclusion cells of a candidates row, drawn in turn
_RESPELT = [str.lower, str.upper, str.title, lambda c: f" {c}", lambda c: f"{c}\t ",
            lambda c: f"  {c.swapcase()} "]


def _respelt(line, i):
    """Candidates ``line`` with its tier, flag and exclusion cells spelled the ``i``-th way."""
    cells = line.split(",")
    for k in (1, 4, 5):
        cells[k] = _RESPELT[(i + k) % len(_RESPELT)](cells[k])
    return ",".join(cells)


def test_respelt_candidates_load_as_their_canonical_twin_and_check_each_spelling_once(
        tmp_path, monkeypatch):
    header, *rows = _generated_csv("candidates", 3_000).splitlines()
    respelt = [_respelt(row, i) for i, row in enumerate(rows)]
    maps = satfeas.io._TIERS, satfeas.io._BOOLS, satfeas.io._EXCLUSIONS
    before = [dict(m) for m in maps]
    twin = load_candidates(write(tmp_path, "plain.csv", "\n".join([header, *rows]) + "\n"))
    checked = _counted_cells(monkeypatch)
    loaded = load_candidates(write(tmp_path, "c.csv", "\n".join([header, *respelt]) + "\n"))
    assert loaded == twin
    # a row is checked only for a raw cell no row before it spelled so
    spellings = {(k, row.split(",")[k]) for row in respelt for k in (1, 4, 5)}
    assert 0 < len(checked) <= len(spellings) < 60
    # the load's spelling maps are its own: no module map, and so no enum, learns a spelling
    assert [dict(m) for m in maps] == before
    for enum, spelling in ((TierClass, "a"), (ExclusionCategory, "NONE"),
                           (ExclusionCategory, " none")):
        with pytest.raises(ValueError):
            enum(spelling)


def _blank(kind):
    """A whitespace-only row as wide as a ``kind`` file's."""
    return ",".join([" "] * (_FAULT_FILES[kind][2].count(",") + 1))


#: edits of a generated file's data rows; all but the bad cell leave what it loads unchanged
_EDITS = {
    "plain": lambda kind, rows: rows,
    "mixed-case spellings": lambda kind, rows: [rows[0].upper(), *rows[1:]],
    "whitespace-only rows at the start": lambda kind, rows: [_blank(kind), "", *rows],
    # in an events file, inside a date's run and between two runs
    "whitespace-only rows in the middle": lambda kind, rows: [
        *rows[:260], " ", _blank(kind), *rows[260:275], "\t", *rows[275:]],
    "whitespace-only rows at the end": lambda kind, rows: [*rows, _blank(kind), "\t", ""],
    "one bad cell": lambda kind, rows: [*rows[:260], _bad_number(kind, rows[260]), *rows[261:]],
}


def _bad_number(kind, row):
    """``row`` of a ``kind`` file with its first number cell spelled ``x``."""
    cells = row.split(",")
    cells[1 if kind in ("core", "proposal") else 2] = "x"
    return ",".join(cells)


@pytest.mark.parametrize("edit", sorted(_EDITS))
@pytest.mark.parametrize("kind", sorted(_FAULT_FILES))
def test_each_loader_opens_its_file_once(tmp_path, monkeypatch, kind, edit):
    loader = _FAULT_FILES[kind][0]
    header, *rows = _generated_csv(kind, 500).splitlines()
    path = write(tmp_path, "f.csv", "\n".join([header, *_EDITS[edit](kind, rows)]) + "\n")
    expected = loader(write(tmp_path, "plain.csv", "\n".join([header, *rows]) + "\n"))
    opened, real = [], satfeas.io._opened

    def counted(*args):
        opened.append(args)
        return real(*args)

    monkeypatch.setattr(satfeas.io, "_opened", counted)
    loaded = _outcome(loader, path)
    assert len(opened) == 1
    if edit == "one bad cell":
        assert loaded[:2] == ("bad_number", f"{_FAULT_FILES[kind][1]} row 262: 'x' is not a number")
    else:
        assert loaded == expected
        # a list, not an iterator: the bench tracer's replay hook takes the events' len() and
        # its load_events and load_candidates hooks iterate them or take their len()
        assert type(loaded) is {"core": tuple, "proposal": RebalanceProposal}.get(kind, list)


def test_load_events_ai_fixture_pinned():
    def ev(day, trades, due=False, brk=False):
        return RebalanceEvent(date=date.fromisoformat(day), proposal=RebalanceProposal(
            trades=trades, schedule_due=due, structural_break=brk))

    assert load_events(FIXTURES / "ai_events.csv") == [
        ev("2025-03-31", (("CHIP1", 0.004), ("CLOUD1", -0.003))),
        ev("2025-06-30", (("CHIP1", 0.02), ("CLOUD1", -0.0005), ("INTEG1", 0.012)), due=True),
        ev("2025-09-30", (("FAB1", 0.001),)),
        ev("2025-12-31", (("PLAT1", 0.015),), brk=True),
    ]

class TestEmitReport:
    def run_fixture(self):
        tiers = [TierClass.A, TierClass.A, TierClass.B, TierClass.B, TierClass.C]
        candidates = tuple(make_asset(id=f"N{i}", tier=t) for i, t in enumerate(tiers))
        return run_cascade(CascadeInput(candidates=candidates,
                                        params=make_params(min_effect_bps=0.2),
                                        kappa_a=1.5, kappa_c=0.5, theme="ai"))

    def test_json_contains_all_layers_and_flag(self):
        import json

        report, design = self.run_fixture()
        doc = json.loads(emit_report(report, design, "json"))
        assert doc["report"]["admissible"] is True
        assert set(doc["report"]["layers"]) == {"domain", "structural", "epistemic",
                                                "economic", "physical"}

    def test_json_round_trip_is_field_identical(self):
        report, design = self.run_fixture()
        data = emit_report(report, design, "json")
        parsed_report, parsed_design = parse_report(data)
        assert parsed_report == report
        assert parsed_design == design

    def test_json_is_stable_key_ordered(self):
        report, design = self.run_fixture()
        assert emit_report(report, design, "json") == emit_report(report, design, "json")

    def test_text_layer_rows_in_cascade_order(self):
        report, design = self.run_fixture()
        text = emit_report(report, design, "text").decode()
        positions = [text.index(f"\n{name} ") for name in
                     ("domain", "structural", "epistemic", "economic", "physical")]
        assert positions == sorted(positions)

    def test_unknown_format_rejected(self):
        report, design = self.run_fixture()
        with pytest.raises(ValidationError):
            emit_report(report, design, "yaml")



def reference_json(doc):
    """The bytes ``json_bytes`` must write: the pure-Python encoder's indented JSON."""
    return (json.dumps(doc, sort_keys=True, indent=2, default=to_json) + "\n").encode("utf-8")


_TRICKY_TEXT = st.text(st.sampled_from(['"', "\\", "]", "[", ",", "\n", " ", "a", "\ud800",
                                         "\u00e9"]), max_size=8)
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 1024),
    st.floats(), st.text(st.characters(exclude_categories=())), _TRICKY_TEXT,
    st.sampled_from(TierClass))
_VERDICT_NUMBER = st.none() | st.floats(allow_nan=False, allow_infinity=False)  # as checked
_LEAF = st.one_of(
    _SCALAR, st.just(UNBOUNDED),
    st.builds(LayerVerdict, st.booleans(), _VERDICT_NUMBER, _VERDICT_NUMBER,
              _VERDICT_NUMBER | st.just(UNBOUNDED), _VERDICT_NUMBER, st.none() | _TRICKY_TEXT))
_ROWS = st.lists(st.lists(_SCALAR, min_size=1, max_size=3).map(tuple)
                 | st.lists(_SCALAR, min_size=1, max_size=3), max_size=4)
_DOCS = st.recursive(_LEAF | _ROWS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4) | _TRICKY_TEXT, inner, max_size=4)), max_leaves=20)


@example({})
@example([])
@example({"a": {}, "b": [], "c": (), "d": [[], {}]})
@example([[], [1]])
@example({"rows": [[1.5, "a"], [], ["b", 2]]})
@example([["x]", 1], ["]", "y]"]])
@example({"rows": [['"],\n    ["', 0.5], ["],\n    [", -0.0]]})
@example([[float("nan"), float("inf")], (float("-inf"), 5e-324, 2 ** 1100)])
@example({"tiers": [TierClass.A, [TierClass.B, 1]], "verdict": LayerVerdict(True, -0.0, 1.0)})
@settings(max_examples=300)
@given(_DOCS)
def test_json_bytes_equals_the_indented_reference(doc):
    assert json_bytes(doc) == reference_json(doc)


def test_every_emitter_equals_the_reference_at_scale(monkeypatch):
    # a 5e3-candidate universe: cap dicts, verdicts and constituent rows at their real depth
    params = make_params(participation_cap=0.02, min_effect_bps=0.05)
    assets = tuple(make_asset(id=f"N{i}", tier=TierClass("ABC"[i % 3]), adv_usd=1e5 * (1 + i % 97),
                              round_trip_cost_bps=(i % 4) * 10.0 or None) for i in range(5_000))
    alpha = 0.1
    design = SatelliteDesign("scale", alpha, tuple((a.id, alpha / 1_000) for a in assets[:1_000]))
    trades = tuple((a.id, (i % 21 - 10) / 2e3) for i, a in enumerate(assets[::5]))
    events = [RebalanceEvent(date(2025, 1, 1 + d), RebalanceProposal(trades[d::30], d % 2 == 0))
              for d in range(20)]

    def emitted():
        return [emit_bounds(compute_bounds(params, assets), "json"),
                *(emit_report(*run_cascade(CascadeInput(assets, params, theme="scale",
                                                        design=d)), "json")
                  for d in (None, design)),
                emit_filter(*filter_rebalance(RebalanceProposal(trades, True), params, assets),
                            "json"),
                emit_replay(replay(events, params, design, assets), "json")]

    fast = emitted()
    monkeypatch.setattr(satfeas.io, "json_bytes", reference_json)
    assert fast == emitted()
    assert fast[2].count(b"\n") > 2_000  # the supplied design's rows were emitted


_DROP = object()


def _edit(*path, value=_DROP):
    """An edit of a report document: the value at ``path`` replaced, or dropped."""
    def edit(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return doc
    return edit


#: (case, edit of a valid report document, error code, field named).
PARSE_REPORT_ERRORS = [
    ("root not an object", lambda doc: [doc], "not_an_object", "report document"),
    ("report missing", _edit("report"), "missing_key", "report document.report"),
    ("design missing", _edit("design"), "missing_key", "report document.design"),
    ("unknown root key", _edit("extra", value=1), "unknown_key", "report document.extra"),
    ("report not an object", _edit("report", value=5), "not_an_object", "report"),
    ("layers not an object", _edit("report", "layers", value=5), "not_an_object",
     "report.layers"),
    ("layer missing", _edit("report", "layers", "physical"), "missing_key",
     "report.layers.physical"),
    ("unknown layer", _edit("report", "layers", "social", value={}), "unknown_key",
     "report.layers.social"),
    ("verdict not an object", _edit("report", "layers", "domain", value=5), "not_an_object",
     "report.layers.domain"),
    ("verdict key missing", _edit("report", "layers", "domain", "margin"), "missing_key",
     "report.layers.domain.margin"),
    ("passed not a bool", _edit("report", "layers", "domain", "passed", value="no"),
     "bad_flag", "passed"),
    ("passed a number", _edit("report", "layers", "physical", "passed", value=1), "bad_flag",
     "passed"),
    ("margin a string", _edit("report", "layers", "domain", "margin", value="wide"),
     "bad_number", "margin"),
    ("margin unbounded", _edit("report", "layers", "economic", "margin", value="unbounded"),
     "bad_number", "margin"),
    ("normalized margin a bool",
     _edit("report", "layers", "structural", "normalized_margin", value=True), "bad_number",
     "normalized_margin"),
    ("bound a string", _edit("report", "layers", "epistemic", "bound", value="3"), "bad_number",
     "bound"),
    ("usage a list", _edit("report", "layers", "physical", "usage", value=[0.1]), "bad_number",
     "usage"),
    ("detail a number", _edit("report", "layers", "domain", "detail", value=5), "bad_detail",
     "detail"),
    ("bounds not an object", _edit("report", "derived_bounds", value=5), "not_an_object",
     "report.derived_bounds"),
    ("bounds key unknown", _edit("report", "derived_bounds", "k_max", value=3), "unknown_key",
     "report.derived_bounds.k_max"),
    ("margin NaN", _edit("report", "layers", "physical", "margin", value=math.nan),
     "bad_number", "margin"),
    ("bound Infinity", _edit("report", "layers", "economic", "bound", value=math.inf),
     "bad_number", "bound"),
    ("usage past the float range", _edit("report", "layers", "domain", "usage", value=10**400),
     "bad_number", "usage"),
    ("alpha_effective a string",
     _edit("report", "derived_bounds", "alpha_effective", value="banana"), "not_finite",
     "alpha_effective"),
    ("alpha_max_structural above 1",
     _edit("report", "derived_bounds", "alpha_max_structural", value=1.5), "alpha_out_of_range",
     "alpha_max_structural"),
    ("delta_w_min negative", _edit("report", "derived_bounds", "delta_w_min", value=-0.001),
     "bad_bound", "delta_w_min"),
    ("k_max_econ negative", _edit("report", "derived_bounds", "k_max_econ", value=-5),
     "bad_bound", "k_max_econ"),
    ("k_max_entropy a float", _edit("report", "derived_bounds", "k_max_entropy", value=14.0),
     "bad_bound", "k_max_entropy"),
    ("k_max_entropy unbounded",
     _edit("report", "derived_bounds", "k_max_entropy", value="unbounded"), "bad_bound",
     "k_max_entropy"),
    ("impact caps a list", _edit("report", "derived_bounds", "weight_caps_impact", value=[1, 2]),
     "bad_bound", "weight_caps_impact"),
    ("impact cap above 1",
     _edit("report", "derived_bounds", "weight_caps_impact", "N0", value=1.5), "bad_bound",
     "weight_caps_impact"),
    ("impact cap NaN",
     _edit("report", "derived_bounds", "weight_caps_impact", "N0", value=math.nan), "bad_bound",
     "weight_caps_impact"),
    ("impact cap negative",
     _edit("report", "derived_bounds", "weight_caps_impact", "N0", value=-0.1), "bad_bound",
     "weight_caps_impact"),
    ("participation caps a number",
     _edit("report", "derived_bounds", "weight_caps_participation", value=0.5), "bad_bound",
     "weight_caps_participation"),
    ("notes not a list", _edit("report", "notes", value=5), "bad_notes", "notes"),
    ("design not an object", _edit("design", value=5), "not_an_object", "design"),
]


@pytest.mark.parametrize("edit,code,field", [case[1:] for case in PARSE_REPORT_ERRORS],
                         ids=[case[0] for case in PARSE_REPORT_ERRORS])
def test_parse_report_rejects_malformed_shapes(edit, code, field):
    doc = json.loads(emit_report(*TestEmitReport().run_fixture(), "json"))
    with pytest.raises(ValidationError) as err:
        parse_report(json.dumps(edit(doc)))
    assert (err.value.code, err.value.field) == (code, field)
