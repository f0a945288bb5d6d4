"""Construction validation and serialization round-trips for the domain types."""

import inspect
import math
import sys
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satfeas import (
    Asset,
    EconParams,
    EntropyParams,
    ExclusionCategory,
    FeasibilityParams,
    ImpactParams,
    LayerVerdict,
    RebalanceProposal,
    SatelliteDesign,
    StructuralParams,
    TierClass,
    ValidationError,
    assign_tier_weights,
    breadth_bound_econ,
    breadth_bound_entropy,
    entropy_increment_approx,
    entropy_increment_exact,
)
from satfeas.model import _is_finite, check_kappas, check_pairs, entry_error, to_json

from conftest import make_asset, make_params


class TestValidation:
    def test_asset_rejects_nonpositive_adv(self):
        with pytest.raises(ValidationError) as err:
            make_asset(adv_usd=0)
        assert err.value.code == "adv_must_be_positive"
        assert "adv_usd" in str(err.value)

    @pytest.mark.parametrize("overrides,code,field", [
        ({"id": ""}, "bad_id", "id"),
        ({"id": 3}, "bad_id", "id"),
        ({"tier": "A"}, "bad_tier", "tier"),
        ({"gaer": 1}, "bad_flag", "gaer_admissible"),
        ({"exclusion": "none"}, "bad_exclusion", "exclusion"),
    ])
    def test_asset_type_guards(self, overrides, code, field):
        with pytest.raises(ValidationError) as err:
            make_asset(**overrides)
        assert (err.value.code, err.value.field) == (code, field)

    def test_asset_rejects_negative_cost_override(self):
        with pytest.raises(ValidationError) as err:
            make_asset(round_trip_cost_bps=-1.0)
        assert err.value.field == "round_trip_cost_bps"

    def test_impact_delta_must_be_in_open_unit_interval(self):
        for bad in (0.0, 1.0, 1.2, -0.1):
            with pytest.raises(ValidationError, match="delta must lie in"):
                ImpactParams(c=0.1, delta=bad, impact_cap=0.01)

    def test_participation_cap_range(self):
        with pytest.raises(ValidationError):
            ImpactParams(c=0.1, delta=0.5, impact_cap=0.01, participation_cap=0.0)
        ImpactParams(c=0.1, delta=0.5, impact_cap=0.01, participation_cap=1.0)

    def test_econ_rejects_zero_cost(self):
        with pytest.raises(ValidationError, match="round_trip_cost_bps"):
            EconParams(round_trip_cost_bps=0.0)

    def test_econ_rejects_an_overflowing_action_threshold(self):
        # eps / C_rt = 1 / 5e-324 leaves the float range: no finite sleeve threshold
        with pytest.raises(ValidationError) as err:
            EconParams(round_trip_cost_bps=5e-324, min_effect_bps=1.0)
        assert (err.value.code, err.value.field) == ("action_threshold_overflows",
                                                     "min_effect_bps")
        assert EconParams(round_trip_cost_bps=5e-324, min_effect_bps=0.0).min_effect_bps == 0.0
        EconParams(round_trip_cost_bps=1.0, min_effect_bps=sys.float_info.max)

    def test_structural_allows_zero_loss_tolerance(self):
        p = StructuralParams(loss_tolerance=0.0, max_drawdown=0.5)
        assert p.loss_tolerance == 0.0

    def test_structural_rejects_zero_drawdown(self):
        with pytest.raises(ValidationError, match="max_drawdown"):
            StructuralParams(loss_tolerance=0.05, max_drawdown=0.0)

    def test_structural_rejects_inverted_policy_range(self):
        with pytest.raises(ValidationError):
            StructuralParams(loss_tolerance=0.05, max_drawdown=0.5,
                             alpha_policy_min=0.2, alpha_policy_max=0.1)

    def test_entropy_budget_nonnegative(self):
        with pytest.raises(ValidationError, match="delta_h_max"):
            EntropyParams(delta_h_max=-0.1)

    def test_params_reject_nonpositive_aum(self):
        with pytest.raises(ValidationError, match="aum_usd"):
            make_params(aum_usd=0)

    def test_params_reject_turnover_outside_unit_interval(self):
        with pytest.raises(ValidationError, match="turnover_fraction"):
            make_params(turnover_fraction=0.0)
        with pytest.raises(ValidationError, match="turnover_fraction"):
            make_params(turnover_fraction=1.5)

    def test_design_weights_must_sum_to_alpha(self):
        with pytest.raises(ValidationError) as err:
            SatelliteDesign(theme="t", alpha=0.1, constituents=(("a", 0.05), ("b", 0.06)))
        assert err.value.code == "weights_do_not_sum_to_alpha"

    def test_design_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError) as err:
            SatelliteDesign(theme="t", alpha=0.1, constituents=(("a", 0.05), ("a", 0.05)))
        assert err.value.code == "duplicate_id"

    def test_design_rejects_negative_weight(self):
        with pytest.raises(ValidationError):
            SatelliteDesign(theme="t", alpha=0.0, constituents=(("a", -0.1), ("b", 0.1)))

    def test_design_kappa_bounds(self):
        with pytest.raises(ValidationError):
            SatelliteDesign(theme="t", alpha=0.1, constituents=(("a", 0.1),), kappa_a=0.9)
        with pytest.raises(ValidationError):
            SatelliteDesign(theme="t", alpha=0.1, constituents=(("a", 0.1),), kappa_c=0.0)

    def test_proposal_rejects_duplicate_trades(self):
        with pytest.raises(ValidationError):
            RebalanceProposal(trades=(("a", 0.1), ("a", -0.1)))

    def test_types_are_immutable(self):
        asset = make_asset()
        with pytest.raises(AttributeError):
            asset.adv_usd = 1.0


#: (label, pairs, message, code, field) for a malformed weight-pair list;
#: ``{what}`` is the field the pairs arrive in.
WEIGHT_PAIR_ERRORS = [
    ("not_iterable", 5, "{what} must be a list of (id, weight) pairs",
     "bad_weight_pair", "{what}"),
    ("bad_shape", (("a", 0.1, 0.2),), "{what} entries must be (id, weight) pairs",
     "bad_weight_pair", "{what}"),
    ("empty_id", (("", 0.1),), "{what} entry 1: id must be a nonempty string", "bad_id",
     "{what}"),
    ("not_finite", (("a", math.nan),), "{what} entry 1: weight for a must be a finite number",
     "not_finite", "{what}"),
    ("minus_inf", (("a", 0.1), ("b", -math.inf)),
     "{what} entry 2: weight for b must be a finite number", "not_finite", "{what}"),
    ("bool", (("a", True),), "{what} entry 1: weight for a must be a finite number",
     "not_finite", "{what}"),
    ("negative", (("a", -0.1),), "{what} entry 1: weight for a must be nonnegative",
     "weight_must_be_nonnegative", "{what}"),
    ("duplicate", (("a", 0.05), ("a", 0.05)), "{what} entry 2: duplicate id 'a'",
     "duplicate_id", "{what}"),
]


def _design_with(pairs):
    return SatelliteDesign(theme="t", alpha=0.1, constituents=pairs)


@pytest.mark.parametrize("build,what", [(_design_with, "constituents"),
                                        (lambda pairs: check_pairs(pairs, "core_weights"),
                                         "core_weights")],
                         ids=["design", "core_weights"])
@pytest.mark.parametrize("pairs,message,code,field", [case[1:] for case in WEIGHT_PAIR_ERRORS],
                         ids=[case[0] for case in WEIGHT_PAIR_ERRORS])
def test_weight_pair_errors(build, what, pairs, message, code, field):
    with pytest.raises(ValidationError) as err:
        build(pairs)
    assert (str(err.value), err.value.code, err.value.field) == \
        (message.format(what=what), code, field.format(what=what))


#: (label, trades, message, code): the same rules on a signed list, in entry order.
TRADE_ERRORS = [
    ("not_iterable", 5, "trades must be a list of (id, delta_w) pairs", "bad_weight_pair"),
    ("bad_shape", (("a", 0.1, 0.2),), "trades entries must be (id, delta_w) pairs",
     "bad_weight_pair"),
    ("empty_id", (("a", 0.1), ("", 0.1)), "trades entry 2: id must be a nonempty string",
     "bad_id"),
    ("duplicate_before_nan", (("a", 0.1), ("a", math.nan)), "trades entry 2: duplicate id 'a'",
     "duplicate_id"),
    ("inf", (("a", -0.1), ("b", math.inf)),
     "trades entry 2: delta_w for b must be a finite number", "not_finite"),
    ("first_bad_entry_wins", (("a", math.nan), ("", 0.1)),
     "trades entry 1: delta_w for a must be a finite number", "not_finite"),
    ("nan", (("a", math.nan),), "trades entry 1: delta_w for a must be a finite number",
     "not_finite"),
    ("minus_inf", (("a", -math.inf),), "trades entry 1: delta_w for a must be a finite number",
     "not_finite"),
    ("bool", (("a", 0.1), ("b", False)), "trades entry 2: delta_w for b must be a finite number",
     "not_finite"),
]


@pytest.mark.parametrize("trades,message,code", [case[1:] for case in TRADE_ERRORS],
                         ids=[case[0] for case in TRADE_ERRORS])
def test_trade_errors(trades, message, code):
    with pytest.raises(ValidationError) as err:
        RebalanceProposal(trades=trades)
    assert (str(err.value), err.value.code, err.value.field) == (message, code, "trades")


class _Weight(float):
    pass


#: (label, pairs, the checked pairs): numbers that are not a plain float but pass, as floats
PAIR_NUMBERS = [
    ("int", (("a", 1), ("b", 0)), (("a", 1.0), ("b", 0.0))),
    ("float_subclass", (("a", _Weight(0.25)),), (("a", 0.25),)),
]


@pytest.mark.parametrize("signed", [False, True], ids=["weights", "trades"])
@pytest.mark.parametrize("pairs,expected", [case[1:] for case in PAIR_NUMBERS],
                         ids=[case[0] for case in PAIR_NUMBERS])
def test_pair_numbers_become_floats(pairs, expected, signed):
    checked = check_pairs(pairs, "trades" if signed else "weights", signed)
    assert checked == expected
    assert [type(w) for _, w in checked] == [float] * len(expected)


@pytest.mark.parametrize("build", [
    lambda: SatelliteDesign(theme="t", alpha=10**400, constituents=()),
    lambda: SatelliteDesign(theme="t", alpha=0.1, constituents=(("a", 0.1),), kappa_a=10**400),
    lambda: SatelliteDesign(theme="t", alpha=0.1, constituents=(("a", -10**400),)),
    lambda: RebalanceProposal(trades=(("a", 10**400),)),
], ids=["alpha", "kappa_a", "weight", "trade"])
def test_integer_past_the_float_range_is_not_finite(build):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.code == "not_finite"


def _check_pairs_reference(pairs, what, signed=False):
    """``check_pairs`` without reusing a pair: every entry is rebuilt as ``(name, float(w))``."""
    column = "delta_w" if signed else "weight"
    try:
        items = iter(pairs)
    except TypeError:
        raise ValidationError(f"{what} must be a list of (id, {column}) pairs",
                              "bad_weight_pair", what) from None
    out, seen = [], set()
    for item in items:
        try:
            name, w = item
        except (TypeError, ValueError):
            raise ValidationError(f"{what} entries must be (id, {column}) pairs",
                                  "bad_weight_pair", what) from None
        if not (isinstance(name, str) and name and name not in seen and _is_finite(w)
                and (signed or w >= 0)):
            raise entry_error(what, len(out), name, w, seen, signed)
        seen.add(name)
        out.append((name, float(w)))
    return tuple(out)


class _Id(str):
    pass


class _Pair(tuple):
    pass


#: ids, numbers and entry shapes: the loaders' plain str, float and tuple most often
_PAIR_IDS = st.sampled_from(["a", "b", "c", "d", "", _Id("a"), _Id("e"), None, 1, b"a"])
_PAIR_NUMBERS = st.one_of(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(), st.floats().map(_Weight),
    st.integers(-2, 2), st.just(10**400), st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, "0.1"]))
_PAIR_SHAPES = st.sampled_from([tuple, tuple, tuple, list, _Pair, lambda pair: (*pair, 0.0),
                                lambda pair: "ab"])


def _outcome(check, pairs, signed):
    try:
        return "ok", check(pairs, "trades" if signed else "weights", signed)
    except ValidationError as e:
        return "error", e.code, e.field, e.index, str(e)


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(st.tuples(_PAIR_IDS, _PAIR_NUMBERS, _PAIR_SHAPES), max_size=8),
       signed=st.booleans())
def test_check_pairs_reuse_changes_nothing(entries, signed):
    """Any mix of entries gives the reference's pairs, or its error at the same index."""
    pairs = [shape((name, w)) for name, w, shape in entries]
    got = _outcome(check_pairs, pairs, signed)
    assert got == _outcome(_check_pairs_reference, pairs, signed)
    if got[0] == "ok":
        assert type(got[1]) is tuple
        assert all(type(pair) is tuple and type(pair[1]) is float for pair in got[1])
        assert [type(name) for name, _ in got[1]] == [type(pair[0]) for pair in pairs]


class TestRoundTrips:
    def test_design_dict_round_trip(self):
        design = SatelliteDesign(theme="ai", alpha=0.1,
                                 constituents=(("a", 0.06), ("b", 0.04)),
                                 kappa_a=1.5, kappa_c=0.5)
        assert SatelliteDesign.from_dict(to_json(design)) == design

    def test_unknown_keys_rejected(self):
        design = SatelliteDesign(theme="t", alpha=0.1, constituents=(("a", 0.1),))
        data = to_json(design)
        data["alpha_forecast"] = 0.2
        with pytest.raises(ValidationError, match="unknown key"):
            SatelliteDesign.from_dict(data)


#: Every endpoint of every checked interval (0 and 1) with the float on each side of it,
#: then -0.0 and the values that are not finite.
BOUNDARY_INPUTS = [*(x for end in (0.0, 1.0) for x in (end, math.nextafter(end, -math.inf),
                                                      math.nextafter(end, math.inf))),
                   -0.0, math.nan, math.inf, -math.inf]


def _design(alpha):
    return SatelliteDesign(theme="t", alpha=alpha, constituents=(("a", alpha),))


def _proposal(**flags):
    return RebalanceProposal(trades=(), **flags)


def _verdict(passed):
    return LayerVerdict(passed=passed, margin=None, normalized_margin=None)


#: (check, call with the value under test, error field, accepts, error message, error code,
#: whether a value that is not finite is ``not_finite`` before the range is tested). Each
#: interval is written out here as the tests' reference, apart from the model's table.
INTERVAL_CHECKS = [
    ("Asset.adv_usd", lambda x: make_asset(adv_usd=x), "adv_usd", lambda x: x > 0,
     "adv_usd must be positive", "adv_must_be_positive", True),
    ("Asset.round_trip_cost_bps", lambda x: make_asset(round_trip_cost_bps=x),
     "round_trip_cost_bps", lambda x: x is None or x >= 0,
     "round_trip_cost_bps must be nonnegative when present", "cost_must_be_nonnegative", True),
    ("ImpactParams.c", lambda x: make_params(c=x), "c", lambda x: x > 0,
     "c must be positive", "c_must_be_positive", True),
    ("ImpactParams.delta", lambda x: make_params(delta=x), "delta", lambda x: 0 < x < 1,
     "delta must lie in (0,1)", "delta_out_of_range", True),
    ("ImpactParams.impact_cap", lambda x: make_params(impact_cap=x), "impact_cap",
     lambda x: x > 0, "impact_cap must be positive", "impact_cap_must_be_positive", True),
    ("ImpactParams.participation_cap", lambda x: make_params(participation_cap=x),
     "participation_cap", lambda x: x is None or 0 < x <= 1,
     "participation_cap must lie in (0,1] when present", "participation_cap_out_of_range", True),
    ("EconParams.round_trip_cost_bps", lambda x: EconParams(round_trip_cost_bps=x),
     "round_trip_cost_bps", lambda x: x > 0, "round_trip_cost_bps must be positive",
     "cost_must_be_positive", True),
    ("EconParams.min_effect_bps", lambda x: make_params(min_effect_bps=x), "min_effect_bps",
     lambda x: x >= 0, "min_effect_bps must be nonnegative", "effect_must_be_nonnegative", True),
    ("StructuralParams.loss_tolerance", lambda x: make_params(loss_tolerance=x),
     "loss_tolerance", lambda x: 0 <= x <= 1, "loss_tolerance must lie in [0,1]",
     "loss_tolerance_out_of_range", True),
    ("StructuralParams.max_drawdown", lambda x: make_params(max_drawdown=x), "max_drawdown",
     lambda x: 0 < x <= 1, "max_drawdown must lie in (0,1]", "max_drawdown_out_of_range", True),
    ("StructuralParams.alpha_policy_min",
     lambda x: make_params(alpha_policy_min=x, alpha_policy_max=1.0), "alpha_policy_min",
     lambda x: 0 <= x <= 1,
     "alpha policy range must satisfy 0 <= alpha_policy_min <= alpha_policy_max <= 1",
     "alpha_policy_out_of_range", True),
    ("StructuralParams.alpha_policy_max",
     lambda x: make_params(alpha_policy_min=0.0, alpha_policy_max=x), "alpha_policy_max",
     lambda x: 0 <= x <= 1,
     "alpha policy range must satisfy 0 <= alpha_policy_min <= alpha_policy_max <= 1",
     "alpha_policy_out_of_range", True),
    ("EntropyParams.delta_h_max", lambda x: make_params(delta_h_max=x), "delta_h_max",
     lambda x: x >= 0, "delta_h_max must be nonnegative", "entropy_budget_must_be_nonnegative",
     True),
    ("FeasibilityParams.aum_usd", lambda x: make_params(aum_usd=x), "aum_usd", lambda x: x > 0,
     "aum_usd must be positive", "aum_must_be_positive", True),
    ("FeasibilityParams.turnover_fraction", lambda x: make_params(turnover_fraction=x),
     "turnover_fraction", lambda x: 0 < x <= 1, "turnover_fraction must lie in (0,1]",
     "turnover_out_of_range", True),
    ("SatelliteDesign.alpha", _design, "alpha", lambda x: 0 <= x <= 1,
     "alpha must lie in [0,1]", "alpha_out_of_range", True),
    ("check_kappas.kappa_a", lambda x: check_kappas(x, 1.0), "kappa_a", lambda x: x >= 1,
     "kappa_a must be >= 1", "kappa_a_out_of_range", True),
    ("check_kappas.kappa_c", lambda x: check_kappas(1.0, x), "kappa_c", lambda x: 0 < x <= 1,
     "kappa_c must lie in (0,1]", "kappa_c_out_of_range", True),
    # the public alpha guards compare only: nan and the infinities are out of range
    ("breadth_bound_econ", lambda x: breadth_bound_econ(x, EconParams(25.0, 2.0)), "alpha",
     lambda x: 0 <= x <= 1, "alpha must lie in [0,1]", "alpha_out_of_range", False),
    ("breadth_bound_entropy", lambda x: breadth_bound_entropy(x, EntropyParams(0.5)), "alpha",
     lambda x: 0 <= x <= 1, "alpha must lie in [0,1]", "alpha_out_of_range", False),
    ("entropy_increment_approx", lambda x: entropy_increment_approx(x, 2), "alpha",
     lambda x: 0 < x <= 1, "alpha must lie in (0,1]", "alpha_out_of_range", False),
    ("entropy_increment_exact", lambda x: entropy_increment_exact([0.5, 0.5], x, 2), "alpha",
     lambda x: 0 <= x < 1, "alpha must lie in [0,1)", "alpha_out_of_range", False),
    ("assign_tier_weights", lambda x: assign_tier_weights(x, [make_asset()]), "alpha",
     lambda x: 0 < x <= 1, "alpha must lie in (0,1]", "alpha_out_of_range", False),
]

#: The optional fields, where ``None`` means absent.
_OPTIONAL = {"Asset.round_trip_cost_bps", "ImpactParams.participation_cap"}

#: The policy range is one rule over two fields: it names its lower end.
_RANGE_FIELD = {"StructuralParams.alpha_policy_max": "alpha_policy_min"}


def _boundary_cases():
    for check, call, field, accepts, message, code, finite_first in INTERVAL_CHECKS:
        inputs = BOUNDARY_INPUTS + [None] * (check in _OPTIONAL)
        if check == "entropy_increment_approx":  # its zero alpha has a rule of its own
            inputs = [x for x in inputs if x != 0]
        for x in inputs:
            if finite_first and x is not None and not math.isfinite(x):
                want = ("not_finite", field, f"{field} must be a finite number")
            elif accepts(x):
                want = None
            else:
                want = (code, _RANGE_FIELD.get(check, field), message)
            yield pytest.param(call, x, want, id=f"{check}={x!r}")


def _error_of(call, x):
    try:
        call(x)
    except ValidationError as e:
        return e.code, e.field, str(e)
    return None


@pytest.mark.parametrize("call,x,want", _boundary_cases())
def test_interval_check_boundaries(call, x, want):
    assert _error_of(call, x) == want


#: (flag, call with the value under test).
FLAG_CHECKS = [
    ("gaer_admissible", lambda x: make_asset(gaer=x)),
    ("schedule_due", lambda x: _proposal(schedule_due=x)),
    ("structural_break", lambda x: _proposal(structural_break=x)),
    ("passed", _verdict),
]


@pytest.mark.parametrize("flag,call", FLAG_CHECKS, ids=[flag for flag, _ in FLAG_CHECKS])
@pytest.mark.parametrize("x", [1, "true", None, True, False])
def test_flag_checks(flag, call, x):
    want = None if isinstance(x, bool) else ("bad_flag", flag, f"{flag} must be a boolean")
    assert _error_of(call, x) == want


# --- the Asset surface: a hand-written constructor over the dataclass fields --------------

def test_asset_signature_lists_its_fields_in_order_with_their_defaults():
    params = inspect.signature(Asset).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        (f.name, inspect.Parameter.empty if f.default is MISSING else f.default)
        for f in fields(Asset)]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())


def test_asset_is_frozen_and_slotted():
    asset = make_asset()
    for f in fields(Asset):
        with pytest.raises(FrozenInstanceError):
            setattr(asset, f.name, getattr(asset, f.name))
    assert not hasattr(asset, "__dict__")
    assert "__post_init__" not in vars(Asset)
    assert Asset.__init__.__code__.co_filename == sys.modules[Asset.__module__].__file__


def test_asset_keyword_and_positional_construction_agree():
    args = ("X", TierClass.B, 2.5e6, False, ExclusionCategory.THEMATIC_ETF, 3.0)
    by_position, by_name = Asset(*args), Asset(**dict(zip(_ASSET_FIELDS, args)))
    assert by_position == by_name and hash(by_position) == hash(by_name)
    assert [getattr(by_name, name) for name in _ASSET_FIELDS] == list(args)
    short = Asset("X", TierClass.B, 2.5e6, False)
    assert (short.exclusion, short.round_trip_cost_bps) == (ExclusionCategory.NONE, None)
    assert short == Asset(id="X", tier=TierClass.B, adv_usd=2.5e6, gaer_admissible=False)


def test_asset_replace_revalidates():
    asset = make_asset()
    assert replace(asset, adv_usd=7.0) == make_asset(adv_usd=7.0)
    with pytest.raises(ValidationError) as err:
        replace(asset, adv_usd=-1.0)
    assert err.value.code == "adv_must_be_positive"


_ASSET_FIELDS = ("id", "tier", "adv_usd", "gaer_admissible", "exclusion", "round_trip_cost_bps")
_GOOD_ASSET = ("X", TierClass.A, 5e6, True, ExclusionCategory.NONE, None)

#: (bad value of each field, in field order; the error each one raises when it is the first).
ASSET_FIELD_ERRORS = [
    (("", "A", -1.0, "yes", "none", -1.0),
     [("bad_id", "id", "id must be a nonempty string"),
      ("bad_tier", "tier", "tier must be a TierClass"),
      ("adv_must_be_positive", "adv_usd", "adv_usd must be positive"),
      ("bad_flag", "gaer_admissible", "gaer_admissible must be a boolean"),
      ("bad_exclusion", "exclusion", "exclusion must be an ExclusionCategory"),
      ("cost_must_be_nonnegative", "round_trip_cost_bps",
       "round_trip_cost_bps must be nonnegative when present")]),
    ((3, None, math.nan, 1, ExclusionCategory, math.inf),
     [("bad_id", "id", "id must be a nonempty string"),
      ("bad_tier", "tier", "tier must be a TierClass"),
      ("not_finite", "adv_usd", "adv_usd must be a finite number"),
      ("bad_flag", "gaer_admissible", "gaer_admissible must be a boolean"),
      ("bad_exclusion", "exclusion", "exclusion must be an ExclusionCategory"),
      ("not_finite", "round_trip_cost_bps", "round_trip_cost_bps must be a finite number")]),
]


@pytest.mark.parametrize("first", range(len(_ASSET_FIELDS)), ids=_ASSET_FIELDS)
@pytest.mark.parametrize("bad,errors", ASSET_FIELD_ERRORS, ids=["out-of-range", "mistyped"])
def test_asset_words_its_first_bad_field(bad, errors, first):
    # every field from ``first`` on is bad: the checks run in field order
    args = _GOOD_ASSET[:first] + bad[first:]
    assert _error_of(lambda _: Asset(*args), None) == errors[first]
