"""Domain types for satellite-sleeve feasibility evaluation.

Every type validates its invariants at construction time and is frozen
afterwards, so instances are safe to share across concurrent evaluators.
Constructors raise :class:`ValidationError` naming the offending field.

All weights are fractions of total portfolio value; cost-like quantities
carry a ``_bps`` suffix (1 bp = 1e-4 as a fraction) and are converted at
most once, inside the operation that mixes them with fractions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Any, Callable, Container, Iterable, Mapping

#: Absolute tolerance for equality-style weight invariants. All formulas in
#: the engine are closed-form, so nothing looser is justified.
WEIGHT_TOL = 1e-12

#: Absolute slack on the sum of a weight vector normalized outside the engine
#: (a core composition file); looser than WEIGHT_TOL for that reason.
NORMALIZED_SUM_TOL = 1e-9

#: Feasibility layers in cascade evaluation order.
LAYERS = ("domain", "structural", "epistemic", "economic", "physical")


class ValidationError(ValueError):
    """An input violated a declared invariant.

    ``code`` is a stable machine-readable identifier; ``field`` names the
    offending input when one can be singled out, and ``index`` its entry if it is a list.
    """

    def __init__(self, message: str, code: str | None = None, field: str | None = None,
                 index: int | None = None):
        super().__init__(message)
        self.code = code
        self.field = field
        self.index = index

    def __str__(self) -> str:
        prefix = "" if self.index is None else f"{self.field} entry {self.index + 1}: "
        return prefix + self.args[0]


class Unbounded:
    """Sentinel for a breadth bound that imposes no limit.

    Returned instead of a fake large number when a zero trade threshold
    makes the economic breadth bound vacuous.
    """

    _instance: "Unbounded | None" = None

    def __new__(cls) -> "Unbounded":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "unbounded"


UNBOUNDED = Unbounded()


def _require(cond: bool, message: str, code: str, field_name: str) -> None:
    if not cond:
        raise ValidationError(message, code=code, field=field_name)


#: The smallest positive normal float (below it fewer significant bits) and the largest.
_MIN_NORMAL, _FLOAT_MAX = sys.float_info.min, sys.float_info.max


def _is_finite(x: Any) -> bool:
    if isinstance(x, float):
        return math.isfinite(x)
    # an int is compared with the float range: math.isfinite raises on one past it
    return isinstance(x, int) and not isinstance(x, bool) and -_FLOAT_MAX <= x <= _FLOAT_MAX


def _finite(x: float, name: str) -> None:
    if not _is_finite(x):  # no message is built unless the check fails: loaders check per row
        raise ValidationError(f"{name} must be a finite number", "not_finite", name)


#: Each interval a number is checked against: its test and the words of its error.
_DOMAINS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "positive": (lambda x: x > 0, "must be positive"),
    "nonnegative": (lambda x: x >= 0, "must be nonnegative"),
    ">= 1": (lambda x: x >= 1, "must be >= 1"),
    "(0,1)": (lambda x: 0 < x < 1, "must lie in (0,1)"),
    "(0,1]": (lambda x: 0 < x <= 1, "must lie in (0,1]"),
    "[0,1]": (lambda x: 0 <= x <= 1, "must lie in [0,1]"),
    "[0,1)": (lambda x: 0 <= x < 1, "must lie in [0,1)"),
}


def check_domain(x: Any, name: str, domain: str, code: str, finite: bool = True,
                 optional: bool = False) -> None:
    """The one check of ``x`` against an interval of ``_DOMAINS``: first ``not_finite`` unless
    not ``finite`` (then ``nan`` is out of range); ``None`` passes if ``optional``."""
    if optional and x is None:
        return
    if finite:
        _finite(x, name)
    test, words = _DOMAINS[domain]
    if not test(x):
        raise ValidationError(f"{name} {words}{' when present' if optional else ''}", code, name)


def check_flag(x: Any, name: str) -> None:
    """The one boolean rule: ``x`` is a bool."""
    if not isinstance(x, bool):
        raise ValidationError(f"{name} must be a boolean", "bad_flag", name)


class TierClass(str, Enum):
    """Economic role of a constituent along the thematic value chain."""

    A = "A"  # hard constraints and bottlenecks
    B = "B"  # platforms and rent extractors
    C = "C"  # embedded adopters


class ExclusionCategory(str, Enum):
    """Asset categories barred from sleeve eligibility by design."""

    PURE_PLAY_EARLY_STAGE = "pure_play_early_stage"
    SMALL_CAP_SPECIALIST = "small_cap_specialist"
    REGIME_OPAQUE_JURISDICTION = "regime_opaque_jurisdiction"
    THEMATIC_ETF = "thematic_etf"
    NONE = "none"


@dataclass(frozen=True, slots=True, init=False)
class Asset:
    """One candidate sleeve constituent with liquidity and admissibility data.

    ``round_trip_cost_bps`` optionally overrides the sleeve-level round-trip
    friction for this asset; ``None`` means use the sleeve value.
    """

    id: str
    tier: TierClass
    adv_usd: float
    gaer_admissible: bool
    exclusion: ExclusionCategory = ExclusionCategory.NONE
    round_trip_cost_bps: float | None = None

    def __init__(self, id: str, tier: TierClass, adv_usd: float, gaer_admissible: bool,
                 exclusion: ExclusionCategory = ExclusionCategory.NONE,
                 round_trip_cost_bps: float | None = None) -> None:
        # checked in field order, a plain float or bool first: a loader builds one Asset a row
        adv, cost = adv_usd, round_trip_cost_bps
        if not (isinstance(id, str) and id):
            raise ValidationError("id must be a nonempty string", "bad_id", "id")
        if not isinstance(tier, TierClass):
            raise ValidationError("tier must be a TierClass", "bad_tier", "tier")
        if not ((type(adv) is float and math.isfinite(adv) or _is_finite(adv)) and adv > 0):
            check_domain(adv, "adv_usd", "positive", "adv_must_be_positive")
        if type(gaer_admissible) is not bool:
            check_flag(gaer_admissible, "gaer_admissible")
        if not isinstance(exclusion, ExclusionCategory):
            raise ValidationError("exclusion must be an ExclusionCategory", "bad_exclusion",
                                  "exclusion")
        if cost is not None and not ((type(cost) is float and math.isfinite(cost)
                                      or _is_finite(cost)) and cost >= 0):
            check_domain(cost, "round_trip_cost_bps", "nonnegative", "cost_must_be_nonnegative",
                         optional=True)
        set_id, set_tier, set_adv, set_gaer, set_exclusion, set_cost = _ASSET_SETTERS
        set_id(self, id)
        set_tier(self, tier)
        set_adv(self, adv)
        set_gaer(self, gaer_admissible)
        set_exclusion(self, exclusion)
        set_cost(self, cost)


#: The ``__set__`` of each ``Asset`` slot, in field order, bound once.
_ASSET_SETTERS = tuple(getattr(Asset, f.name).__set__ for f in fields(Asset))


@dataclass(frozen=True)
class ImpactParams:
    """Concave market-impact law parameters, in fractional-return units."""

    c: float
    delta: float
    impact_cap: float
    participation_cap: float | None = None

    def __post_init__(self):
        check_domain(self.c, "c", "positive", "c_must_be_positive")
        check_domain(self.delta, "delta", "(0,1)", "delta_out_of_range")
        check_domain(self.impact_cap, "impact_cap", "positive", "impact_cap_must_be_positive")
        check_domain(self.participation_cap, "participation_cap", "(0,1]",
                     "participation_cap_out_of_range", optional=True)


@dataclass(frozen=True)
class EconParams:
    """Cost-dominance threshold inputs: round-trip friction and minimum effect."""

    round_trip_cost_bps: float
    min_effect_bps: float = 0.0

    def __post_init__(self):
        check_domain(self.round_trip_cost_bps, "round_trip_cost_bps", "positive",
                     "cost_must_be_positive")
        check_domain(self.min_effect_bps, "min_effect_bps", "nonnegative",
                     "effect_must_be_nonnegative")
        _require(self.min_effect_bps / self.round_trip_cost_bps <= _FLOAT_MAX,
                 "min_effect_bps / round_trip_cost_bps overflows the float range",
                 "action_threshold_overflows", "min_effect_bps")


@dataclass(frozen=True)
class StructuralParams:
    """Optionality budget: tolerable loss, failure drawdown, and policy caps."""

    loss_tolerance: float
    max_drawdown: float
    alpha_policy_min: float = 0.0
    alpha_policy_max: float = 1.0

    def __post_init__(self):
        check_domain(self.loss_tolerance, "loss_tolerance", "[0,1]", "loss_tolerance_out_of_range")
        check_domain(self.max_drawdown, "max_drawdown", "(0,1]", "max_drawdown_out_of_range")
        _finite(self.alpha_policy_min, "alpha_policy_min")
        _finite(self.alpha_policy_max, "alpha_policy_max")
        _require(0 <= self.alpha_policy_min <= self.alpha_policy_max <= 1,
                 "alpha policy range must satisfy 0 <= alpha_policy_min <= alpha_policy_max <= 1",
                 "alpha_policy_out_of_range", "alpha_policy_min")


@dataclass(frozen=True)
class EntropyParams:
    """Complexity budget: allowed portfolio weight-entropy increment, in nats."""

    delta_h_max: float

    def __post_init__(self):
        check_domain(self.delta_h_max, "delta_h_max", "nonnegative",
                     "entropy_budget_must_be_nonnegative")


@dataclass(frozen=True)
class FeasibilityParams:
    """All policy inputs of the four feasibility layers plus portfolio scale.

    ``turnover_fraction`` is the per-rebalance turnover envelope applied
    uniformly; asset-level round-trip-cost overrides live on :class:`Asset`.
    """

    aum_usd: float
    turnover_fraction: float
    impact: ImpactParams
    econ: EconParams
    structural: StructuralParams
    entropy: EntropyParams

    def __post_init__(self):
        check_domain(self.aum_usd, "aum_usd", "positive", "aum_must_be_positive")
        check_domain(self.turnover_fraction, "turnover_fraction", "(0,1]", "turnover_out_of_range")
        for name, typ in (("impact", ImpactParams), ("econ", EconParams),
                          ("structural", StructuralParams), ("entropy", EntropyParams)):
            _require(isinstance(getattr(self, name), typ),
                     f"{name} must be a {typ.__name__}", "bad_section", name)


def check_kappas(kappa_a: float, kappa_c: float) -> None:
    """The tier tilt ranges: ``kappa_a >= 1`` and ``0 < kappa_c <= 1``."""
    check_domain(kappa_a, "kappa_a", ">= 1", "kappa_a_out_of_range")
    check_domain(kappa_c, "kappa_c", "(0,1]", "kappa_c_out_of_range")


def weight_sum(weights: Iterable[float]) -> float:
    """``math.fsum`` of weights: ``inf`` past the float range, ``nan`` for ``inf - inf``."""
    try:
        return math.fsum(weights)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def check_normalized(weights: Iterable[float], name: str) -> None:
    """The one weight-sum rule of a vector normalized outside the engine: it sums to 1 within
    NORMALIZED_SUM_TOL (a ``nan`` sum fails), else ``weights_not_normalized`` on ``name``."""
    total = weight_sum(weights)
    if not abs(total - 1.0) <= NORMALIZED_SUM_TOL:
        raise ValidationError(f"{name.replace('_', ' ')} sum to {total!r}, expected 1.0",
                              "weights_not_normalized", name)


def entry_error(what: str, index: int, name: Any, value: Any = 0.0, seen: Container = (),
                signed: bool = False) -> ValidationError:
    """The error of entry ``index`` of list ``what``, which breaks one of these rules, by the first:
    a nonempty string id, not in ``seen``, a finite number, nonnegative unless ``signed``."""
    column = "delta_w" if signed else "weight"
    if not (isinstance(name, str) and name):
        rule, code = "id must be a nonempty string", "bad_id"
    elif name in seen:
        rule, code = f"duplicate id {name!r}", "duplicate_id"
    elif not _is_finite(value):
        rule, code = f"{column} for {name} must be a finite number", "not_finite"
    else:
        rule, code = f"weight for {name} must be nonnegative", "weight_must_be_nonnegative"
    return ValidationError(rule, code, what, index)


def check_pairs(pairs: Iterable[tuple[str, float]], what: str,
                signed: bool = False) -> tuple[tuple[str, float], ...]:
    """The one validator of (id, number) lists: designs, cores and ``signed`` trades.

    Returns the pairs with float numbers, or raises the :func:`entry_error` of
    the first bad entry. A shape error has no ``index``.
    """
    column = "delta_w" if signed else "weight"
    try:
        items = iter(pairs)
    except TypeError:
        raise ValidationError(f"{what} must be a list of (id, {column}) pairs",
                              "bad_weight_pair", what) from None
    out: list[tuple[str, float]] = []
    seen: set[str] = set()
    for item in items:
        try:
            name, w = item
        except (TypeError, ValueError):
            raise ValidationError(f"{what} entries must be (id, {column}) pairs",
                                  "bad_weight_pair", what) from None
        # inline, a plain float first, and no message unless a rule fails: designs, cores and
        # proposals can be long
        if not (isinstance(name, str) and name and name not in seen
                and (type(w) is float and math.isfinite(w) or _is_finite(w))
                and (signed or w >= 0)):
            raise entry_error(what, len(out), name, w, seen, signed)
        seen.add(name)
        out.append(item if type(item) is tuple and type(w) is float else (name, float(w)))
    return tuple(out)


@dataclass(frozen=True)
class SatelliteDesign:
    """A concrete proposed sleeve: size, constituents, and tier tilts."""

    theme: str
    alpha: float
    constituents: tuple[tuple[str, float], ...]
    kappa_a: float = 1.0
    kappa_c: float = 1.0

    def __post_init__(self):
        _require(isinstance(self.theme, str), "theme must be a string", "bad_theme", "theme")
        check_domain(self.alpha, "alpha", "[0,1]", "alpha_out_of_range")
        object.__setattr__(self, "constituents", check_pairs(self.constituents, "constituents"))
        check_kappas(self.kappa_a, self.kappa_c)
        total = weight_sum(w for _, w in self.constituents)
        _require(abs(total - self.alpha) <= WEIGHT_TOL,
                 f"constituent weights sum to {total!r}, expected alpha={self.alpha!r}",
                 "weights_do_not_sum_to_alpha", "constituents")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SatelliteDesign":
        return from_json(cls, data, "design")


@dataclass(frozen=True)
class RebalanceProposal:
    """Per-asset weight changes plus the governance context they arrive in."""

    trades: tuple[tuple[str, float], ...]
    schedule_due: bool = False
    structural_break: bool = False

    def __post_init__(self):
        object.__setattr__(self, "trades", check_pairs(self.trades, "trades", signed=True))
        check_flag(self.schedule_due, "schedule_due")
        check_flag(self.structural_break, "structural_break")


@dataclass(frozen=True)
class LayerVerdict:
    """Pass/fail for one feasibility layer plus its distance to the boundary.

    ``margin`` is the signed distance to the constraint boundary in the
    layer's native units (names for breadth layers, weight fraction for
    sizing and caps). ``normalized_margin`` rescales it to (bound - usage)
    / bound so layers with different units can be compared; ``None`` marks
    a vacuous layer with nothing to measure.
    """

    passed: bool
    margin: float | None
    normalized_margin: float | None
    bound: float | Unbounded | None = None
    usage: float | None = None
    detail: str | None = None

    def __post_init__(self):
        check_flag(self.passed, "passed")
        for name in ("margin", "normalized_margin", "bound", "usage"):
            v = getattr(self, name)
            ok = v is None or _is_finite(v) or (name == "bound" and v is UNBOUNDED)
            _require(ok, f"{name} must be a number or null", "bad_number", name)
        _require(self.detail is None or isinstance(self.detail, str),
                 "detail must be a string or null", "bad_detail", "detail")


@dataclass(frozen=True)
class DerivedBounds:
    """Closed-form design bounds implied by the policy inputs alone.

    Breadth bounds are evaluated at the effective sleeve size; per-asset
    weight caps are present only when candidate data was supplied. The caps
    are checked only where a report is read (:func:`from_json`):
    ``compute_bounds`` builds each in [0,1].
    """

    alpha_max_structural: float
    alpha_effective: float
    delta_w_min: float
    k_max_econ: int | Unbounded
    k_max_entropy: int
    weight_caps_impact: dict[str, float] | None = None
    weight_caps_participation: dict[str, float] | None = None

    def __post_init__(self):
        for name in ("alpha_max_structural", "alpha_effective"):
            check_domain(getattr(self, name), name, "[0,1]", "alpha_out_of_range")
        check_domain(self.delta_w_min, "delta_w_min", "nonnegative", "bad_bound")
        for name in ("k_max_econ", "k_max_entropy"):
            k = getattr(self, name)
            if not (k is UNBOUNDED and name == "k_max_econ"):
                _require(type(k) is int, f"{name} must be an integer", "bad_bound", name)
                check_domain(k, name, "nonnegative", "bad_bound")


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-layer verdicts, derived bounds, and binding-constraint attribution.

    ``admissible`` is true exactly when every layer verdict passed; the
    report is a pure function of the evaluation inputs.
    """

    admissible: bool
    layer_verdicts: dict[str, LayerVerdict]
    derived_bounds: DerivedBounds
    binding_layer: str
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        _require(set(self.layer_verdicts) == set(LAYERS),
                 f"layer_verdicts must cover exactly {LAYERS}", "bad_layers", "layer_verdicts")
        _require(self.binding_layer in LAYERS, "binding_layer must name a layer",
                 "bad_binding_layer", "binding_layer")
        conj = all(v.passed for v in self.layer_verdicts.values())
        _require(self.admissible == conj,
                 "admissible must equal the conjunction of layer verdicts",
                 "admissibility_mismatch", "admissible")
        _require(isinstance(self.notes, (list, tuple))
                 and all(isinstance(note, str) for note in self.notes),
                 "notes must be a list of strings", "bad_notes", "notes")
        object.__setattr__(self, "notes", tuple(self.notes))


#: JSON keys that differ from their field names.
_JSON_KEYS = {"layer_verdicts": "layers"}


def to_json(value: Any) -> Any:
    """``value`` as JSON data: a dataclass becomes the dict of its fields, each converted.

    ``UNBOUNDED`` becomes "unbounded"; anything else (tuples, the per-asset cap
    dicts) passes unchanged. ``io.json_bytes`` applies it to every value it
    walks, which reaches the verdicts inside ``layers``.
    """
    if isinstance(value, Unbounded):
        return "unbounded"
    if is_dataclass(value):
        return {_JSON_KEYS.get(f.name, f.name): to_json(getattr(value, f.name))
                for f in fields(value)}
    return value


def from_json(cls: type, data: Any, what: str) -> Any:
    """The strict inverse of :func:`to_json`: every field key is required, no other accepted.

    "unbounded" is restored only on fields annotated ``Unbounded``; the derived
    bounds and the per-layer verdicts (in cascade order) are decoded in turn.
    """
    keyed = [(f, _JSON_KEYS.get(f.name, f.name)) for f in fields(cls)]
    d = _strict_keys(data, {key for _, key in keyed}, what)
    kwargs = {}
    for f, key in keyed:
        value = d[key]
        if f.type == "DerivedBounds":
            value = from_json(DerivedBounds, value, f"{what}.{key}")
            for name in ("weight_caps_impact", "weight_caps_participation"):
                caps = getattr(value, name)  # a cap per candidate: C loops only (nan sums to nan)
                values = caps.values() if isinstance(caps, dict) else None
                _require(caps is None or values is not None and (not values or (
                    {*map(type, values)} <= {float, int} and 0 <= min(values) and max(values) <= 1
                    and not math.isnan(sum(values)))),
                    f"{name} must be null or map ids to numbers in [0,1]", "bad_bound", name)
        elif f.type == "dict[str, LayerVerdict]":
            verdicts = _strict_keys(value, set(LAYERS), f"{what}.{key}")
            value = {name: from_json(LayerVerdict, verdicts[name], f"{what}.{key}.{name}")
                     for name in LAYERS}
        elif "Unbounded" in f.type and value == "unbounded":
            value = UNBOUNDED
        kwargs[f.name] = value
    return cls(**kwargs)


def _strict_keys(data: Any, keys: set[str], path: str) -> dict[str, Any]:
    """Reject unknown keys and report missing ones, returning a plain dict."""
    if not isinstance(data, Mapping):
        raise ValidationError(f"{path} must be an object", "not_an_object", path)
    unknown = sorted(set(data) - keys)
    if unknown:
        raise ValidationError(f"{path} has unknown key {unknown[0]!r}", "unknown_key",
                              f"{path}.{unknown[0]}")
    missing = sorted(keys - set(data))
    if missing:
        raise ValidationError(f"{path} is missing key {missing[0]!r}", "missing_key",
                              f"{path}.{missing[0]}")
    return dict(data)
