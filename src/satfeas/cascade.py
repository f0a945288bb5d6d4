"""Admissibility cascade and the governance-gated rebalance filter.

A sleeve proposal passes through five layers in a fixed order: domain
eligibility, structural sizing, epistemic breadth, economic action
resolution, and physical impact validation. Admissibility is a property of
the allocation: when no design is supplied the cascade synthesizes one
(sizing the sleeve from the policy inputs and taking the first K eligible
candidates in input order, since no predictive ranking exists), then checks
it by the one path a supplied design takes. It is a single-pass checker:
when a bound is violated the report says so and suggests remediation, it
never searches.

Margins. Each layer verdict carries a native-unit margin and a normalized
margin (bound - usage) / bound so layers with different units compare.
Every layer but domain takes both from ``_margin``, so both are finite:

* domain -- usage is the eligible-name count against the candidate pool;
  it fails on an ineligible member or a pool with no eligible name;
* structural -- sleeve size against min(loss budget, policy cap);
* epistemic -- constituent count against the entropy breadth bound;
* economic -- the tighter of the breadth bound and the smallest
  constituent weight against the trade-size threshold;
* physical -- the tightest per-asset weight cap (impact, and participation
  when configured).

The binding layer is the first failing layer in cascade order, or among
passing layers the smallest normalized margin; exact ties resolve in the
order economic, structural, epistemic, physical, domain, matching the
binding regime typical of small portfolios.

Evaluation is a pure function of (candidates, parameters, design), so
checking a synthesized design returns the report that synthesis printed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .layers import (
    alpha_max_structural,
    breadth_bound_econ,
    breadth_bound_entropy,
    effective_alpha,
    entropy_increment_approx,
    entropy_increment_exact,
    impact_cost,
    max_weight_impact,
    max_weight_participation,
    min_weight_change,
)
from .model import (
    LAYERS,
    WEIGHT_TOL,
    _FLOAT_MAX,
    Asset,
    DerivedBounds,
    FeasibilityParams,
    FeasibilityReport,
    LayerVerdict,
    RebalanceProposal,
    SatelliteDesign,
    Unbounded,
    ValidationError,
    check_kappas,
    entry_error,
)
from .tiering import assign_tier_weights, eligibility_filter, eligibility_reason

REASON_GOVERNANCE = "governance_gate"
REASON_RESOLUTION = "below_action_resolution"
REASON_IMPACT = "impact_cap"
REASON_PARTICIPATION = "participation_cap"

#: Tie-break priority for equal normalized margins.
_TIE_ORDER = ("economic", "structural", "epistemic", "physical", "domain")


def _fmt(x: float) -> str:
    return format(x, ".10g")


@dataclass(frozen=True)
class CascadeInput:
    """Everything one cascade evaluation needs.

    When ``design`` is absent the cascade synthesizes one, then evaluates it
    as it would the same design supplied here; ``core_weights`` (a
    normalized core composition) is optional and only feeds the exact
    entropy-increment diagnostic.
    """

    candidates: tuple[Asset, ...]
    params: FeasibilityParams
    kappa_a: float = 1.0
    kappa_c: float = 1.0
    theme: str = "unspecified"
    design: SatelliteDesign | None = None
    core_weights: tuple[float, ...] | None = None
    _by_id: Mapping[str, Asset] = field(init=False, repr=False, compare=False)  # candidates by id

    def __post_init__(self):
        object.__setattr__(self, "_by_id", _asset_map(self.candidates))
        object.__setattr__(self, "candidates", tuple(self._by_id.values()))
        check_kappas(self.kappa_a, self.kappa_c)
        if self.design is not None and not isinstance(self.design, SatelliteDesign):
            raise ValidationError("design must be a SatelliteDesign", code="bad_design",
                                  field="design")
        if self.core_weights is not None:
            object.__setattr__(self, "core_weights", tuple(self.core_weights))


def compute_bounds(
    params: FeasibilityParams,
    candidates: Iterable[Asset] | Mapping[str, Asset] | None = None,
) -> DerivedBounds:
    """Closed-form design bounds from the policy inputs.

    Breadth bounds are evaluated at the effective sleeve size, so the result
    is reproducible from the parameters alone; per-asset caps are attached
    when candidates are supplied. A list is checked as ``CascadeInput`` checks
    its candidates; a mapping of id to asset is read as it is.
    """
    a_eff = effective_alpha(params.structural)
    caps_impact = None
    caps_part = None
    if candidates is not None:
        by_id = _asset_map(candidates)
        caps_impact = {name: max_weight_impact(a, params) for name, a in by_id.items()}
        if params.impact.participation_cap is not None:
            caps_part = {name: max_weight_participation(a, params) for name, a in by_id.items()}
    return DerivedBounds(
        alpha_max_structural=alpha_max_structural(params.structural),
        alpha_effective=a_eff,
        delta_w_min=min_weight_change(params.econ),
        k_max_econ=breadth_bound_econ(a_eff, params.econ),
        k_max_entropy=breadth_bound_entropy(a_eff, params.entropy),
        weight_caps_impact=caps_impact,
        weight_caps_participation=caps_part,
    )


def run_cascade(inp: CascadeInput) -> tuple[FeasibilityReport, SatelliteDesign]:
    """Evaluate ``inp.design``, or the one :func:`_synthesize` builds, through all five layers.

    Both take one path: the sleeve size is the design's alpha, its weights
    are taken as given (feasibility is checked, weighting style is not), and
    the verdicts are a pure function of (candidates, parameters, design), so
    re-evaluating a synthesized design returns the same report.
    """
    params = inp.params
    eligible, _rejected = eligibility_filter(inp.candidates)
    bounds = compute_bounds(params, inp._by_id)
    design = inp.design if inp.design is not None else _synthesize(inp, eligible, bounds)
    members = _members(design.constituents, inp._by_id, "design")
    ineligible = [asset for asset, _w in members if eligibility_reason(asset) is not None]

    notes: list[str] = []
    alpha_cap, pol_min = bounds.alpha_effective, params.structural.alpha_policy_min
    if alpha_cap < pol_min - WEIGHT_TOL:
        notes.append(f"alpha_effective {_fmt(alpha_cap)} falls below "
                     f"alpha_policy_min {_fmt(pol_min)}")

    alpha = design.alpha
    verdicts = {
        "domain": _domain_verdict(len(inp.candidates), len(eligible), ineligible, len(members)),
        "structural": _structural_verdict(alpha, bounds, params),
        "epistemic": _epistemic_verdict(alpha, members, params, inp.core_weights),
        "economic": _economic_verdict(alpha, members, params),
        "physical": _physical_verdict(members, bounds),
    }
    report = FeasibilityReport(
        admissible=all(v.passed for v in verdicts.values()),
        layer_verdicts=verdicts,
        derived_bounds=bounds,
        binding_layer=_binding_layer(verdicts),
        notes=tuple(notes),
    )
    return report, design


def _synthesize(inp: CascadeInput, eligible: Sequence[Asset],
                bounds: DerivedBounds) -> SatelliteDesign:
    """The first K eligible candidates in input order, sized at ``alpha_effective``.

    K is the tightest breadth bound but at least one: where a bound admits
    no name, the one-name sleeve is built and that bound's layer fails it.
    The tier rule weights the names. The sleeve is empty only when no
    candidate is eligible or ``alpha_effective`` is 0.
    """
    alpha, constituents = bounds.alpha_effective, ()
    if eligible and alpha > 0:
        k = min(len(eligible), *(b for b in (bounds.k_max_entropy, bounds.k_max_econ)
                                 if not isinstance(b, Unbounded)))
        constituents = tuple(assign_tier_weights(alpha, eligible[:max(k, 1)],
                                                 inp.kappa_a, inp.kappa_c))
    return SatelliteDesign(theme=inp.theme, alpha=alpha if constituents else 0.0,
                           constituents=constituents, kappa_a=inp.kappa_a, kappa_c=inp.kappa_c)


def _domain_verdict(n_candidates: int, n_eligible: int,
                    ineligible: list[Asset], n_members: int) -> LayerVerdict:
    if ineligible:
        first, n_bad = ineligible[0], len(ineligible)
        return LayerVerdict(
            passed=False,
            margin=float(-n_bad),
            normalized_margin=-n_bad / n_members,
            bound=float(n_candidates), usage=float(n_eligible),
            detail=f"{n_bad} ineligible constituent(s); first: {first.id} "
                   f"({eligibility_reason(first)})",
        )
    return LayerVerdict(
        passed=n_eligible >= 1,
        margin=float(n_eligible - 1),
        normalized_margin=(n_eligible - 1) / n_candidates if n_candidates else -1.0,
        bound=float(n_candidates), usage=float(n_eligible),
        detail=f"eligible {n_eligible} of {n_candidates} candidates",
    )


def _margin(bound: float, need: float) -> tuple[float, float]:
    """(native, normalized) margin of a usage ``need`` against a ``bound``.

    ``native = bound - need``. ``normalized = native / bound`` when
    ``bound > 0``, clamped to ``-_FLOAT_MAX`` where the quotient overflows
    (a subnormal bound); it cannot exceed 1. With no bound (``bound <= 0``)
    normalized is 0.0 at zero need and -1.0 otherwise. An infinite need (a
    ``dw_min`` from a zero or subnormal cost override) gives
    ``(-bound, -1.0)``. Both values are finite and never ``-0.0``.
    """
    if need == math.inf:
        return 0.0 - bound, -1.0
    native = float(bound - need)
    if bound > 0:
        return native, max(native / bound, -_FLOAT_MAX)
    return native, 0.0 if need == 0 else -1.0


def _structural_verdict(alpha: float, bounds: DerivedBounds,
                        params: FeasibilityParams) -> LayerVerdict:
    alpha_cap = bounds.alpha_effective
    margin, normalized = _margin(alpha_cap, alpha)
    if alpha == 0:
        passed, detail = False, "empty sleeve (alpha = 0)"
    elif alpha > alpha_cap + WEIGHT_TOL:
        passed, detail = False, f"alpha {_fmt(alpha)} exceeds cap {_fmt(alpha_cap)}"
    else:
        by_loss = bounds.alpha_max_structural <= params.structural.alpha_policy_max
        passed = True
        detail = f"{'loss budget' if by_loss else 'policy'} caps alpha at {_fmt(alpha_cap)}"
    return LayerVerdict(passed=passed, margin=margin, normalized_margin=normalized,
                        bound=alpha_cap, usage=alpha, detail=detail)


def _epistemic_verdict(alpha: float, members: Sequence[tuple[Asset, float]],
                       params: FeasibilityParams,
                       core_weights: tuple[float, ...] | None) -> LayerVerdict:
    k = len(members)
    if alpha <= 0:
        return LayerVerdict(passed=True, margin=None, normalized_margin=None,
                            bound=0.0, usage=0.0, detail="empty sleeve")
    bound = breadth_bound_entropy(alpha, params.entropy)
    native, normalized = _margin(bound, max(k, 1))  # an empty sleeve must still host a name
    detail = f"breadth {k} against entropy bound {bound}"
    if k >= 1:
        approx = entropy_increment_approx(alpha, k)
        detail += f"; increment approx {_fmt(approx)}"
        if core_weights is not None and alpha < 1:
            exact = entropy_increment_exact(core_weights, alpha, k)
            detail += f", exact {_fmt(exact)}"
    return LayerVerdict(passed=max(k, 1) <= bound, margin=native, normalized_margin=normalized,
                        bound=float(bound), usage=float(k), detail=detail)


def _economic_verdict(alpha: float, members: Sequence[tuple[Asset, float]],
                      params: FeasibilityParams) -> LayerVerdict:
    k = len(members)
    if alpha <= 0:
        return LayerVerdict(passed=True, margin=None, normalized_margin=None,
                            bound=None, usage=0.0, detail="empty sleeve")
    bound = breadth_bound_econ(alpha, params.econ)
    if isinstance(bound, Unbounded):
        passed, native, normalized = True, None, None
        detail = f"breadth {k}, unbounded (zero trade threshold)"
    else:
        passed = max(k, 1) <= bound
        native, normalized = _margin(bound, max(k, 1))
        detail = f"breadth {k} against economic bound {bound}"

    tightest = None  # (normalized, native, id, dw_min) of the smallest weight margin
    for asset, w in members:
        dw_min = min_weight_change(params.econ, asset.round_trip_cost_bps)
        w_native, w_norm = _margin(w, dw_min)
        if tightest is None or w_norm < tightest[0]:
            tightest = (w_norm, w_native, asset.id, dw_min)
        passed = passed and w + WEIGHT_TOL >= dw_min
    # name the tightest member when its margin is below the breadth margin or identical to it
    if tightest is not None and (normalized is None or tightest[0] < normalized
                                 or tightest[:2] == (normalized, native)):
        normalized, native, worst_id, dw_min = tightest
        detail += f"; smallest weight margin on {worst_id} (dw_min {_fmt(dw_min)})"
    return LayerVerdict(passed=passed, margin=native, normalized_margin=normalized,
                        bound=bound, usage=float(k), detail=detail)


def _physical_verdict(members: Sequence[tuple[Asset, float]],
                      bounds: DerivedBounds) -> LayerVerdict:
    if not members:
        return LayerVerdict(passed=True, margin=None, normalized_margin=None,
                            bound=None, usage=None, detail="empty sleeve")
    caps_part = bounds.weight_caps_participation
    passed = True
    worst = None  # (normalized, native, cap, weight, id) of the tightest cap
    for asset, w in members:
        cap = bounds.weight_caps_impact[asset.id]
        if caps_part is not None:
            cap = min(cap, caps_part[asset.id])
        native, norm = _margin(cap, w)
        if worst is None or norm < worst[0]:
            worst = (norm, native, cap, w, asset.id)
        if cap <= 0 or w > cap + WEIGHT_TOL:  # a cap that underflowed to zero admits nothing
            passed = False
    norm, native, cap, weight, worst_id = worst
    detail = f"tightest cap {_fmt(cap)} on {worst_id}"
    if not passed:
        detail += "; remediation: reduce sleeve size, trim breadth, or swap in more liquid names"
    return LayerVerdict(passed=passed, margin=native, normalized_margin=norm,
                        bound=cap, usage=weight, detail=detail)


def _binding_layer(verdicts: Mapping[str, LayerVerdict]) -> str:
    for name in LAYERS:
        if not verdicts[name].passed:
            return name
    best, best_name = math.inf, ""  # domain always has a normalized margin, so one is found
    for name in _TIE_ORDER:
        m = verdicts[name].normalized_margin
        if m is not None and m < best - WEIGHT_TOL:
            best, best_name = m, name
    return best_name


def _asset_map(assets: Iterable[Asset] | Mapping[str, Asset]) -> Mapping[str, Asset]:
    """Index assets by id, the one check of a candidate collection: each an ``Asset`` with a
    new id. A mapping is taken as already indexed and returned as is, without a copy."""
    if isinstance(assets, Mapping):
        return assets
    by_id: dict[str, Asset] = {}
    for a in assets:
        if not isinstance(a, Asset):
            raise ValidationError("candidates must be Asset instances",
                                  code="bad_candidate", field="candidates")
        if a.id in by_id:
            raise entry_error("candidates", len(by_id), a.id, seen=by_id)
        by_id[a.id] = a
    return by_id


def _members(pairs: Iterable[tuple[str, float]], by_id: Mapping[str, Asset],
             what: str) -> list[tuple[Asset, float]]:
    """The (asset, number) pairs of ``what``'s (id, number) pairs; an unknown id is an error."""
    try:
        return [(by_id[name], x) for name, x in pairs]
    except KeyError as e:
        raise ValidationError(f"{what} references unknown asset id {e.args[0]!r}",
                              code="unknown_asset_id", field=what) from None


def filter_rebalance(
    proposal: RebalanceProposal,
    params: FeasibilityParams,
    assets: Iterable[Asset] | Mapping[str, Asset],
) -> tuple[list[tuple[str, float]], list[tuple[tuple[str, float], str]]]:
    """Partition proposed trades into executed and suppressed-with-reason.

    With no governance window open (neither the schedule due nor a declared
    structural break) every trade is suppressed as ``governance_gate``.
    Otherwise each trade must clear the cost-dominance threshold (using the
    asset's round-trip-cost override when present), then the impact cap at
    the traded notional ``A * |dw|``, then any participation cap on
    ``A * |dw| / adv``; a trade exactly at a cap executes. Executed and
    suppressed trades together are exactly the input, in order.

    Asset records must cover every traded id; a list is checked as
    ``CascadeInput`` checks its candidates. A mapping of id to asset is read
    in place, never copied, so a caller that filters many proposals
    (``replay``) builds it once and the cost of a call is linear in its
    trades, not in the universe.
    """
    members = _members(proposal.trades, _asset_map(assets), "proposal")
    if not (proposal.schedule_due or proposal.structural_break):
        return [], [(trade, REASON_GOVERNANCE) for trade in proposal.trades]
    executed: list[tuple[str, float]] = []
    suppressed: list[tuple[tuple[str, float], str]] = []
    econ, impact, aum = params.econ, params.impact, params.aum_usd
    phi = impact.participation_cap
    for trade, (asset, dw) in zip(proposal.trades, members):
        notional = aum * abs(dw)
        if not abs(dw) >= min_weight_change(econ, asset.round_trip_cost_bps):
            reason = REASON_RESOLUTION
        elif impact_cost(notional, asset.adv_usd, impact) > impact.impact_cap:
            reason = REASON_IMPACT
        elif phi is not None and notional / asset.adv_usd > phi:
            reason = REASON_PARTICIPATION
        else:
            executed.append(trade)
            continue
        suppressed.append((trade, reason))
    return executed, suppressed
