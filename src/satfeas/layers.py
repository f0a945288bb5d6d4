"""Closed-form feasibility bounds for satellite sleeves.

Four constraint families are covered, each as pure functions of validated
inputs:

* physical -- admissibility of trades under a concave impact law
  ``I = c * (Q/V)**delta`` and the per-asset weight caps it implies;
* economic -- the cost-dominance threshold ``dw_min = eps / C_rt`` and the
  breadth bound ``K <= alpha / dw_min`` it induces;
* structural -- the optionality budget ``alpha <= L / D_max``;
* epistemic -- the entropy increment of a sleeve and the breadth bound
  ``K <= alpha * exp(dH_max / alpha)``.

All functions are deterministic and free of shared state. Breadth bounds
return integers (a name count), corrected at floating-point boundaries so
that each bound is the exact integer inverse of its forward constraint.
"""

from __future__ import annotations

import math
from typing import Sequence

from .model import (
    UNBOUNDED,
    Asset,
    EconParams,
    EntropyParams,
    FeasibilityParams,
    StructuralParams,
    Unbounded,
    ValidationError,
    _MIN_NORMAL,
    _is_finite,
    check_domain,
    check_normalized,
)

#: Practical ceiling for the breadth bounds: beyond any float and any
#: portfolio, so larger closed-form values are reported as exactly this.
BREADTH_CEILING = 10**300
_LOG_CEILING = math.log(BREADTH_CEILING)


def impact_cost(traded_notional_usd: float, adv_usd: float, params) -> float:
    """Fractional-return cost of trading ``Q`` dollars against ``V`` of ADV.

    Evaluates the concave law ``c * (Q/V)**delta``; zero trades cost zero.
    ``params`` only needs ``c`` and ``delta`` attributes (an ImpactParams).
    """
    if not (_is_finite(adv_usd) and adv_usd > 0):  # inline, as in Asset: called per trade
        check_domain(adv_usd, "adv_usd", "positive", "adv_must_be_positive")
    if not traded_notional_usd >= 0:
        raise ValidationError("traded notional must be nonnegative",
                              code="notional_must_be_nonnegative", field="traded_notional_usd")
    if traded_notional_usd == 0:
        return 0.0
    return params.c * (traded_notional_usd / adv_usd) ** params.delta


def max_weight_impact(asset: Asset, params: FeasibilityParams) -> float:
    """Largest portfolio weight whose envelope trade stays within the impact cap.

    Inverts the impact law at ``Q = A * w * tau``, giving
    ``w <= (V / (A * tau)) * (I_cap / c) ** (1/delta)``, clamped to [0, 1]
    because the raw formula can exceed one at small portfolio scale. Where an
    intermediate is not a normal float (it underflowed, lost precision to a
    subnormal or overflowed), the law is inverted in log space instead.
    """
    imp = params.impact
    ratio = imp.impact_cap / imp.c
    envelope = params.aum_usd * params.turnover_fraction
    if _MIN_NORMAL <= ratio < math.inf and _MIN_NORMAL <= envelope < math.inf:
        try:
            power = ratio ** (1.0 / imp.delta)
        except OverflowError:
            power = math.inf
        liquidity = asset.adv_usd / envelope
        raw = liquidity * power
        if _MIN_NORMAL <= power < math.inf and _MIN_NORMAL <= liquidity < math.inf \
                and raw >= _MIN_NORMAL:
            return min(raw, 1.0)
    # log(I_cap / c) from the rounded ratio where it is normal, as the direct path uses it
    log_ratio = (math.log(ratio) if _MIN_NORMAL <= ratio < math.inf
                 else math.log(imp.impact_cap) - math.log(imp.c))
    return math.exp(min(math.fsum([math.log(asset.adv_usd), -math.log(params.aum_usd),
                                   -math.log(params.turnover_fraction),
                                   log_ratio / imp.delta]), 0.0))


def max_weight_participation(asset: Asset, params: FeasibilityParams) -> float:
    """Weight cap implied by a participation limit ``Q/V <= phi``.

    Returns ``phi * V / (A * tau)`` clamped to [0, 1], in log space where an
    intermediate is not a normal float. Requires a configured participation cap.
    """
    phi = params.impact.participation_cap
    if phi is None:
        raise ValidationError("participation cap is not configured",
                              code="participation_cap_not_configured",
                              field="impact.participation_cap")
    allowed = phi * asset.adv_usd
    envelope = params.aum_usd * params.turnover_fraction
    if _MIN_NORMAL <= allowed < math.inf and _MIN_NORMAL <= envelope < math.inf:
        raw = allowed / envelope
        if raw >= _MIN_NORMAL:
            return min(raw, 1.0)
    return math.exp(min(math.fsum([math.log(phi), math.log(asset.adv_usd),
                                   -math.log(params.aum_usd),
                                   -math.log(params.turnover_fraction)]), 0.0))


def min_weight_change(econ: EconParams, cost_bps: float | None = None) -> float:
    """Smallest weight change whose portfolio effect clears round-trip friction.

    ``eps / C_rt``, with ``cost_bps`` (an asset's round-trip-cost override)
    in place of the sleeve's cost when given. Basis points cancel, so the
    result is a pure fraction of total portfolio value. A zero cost gives 0
    at a zero effect threshold and ``inf`` (no weight clears it) at a
    positive one, as does an override so small that the quotient overflows.
    The sleeve's own threshold is finite: ``EconParams`` rejects one that
    overflows. This is the one action threshold: design verdicts, the
    trade filter and the economic breadth bound all read it.
    """
    crt = econ.round_trip_cost_bps if cost_bps is None else cost_bps
    eps = econ.min_effect_bps
    if crt > 0:
        return eps / crt
    return 0.0 if eps == 0 else math.inf


def breadth_bound_econ(alpha: float, econ: EconParams) -> int | Unbounded:
    """Most names a sleeve of size ``alpha`` can hold at full action resolution.

    Each active constituent must carry at least ``dw_min`` total-portfolio
    weight, so ``K <= alpha / dw_min``. Returns UNBOUNDED when the threshold
    is zero; otherwise the exact largest integer K with ``K * dw_min <= alpha``,
    or ``BREADTH_CEILING`` when that is larger.
    """
    check_domain(alpha, "alpha", "[0,1]", "alpha_out_of_range", finite=False)
    dw_min = min_weight_change(econ)
    if dw_min == 0:
        return UNBOUNDED
    ratio = alpha / dw_min
    if ratio >= float(BREADTH_CEILING):
        return BREADTH_CEILING
    k = int(math.floor(ratio))
    # float-boundary correction: characterize the result multiplicatively
    if (k + 1) * dw_min <= alpha:
        k += 1
    elif k >= 1 and k * dw_min > alpha:
        k -= 1
    return k


def alpha_max_structural(structural: StructuralParams) -> float:
    """Largest sleeve size the optionality budget allows.

    From ``alpha * D_max <= L``: returns ``min(L / D_max, 1)``. Zero loss
    tolerance forbids any satellite.
    """
    return min(structural.loss_tolerance / structural.max_drawdown, 1.0)


def effective_alpha(structural: StructuralParams) -> float:
    """Sleeve size after applying both the policy cap and the loss budget.

    ``min(alpha_policy_max, alpha_max_structural)``. Callers that build
    reports flag the case where this falls below ``alpha_policy_min``.
    """
    return min(structural.alpha_policy_max, alpha_max_structural(structural))


def weight_entropy(weights: Sequence[float]) -> float:
    """Shannon entropy ``-sum(w * ln w)`` of a normalized weight vector, in nats.

    Zero weights contribute nothing (the ``0 * ln 0 = 0`` convention), so the
    function is continuous as any weight vanishes. Result lies in [0, ln N].
    """
    check_normalized(weights, "weights")
    if min(weights) < 0:
        raise ValidationError("weights must be nonnegative",
                              code="weight_must_be_nonnegative", field="weights")
    return -math.fsum(w * math.log(w) for w in weights if w > 0) + 0.0


def entropy_increment_approx(alpha: float, k: int) -> float:
    """Entropy added by an equal-weight sleeve, ignoring core rescaling.

    ``-alpha * ln(alpha / K)`` for a sleeve of total weight ``alpha`` spread
    over ``K`` names, with ``ln(alpha) - ln(K)`` where ``alpha / K`` is not a
    normal float. Exactly zero for the whole portfolio in one name.
    """
    if alpha == 0:
        raise ValidationError("an empty sleeve has no entropy increment; treat it as zero",
                              code="empty_sleeve_has_no_increment", field="alpha")
    check_domain(alpha, "alpha", "(0,1]", "alpha_out_of_range", finite=False)
    if not (isinstance(k, int) and k >= 1):
        raise ValidationError("k must be a positive integer", code="k_out_of_range", field="k")
    share = alpha / k
    log_share = math.log(share) if share >= _MIN_NORMAL else math.log(alpha) - math.log(k)
    return -alpha * log_share + 0.0


def entropy_increment_exact(core_weights: Sequence[float], alpha: float, k: int) -> float:
    """Exact entropy increment of adding an equal-weight sleeve to a known core.

    The total mixture assigns ``(1 - alpha) * c_j`` to each core name and
    ``alpha / K`` to each of ``K`` sleeve names; returns ``H(total) - H(core)``.
    Differs from the closed-form approximation by the dropped rescaling terms
    ``(1-alpha) * (-ln(1-alpha)) - alpha * H_core``.
    """
    check_domain(alpha, "alpha", "[0,1)", "alpha_out_of_range", finite=False)
    if not (isinstance(k, int) and k >= 1):
        raise ValidationError("k must be a positive integer", code="k_out_of_range", field="k")
    h_core = weight_entropy(core_weights)
    mixture = [(1.0 - alpha) * c for c in core_weights] + [alpha / k] * k
    return weight_entropy(mixture) - h_core


def breadth_bound_entropy(alpha: float, entropy: EntropyParams) -> int:
    """Most names an entropy budget admits for a sleeve of size ``alpha``.

    Starts from the closed form ``floor(alpha * exp(dH_max / alpha))`` and
    searches with ``entropy_increment_approx`` itself, so the result is the
    exact largest integer K with ``entropy_increment_approx(alpha, K) <=
    dH_max`` in float arithmetic (the increment is monotone in K, so the
    boundary is well defined). An empty sleeve admits no names; when
    ``BREADTH_CEILING`` names are admissible, the bound is the ceiling.
    """
    if alpha == 0:
        return 0
    check_domain(alpha, "alpha", "[0,1]", "alpha_out_of_range", finite=False)
    dh = entropy.delta_h_max
    log_guess = math.log(alpha) + dh / alpha  # the closed form in log space: exp may overflow
    if log_guess >= _LOG_CEILING and entropy_increment_approx(alpha, BREADTH_CEILING) <= dh:
        return BREADTH_CEILING
    k = int(math.exp(min(log_guess, _LOG_CEILING)))
    # bracket the answer around the closed form: K = lo is admissible (0 always is), hi is not
    lo = k if k >= 1 and entropy_increment_approx(alpha, k) <= dh else 0
    hi = k + 1
    while entropy_increment_approx(alpha, hi) <= dh:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if entropy_increment_approx(alpha, mid) <= dh:
            lo = mid
        else:
            hi = mid
    return min(lo, BREADTH_CEILING)
