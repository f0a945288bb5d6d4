"""Eligibility filtering and the tiered internal weighting rule.

Candidates reach the sleeve only if they are domain-admissible and carry no
category exclusion; weights inside the sleeve are equal within each tier
with an optional mild tilt toward upstream bottlenecks (tier A) and away
from embedded adopters (tier C), then rescaled so they sum exactly to the
sleeve size.
"""

from __future__ import annotations

import math
from typing import Sequence

from .model import (
    KAPPA_A,
    KAPPA_C,
    Asset,
    ExclusionCategory,
    TierClass,
    ValidationError,
    _MIN_NORMAL,
    check_domain,
    check_kappas,
    weight_sum,
)

#: Machine-readable rejection reason for domain-inadmissible assets.
REASON_GAER = "gaer_inadmissible"


def eligibility_reason(asset: Asset) -> str | None:
    """Why ``asset`` may not enter a sleeve, or ``None`` when it may.

    The reason is ``gaer_inadmissible`` or the exclusion category name.
    """
    if not asset.gaer_admissible:
        return REASON_GAER
    if asset.exclusion is not ExclusionCategory.NONE:
        return asset.exclusion.value
    return None


def eligibility_filter(candidates: Sequence[Asset]) -> list[Asset]:
    """The candidates :func:`eligibility_reason` gives no reason, in input order.

    Filtering the output again returns it unchanged. Ids are not checked
    here: ``CascadeInput`` does.
    """
    return [a for a in candidates if eligibility_reason(a) is None]


def assign_tier_weights(alpha: float, assets: Sequence[Asset], kappa_a: float = KAPPA_A,
                        kappa_c: float = KAPPA_C) -> list[tuple[str, float]]:
    """Equal-weight within tiers with tilts, normalized to sum exactly to alpha.

    Raw weights are ``(alpha / K) * kappa`` with kappa 1 for tier B,
    ``kappa_a >= 1`` for tier A, and ``kappa_c <= 1`` for tier C; a uniform
    rescale then restores ``sum(w) == alpha``, preserving intra-tier equality
    and the per-name ordering A >= B >= C. Output follows input order; a
    ``SatelliteDesign`` built from it checks that the ids are unique.
    """
    check_domain(alpha, "alpha", "(0,1]", "alpha_out_of_range", finite=False)
    if not assets:
        raise ValidationError("cannot assign weights to an empty sleeve",
                              code="empty_sleeve", field="assets")
    check_kappas(kappa_a, kappa_c)

    k = len(assets)
    tilt = {TierClass.A: kappa_a, TierClass.B: 1.0, TierClass.C: kappa_c}
    base = alpha / k
    raw = [base * tilt[a.tier] for a in assets]
    total = weight_sum(raw)
    if not _MIN_NORMAL <= total < math.inf:
        # the raw weights underflow (or overflow): weigh each tilt against the largest one
        top = max(tilt[a.tier] for a in assets)
        raw = [tilt[a.tier] / top for a in assets]
        total = math.fsum(raw)
    scale = alpha / total
    return [(a.id, r * scale) for a, r in zip(assets, raw)]
