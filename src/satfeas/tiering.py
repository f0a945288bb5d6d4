"""Eligibility filtering and the tiered internal weighting rule.

Candidates reach the sleeve only if they are domain-admissible and carry no
category exclusion; weights inside the sleeve are equal within each tier
with an optional mild tilt toward upstream bottlenecks (tier A) and away
from embedded adopters (tier C), then rescaled so they sum exactly to the
sleeve size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import (
    Asset,
    ExclusionCategory,
    TierClass,
    ValidationError,
    check_kappas,
    check_unique_ids,
)

#: Machine-readable rejection reason for domain-inadmissible assets.
REASON_GAER = "gaer_inadmissible"


@dataclass(frozen=True)
class TierCounts:
    """Constituent counts per tier; a weight assignment needs at least one name."""

    k_a: int
    k_b: int
    k_c: int

    def __post_init__(self):
        for name in ("k_a", "k_b", "k_c"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 0):
                raise ValidationError(f"{name} must be a nonnegative integer",
                                      code="bad_tier_count", field=name)
        if self.total < 1:
            raise ValidationError("tier counts must total at least one name",
                                  code="empty_sleeve", field="k_a")

    @property
    def total(self) -> int:
        return self.k_a + self.k_b + self.k_c

    @classmethod
    def from_assets(cls, assets: Iterable[Asset]) -> "TierCounts":
        counts = {TierClass.A: 0, TierClass.B: 0, TierClass.C: 0}
        for a in assets:
            counts[a.tier] += 1
        return cls(counts[TierClass.A], counts[TierClass.B], counts[TierClass.C])


def eligibility_reason(asset: Asset) -> str | None:
    """Why ``asset`` may not enter a sleeve, or ``None`` when it may.

    The reason is ``gaer_inadmissible`` or the exclusion category name.
    """
    if not asset.gaer_admissible:
        return REASON_GAER
    if asset.exclusion is not ExclusionCategory.NONE:
        return asset.exclusion.value
    return None


def eligibility_filter(
    candidates: Sequence[Asset],
) -> tuple[list[Asset], list[tuple[Asset, str]]]:
    """Split candidates into eligible assets and rejects with reasons.

    Eligible means :func:`eligibility_reason` gives no reason. Input order
    is preserved on both sides, and filtering the eligible output again
    returns it unchanged.
    """
    check_unique_ids([a.id for a in candidates], "candidates")
    eligible: list[Asset] = []
    rejected: list[tuple[Asset, str]] = []
    for a in candidates:
        reason = eligibility_reason(a)
        if reason is None:
            eligible.append(a)
        else:
            rejected.append((a, reason))
    return eligible, rejected


def assign_tier_weights(
    alpha: float,
    assets: Sequence[Asset],
    kappa_a: float = 1.0,
    kappa_c: float = 1.0,
) -> list[tuple[str, float]]:
    """Equal-weight within tiers with tilts, normalized to sum exactly to alpha.

    Raw weights are ``(alpha / K) * kappa`` with kappa 1 for tier B,
    ``kappa_a >= 1`` for tier A, and ``kappa_c <= 1`` for tier C; a uniform
    rescale then restores ``sum(w) == alpha``, preserving intra-tier equality
    and the per-name ordering A >= B >= C. Output follows input order.
    """
    if not 0 < alpha <= 1:
        raise ValidationError("alpha must lie in (0,1]", code="alpha_out_of_range", field="alpha")
    if not assets:
        raise ValidationError("cannot assign weights to an empty sleeve",
                              code="empty_sleeve", field="assets")
    check_kappas(kappa_a, kappa_c)
    check_unique_ids([a.id for a in assets], "assets")

    k = len(assets)
    tilt = {TierClass.A: kappa_a, TierClass.B: 1.0, TierClass.C: kappa_c}
    base = alpha / k
    raw = [base * tilt[a.tier] for a in assets]
    scale = alpha / math.fsum(raw)
    return [(a.id, r * scale) for a, r in zip(assets, raw)]
