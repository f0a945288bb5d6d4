"""Eligibility filter and tier-weight contract tests."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satfeas import ExclusionCategory, SatelliteDesign, TierClass, ValidationError
from satfeas.tiering import assign_tier_weights, eligibility_filter, eligibility_reason

from conftest import make_asset


class TestEligibilityFilter:
    def test_clean_pass_through(self):
        a = make_asset(id="a")
        assert eligibility_filter([a]) == [a]
        assert eligibility_reason(a) is None

    def test_domain_filter(self):
        b = make_asset(id="b", gaer=False)
        assert eligibility_filter([b]) == []
        assert eligibility_reason(b) == "gaer_inadmissible"

    def test_exclusion_categories(self):
        cases = {
            ExclusionCategory.PURE_PLAY_EARLY_STAGE: "pure_play_early_stage",
            ExclusionCategory.SMALL_CAP_SPECIALIST: "small_cap_specialist",
            ExclusionCategory.REGIME_OPAQUE_JURISDICTION: "regime_opaque_jurisdiction",
            ExclusionCategory.THEMATIC_ETF: "thematic_etf",
        }
        for category, reason in cases.items():
            bad = make_asset(id="c", exclusion=category)
            ok = make_asset(id="d")
            assert eligibility_filter([bad, ok]) == [ok]
            assert eligibility_reason(bad) == reason
        # domain admissibility is checked before the exclusion category
        both = make_asset(id="e", gaer=False, exclusion=ExclusionCategory.THEMATIC_ETF)
        assert eligibility_reason(both) == "gaer_inadmissible"

    def test_order_preserved(self):
        assets = [make_asset(id=f"x{i}", gaer=(i % 2 == 0)) for i in range(6)]
        assert [a.id for a in eligibility_filter(assets)] == ["x0", "x2", "x4"]

    def test_idempotent(self):
        assets = [make_asset(id="a"), make_asset(id="b", gaer=False),
                  make_asset(id="c", exclusion=ExclusionCategory.THEMATIC_ETF)]
        eligible = eligibility_filter(assets)
        assert eligibility_filter(eligible) == eligible == [assets[0]]


def _sleeve(tiers):
    return [make_asset(id=f"n{i}", tier=t) for i, t in enumerate(tiers)]


class TestAssignTierWeights:
    def test_symmetric_tilt_cancels(self):
        assets = _sleeve([TierClass.A, TierClass.B, TierClass.B, TierClass.C])
        weights = dict(assign_tier_weights(0.12, assets, kappa_a=1.5, kappa_c=0.5))
        assert weights["n0"] == pytest.approx(0.045, abs=1e-15)
        assert weights["n1"] == weights["n2"] == pytest.approx(0.03, abs=1e-15)
        assert weights["n3"] == pytest.approx(0.015, abs=1e-15)

    def test_equal_weight_degenerate(self):
        assets = _sleeve([TierClass.A, TierClass.B, TierClass.C,
                          TierClass.B, TierClass.A])
        weights = assign_tier_weights(0.1, assets, kappa_a=1.0, kappa_c=1.0)
        for _, w in weights:
            assert w == pytest.approx(0.02, abs=1e-15)

    def test_normalization_rescales(self):
        assets = _sleeve([TierClass.A, TierClass.A, TierClass.B])
        weights = dict(assign_tier_weights(0.1, assets, kappa_a=2.0, kappa_c=1.0))
        assert weights["n0"] == pytest.approx(0.04, abs=1e-15)
        assert weights["n1"] == pytest.approx(0.04, abs=1e-15)
        assert weights["n2"] == pytest.approx(0.02, abs=1e-15)

    def test_empty_sleeve_rejected(self):
        with pytest.raises(ValidationError) as err:
            assign_tier_weights(0.1, [], 1.5, 0.5)
        assert err.value.code == "empty_sleeve"

    @pytest.mark.parametrize("alpha", [0.0, 1.5, math.nan])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ValidationError) as err:
            assign_tier_weights(alpha, [make_asset()], 1.5, 0.5)
        assert (err.value.code, err.value.field) == ("alpha_out_of_range", "alpha")

    def test_kappa_bounds_rejected(self):
        assets = _sleeve([TierClass.A])
        with pytest.raises(ValidationError):
            assign_tier_weights(0.1, assets, kappa_a=0.5, kappa_c=0.5)
        with pytest.raises(ValidationError):
            assign_tier_weights(0.1, assets, kappa_a=1.5, kappa_c=1.5)

    @given(
        alpha=st.floats(min_value=1e-4, max_value=1.0),
        n_a=st.integers(min_value=0, max_value=8),
        n_b=st.integers(min_value=0, max_value=8),
        n_c=st.integers(min_value=0, max_value=8),
        kappa_a=st.floats(min_value=1.0, max_value=3.0),
        kappa_c=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_weight_contract(self, alpha, n_a, n_b, n_c, kappa_a, kappa_c):
        tiers = [TierClass.A] * n_a + [TierClass.B] * n_b + [TierClass.C] * n_c
        if not tiers:
            return
        assets = _sleeve(tiers)
        weights = assign_tier_weights(alpha, assets, kappa_a, kappa_c)
        assert abs(math.fsum(w for _, w in weights) - alpha) <= 1e-12
        by_tier = {}
        for asset, (_, w) in zip(assets, weights):
            by_tier.setdefault(asset.tier, set()).add(w)
        for tier_weights in by_tier.values():
            assert len(tier_weights) == 1  # intra-tier equality is exact
        w_a = by_tier.get(TierClass.A, {0.0})
        w_b = by_tier.get(TierClass.B, {0.0})
        w_c = by_tier.get(TierClass.C, {0.0})
        if TierClass.A in by_tier and TierClass.B in by_tier:
            assert min(w_a) >= max(w_b)
        if TierClass.B in by_tier and TierClass.C in by_tier:
            assert min(w_b) >= max(w_c)
        if TierClass.A in by_tier and TierClass.C in by_tier:
            assert min(w_a) >= max(w_c)

    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        kappa_a=st.floats(min_value=1.0, allow_infinity=False),
        kappa_c=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        tiers=st.lists(st.sampled_from(list(TierClass)), min_size=1, max_size=12),
    )
    @example(alpha=0.1, kappa_a=1.5, kappa_c=5e-324, tiers=[TierClass.C] * 2)  # sum underflows
    @example(alpha=1.0, kappa_a=1.0, kappa_c=5e-324, tiers=[TierClass.C])  # sum is subnormal
    @settings(max_examples=300)
    def test_weights_over_the_validated_domain(self, alpha, kappa_a, kappa_c, tiers):
        assets = _sleeve(tiers)
        weights = assign_tier_weights(alpha, assets, kappa_a, kappa_c)
        assert all(math.isfinite(w) and w >= 0 for _, w in weights)
        by_tier = [[w for a, (_, w) in zip(assets, weights) if a.tier is tier]
                   for tier in TierClass]
        present = [ws for ws in by_tier if ws]  # in A, B, C order
        assert all(min(hi) >= max(lo) for hi, lo in zip(present, present[1:]))
        SatelliteDesign(theme="t", alpha=alpha, constituents=tuple(weights),
                        kappa_a=kappa_a, kappa_c=kappa_c)

    def test_permutation_equivariance(self):
        rng = random.Random(7)
        tiers = [TierClass.A, TierClass.B, TierClass.C, TierClass.B, TierClass.A]
        assets = _sleeve(tiers)
        base = dict(assign_tier_weights(0.1, assets, 1.5, 0.5))
        for _ in range(10):
            shuffled = assets[:]
            rng.shuffle(shuffled)
            permuted = dict(assign_tier_weights(0.1, shuffled, 1.5, 0.5))
            assert permuted == base
