"""Frozen examples and property tests for the closed-form bound functions."""

import math
import sys
from decimal import Context, Decimal

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from satfeas import RebalanceProposal, ValidationError, filter_rebalance
from satfeas.layers import (
    BREADTH_CEILING,
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
    weight_entropy,
)
from satfeas.model import (
    _MIN_NORMAL,
    UNBOUNDED,
    Asset,
    EconParams,
    EntropyParams,
    FeasibilityParams,
    ImpactParams,
    StructuralParams,
)

from conftest import make_asset, make_params


class TestImpactCost:
    def test_zero_trade_costs_nothing(self):
        assert impact_cost(0.0, 1e6, ImpactParams(c=0.1, delta=0.5, impact_cap=1.0)) == 0.0

    def test_unit_participation_costs_c(self):
        p = ImpactParams(c=0.1, delta=0.6, impact_cap=1.0)
        assert impact_cost(1e6, 1e6, p) == pytest.approx(0.1, abs=1e-15)

    def test_hand_arithmetic_sqrt_case(self):
        p = ImpactParams(c=1.0, delta=0.5, impact_cap=1.0)
        assert impact_cost(4e4, 1e6, p) == pytest.approx(0.2, abs=1e-12)

    def test_nonpositive_adv_rejected(self):
        p = ImpactParams(c=1.0, delta=0.5, impact_cap=1.0)
        with pytest.raises(ValidationError) as err:
            impact_cost(1e4, 0.0, p)
        assert err.value.code == "adv_must_be_positive"

    @given(
        c=st.floats(min_value=0.01, max_value=2.0),
        delta=st.floats(min_value=0.1, max_value=0.9),
        v=st.floats(min_value=1e4, max_value=1e9),
        q1=st.floats(min_value=1.0, max_value=1e7),
        q2=st.floats(min_value=1.0, max_value=1e7),
        lam=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_concavity(self, c, delta, v, q1, q2, lam):
        p = ImpactParams(c=c, delta=delta, impact_cap=1.0)
        mid = impact_cost(lam * q1 + (1 - lam) * q2, v, p)
        chord = lam * impact_cost(q1, v, p) + (1 - lam) * impact_cost(q2, v, p)
        assert mid >= chord - 1e-9

    @given(
        q=st.floats(min_value=1.0, max_value=1e8),
        bump=st.floats(min_value=1.01, max_value=10.0),
        v=st.floats(min_value=1e4, max_value=1e9),
    )
    @settings(max_examples=100)
    def test_strictly_increasing(self, q, bump, v):
        p = ImpactParams(c=0.3, delta=0.5, impact_cap=1.0)
        assert impact_cost(q * bump, v, p) > impact_cost(q, v, p)


#: Positive finite floats, subnormals included; the unit interval (0, 1]; and (0, 1).
_POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)
_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
_OPEN_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def _steps(lo, hi, open_lo=False):
    """Two floats ``x <= y`` in the interval from ``lo`` to ``hi``: often one ulp apart, where
    a rounding or a path switch would break an order first."""
    x = st.floats(lo, hi, exclude_min=open_lo)
    return st.one_of(x.map(lambda v: (v, min(math.nextafter(v, math.inf), hi))),
                     st.tuples(x, x).map(sorted))


#: Decimal arithmetic far past float precision, for the exact value of a law.
_EXACT = Context(prec=60)


def _assert_is_law(weight_cap, log_law):
    """``weight_cap`` is ``min(exp(log_law), 1)`` where that is a normal float, and is 0
    only where it is below the smallest normal float."""
    law = 1.0 if log_law >= 0 else float(log_law.exp(_EXACT))
    if law >= sys.float_info.min:
        assert abs(weight_cap - law) <= 1e-12 * law
    assert weight_cap > 0 or law < sys.float_info.min


# The per-asset cap functions as they were before the batch kernel, unchanged but for
# their names: a slow reference the batch must equal bit for bit.
def _impact_cap_of(asset: Asset, params: FeasibilityParams) -> float:
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


def _participation_cap_of(asset: Asset, params: FeasibilityParams) -> float:
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


#: The validated ADV range the batch property draws from, subnormals included.
_ADV = st.floats(min_value=5e-324, max_value=1e308)


def _ulps(x, k):
    """``x`` moved ``k`` ulps (down when negative), kept within the ADV range."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return min(max(x, 5e-324), 1e308)


@st.composite
def _cap_batches(draw):
    """``(make_params knobs, ADVs)`` over the validated domain. Some ADVs sit within a few
    ulps of an ADV at which a row switches between the direct and the log-space path."""
    typical = _POSITIVE | st.floats(1e-3, 1e9)  # more often a power both paths can share
    knobs = draw(st.fixed_dictionaries({
        "aum_usd": typical, "turnover_fraction": _UNIT, "c": typical, "delta": _OPEN_UNIT,
        "impact_cap": typical, "participation_cap": st.none() | _UNIT}))
    envelope = knobs["aum_usd"] * knobs["turnover_fraction"]
    try:
        power = (knobs["impact_cap"] / knobs["c"]) ** (1.0 / knobs["delta"])
    except OverflowError:
        power = math.inf
    phi = knobs["participation_cap"] or 1.0
    # where adv / envelope, the raw impact cap, phi * adv or the raw participation cap
    # crosses the smallest normal float
    switches = [sys.float_info.min * envelope, sys.float_info.min / phi,
                sys.float_info.min * envelope / phi]
    if power > 0:
        switches.append(sys.float_info.min * envelope / power)
    switches = [x for x in switches if 5e-324 <= x <= 1e308]
    near = st.builds(_ulps, st.sampled_from(switches), st.integers(-2, 2)) if switches else _ADV
    return knobs, draw(st.lists(_ADV | near, max_size=6))


class TestWeightCaps:
    def test_impact_cap_hand_case(self):
        params = make_params(aum_usd=1e5, turnover_fraction=0.5, impact_cap=0.01,
                             c=0.1, delta=0.5)
        a = make_asset(adv_usd=1e6)
        assert max_weight_impact([a], params)[a.id] == pytest.approx(0.2, abs=1e-12)

    def test_impact_cap_equal_tolerance_and_coefficient(self):
        params = make_params(aum_usd=1e7, turnover_fraction=1.0, impact_cap=0.1,
                             c=0.1, delta=0.7)
        a = make_asset(adv_usd=2e6)
        assert max_weight_impact([a], params)[a.id] == pytest.approx(2e6 / 1e7, abs=1e-12)

    def test_impact_cap_small_liquidity_large_aum(self):
        params = make_params(aum_usd=1e8, turnover_fraction=1.0, impact_cap=0.001,
                             c=0.1, delta=0.5)
        a = make_asset(adv_usd=1e6)
        assert max_weight_impact([a], params)[a.id] == pytest.approx(1e-6, abs=1e-15)

    def test_impact_cap_clamped_to_one(self):
        params = make_params(aum_usd=1e3, turnover_fraction=0.5)
        a = make_asset(adv_usd=1e9)
        assert max_weight_impact([a], params)[a.id] == 1.0

    @pytest.mark.parametrize("aum,c,delta,cap,adv", [
        (1e5, 0.01, 0.001, 1.0, 1e6),  # 100 ** 1000 overflows the power
        (1e308, 1e-10, 0.5, 1e308, 1e-300),  # cap / c is inf and the scale is 0
    ])
    def test_impact_cap_in_log_space_when_the_power_overflows(self, aum, c, delta, cap, adv):
        params = make_params(aum_usd=aum, c=c, delta=delta, impact_cap=cap)
        a = make_asset(adv_usd=adv)
        assert max_weight_impact([a], params)[a.id] == 1.0

    def test_participation_hand_cases(self):
        params = make_params(aum_usd=1e5, turnover_fraction=1.0, participation_cap=0.05)
        a = make_asset(adv_usd=1e6)
        assert max_weight_participation([a], params)[a.id] == pytest.approx(0.5, abs=1e-12)
        params = make_params(aum_usd=1e6, turnover_fraction=0.5, participation_cap=0.1)
        a = make_asset(adv_usd=5e5)
        assert max_weight_participation([a], params)[a.id] == pytest.approx(0.1, abs=1e-12)

    def test_participation_full_adv_unit_scale(self):
        params = make_params(aum_usd=1e6, turnover_fraction=1.0, participation_cap=1.0)
        a = make_asset(adv_usd=1e6)
        assert max_weight_participation([a], params)[a.id] == 1.0

    def test_participation_requires_configuration(self):
        params = make_params(participation_cap=None)
        with pytest.raises(ValidationError) as err:
            max_weight_participation([make_asset()], params)
        assert err.value.code == "participation_cap_not_configured"

    def test_trade_exactly_at_the_participation_cap_executes(self):
        # the cap is the trade's own participation A * |dw| / adv, then one ulp below it
        trade, asset = ("a", -0.02), make_asset(id="a", adv_usd=5e6)
        phi = 1e5 * abs(trade[1]) / asset.adv_usd
        for cap, outcome in ((phi, ([trade], [])),
                             (math.nextafter(phi, 0.0), ([], [(trade, "participation_cap")]))):
            params = make_params(aum_usd=1e5, min_effect_bps=0.2, participation_cap=cap)
            proposal = RebalanceProposal(trades=(trade,), schedule_due=True)
            assert filter_rebalance(proposal, params, [asset]) == outcome

    @given(
        v=st.floats(min_value=1e5, max_value=1e9),
        scale=st.floats(min_value=1.1, max_value=10.0),
        aum=st.floats(min_value=1e5, max_value=1e9),
        cap=st.floats(min_value=1e-4, max_value=0.05),
    )
    @settings(max_examples=100)
    def test_monotone_in_liquidity_and_scale(self, v, scale, aum, cap):
        base = make_params(aum_usd=aum, impact_cap=cap)
        a1, a2 = make_asset(adv_usd=v), make_asset(adv_usd=v * scale)
        assert max_weight_impact([a2], base)[a2.id] >= max_weight_impact([a1], base)[a1.id]
        bigger = make_params(aum_usd=aum * scale, impact_cap=cap)
        assert max_weight_impact([a1], bigger)[a1.id] <= max_weight_impact([a1], base)[a1.id]

    @given(aum=_POSITIVE, tau=_UNIT, c=_POSITIVE, delta=_OPEN_UNIT, cap=_POSITIVE,
           phi=_UNIT, adv=_POSITIVE)
    @settings(max_examples=400, deadline=None)
    def test_caps_are_their_law_over_the_validated_domain(self, aum, tau, c, delta, cap,
                                                          phi, adv):
        """Each cap is its law, evaluated exactly in log space, within a relative 1e-12.

        ``I_cap / c`` enters as the float the engine divides where that is
        normal: the impact law depends on the ratio alone, and the engine rounds
        it once, an error that ``1 / delta`` magnifies. Outside the normal range
        the ratio is taken as ``ln I_cap - ln c``, exactly.
        """
        params = make_params(aum_usd=aum, turnover_fraction=tau, c=c, delta=delta,
                             impact_cap=cap, participation_cap=phi)
        asset = make_asset(adv_usd=adv)
        ln = lambda x: Decimal(x).ln(_EXACT)  # noqa: E731
        ratio = cap / c
        log_ratio = (ln(ratio) if sys.float_info.min <= ratio < math.inf
                     else _EXACT.subtract(ln(cap), ln(c)))
        scale = _EXACT.subtract(ln(adv), _EXACT.add(ln(aum), ln(tau)))
        _assert_is_law(max_weight_impact([asset], params)[asset.id],
                       _EXACT.add(scale, _EXACT.divide(log_ratio, Decimal(delta))))
        _assert_is_law(max_weight_participation([asset], params)[asset.id],
                       _EXACT.add(scale, ln(phi)))


    @given(batch=_cap_batches())
    @example(batch=({"c": 1.147528455760593, "delta": 0.9792020758872617,  # ROADMAP item 18
                     "impact_cap": 0.04744014744303143, "turnover_fraction": 0.5035854973339161,
                     "aum_usd": 180678072.57460746, "participation_cap": None},
                    [5.239961538813079e-299, 1e6]))
    @example(batch=({"aum_usd": 19647.69073638976, "turnover_fraction": 0.14139989708822695,
                     "participation_cap": 0.4355022864277579},  # ROADMAP item 18
                    [1.4194320230019276e-304, 1e6]))
    @example(batch=({"c": 0.186, "delta": 0.518, "impact_cap": 1.014,  # the second switch
                     "turnover_fraction": 0.836, "aum_usd": 38679.432133176924},
                    [7.195e-304, 1e6]))
    @example(batch=({"c": 0.01, "delta": 0.001, "impact_cap": 1.0,  # 100 ** 1000 overflows
                     "participation_cap": 0.5}, [1e6, 5e-324, 1e308]))
    @example(batch=({"c": 1.0, "impact_cap": 1e-310, "participation_cap": 0.5},  # ratio
                    [1e6, 1e308, 5e-324]))
    @example(batch=({"aum_usd": 1e-310, "participation_cap": 0.5},  # envelope 5e-311
                    [1e-300, 1.0, 1e308]))
    @example(batch=({"participation_cap": 0.01}, [4.975e6, 5e6, 1e7]))  # around the clamp
    @example(batch=({"participation_cap": 0.5}, []))
    @example(batch=({"participation_cap": None}, []))
    @settings(max_examples=200, deadline=None)
    def test_batch_caps_are_the_per_asset_caps_bit_for_bit(self, batch):
        """Each table is the per-asset reference's caps, in input order, bit for bit; with
        no participation cap configured, the participation table raises, an empty one too."""
        knobs, advs = batch
        params = make_params(**knobs)
        assets = [make_asset(id=f"N{i}", adv_usd=adv) for i, adv in enumerate(advs)]
        hexed = lambda caps: [(k, v.hex()) for k, v in caps.items()]  # noqa: E731
        assert hexed(max_weight_impact(assets, params)) == [
            (a.id, _impact_cap_of(a, params).hex()) for a in assets]
        if knobs.get("participation_cap") is None:
            with pytest.raises(ValidationError) as err:
                max_weight_participation(assets, params)
            assert err.value.code == "participation_cap_not_configured"
        else:
            assert hexed(max_weight_participation(assets, params)) == [
                (a.id, _participation_cap_of(a, params).hex()) for a in assets]

def _filter_one(trade, cost_bps=None):
    """``filter_rebalance`` of one open-window trade on asset "a" at eps 5 bp, C_rt 50 bp."""
    params = make_params(round_trip_cost_bps=50.0, min_effect_bps=5.0)
    proposal = RebalanceProposal(trades=(trade,), schedule_due=True)
    return filter_rebalance(proposal, params, [make_asset(id="a", round_trip_cost_bps=cost_bps)])


class TestCostDominance:
    def test_threshold_hand_cases(self):
        assert min_weight_change(EconParams(50.0, 5.0)) == pytest.approx(0.1, abs=1e-15)
        assert min_weight_change(EconParams(30.0, 0.0)) == 0.0
        assert min_weight_change(EconParams(25.0, 2.0)) == pytest.approx(0.08, abs=1e-15)

    def test_asset_threshold_uses_cost_override(self):
        econ = EconParams(50.0, 5.0)
        assert min_weight_change(econ, None) == min_weight_change(econ) == 0.1
        assert min_weight_change(econ, 500.0) == 0.01
        # a zero-cost override: nothing to clear at zero effect, nothing clears it otherwise
        assert min_weight_change(EconParams(50.0, 0.0), 0.0) == 0.0
        assert min_weight_change(econ, 0.0) == math.inf

    def test_boundary_trade_is_admissible(self):
        # the trade filter executes exactly the threshold, at the sleeve cost and
        # at an asset's override, and suppresses one ulp toward zero
        for cost_bps, threshold in ((None, 0.1), (500.0, 0.01)):
            dw = min_weight_change(EconParams(50.0, 5.0), cost_bps)
            assert dw == threshold
            assert _filter_one(("a", dw), cost_bps) == ([("a", dw)], [])
            below = ("a", math.nextafter(dw, 0.0))
            assert _filter_one(below, cost_bps) == ([], [(below, "below_action_resolution")])

    def test_zero_trade_is_inadmissible_with_positive_threshold(self):
        # so is every trade on a zero-cost override (its threshold is inf)
        for trade, cost_bps in ((("a", 0.0), None), (("a", 0.5), 0.0), (("a", -0.5), 0.0)):
            assert _filter_one(trade, cost_bps) == ([], [(trade, "below_action_resolution")])

    def test_sells_use_magnitude(self):
        for cost_bps in (None, 500.0):
            dw = min_weight_change(EconParams(50.0, 5.0), cost_bps)
            assert _filter_one(("a", -dw), cost_bps) == ([("a", -dw)], [])
            below = ("a", -math.nextafter(dw, 0.0))
            assert _filter_one(below, cost_bps) == ([], [(below, "below_action_resolution")])

    @given(eps=st.floats(min_value=0.0, max_value=20.0),
           crt=st.floats(min_value=1.0, max_value=200.0),
           bump=st.floats(min_value=1.0, max_value=5.0))
    @settings(max_examples=100)
    def test_threshold_monotonicity(self, eps, crt, bump):
        base = min_weight_change(EconParams(crt, eps))
        assert min_weight_change(EconParams(crt, eps * bump)) >= base
        assert min_weight_change(EconParams(crt * bump, eps)) <= base


class TestBreadthEcon:
    def test_hand_cases(self):
        assert breadth_bound_econ(0.1, EconParams(50.0, 1.0)) == 5
        assert breadth_bound_econ(0.1, EconParams(50.0, 5.0)) == 1
        assert breadth_bound_econ(0.1, EconParams(50.0, 7.5)) == 0

    def test_zero_threshold_is_unbounded(self):
        assert breadth_bound_econ(0.1, EconParams(50.0, 0.0)) is UNBOUNDED

    def test_float_boundary_corrects_downward(self):
        # alpha / dw_min rounds up to 687, but 687 * dw_min exceeds alpha
        econ, alpha = EconParams(1.0, 0.0002475629895700427), 0.17007577383461933
        assert math.floor(alpha / min_weight_change(econ)) == 687
        assert breadth_bound_econ(alpha, econ) == 686

    @given(alpha=st.floats(min_value=0.001, max_value=1.0),
           eps=st.floats(min_value=0.01, max_value=20.0),
           crt=st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=300)
    def test_multiplicative_characterization(self, alpha, eps, crt):
        econ = EconParams(crt, eps)
        k = breadth_bound_econ(alpha, econ)
        dw = min_weight_change(econ)
        assert k * dw <= alpha
        assert (k + 1) * dw > alpha

    @given(alphas=_steps(0.0, 1.0), crts=_steps(0.0, sys.float_info.max, open_lo=True),
           epss=_steps(0.0, sys.float_info.max))
    @settings(max_examples=200)
    def test_monotone_in_each_input(self, alphas, crts, epss):
        # never falls as alpha or C_rt rise, never rises as eps rises; UNBOUNDED is the top
        (a1, a2), (c1, c2), (e1, e2) = alphas, crts, epss
        assume(e2 / c1 <= sys.float_info.max)  # EconParams rejects a threshold that overflows

        def bound(alpha, crt, eps):
            k = breadth_bound_econ(alpha, EconParams(crt, eps))
            return math.inf if k is UNBOUNDED else k

        base = bound(a1, c1, e1)
        assert bound(a2, c1, e1) >= base
        assert bound(a1, c2, e1) >= base
        assert bound(a1, c1, e2) <= base


class TestStructural:
    def test_hand_cases(self):
        assert alpha_max_structural(StructuralParams(0.05, 0.5)) == pytest.approx(
            0.10, abs=1e-15)
        assert alpha_max_structural(StructuralParams(0.0, 0.5)) == 0.0
        assert alpha_max_structural(StructuralParams(0.8, 0.4)) == 1.0

    def test_effective_alpha(self):
        assert effective_alpha(StructuralParams(0.05, 0.5, 0.0, 0.15)) == pytest.approx(0.10)
        assert effective_alpha(StructuralParams(0.05, 0.5, 0.0, 0.08)) == pytest.approx(0.08)
        assert effective_alpha(StructuralParams(0.05, 0.5, 0.0, 0.0)) == 0.0

    @given(losses=_steps(0.0, 1.0), drawdowns=_steps(0.0, 1.0, open_lo=True))
    @settings(max_examples=200)
    def test_monotone_in_loss_and_drawdown(self, losses, drawdowns):
        (l1, l2), (d1, d2) = losses, drawdowns
        base = alpha_max_structural(StructuralParams(l1, d1))
        assert alpha_max_structural(StructuralParams(l2, d1)) >= base
        assert alpha_max_structural(StructuralParams(l1, d2)) <= base


@st.composite
def _normalized_with_zeros(draw):
    """A weight vector summing to 1 within tolerance, with zeros (``0``, ``0.0``, ``-0.0``),
    subnormals and int entries among positive floats, in drawn order."""
    raws = draw(st.lists(st.floats(min_value=1e-300, max_value=1e300), max_size=12))
    total = math.fsum(raws)
    weights = [r / total for r in raws] if raws and total < math.inf else [1]
    fillers = st.sampled_from([0, 0.0, -0.0, 5e-324, 2**-1074 * 7, 2**-1023])
    for filler in draw(st.lists(fillers, max_size=8)):
        weights.insert(draw(st.integers(0, len(weights))), filler)
    return weights


class TestEntropy:
    def test_degenerate_distribution(self):
        assert weight_entropy([1.0]) == 0.0

    def test_uniform_maximizes(self):
        assert weight_entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)

    def test_direct_evaluation(self):
        assert weight_entropy([0.5, 0.25, 0.25]) == pytest.approx(
            0.5 * math.log(2) + 0.5 * math.log(4), abs=1e-12)

    def test_normalization_enforced(self):
        with pytest.raises(ValidationError) as err:
            weight_entropy([0.5, 0.4])
        assert err.value.code == "weights_not_normalized"

    @pytest.mark.parametrize("weights,total", [
        ([math.nan], "nan"), ([0.5, math.nan, 0.5], "nan"), ([1e308, 1e308], "inf"),
        ([math.inf, -math.inf], "nan")])
    def test_non_finite_weights_rejected(self, weights, total):
        with pytest.raises(ValidationError) as err:
            weight_entropy(weights)
        assert err.value.code == "weights_not_normalized"
        assert str(err.value) == f"weights sum to {total}, expected 1.0"
        with pytest.raises(ValidationError):
            entropy_increment_exact(weights, 0.1, 2)

    def test_continuous_as_weight_vanishes(self):
        base = weight_entropy([0.5, 0.5])
        for tiny in (1e-9, 1e-12, 1e-15):
            drifted = weight_entropy([0.5 - tiny / 2, 0.5 - tiny / 2, tiny])
            assert abs(drifted - base) < 1e-6
        assert weight_entropy([0.5, 0.5, 0.0]) == base

    def test_increment_approx_hand_cases(self):
        assert entropy_increment_approx(0.1, 2) == pytest.approx(
            -0.1 * math.log(0.05), abs=1e-12)
        assert entropy_increment_approx(1.0, 1) == 0.0
        assert entropy_increment_approx(0.12, 4) == pytest.approx(
            -0.12 * math.log(0.03), abs=1e-12)

    def test_increment_approx_rejects_empty_sleeve(self):
        with pytest.raises(ValidationError) as err:
            entropy_increment_approx(0.0, 3)
        assert err.value.code == "empty_sleeve_has_no_increment"

    def test_increment_exact_no_satellite(self):
        assert entropy_increment_exact([0.3, 0.7], 0.0, 1) == 0.0

    def test_increment_exact_single_name_core(self):
        # direct entropy evaluation oracle: H({0.9, 0.05, 0.05}) - H({1})
        oracle = -(0.9 * math.log(0.9) + 2 * 0.05 * math.log(0.05))
        assert entropy_increment_exact([1.0], 0.1, 2) == pytest.approx(oracle, abs=1e-12)

    def test_increment_exact_uniform_core(self):
        core = [0.1] * 10
        mixture = [0.09] * 10 + [0.05] * 2
        oracle = -math.fsum(w * math.log(w) for w in mixture) - math.log(10)
        assert entropy_increment_exact(core, 0.1, 2) == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=200)
    @given(weights=_normalized_with_zeros())
    @example([1])
    @example([0, 1, 0.0, -0.0])
    @example([0.5, 0.5, 5e-324, -0.0, 0])
    @example([1.0 - 2**-52, 2**-53, 2**-1074 * 3])
    def test_entropy_is_the_generator_sum_bit_for_bit(self, weights):
        reference = -math.fsum(w * math.log(w) for w in weights if w > 0) + 0.0
        assert weight_entropy(weights).hex() == reference.hex()

    @given(
        n=st.integers(min_value=1, max_value=20),
        alpha=st.floats(min_value=0.01, max_value=0.9),
        k=st.integers(min_value=1, max_value=15),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200)
    def test_exact_vs_approx_identity(self, n, alpha, k, seed):
        import random

        rng = random.Random(seed)
        raw = [rng.random() + 1e-6 for _ in range(n)]
        total = math.fsum(raw)
        core = [x / total for x in raw]
        h_core = weight_entropy(core)
        exact = entropy_increment_exact(core, alpha, k)
        approx = entropy_increment_approx(alpha, k)
        dropped = (1 - alpha) * (-math.log(1 - alpha)) - alpha * h_core
        assert exact - approx == pytest.approx(dropped, abs=1e-9)
        assert abs(exact - approx) <= alpha * h_core + (1 - alpha) * (-math.log(1 - alpha)) + 1e-9


class TestBreadthEntropy:
    def test_hand_cases(self):
        assert breadth_bound_entropy(0.1, EntropyParams(0.3)) == 2
        assert breadth_bound_entropy(0.5, EntropyParams(0.0)) == 0
        assert breadth_bound_entropy(0.12, EntropyParams(0.5)) == 7
        # not monotone in alpha, as the paper's alpha * exp(dH_max / alpha) is not
        assert breadth_bound_entropy(0.10, EntropyParams(0.5)) == 14
        assert breadth_bound_entropy(0.15, EntropyParams(0.5)) == 4

    def test_empty_sleeve_admits_no_names(self):
        assert breadth_bound_entropy(0.0, EntropyParams(1.0)) == 0

    def test_boundary_check_around_hand_case(self):
        assert entropy_increment_approx(0.1, 2) <= 0.3
        assert entropy_increment_approx(0.1, 3) > 0.3

    def test_astronomical_budget_does_not_crash(self):
        k = breadth_bound_entropy(0.01, EntropyParams(2.0))
        assert k > 10**80  # ~ 0.01 * e^200

    # a subnormal sleeve: alpha / K underflows to zero at every K
    @example(alpha=5e-324, delta_h_max=1.0)
    # exp(dH / alpha) = exp(800) overflows while the bound is about e^109
    @example(alpha=1e-300, delta_h_max=8e-298)
    @given(alpha=st.floats(min_value=5e-324, max_value=1.0),
           delta_h_max=st.floats(min_value=0.0, max_value=1e308))
    @settings(max_examples=300)
    def test_bound_is_the_inverse_of_the_increment(self, alpha, delta_h_max):
        k = breadth_bound_entropy(alpha, EntropyParams(delta_h_max))
        if k >= 1:
            assert entropy_increment_approx(alpha, k) <= delta_h_max
        if k < BREADTH_CEILING:
            assert entropy_increment_approx(alpha, k + 1) > delta_h_max

    @given(alpha=st.floats(min_value=0.0, max_value=1.0),
           budgets=_steps(0.0, sys.float_info.max))
    @settings(max_examples=200)
    def test_nondecreasing_in_budget(self, alpha, budgets):
        lo, hi = (breadth_bound_entropy(alpha, EntropyParams(dh)) for dh in budgets)
        assert hi >= lo


_UNIT_LAW = ImpactParams(c=1.0, delta=0.5, impact_cap=1.0)


@pytest.mark.parametrize("call,code,field", [
    (lambda: breadth_bound_econ(1.5, EconParams(25.0, 2.0)), "alpha_out_of_range", "alpha"),
    (lambda: breadth_bound_entropy(1.5, EntropyParams(0.5)), "alpha_out_of_range", "alpha"),
    (lambda: entropy_increment_approx(1.5, 2), "alpha_out_of_range", "alpha"),
    (lambda: entropy_increment_approx(0.1, 0), "k_out_of_range", "k"),
    (lambda: entropy_increment_exact([0.5, 0.5], 1.0, 2), "alpha_out_of_range", "alpha"),
    (lambda: entropy_increment_exact([0.5, 0.5], 0.1, 0), "k_out_of_range", "k"),
    (lambda: impact_cost(-1.0, 1e6, _UNIT_LAW), "notional_must_be_nonnegative",
     "traded_notional_usd"),
    (lambda: impact_cost(math.nan, 1e6, _UNIT_LAW), "notional_must_be_nonnegative",
     "traded_notional_usd"),
    # the ADV rule of Asset: a finite number, then positive
    (lambda: impact_cost(1e6, math.inf, _UNIT_LAW), "not_finite", "adv_usd"),
    (lambda: impact_cost(1e6, True, _UNIT_LAW), "not_finite", "adv_usd"),
    (lambda: weight_entropy([1.5, -0.5]), "weight_must_be_nonnegative", "weights"),
], ids=["econ alpha", "entropy alpha", "approx alpha", "approx k", "exact alpha", "exact k",
        "negative notional", "nan notional", "infinite adv", "boolean adv", "negative weight"])
def test_public_guards_name_their_input(call, code, field):
    with pytest.raises(ValidationError) as err:
        call()
    assert (err.value.code, err.value.field) == (code, field)
