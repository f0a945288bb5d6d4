import json
from pathlib import Path

import pytest

from satfeas import Asset, TierClass
from satfeas.model import (
    EconParams,
    EntropyParams,
    FeasibilityParams,
    ImpactParams,
    StructuralParams,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _reject_constant(name):
    pytest.fail(f"{name} in JSON output: reports must be strict JSON")


def strict_json(text):
    """``json.loads(text)``, failing the test on a NaN, Infinity or -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def check_cli_json(argv, out):
    """A CLI run asked for ``--format json`` prints nothing or strict JSON."""
    if out and "--format" in argv and argv[argv.index("--format") + 1] == "json":
        strict_json(out)


def replace(obj, **changes):
    """``obj`` with ``changes``, built anew and so re-validated (``copy.replace`` from 3.13)."""
    return obj.__replace__(**changes)


def make_params(
    aum_usd=1e5,
    turnover_fraction=0.5,
    c=0.1,
    delta=0.5,
    impact_cap=0.01,
    participation_cap=None,
    round_trip_cost_bps=25.0,
    min_effect_bps=2.0,
    loss_tolerance=0.05,
    max_drawdown=0.5,
    alpha_policy_min=0.10,
    alpha_policy_max=0.15,
    delta_h_max=0.5,
) -> FeasibilityParams:
    return FeasibilityParams(
        aum_usd=aum_usd,
        turnover_fraction=turnover_fraction,
        impact=ImpactParams(c=c, delta=delta, impact_cap=impact_cap,
                            participation_cap=participation_cap),
        econ=EconParams(round_trip_cost_bps=round_trip_cost_bps,
                        min_effect_bps=min_effect_bps),
        structural=StructuralParams(loss_tolerance=loss_tolerance,
                                    max_drawdown=max_drawdown,
                                    alpha_policy_min=alpha_policy_min,
                                    alpha_policy_max=alpha_policy_max),
        entropy=EntropyParams(delta_h_max=delta_h_max),
    )


def make_asset(id="X", tier=TierClass.A, adv_usd=5e6, gaer=True, exclusion=None,
               round_trip_cost_bps=None) -> Asset:
    from satfeas import ExclusionCategory

    return Asset(id=id, tier=tier, adv_usd=adv_usd, gaer_admissible=gaer,
                 exclusion=exclusion or ExclusionCategory.NONE,
                 round_trip_cost_bps=round_trip_cost_bps)


@pytest.fixture
def params():
    return make_params()


@pytest.fixture
def ai_candidates():
    tiers = [TierClass.A, TierClass.A, TierClass.B, TierClass.B, TierClass.C]
    return tuple(make_asset(id=f"N{i}", tier=t) for i, t in enumerate(tiers))
