import json
from pathlib import Path

import pytest

from satfeas import Asset, TierClass
from satfeas.model import FeasibilityParams

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


#: Each section of ``FeasibilityParams`` and its fields: a ``make_params`` keyword names one.
_SECTIONS = {name: getattr(FeasibilityParams(), name)._fields
             for name in ("impact", "econ", "structural", "entropy")}


def make_params(**changes) -> FeasibilityParams:
    """``FeasibilityParams()``, the shipped defaults, with ``changes``: each keyword is a field
    of it (``aum_usd``, ``turnover_fraction``) or of one of its sections (``c``,
    ``min_effect_bps``, ...). Each changed section is built anew, so it is validated."""
    base = FeasibilityParams()
    sections = {}
    for name, fields in _SECTIONS.items():
        given = {key: changes.pop(key) for key in fields if key in changes}
        if given:
            sections[name] = replace(getattr(base, name), **given)
    return replace(base, **sections, **changes)  # an unknown keyword is a TypeError


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
