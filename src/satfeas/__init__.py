"""Feasibility gating for thematic satellite sleeves in core-satellite portfolios.

The engine decides whether a proposed thematic sleeve is admissible by
checking five nested layers (domain eligibility, structural sizing,
epistemic breadth, economic action resolution, physical impact) and emits
closed-form design bounds plus a binding-constraint report. It is
deterministic and non-predictive: no returns, factors, or forecasts enter
anywhere.

The root exports the library entry points and what a caller builds to call
them; layer primitives, parameter types and result types stay public in
their own modules.
"""

from .cascade import CascadeInput, compute_bounds, filter_rebalance, run_cascade
from .config import config_from_dict, load_config
from .model import (
    Asset,
    ExclusionCategory,
    RebalanceProposal,
    SatelliteDesign,
    TierClass,
    ValidationError,
)
from .replay import RebalanceEvent, replay

__version__ = "0.1.0"

__all__ = [
    "Asset",
    "CascadeInput",
    "ExclusionCategory",
    "RebalanceEvent",
    "RebalanceProposal",
    "SatelliteDesign",
    "TierClass",
    "ValidationError",
    "compute_bounds",
    "config_from_dict",
    "filter_rebalance",
    "load_config",
    "replay",
    "run_cascade",
]
