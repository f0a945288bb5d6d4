"""Feasibility gating for thematic satellite sleeves in core-satellite portfolios.

The engine decides whether a proposed thematic sleeve is admissible by
checking five nested layers (domain eligibility, structural sizing,
epistemic breadth, economic action resolution, physical impact) and emits
closed-form design bounds plus a binding-constraint report. It is
deterministic and non-predictive: no returns, factors, or forecasts enter
anywhere.
"""

from .cascade import CascadeInput, compute_bounds, filter_rebalance, run_cascade
from .config import RunConfig, config_from_dict, load_config
from .layers import (
    UNBOUNDED,
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
from .model import (
    LAYERS,
    Asset,
    DerivedBounds,
    EconParams,
    EntropyParams,
    ExclusionCategory,
    FeasibilityParams,
    FeasibilityReport,
    ImpactParams,
    LayerVerdict,
    RebalanceProposal,
    SatelliteDesign,
    StructuralParams,
    TierClass,
    Unbounded,
    ValidationError,
)
from .replay import RebalanceEvent, ReplayStats, replay
from .tiering import assign_tier_weights, eligibility_filter

__version__ = "0.1.0"

__all__ = [
    "Asset",
    "CascadeInput",
    "DerivedBounds",
    "EconParams",
    "EntropyParams",
    "ExclusionCategory",
    "FeasibilityParams",
    "FeasibilityReport",
    "ImpactParams",
    "LAYERS",
    "LayerVerdict",
    "RebalanceEvent",
    "RebalanceProposal",
    "ReplayStats",
    "RunConfig",
    "SatelliteDesign",
    "StructuralParams",
    "TierClass",
    "UNBOUNDED",
    "Unbounded",
    "ValidationError",
    "alpha_max_structural",
    "assign_tier_weights",
    "breadth_bound_econ",
    "breadth_bound_entropy",
    "compute_bounds",
    "config_from_dict",
    "effective_alpha",
    "eligibility_filter",
    "entropy_increment_approx",
    "entropy_increment_exact",
    "filter_rebalance",
    "impact_cost",
    "load_config",
    "max_weight_impact",
    "max_weight_participation",
    "min_weight_change",
    "replay",
    "run_cascade",
    "weight_entropy",
]
