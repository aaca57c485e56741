"""Fair revenue sharing for crowd-sourced systems via Shapley allocation."""

from fairshare.core import (
    Allocation,
    AxiomReport,
    CoalitionGame,
    DegenerateCrowdError,
    PlayerId,
    PlayerTag,
    RosterTooLargeError,
    anonymous_game,
    check_axioms,
    shapley_exact,
    shapley_sample,
)
from fairshare.geo import (
    DiskCensus,
    GeoParams,
    geo_founder_shapley,
    geo_shapley,
    region_census,
)
from fairshare.models import (
    ProfitCssParams,
    ShareReport,
    SingleCssParams,
    WeightedCssParams,
    closed_profit,
    closed_single,
    closed_weighted,
    share_sweep,
)
from fairshare.oligopoly import (
    OligopolyGraph,
    fine_major_ratio,
    shapley_coarse,
    shapley_fine_closed,
)

__version__ = "0.1.0"
