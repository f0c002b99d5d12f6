"""TOPSIS rankings explained in the two-dimensional (WM, WSD) plane.

The package scores alternatives with the classic distance-based
aggregations under arbitrary non-negative criteria weights and maps every
alternative to a weight-scaled mean / weight-scaled standard deviation
pair, where scores, attainable regions, and score level sets all have
exact geometric form.
"""

from .aggregate import (
    AggregationKind,
    Ranking,
    RankingComparison,
    agg_rows,
    agg_values,
    compare_rankings,
    rank_array,
)
from .errors import WmsdError
from .geometry import (
    BoundaryEnvelope,
    Isoline,
    attainable,
    boundary,
    boundary_sampled,
    envelope,
    envelope_wsd,
    isoline,
    vertex_images,
)
from .model import (
    CriterionSpec,
    DecisionMatrix,
    WeightVector,
    normalize_weights,
    uniform_weights,
    validate_criteria,
)
from .render import (
    PlotSpec,
    colors_rgb,
    render_overlay,
    render_panel_grid,
    render_wmsd_plot,
)
from .spaces import utility_array
from .wmsd import mean_sd, plane

__version__ = "0.1.0"

__all__ = [
    "AggregationKind", "BoundaryEnvelope", "CriterionSpec", "DecisionMatrix",
    "Isoline", "PlotSpec", "Ranking", "RankingComparison", "WeightVector",
    "WmsdError", "agg_rows", "agg_values", "attainable", "boundary",
    "boundary_sampled", "colors_rgb", "compare_rankings", "envelope",
    "envelope_wsd", "isoline", "mean_sd", "normalize_weights", "plane",
    "rank_array", "render_overlay", "render_panel_grid", "render_wmsd_plot",
    "uniform_weights", "utility_array", "validate_criteria", "vertex_images",
]
