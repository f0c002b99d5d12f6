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
    agg_from_wmsd,
    agg_rows,
    agg_unweighted,
    agg_values,
    agg_weighted,
    compare_rankings,
    rank,
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
    is_attainable,
    isoline,
    vertex_images,
)
from .model import (
    CriterionSpec,
    DecisionMatrix,
    WeightVector,
    normalize_weights,
    scaling_coefficient,
    uniform_weights,
    validate_criteria,
)
from .render import (
    PlotSpec,
    color_hex,
    color_rgb,
    render_overlay,
    render_panel_grid,
    render_wmsd_plot,
)
from .spaces import (
    UtilityPoint,
    WeightedPoint,
    euclid,
    matrix_to_utility,
    rescaled_euclid,
    to_utility,
    to_weighted,
    utility_array,
    weighted_rescaled_euclid,
)
from .wmsd import (
    ProjectionPair,
    WmsdPoint,
    ia_distances,
    mean_sd,
    msd,
    plane,
    project,
    wm,
    wmsd_point,
    wsd,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationKind", "BoundaryEnvelope", "CriterionSpec", "DecisionMatrix",
    "Isoline", "PlotSpec", "ProjectionPair", "Ranking", "RankingComparison",
    "UtilityPoint", "WeightVector", "WeightedPoint", "WmsdError", "WmsdPoint",
    "agg_from_wmsd", "agg_rows", "agg_unweighted", "agg_values",
    "agg_weighted", "attainable", "boundary", "boundary_sampled", "color_hex",
    "color_rgb", "compare_rankings", "envelope", "envelope_wsd", "euclid",
    "ia_distances", "is_attainable", "isoline", "matrix_to_utility",
    "mean_sd", "msd", "normalize_weights", "plane", "project", "rank",
    "rank_array", "render_overlay", "render_panel_grid", "render_wmsd_plot",
    "rescaled_euclid", "scaling_coefficient", "to_utility", "to_weighted",
    "uniform_weights", "utility_array", "validate_criteria",
    "vertex_images", "weighted_rescaled_euclid", "wm", "wmsd_point", "wsd",
]
