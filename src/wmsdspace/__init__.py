"""TOPSIS rankings explained in the two-dimensional (WM, WSD) plane.

The package scores alternatives with the classic distance-based
aggregations under arbitrary non-negative criteria weights and maps every
alternative to a weight-scaled mean / weight-scaled standard deviation
pair, where scores, attainable regions, and score level sets all have
exact geometric form.

Public names are imported from their modules on first use (PEP 562), so
``import wmsdspace`` loads no submodule and a CLI command loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Every public name and the submodule that defines it.
_HOME = {
    "AggregationKind": "aggregate", "Ranking": "aggregate",
    "RankingComparison": "aggregate", "agg_values": "aggregate",
    "compare_rankings": "aggregate", "rank_array": "aggregate",
    "WmsdError": "errors",
    "Isoline": "geometry", "attainable": "geometry",
    "envelope": "geometry", "envelope_wsd": "geometry",
    "isoline": "geometry", "vertex_images": "geometry",
    "CriterionSpec": "model", "DecisionMatrix": "model",
    "WeightVector": "model", "normalize_weights": "model",
    "uniform_weights": "model", "validate_criteria": "model",
    "PlotSpec": "render", "colors_rgb": "render",
    "render_panel_grid": "render", "render_wmsd_plot": "render",
    "utility_array": "spaces",
    "plane": "wmsd",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name, or a submodule that defines one, on first
    access; a public name is then cached in the package namespace."""
    if name in _HOME.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
