"""Deterministic SVG plots of the (WM, WSD) plane.

A plot shows the attainable region filled with a color field encoding the
chosen aggregation (dark blue = worst, through cyan, green, and yellow,
to dark red = best), the exact region outline, optional isolines, and one
marker per alternative.  Markers come in as columns (ids, WM, WSD), as
:func:`wmsdspace.wmsd.plane` returns them.  Output is plain SVG 1.1 text
with no external resources; identical inputs produce byte-identical
documents.

The color field is a grid of filled rectangles whose centers lie strictly
inside the attainable region, so no paint ever extends beyond the
boundary by more than one cell.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

import numpy as np

from .aggregate import AggregationKind, agg_values
from .errors import (
    LengthMismatch,
    LevelOutOfRange,
    UnattainablePoint,
    ValidationError,
    WmsdError,
)
from .geometry import attainable, envelope, envelope_wsd, isoline
from .model import WeightVector, _Record, _Value
from ._text import rows

# Marker paint of a layer: plots and first snapshots are solid, second
# snapshots hollow.
SOLID = 'fill="#000000"'
HOLLOW = 'fill="#ffffff" stroke="#000000" stroke-width="1.5"'

# Colormap anchors: value -> RGB, interpolated linearly per channel.
COLOR_ANCHORS = (
    (0.00, (0x00, 0x00, 0x8B)),   # dark blue
    (0.25, (0x00, 0xBF, 0xBF)),   # cyan
    (0.50, (0x00, 0x8B, 0x00)),   # green
    (0.75, (0xBF, 0xBF, 0x00)),   # yellow
    (1.00, (0x8B, 0x00, 0x00)),   # dark red
)

# Smallest aggregation-value change that can move one color channel by
# one 8-bit step (the colormap's quantization step).
COLOR_QUANT_STEP = 0.25 / 191.0


_ANCHOR_VALUES = np.array([v for v, _ in COLOR_ANCHORS])
_ANCHOR_RGB = np.array([c for _, c in COLOR_ANCHORS], dtype=float)


def colors_rgb(values) -> np.ndarray:
    """RGB rows (k, 3) for an array of aggregation values (clipped to [0, 1]).

    Each value is interpolated within the first anchor interval whose
    upper end it does not exceed; channels round half to even, as
    Python's ``round`` does.  NaN maps to the last anchor.
    """
    v = np.clip(np.atleast_1d(np.asarray(values, dtype=float)), 0.0, 1.0)
    seg = np.searchsorted(_ANCHOR_VALUES[1:], v)
    k = np.minimum(seg, len(COLOR_ANCHORS) - 2)
    v0, v1 = _ANCHOR_VALUES[k], _ANCHOR_VALUES[k + 1]
    t = ((v - v0) / (v1 - v0))[:, None]
    c0, c1 = _ANCHOR_RGB[k], _ANCHOR_RGB[k + 1]
    rgb = np.rint(c0 + t * (c1 - c0))
    rgb[seg > k] = _ANCHOR_RGB[-1]
    return rgb.astype(np.int64)


class PlotSpec(_Record):
    """Everything needed to draw one plane plot.

    ``ids``, ``wm`` and ``wsd`` are the marker columns: marker k is
    alternative ``ids[k]`` at plane point ``(wm[k], wsd[k])``.
    """

    def __init__(self, weights: WeightVector, kind: AggregationKind,
                 ids: Sequence[str] = (), wm: np.ndarray = (),
                 wsd: np.ndarray = (), grid: int = 128,
                 show_isolines: tuple[float, ...] = (), labels: bool = False):
        wm = np.asarray(wm, dtype=float)
        wsd = np.asarray(wsd, dtype=float)
        if not len(ids) == wm.size == wsd.size:
            raise LengthMismatch(
                f"{len(ids)} ids, {wm.size} WM and {wsd.size} WSD values")
        if grid < 16:
            raise ValueError("grid resolution must be at least 16")
        for level in show_isolines:
            if not 0.0 <= level <= 1.0:
                raise LevelOutOfRange(f"isoline level {level} outside [0, 1]")
        vars(self).update(weights=weights, kind=kind, ids=ids, wm=wm, wsd=wsd,
                          grid=grid, show_isolines=show_isolines,
                          labels=labels)


# Size of one plot in pixels; a panel grid is a grid of plots this size.
WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 56, 16, 18, 44
LEGEND_W = 74


class PlotFrame(_Value):
    """Linear map from plane coordinates to pixel coordinates."""

    def __init__(self, spec: PlotSpec):
        vars(self).update(spec=spec)

    @property
    def plot_w(self) -> float:
        return WIDTH - MARGIN_L - MARGIN_R

    @property
    def plot_h(self) -> float:
        return HEIGHT - MARGIN_T - MARGIN_B

    @property
    def wm_max(self) -> float:
        return self.spec.weights.mean_w

    @property
    def wsd_max(self) -> float:
        return self.spec.weights.mean_w / 2.0

    def x(self, wm: float) -> float:
        return MARGIN_L + wm / self.wm_max * self.plot_w

    def y(self, wsd: float) -> float:
        return MARGIN_T + (1.0 - wsd / self.wsd_max) * self.plot_h


class FieldCells:
    """The color field as columns: one entry per cell of ``wm``, ``wsd``,
    ``value``, ``rgb`` (rows of 8-bit channels) and pixel corner ``x``,
    ``y``; every cell is ``w`` by ``h`` pixels."""

    def __init__(self, wm: np.ndarray, wsd: np.ndarray, value: np.ndarray,
                 rgb: np.ndarray, x: np.ndarray, y: np.ndarray, w: float,
                 h: float):
        self.wm, self.wsd, self.value, self.rgb = wm, wsd, value, rgb
        self.x, self.y, self.w, self.h = x, y, w, h

    def __len__(self) -> int:
        return self.wm.size


def field_cells(spec: PlotSpec) -> FieldCells:
    """Color-field cells whose centers lie inside the attainable region."""
    w = spec.weights
    frame = PlotFrame(spec)
    nx = spec.grid
    ny = max(8, spec.grid // 2)
    wm_step = frame.wm_max / nx
    wsd_step = frame.wsd_max / ny
    wm_centers = (np.arange(nx) + 0.5) * wm_step
    wsd_centers = (np.arange(ny) + 0.5) * wsd_step
    env = envelope_wsd(w, wm_centers)
    # Column i holds the cells below its envelope; a NaN envelope keeps
    # the whole column.  np.nonzero yields them column by column.
    ii, jj = np.nonzero(~(wsd_centers[None, :] > env[:, None]))
    wm_c, wsd_c = wm_centers[ii], wsd_centers[jj]
    vals = agg_values(spec.kind, wm_c, wsd_c, w.mean_w)
    return FieldCells(wm=wm_c, wsd=wsd_c, value=vals, rgb=colors_rgb(vals),
                      x=frame.x(wm_c - wm_step / 2),
                      y=frame.y(wsd_c + wsd_step / 2),
                      w=frame.plot_w / nx, h=frame.plot_h / ny)


def _esc(text: str) -> str:
    """``text`` as XML character data; a CR is written as a reference,
    since a parser reads a raw one back as LF."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace("\r", "&#13;"))


def _svg(template: str, *columns) -> str:
    """``template`` for each row of the broadcast numeric columns, as
    lines."""
    cols = np.broadcast_arrays(*map(np.atleast_1d, columns))
    return rows(template + "\n", cols)[:-1]


def _path_data(x: np.ndarray, y: np.ndarray) -> str:
    """SVG path data ``M x0 y0 L x1 y1 ...`` through the pixel points."""
    return "M " + rows("%.2f %.2f L ", [x, y])[:-3]


def _check_points(spec: PlotSpec, layers: list[tuple]) -> None:
    """Raise for the first point, in input order over the ``(ids, wm,
    wsd)`` marker ``layers``, outside the region."""
    wm, wsd = (np.concatenate([layer[i] for layer in layers]) for i in (1, 2))
    if not wm.size:
        return
    outside = np.flatnonzero(~attainable(spec.weights, wm, wsd))
    if outside.size:
        k = outside[0]
        ids = [pid for layer in layers for pid in layer[0]]
        pid = str(ids[k])  # a plain str, also for a numpy string column
        raise UnattainablePoint(
            f"point {pid!r} at ({wm[k]:.6f}, {wsd[k]:.6f}) lies outside "
            f"the attainable region", point_id=pid)


_MARKER = '<circle class="marker" cx="%.2f" cy="%.2f" r="4" {}/>'
_LABEL = ('\n<text x="%.2f" y="%.2f" font-family="sans-serif" '
          'font-size="11">%s</text>')


# Characters XML 1.0 cannot hold: C0 controls other than tab, LF and CR,
# the surrogates, U+FFFE and U+FFFF.  Only --labels reads it, so it is
# compiled on first use, through re's pattern cache.
_NOT_XML = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _check_labels(ids: Sequence[str]) -> None:
    """Raise for the first id, in input order, that a label cannot hold."""
    if re.search(_NOT_XML, "".join(ids)) is None:
        return
    pid = next(pid for pid in map(str, ids) if re.search(_NOT_XML, pid))
    raise ValidationError(f"label {pid!r} holds a character XML 1.0 "
                          f"cannot hold", point_id=pid)


def _markers_svg(frame: PlotFrame, ids: Sequence[str], wm: np.ndarray,
                 wsd: np.ndarray, paint: str, labels: bool) -> str:
    """One ``paint`` marker per point, each followed by its label with
    ``labels``."""
    x, y = frame.x(wm), frame.y(wsd)
    marker = _MARKER.format(paint)
    if not labels:
        return rows(marker + "\n", [x, y])[:-1]
    _check_labels(ids)
    return rows(marker + _LABEL + "\n",
                [x, y, x + 6, y - 6, [_esc(pid) for pid in ids]])[:-1]


def _region_svg(spec: PlotSpec, frame: PlotFrame) -> list[str]:
    """The color field and the region outline."""
    cells = field_cells(spec)
    env_wm, env_wsd = envelope(spec.weights)
    return [_svg('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                 'fill="#%02x%02x%02x"/>', cells.x, cells.y, cells.w + 0.3,
                 cells.h + 0.3, *cells.rgb.T),
            f'<path d="{_path_data(frame.x(env_wm), frame.y(env_wsd))} Z" '
            f'fill="none" stroke="#000000" stroke-width="1.2"/>']


def _panel_body(spec: PlotSpec, regions: dict, second: tuple | None = None
                ) -> list[str]:
    """All drawing elements of a single plot, in local coordinates.

    ``regions`` maps a (weights, kind, grid) key to its field and
    outline text, so panels of one document share it.  ``second`` is an
    optional second snapshot of ``(ids, wm, wsd)`` marker columns: it is
    drawn hollow over the solid markers of ``spec``, labelled in their
    place, and joined to them by arrows.
    """
    w = spec.weights
    frame = PlotFrame(spec)
    layers = [(spec.ids, spec.wm, spec.wsd)]
    if second is not None:
        ids, wm, wsd = second
        layers.append((ids, np.asarray(wm, dtype=float),
                       np.asarray(wsd, dtype=float)))
    _check_points(spec, layers)
    out = [f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" '
           f'fill="#ffffff"/>']
    key = (w.weights.tobytes(), spec.kind, spec.grid)
    if key not in regions:
        regions[key] = _region_svg(spec, frame)
    out.extend(regions[key])

    for level in spec.show_isolines:
        for run in isoline(spec.kind, level, w).runs:
            if len(run) >= 2:
                out.append(
                    f'<path class="isoline" d="'
                    f'{_path_data(frame.x(run[:, 0]), frame.y(run[:, 1]))}'
                    f'" fill="none" stroke="#555555" stroke-width="1" '
                    f'stroke-dasharray="4 3"/>')

    out.extend(_axes_svg(spec, frame))
    if second is not None:
        out.append(_arrows_svg(frame, *layers))
    for layer, paint in zip(layers, (SOLID, HOLLOW)):
        out.append(_markers_svg(frame, *layer, paint,
                                spec.labels and layer is layers[-1]))
    return out


def _arrows_svg(frame: PlotFrame, first: tuple, second: tuple) -> str:
    """An arrow from each point of ``first`` to the point of ``second``
    with its id, in ``first``'s order, unless of negligible length."""
    (ids_a, wm_a, wsd_a), (ids_b, wm_b, wsd_b) = first, second
    row = dict(zip(ids_b, range(len(ids_b))))
    kb = np.array([row.get(pid, -1) for pid in ids_a], dtype=np.intp)
    ka = np.flatnonzero(kb >= 0)
    kb = kb[ka]
    far = np.hypot(wm_b[kb] - wm_a[ka], wsd_b[kb] - wsd_a[ka]) > 1e-12
    x1, y1 = frame.x(wm_a[ka[far]]), frame.y(wsd_a[ka[far]])
    x2, y2 = frame.x(wm_b[kb[far]]), frame.y(wsd_b[kb[far]])
    # A plane step over 1e-12 is over 4e-10 pixels: d > 0 for finite ends.
    d = np.hypot(x2 - x1, y2 - y1)
    ux, uy = (x2 - x1) / d, (y2 - y1) / d
    tipx, tipy = x2 - 5 * ux, y2 - 5 * uy
    hx, hy = tipx - 5 * ux, tipy - 5 * uy
    px, py = -uy * 2.5, ux * 2.5
    return _svg('<line class="arrow" x1="%.2f" y1="%.2f" x2="%.2f" '
                'y2="%.2f" stroke="#444444" stroke-width="1"/>\n'
                '<polygon class="arrow-head" points="%.2f,%.2f %.2f,%.2f '
                '%.2f,%.2f" fill="#444444"/>', x1, y1, tipx, tipy, tipx,
                tipy, hx + px, hy + py, hx - px, hy - py)


_LINE = ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#000000" '
         'stroke-width="1"/>')
_TICK = ('\n<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="10" '
         'text-anchor="{}">%.2f</text>')


def _axes_svg(spec: PlotSpec, frame: PlotFrame) -> list[str]:
    x0, x1 = frame.x(0.0), frame.x(frame.wm_max)
    y0, y1 = frame.y(0.0), frame.y(frame.wsd_max)
    tx = np.linspace(0.0, frame.wm_max, 5)
    ty = np.linspace(0.0, frame.wsd_max, 5)
    px, py = frame.x(tx), frame.y(ty)
    cx = (x0 + x1) / 2
    cy = (y0 + y1) / 2
    ws = rows("%.2f, ", [spec.weights.weights])[:-2]
    return [
        _svg(_LINE, x0, y0, [x1, x0], [y0, y1]),
        _svg(_LINE + _TICK.format("middle"), px, y0, px, y0 + 4, px, y0 + 16,
             tx),
        _svg(_LINE + _TICK.format("end"), x0 - 4, py, x0, py, x0 - 7, py + 3,
             ty),
        _svg('<text x="%.2f" y="%.2f" font-family="sans-serif" '
             'font-size="12" text-anchor="middle">WM</text>\n'
             '<text x="%.2f" y="%.2f" font-family="sans-serif" '
             'font-size="12" text-anchor="middle" '
             'transform="rotate(-90 %.2f %.2f)">WSD</text>\n'
             '<text x="%.2f" y="%.2f" font-family="sans-serif" '
             'font-size="11">' + f"{spec.kind} w=[{ws}]".replace("%", "%%")
             + '</text>', cx, y0 + 32, x0 - 40, cy, x0 - 40, cy, x0,
             MARGIN_T - 5),
    ]


def _document(width: int, height: int, body: list[str]) -> str:
    """The SVG document of ``body``, one element or element group per
    entry; empty entries (a field or marker layer with no rows) are
    left out."""
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join(filter(None, [head, *body, "</svg>"])) + "\n"


def render_wmsd_plot(spec: PlotSpec, second: tuple | None = None) -> str:
    """One plane plot as an SVG document.

    ``second`` is an optional second snapshot, an ``(ids, wm, wsd)``
    triple of marker columns: it is drawn hollow over the solid markers
    of ``spec``, labelled in their place when ``spec.labels`` is set, and
    each point of ``spec`` whose id it holds is joined by an arrow to its
    second position; arrows of negligible length are suppressed.
    """
    return _document(WIDTH, HEIGHT, _panel_body(spec, {}, second))


def _legend_svg(ox: float, oy: float, h: float) -> list[str]:
    steps = 64
    bar_h = h - 30
    step_h = bar_h / steps
    i = np.arange(steps)
    rgb = colors_rgb((i + 0.5) / steps)
    y = oy + 10 + bar_h - (i + 1) * step_h
    v = np.array([0.0, 0.5, 1.0])
    return [
        _svg('<rect x="%.2f" y="%.2f" width="18" height="%.2f" '
             'fill="#%02x%02x%02x"/>', ox + 12, y, step_h + 0.3, *rgb.T),
        _svg('<rect x="%.2f" y="%.2f" width="18" height="%.2f" fill="none" '
             'stroke="#000000" stroke-width="1"/>', ox + 12, oy + 10, bar_h),
        _svg('<text x="%.2f" y="%.2f" font-family="sans-serif" '
             'font-size="10">%.1f</text>', ox + 34,
             oy + 10 + bar_h * (1.0 - v) + 3, v),
        _svg('<text x="%.2f" y="%.2f" font-family="sans-serif" '
             'font-size="11">score</text>', ox + 12, oy + h - 6),
    ]


def render_panel_grid(specs: Sequence[PlotSpec], columns: int = 2) -> str:
    """Several plots in a row-major grid sharing one colormap legend."""
    if len(specs) == 0:
        raise ValueError("at least one plot spec is required")
    if columns < 1:
        raise ValueError("columns must be positive")
    rows = math.ceil(len(specs) / columns)
    total_w = columns * WIDTH + LEGEND_W
    total_h = rows * HEIGHT
    body = [f'<rect x="0" y="0" width="{total_w}" height="{total_h}" '
            f'fill="#ffffff"/>']
    regions = {}
    for i, spec in enumerate(specs):
        ox = (i % columns) * WIDTH
        oy = (i // columns) * HEIGHT
        try:
            panel = _panel_body(spec, regions)
        except WmsdError as e:
            e.args = (f"panel {i}: {e}",)
            raise
        body.append(f'<g transform="translate({ox} {oy})">')
        body.extend(panel)
        body.append("</g>")
    body.extend(_legend_svg(columns * WIDTH, 0, 300))
    return _document(total_w, total_h, body)

