"""Deterministic SVG plots of the (WM, WSD) plane.

A plot shows the attainable region filled with a color field encoding the
chosen aggregation (dark blue = worst, through cyan, green, and yellow,
to dark red = best), the exact region outline, optional isolines, and one
marker per alternative.  Output is plain SVG 1.1 text with no external
resources; identical inputs produce byte-identical documents.

The color field is a grid of filled rectangles whose centers lie strictly
inside the attainable region, so no paint ever extends beyond the
boundary by more than one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .aggregate import AggregationKind, agg_values
from .errors import (
    DegenerateCanvas,
    LevelOutOfRange,
    UnattainablePoint,
    WmsdError,
)
from .geometry import attainable, envelope, envelope_wsd, isoline
from .model import WeightVector
from ._text import rows
from .wmsd import WmsdPoint

SOLID = "solid"
HOLLOW = "hollow"

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


def colors_hex(values) -> list[str]:
    """``#rrggbb`` strings for an array of aggregation values."""
    return [f"#{r:02x}{g:02x}{b:02x}"
            for r, g, b in colors_rgb(values).tolist()]


def color_rgb(value: float) -> tuple[int, int, int]:
    """RGB triple for an aggregation value in [0, 1] (clipped)."""
    return tuple(colors_rgb(value)[0].tolist())


def color_hex(value: float) -> str:
    return colors_hex(value)[0]


@dataclass(frozen=True, eq=False)
class PlotSpec:
    """Everything needed to draw one plane plot."""

    weights: WeightVector
    kind: AggregationKind
    points: tuple[tuple[str, WmsdPoint, str], ...] = ()
    grid: int = 128
    width: int = 640
    height: int = 480
    show_isolines: tuple[float, ...] = ()
    labels: bool = False
    force: bool = False

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DegenerateCanvas(
                f"canvas {self.width}x{self.height} is not positive")
        if self.grid < 16:
            raise ValueError("grid resolution must be at least 16")
        for level in self.show_isolines:
            if not 0.0 <= level <= 1.0:
                raise LevelOutOfRange(f"isoline level {level} outside [0, 1]")


MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 56, 16, 18, 44
LEGEND_W = 74


@dataclass(frozen=True)
class PlotFrame:
    """Linear map from plane coordinates to pixel coordinates."""

    spec: PlotSpec

    @property
    def plot_w(self) -> float:
        return self.spec.width - MARGIN_L - MARGIN_R

    @property
    def plot_h(self) -> float:
        return self.spec.height - MARGIN_T - MARGIN_B

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


@dataclass(frozen=True)
class FieldCell:
    """One rectangle of the color field (plane and pixel coordinates)."""

    wm: float
    wsd: float
    value: float
    color: str
    x: float
    y: float
    w: float
    h: float


class FieldCells:
    """The color field as columns: one entry per cell of ``wm``, ``wsd``,
    ``value``, ``rgb`` (rows of 8-bit channels) and pixel corner ``x``,
    ``y``; every cell is ``w`` by ``h`` pixels.  Iterating yields
    :class:`FieldCell` objects.  (A plain class: a dataclass would add
    about a millisecond to every command's start.)"""

    def __init__(self, wm: np.ndarray, wsd: np.ndarray, value: np.ndarray,
                 rgb: np.ndarray, x: np.ndarray, y: np.ndarray, w: float,
                 h: float):
        self.wm, self.wsd, self.value, self.rgb = wm, wsd, value, rgb
        self.x, self.y, self.w, self.h = x, y, w, h

    def __len__(self) -> int:
        return self.wm.size

    def __iter__(self):
        for a, b, v, c, x, y in zip(
                self.wm.tolist(), self.wsd.tolist(), self.value.tolist(),
                colors_hex(self.value), self.x.tolist(), self.y.tolist()):
            yield FieldCell(a, b, v, c, x, y, self.w, self.h)


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
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _svg(template: str, *columns) -> str:
    """``template`` for each row of the broadcast numeric columns, as
    lines."""
    cols = np.broadcast_arrays(*map(np.atleast_1d, columns))
    return rows(template + "\n", cols)[:-1]


def _path_data(x: np.ndarray, y: np.ndarray) -> str:
    """SVG path data ``M x0 y0 L x1 y1 ...`` through the pixel points."""
    return "M " + rows("%.2f %.2f L ", [x, y])[:-3]


def _polyline_runs(points: np.ndarray, gap: float) -> list[np.ndarray]:
    """Split clipped samples into contiguous runs at large jumps."""
    if len(points) == 0:
        return []
    step = np.diff(points, axis=0)
    jumps = np.flatnonzero(np.hypot(step[:, 0], step[:, 1]) > gap) + 1
    return [r for r in np.split(points, jumps) if len(r) >= 2]


def _coords(pts: Sequence[tuple[str, WmsdPoint, str]]
            ) -> tuple[np.ndarray, np.ndarray]:
    """``(wm, wsd)`` arrays of the points."""
    return (np.array([p.wm for _, p, _ in pts], dtype=float),
            np.array([p.wsd for _, p, _ in pts], dtype=float))


def _check_points(spec: PlotSpec, pts: Sequence[tuple[str, WmsdPoint, str]],
                  wm: np.ndarray, wsd: np.ndarray) -> None:
    """Raise for the first point, in input order, outside the region."""
    if spec.force or not pts:
        return
    outside = np.flatnonzero(~attainable(spec.weights, wm, wsd, 1e-9))
    if outside.size:
        pid, p, _style = pts[outside[0]]
        raise UnattainablePoint(
            f"point {pid!r} at ({p.wm:.6f}, {p.wsd:.6f}) lies outside "
            f"the attainable region", point_id=pid)


_PAINT = {HOLLOW: 'fill="#ffffff" stroke="#000000" stroke-width="1.5"'}
_MARKER = '<circle class="marker" cx="%.2f" cy="%.2f" r="4" %s/>'
_LABEL = ('\n<text x="%.2f" y="%.2f" font-family="sans-serif" '
          'font-size="11">%s</text>')


def _markers_svg(frame: PlotFrame, pts: Sequence[tuple[str, WmsdPoint, str]],
                 wm: np.ndarray, wsd: np.ndarray, labels: bool) -> str:
    """One marker per point, each followed by its label with ``labels``."""
    x, y = frame.x(wm), frame.y(wsd)
    paint = [_PAINT.get(style, 'fill="#000000"') for _, _, style in pts]
    if not labels:
        return rows(_MARKER + "\n", [x, y, paint])[:-1]
    return rows(_MARKER + _LABEL + "\n",
                [x, y, paint, x + 6, y - 6,
                 [_esc(pid) for pid, _, _ in pts]])[:-1]


def _region_svg(spec: PlotSpec, frame: PlotFrame) -> list[str]:
    """The color field and the region outline."""
    cells = field_cells(spec)
    env_wm, env_wsd = envelope(spec.weights, resolution=512)
    return [_svg('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                 'fill="#%02x%02x%02x"/>', cells.x, cells.y, cells.w + 0.3,
                 cells.h + 0.3, *cells.rgb.T),
            f'<path d="{_path_data(frame.x(env_wm), frame.y(env_wsd))} Z" '
            f'fill="none" stroke="#000000" stroke-width="1.2"/>']


def _panel_body(spec: PlotSpec, regions: dict) -> list[str]:
    """All drawing elements of a single plot, in local coordinates.

    ``regions`` maps a (weights, kind, grid, size) key to its field and
    outline text, so panels of one document share it.
    """
    w = spec.weights
    frame = PlotFrame(spec)
    wm, wsd = _coords(spec.points)
    _check_points(spec, spec.points, wm, wsd)
    out = [f'<rect x="0" y="0" width="{spec.width}" '
           f'height="{spec.height}" fill="#ffffff"/>']
    key = (w.weights.tobytes(), spec.kind, spec.grid, spec.width,
           spec.height)
    if key not in regions:
        regions[key] = _region_svg(spec, frame)
    out.extend(regions[key])

    for level in spec.show_isolines:
        iso = isoline(spec.kind, level, w, samples=361)
        gap = (frame.wm_max / 20 if iso.shape != "arc"
               else max(iso.radius * math.pi / 36, frame.wm_max / 50))
        for run in _polyline_runs(iso.points, gap):
            out.append(f'<path class="isoline" d="'
                       f'{_path_data(frame.x(run[:, 0]), frame.y(run[:, 1]))}'
                       f'" fill="none" stroke="#555555" stroke-width="1" '
                       f'stroke-dasharray="4 3"/>')

    out.extend(_axes_svg(spec, frame))
    out.append(_markers_svg(frame, spec.points, wm, wsd, spec.labels))
    return out


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


def render_wmsd_plot(spec: PlotSpec) -> str:
    """One plane plot as an SVG document."""
    return _document(spec.width, spec.height, _panel_body(spec, {}))


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
    panel_w = max(s.width for s in specs)
    panel_h = max(s.height for s in specs)
    total_w = columns * panel_w + LEGEND_W
    total_h = rows * panel_h
    body = [f'<rect x="0" y="0" width="{total_w}" height="{total_h}" '
            f'fill="#ffffff"/>']
    regions = {}
    for i, spec in enumerate(specs):
        ox = (i % columns) * panel_w
        oy = (i // columns) * panel_h
        try:
            panel = _panel_body(spec, regions)
        except WmsdError as e:
            e.args = (f"panel {i}: {e}",)
            raise
        body.append(f'<g transform="translate({ox} {oy})">')
        body.extend(panel)
        body.append("</g>")
    body.extend(_legend_svg(columns * panel_w, 0, min(panel_h, 300)))
    return _document(total_w, total_h, body)


def render_overlay(base: PlotSpec,
                   snapshot_a: Sequence[tuple[str, WmsdPoint]],
                   snapshot_b: Sequence[tuple[str, WmsdPoint]]) -> str:
    """Two point snapshots on one plot: solid = first, hollow = second.

    Matching ids are joined by an arrow from the first to the second
    position; arrows of negligible length are suppressed.
    """
    pts_a = tuple((pid, p, SOLID) for pid, p in snapshot_a)
    pts_b = tuple((pid, p, HOLLOW) for pid, p in snapshot_b)
    wm_a, wsd_a = _coords(pts_a)
    wm_b, wsd_b = _coords(pts_b)
    _check_points(base, pts_a + pts_b, np.concatenate([wm_a, wm_b]),
                  np.concatenate([wsd_a, wsd_b]))

    frame = PlotFrame(base)
    field_spec = PlotSpec(
        weights=base.weights, kind=base.kind, points=(), grid=base.grid,
        width=base.width, height=base.height,
        show_isolines=base.show_isolines, labels=False, force=base.force)
    body = _panel_body(field_spec, {})

    b_by_id = {pid: p for pid, p in snapshot_b}
    arrows = []
    for pid, pa in snapshot_a:
        pb = b_by_id.get(pid)
        if pb is None:
            continue
        if math.hypot(pb.wm - pa.wm, pb.wsd - pa.wsd) <= 1e-12:
            continue
        x1, y1 = frame.x(pa.wm), frame.y(pa.wsd)
        x2, y2 = frame.x(pb.wm), frame.y(pb.wsd)
        d = math.hypot(x2 - x1, y2 - y1)
        ux, uy = ((x2 - x1) / d, (y2 - y1) / d) if d > 0 else (1.0, 0.0)
        tipx, tipy = x2 - 5 * ux, y2 - 5 * uy
        hx, hy = tipx - 5 * ux, tipy - 5 * uy
        px, py = -uy * 2.5, ux * 2.5
        arrows.append((x1, y1, tipx, tipy, tipx, tipy, hx + px, hy + py,
                       hx - px, hy - py))
    if arrows:
        body.append(_svg(
            '<line class="arrow" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
            'stroke="#444444" stroke-width="1"/>\n'
            '<polygon class="arrow-head" points="%.2f,%.2f %.2f,%.2f '
            '%.2f,%.2f" fill="#444444"/>', *zip(*arrows)))
    body.append(_markers_svg(frame, pts_a, wm_a, wsd_a, labels=False))
    body.append(_markers_svg(frame, pts_b, wm_b, wsd_b, labels=base.labels))
    return _document(base.width, base.height, body)
