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


def field_cells(spec: PlotSpec) -> list[FieldCell]:
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
    cell_w = frame.plot_w / nx
    cell_h = frame.plot_h / ny
    # Column i holds the cells below its envelope; a NaN envelope keeps
    # the whole column.  np.nonzero yields them column by column.
    ii, jj = np.nonzero(~(wsd_centers[None, :] > env[:, None]))
    wm_c, wsd_c = wm_centers[ii], wsd_centers[jj]
    vals = agg_values(spec.kind, wm_c, wsd_c, w.mean_w)
    return [FieldCell(wm=a, wsd=b, value=v, color=c, x=x, y=y,
                      w=cell_w, h=cell_h)
            for a, b, v, c, x, y in zip(
                wm_c.tolist(), wsd_c.tolist(), vals.tolist(),
                colors_hex(vals),
                frame.x(wm_c - wm_step / 2).tolist(),
                frame.y(wsd_c + wsd_step / 2).tolist())]


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _polyline_runs(points: np.ndarray, gap: float) -> list[np.ndarray]:
    """Split clipped samples into contiguous runs at large jumps."""
    if len(points) == 0:
        return []
    runs = []
    start = 0
    for i in range(1, len(points)):
        if np.hypot(*(points[i] - points[i - 1])) > gap:
            runs.append(points[start:i])
            start = i
    runs.append(points[start:])
    return [r for r in runs if len(r) >= 2]


def _check_points(spec: PlotSpec,
                  pts: Sequence[tuple[str, WmsdPoint, str]]) -> None:
    """Raise for the first point, in input order, outside the region."""
    if spec.force or not pts:
        return
    wm = np.array([p.wm for _, p, _ in pts], dtype=float)
    wsd = np.array([p.wsd for _, p, _ in pts], dtype=float)
    outside = np.flatnonzero(~attainable(spec.weights, wm, wsd, 1e-9))
    if outside.size:
        pid, p, _style = pts[outside[0]]
        raise UnattainablePoint(
            f"point {pid!r} at ({p.wm:.6f}, {p.wsd:.6f}) lies outside "
            f"the attainable region", point_id=pid)


def _marker_svg(frame: PlotFrame, pid: str, p: WmsdPoint, style: str,
                labels: bool) -> list[str]:
    cx, cy = _fmt(frame.x(p.wm)), _fmt(frame.y(p.wsd))
    if style == HOLLOW:
        paint = 'fill="#ffffff" stroke="#000000" stroke-width="1.5"'
    else:
        paint = 'fill="#000000"'
    out = [f'<circle class="marker" cx="{cx}" cy="{cy}" r="4" {paint}/>']
    if labels:
        tx = _fmt(frame.x(p.wm) + 6)
        ty = _fmt(frame.y(p.wsd) - 6)
        out.append(f'<text x="{tx}" y="{ty}" font-family="sans-serif" '
                   f'font-size="11">{_esc(pid)}</text>')
    return out


def _panel_body(spec: PlotSpec) -> list[str]:
    """All drawing elements of a single plot, in local coordinates."""
    w = spec.weights
    frame = PlotFrame(spec)
    _check_points(spec, spec.points)
    out = [f'<rect x="0" y="0" width="{spec.width}" '
           f'height="{spec.height}" fill="#ffffff"/>']

    for cell in field_cells(spec):
        out.append(f'<rect x="{_fmt(cell.x)}" y="{_fmt(cell.y)}" '
                   f'width="{_fmt(cell.w + 0.3)}" '
                   f'height="{_fmt(cell.h + 0.3)}" fill="{cell.color}"/>')

    env_wm, env_wsd = envelope(w, resolution=512)
    path = [f'M {_fmt(frame.x(env_wm[0]))} {_fmt(frame.y(env_wsd[0]))}']
    for wm_v, wsd_v in zip(env_wm[1:], env_wsd[1:]):
        path.append(f'L {_fmt(frame.x(wm_v))} {_fmt(frame.y(wsd_v))}')
    path.append("Z")
    out.append(f'<path d="{" ".join(path)}" fill="none" stroke="#000000" '
               f'stroke-width="1.2"/>')

    for level in spec.show_isolines:
        iso = isoline(spec.kind, level, w, samples=361)
        gap = (frame.wm_max / 20 if iso.shape != "arc"
               else max(iso.radius * math.pi / 36, frame.wm_max / 50))
        for run in _polyline_runs(iso.points, gap):
            seg = [f'M {_fmt(frame.x(run[0, 0]))} {_fmt(frame.y(run[0, 1]))}']
            for wm_v, wsd_v in run[1:]:
                seg.append(f'L {_fmt(frame.x(wm_v))} {_fmt(frame.y(wsd_v))}')
            out.append(f'<path class="isoline" d="{" ".join(seg)}" '
                       f'fill="none" stroke="#555555" stroke-width="1" '
                       f'stroke-dasharray="4 3"/>')

    out.extend(_axes_svg(spec, frame))
    for pid, p, style in spec.points:
        out.extend(_marker_svg(frame, pid, p, style, spec.labels))
    return out


def _axes_svg(spec: PlotSpec, frame: PlotFrame) -> list[str]:
    x0, x1 = frame.x(0.0), frame.x(frame.wm_max)
    y0, y1 = frame.y(0.0), frame.y(frame.wsd_max)
    out = [
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
        f'y2="{_fmt(y0)}" stroke="#000000" stroke-width="1"/>',
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" '
        f'y2="{_fmt(y1)}" stroke="#000000" stroke-width="1"/>',
    ]
    for t in np.linspace(0.0, frame.wm_max, 5):
        px = frame.x(t)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" '
                   f'y2="{_fmt(y0 + 4)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(y0 + 16)}" '
                   f'font-family="sans-serif" font-size="10" '
                   f'text-anchor="middle">{t:.2f}</text>')
    for t in np.linspace(0.0, frame.wsd_max, 5):
        py = frame.y(t)
        out.append(f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(py)}" '
                   f'x2="{_fmt(x0)}" y2="{_fmt(py)}" stroke="#000000" '
                   f'stroke-width="1"/>')
        out.append(f'<text x="{_fmt(x0 - 7)}" y="{_fmt(py + 3)}" '
                   f'font-family="sans-serif" font-size="10" '
                   f'text-anchor="end">{t:.2f}</text>')
    cx = (x0 + x1) / 2
    cy = (y0 + y1) / 2
    out.append(f'<text x="{_fmt(cx)}" y="{_fmt(y0 + 32)}" '
               f'font-family="sans-serif" font-size="12" '
               f'text-anchor="middle">WM</text>')
    out.append(f'<text x="{_fmt(x0 - 40)}" y="{_fmt(cy)}" '
               f'font-family="sans-serif" font-size="12" '
               f'text-anchor="middle" transform="rotate(-90 {_fmt(x0 - 40)} '
               f'{_fmt(cy)})">WSD</text>')
    ws = ", ".join(f"{v:.2f}" for v in spec.weights.weights)
    out.append(f'<text x="{_fmt(x0)}" y="{_fmt(MARGIN_T - 5)}" '
               f'font-family="sans-serif" font-size="11">{spec.kind} '
               f'w=[{ws}]</text>')
    return out


def _document(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def render_wmsd_plot(spec: PlotSpec) -> str:
    """One plane plot as an SVG document."""
    return _document(spec.width, spec.height, _panel_body(spec))


def _legend_svg(ox: float, oy: float, h: float) -> list[str]:
    steps = 64
    bar_h = h - 30
    step_h = bar_h / steps
    out = []
    for i in range(steps):
        v = (i + 0.5) / steps
        y = oy + 10 + bar_h - (i + 1) * step_h
        out.append(f'<rect x="{_fmt(ox + 12)}" y="{_fmt(y)}" width="18" '
                   f'height="{_fmt(step_h + 0.3)}" fill="{color_hex(v)}"/>')
    out.append(f'<rect x="{_fmt(ox + 12)}" y="{_fmt(oy + 10)}" width="18" '
               f'height="{_fmt(bar_h)}" fill="none" stroke="#000000" '
               f'stroke-width="1"/>')
    for v in (0.0, 0.5, 1.0):
        y = oy + 10 + bar_h * (1.0 - v)
        out.append(f'<text x="{_fmt(ox + 34)}" y="{_fmt(y + 3)}" '
                   f'font-family="sans-serif" font-size="10">{v:.1f}</text>')
    out.append(f'<text x="{_fmt(ox + 12)}" y="{_fmt(oy + h - 6)}" '
               f'font-family="sans-serif" font-size="11">score</text>')
    return out


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
    for i, spec in enumerate(specs):
        ox = (i % columns) * panel_w
        oy = (i // columns) * panel_h
        try:
            panel = _panel_body(spec)
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
    _check_points(base, pts_a + pts_b)

    frame = PlotFrame(base)
    field_spec = PlotSpec(
        weights=base.weights, kind=base.kind, points=(), grid=base.grid,
        width=base.width, height=base.height,
        show_isolines=base.show_isolines, labels=False, force=base.force)
    body = _panel_body(field_spec)

    b_by_id = {pid: p for pid, p in snapshot_b}
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
        body.append(f'<line class="arrow" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                    f'x2="{_fmt(tipx)}" y2="{_fmt(tipy)}" stroke="#444444" '
                    f'stroke-width="1"/>')
        hx, hy = tipx - 5 * ux, tipy - 5 * uy
        px, py = -uy * 2.5, ux * 2.5
        body.append(f'<polygon class="arrow-head" points="'
                    f'{_fmt(tipx)},{_fmt(tipy)} {_fmt(hx + px)},{_fmt(hy + py)} '
                    f'{_fmt(hx - px)},{_fmt(hy - py)}" fill="#444444"/>')

    for pid, p, style in pts_a:
        body.extend(_marker_svg(frame, pid, p, style, labels=False))
    for pid, p, style in pts_b:
        body.extend(_marker_svg(frame, pid, p, style, labels=base.labels))
    return _document(base.width, base.height, body)
