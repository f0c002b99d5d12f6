import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES
from wmsdspace import geometry, render
from wmsdspace.aggregate import agg_from_wmsd, agg_values
from wmsdspace.errors import DegenerateCanvas, UnattainablePoint
from wmsdspace.geometry import is_attainable
from wmsdspace.model import normalize_weights
from wmsdspace.render import (
    HOLLOW,
    MARGIN_L,
    MARGIN_T,
    PlotFrame,
    PlotSpec,
    SOLID,
    color_hex,
    color_rgb,
    COLOR_ANCHORS,
    COLOR_QUANT_STEP,
    colors_hex,
    colors_rgb,
    field_cells,
    render_overlay,
    render_panel_grid,
    render_wmsd_plot,
)
from wmsdspace.spaces import matrix_to_utility, to_weighted
from wmsdspace.wmsd import WmsdPoint, wmsd_point

W3 = normalize_weights([0.5, 0.6, 1.0])

RECT_RE = re.compile(r'<rect x="([0-9.]+)" y="([0-9.]+)" '
                     r'width="([0-9.]+)" height="([0-9.]+)" '
                     r'fill="(#[0-9a-f]{6})"/>')


def student_points(matrix, w):
    return tuple(
        (alt_id, wmsd_point(to_weighted(u, w), w), SOLID)
        for alt_id, u in zip(matrix.ids, matrix_to_utility(matrix)))


@pytest.fixture(scope="module")
def students_spec(students_matrix):
    return PlotSpec(weights=W3, kind="R",
                    points=student_points(students_matrix, W3),
                    grid=64, show_isolines=(0.5,))


class TestColormap:
    def test_anchors(self):
        assert color_hex(0.0) == "#00008b"
        assert color_hex(0.25) == "#00bfbf"
        assert color_hex(0.5) == "#008b00"
        assert color_hex(0.75) == "#bfbf00"
        assert color_hex(1.0) == "#8b0000"

    def test_interpolation_midpoint(self):
        assert color_rgb(0.125) == (0, 96, 165)

    def test_clipping(self):
        assert color_hex(-0.2) == color_hex(0.0)
        assert color_hex(1.4) == color_hex(1.0)

    @staticmethod
    def reference_rgb(value):
        """The scalar colormap: first interval whose top is not exceeded."""
        v = min(max(value, 0.0), 1.0)
        for (v0, c0), (v1, c1) in zip(COLOR_ANCHORS, COLOR_ANCHORS[1:]):
            if v <= v1:
                t = (v - v0) / (v1 - v0)
                return tuple(round(a + t * (b - a)) for a, b in zip(c0, c1))
        return COLOR_ANCHORS[-1][1]

    @staticmethod
    def half_ties():
        """Values where some channel lands exactly on k + 0.5."""
        out = []
        for (v0, c0), (v1, c1) in zip(COLOR_ANCHORS, COLOR_ANCHORS[1:]):
            for a, b in zip(c0, c1):
                for k in range(min(a, b), max(a, b)):
                    guess = v0 + (k + 0.5 - a) / (b - a) * (v1 - v0)
                    for v in (np.nextafter(guess, -1.0), guess,
                              np.nextafter(guess, 2.0)):
                        t = (v - v0) / (v1 - v0)
                        if a + t * (b - a) == k + 0.5 and v0 < v <= v1:
                            out.append(float(v))
        return out

    def test_vectorized_matches_scalar(self):
        ties = self.half_ties()
        assert len(ties) > 100
        values = ([0.0, 1.0, -0.5, 1.5, 0.125, float("nan")]
                  + [v for v, _ in COLOR_ANCHORS] + ties)
        expected = [self.reference_rgb(v) for v in values]
        assert [tuple(r) for r in colors_rgb(values).tolist()] == expected
        assert [color_rgb(v) for v in values] == expected
        assert colors_hex(values) == [color_hex(v) for v in values]


class TestSinglePlot:
    def test_marker_count(self, students_spec):
        svg = render_wmsd_plot(students_spec)
        assert svg.count('class="marker"') == 15

    def test_determinism(self, students_spec):
        assert render_wmsd_plot(students_spec) == \
            render_wmsd_plot(students_spec)

    def test_neutral_isoline_pixel_column(self, students_spec):
        svg = render_wmsd_plot(students_spec)
        frame = PlotFrame(students_spec)
        expected_px = frame.x(W3.mean_w / 2)
        iso_paths = re.findall(r'<path class="isoline" d="([^"]+)"', svg)
        assert iso_paths
        xs = [float(m) for m in re.findall(r'[ML] ([0-9.]+)', iso_paths[0])]
        assert all(abs(x - expected_px) < 0.01 for x in xs)

    def test_field_colors_match_aggregation(self, students_spec):
        svg = render_wmsd_plot(students_spec)
        frame = PlotFrame(students_spec)
        nx = students_spec.grid
        cell_w = frame.plot_w / nx
        cell_h = frame.plot_h / max(8, nx // 2)
        rng = np.random.default_rng(0)
        rects = [m for m in RECT_RE.findall(svg) if m[4] != "#ffffff"]
        assert len(rects) > 500
        for i in rng.choice(len(rects), size=100, replace=False):
            x, y, _, _, fill = rects[i]
            wm_v = ((float(x) + cell_w / 2) - MARGIN_L) / frame.plot_w \
                * frame.wm_max
            wsd_v = (1.0 - (float(y) + cell_h / 2 - MARGIN_T)
                     / frame.plot_h) * frame.wsd_max
            value = float(agg_values("R", wm_v, wsd_v, W3.mean_w))
            expected = color_rgb(value)
            got = tuple(int(fill[k:k + 2], 16) for k in (1, 3, 5))
            assert max(abs(a - b) for a, b in zip(expected, got)) <= 1

    def test_no_cell_outside_region(self, students_spec):
        frame = PlotFrame(students_spec)
        nx = students_spec.grid
        diag = math.hypot(frame.wm_max / nx, frame.wsd_max / max(8, nx // 2))
        for cell in field_cells(students_spec):
            assert is_attainable(WmsdPoint(cell.wm, cell.wsd), W3, tol=diag)

    def test_unattainable_point_raises(self):
        bad = (("ghost", WmsdPoint(W3.mean_w, 0.3), SOLID),)
        spec = PlotSpec(weights=W3, kind="R", points=bad, grid=16)
        with pytest.raises(UnattainablePoint) as exc:
            render_wmsd_plot(spec)
        assert exc.value.point_id == "ghost"

    def test_force_plots_anyway(self):
        bad = (("ghost", WmsdPoint(W3.mean_w, 0.3), SOLID),)
        spec = PlotSpec(weights=W3, kind="R", points=bad, grid=16, force=True)
        assert render_wmsd_plot(spec).count('class="marker"') == 1

    def test_degenerate_canvas(self):
        with pytest.raises(DegenerateCanvas):
            PlotSpec(weights=W3, kind="R", width=0)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            PlotSpec(weights=W3, kind="R", grid=8)


class TestBatchedChecks:
    """Every point set is checked with one envelope evaluation."""

    GOOD = (("g1", WmsdPoint(0.20, 0.05), SOLID),
            ("g2", WmsdPoint(0.40, 0.02), SOLID))
    BAD = (("b1", WmsdPoint(0.69, 0.3), SOLID),
           ("b2", WmsdPoint(0.2, 0.3), SOLID))

    @staticmethod
    def message(pid, p):
        return (f"point {pid!r} at ({p.wm:.6f}, {p.wsd:.6f}) lies outside "
                f"the attainable region")

    @pytest.fixture
    def envelope_calls(self, monkeypatch):
        """Counts envelope_wsd calls; is_attainable must not be used."""
        calls = []
        env_fn, single_fn = geometry.envelope_wsd, geometry.is_attainable

        def counted(*args, **kwargs):
            calls.append(1)
            return env_fn(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("per-point is_attainable was called")
        for name, module in list(sys.modules.items()):
            if name == "wmsdspace" or name.startswith("wmsdspace."):
                for key, val in list(vars(module).items()):
                    if val is env_fn:
                        monkeypatch.setattr(module, key, counted)
                    elif val is single_fn and name != "wmsdspace.geometry":
                        monkeypatch.setattr(module, key, refuse)
        return calls

    def test_calls_independent_of_marker_count(self, run_cli, tmp_path,
                                               envelope_calls):
        rng = np.random.default_rng(4)
        counts = []
        for m in (20, 2000):
            data = tmp_path / f"students_{m}.csv"
            x = np.column_stack([rng.uniform(0, 100, m), rng.uniform(1, 6, m),
                                 rng.uniform(1, 6, m)])
            data.write_text("id,Math,Bio,Art\n" + "".join(
                f"s{i}," + ",".join(map(repr, row)) + "\n"
                for i, row in enumerate(x.tolist())))
            envelope_calls.clear()
            code, out, err = run_cli(
                "plot", "--data", data,
                "--config", FIXTURES / "students_config.json",
                "--isolines", "0.25,0.5")
            assert code == 0, err
            assert out.count('class="marker"') == m
            counts.append(len(envelope_calls))
        assert counts[0] == counts[1]

    def test_plot_reports_first_in_input_order(self):
        pts = self.GOOD[:1] + self.BAD[::-1] + self.GOOD[1:]
        spec = PlotSpec(weights=W3, kind="R", points=pts, grid=16)
        with pytest.raises(UnattainablePoint) as exc:
            render_wmsd_plot(spec)
        pid, p, _ = self.BAD[1]
        assert exc.value.point_id == pid
        assert str(exc.value) == self.message(pid, p)

    def test_overlay_checks_first_then_second_snapshot(self):
        base = PlotSpec(weights=W3, kind="R", grid=16)
        snap = [(pid, p) for pid, p, _ in self.GOOD + self.BAD[:1]]
        later = [(pid, p) for pid, p, _ in self.BAD[1:] + self.GOOD]
        for a, b, (pid, p) in ((snap, later, snap[2]), (later, snap, later[0]),
                               (snap[:2], later, later[0])):
            with pytest.raises(UnattainablePoint) as exc:
                render_overlay(base, a, b)
            assert exc.value.point_id == pid
            assert str(exc.value) == self.message(pid, p)

    def test_panel_grid_reports_first_bad_panel(self):
        specs = [PlotSpec(weights=W3, kind="R", grid=16, points=pts)
                 for pts in (self.GOOD, self.GOOD + self.BAD[1:],
                             self.BAD)]
        with pytest.raises(UnattainablePoint) as exc:
            render_panel_grid(specs, columns=2)
        pid, p, _ = self.BAD[1]
        assert exc.value.point_id == pid
        assert str(exc.value) == f"panel 1: {self.message(pid, p)}"

    def test_force_skips_check(self, envelope_calls):
        pts = self.GOOD + self.BAD
        forced = PlotSpec(weights=W3, kind="R", grid=16, points=pts,
                          force=True)
        plain = PlotSpec(weights=W3, kind="R", grid=16)
        assert render_wmsd_plot(forced).count('class="marker"') == 4
        forced_calls = len(envelope_calls)
        envelope_calls.clear()
        render_wmsd_plot(plain)  # no points, so no check
        assert len(envelope_calls) == forced_calls
        svg = render_overlay(PlotSpec(weights=W3, kind="R", grid=16,
                                      force=True),
                             [(pid, p) for pid, p, _ in self.BAD],
                             [(pid, p) for pid, p, _ in self.BAD])
        assert svg.count('class="marker"') == 4


class TestPanelGrid:
    def make_specs(self, count):
        return [PlotSpec(weights=W3, kind=kind, grid=16)
                for kind in ["I", "A", "R", "I", "A", "R"][:count]]

    def test_three_by_two(self):
        svg = render_panel_grid(self.make_specs(6), columns=2)
        offsets = re.findall(r'<g transform="translate\((\d+) (\d+)\)">', svg)
        assert len(offsets) == 6
        assert {(int(a), int(b)) for a, b in offsets} == {
            (0, 0), (640, 0), (0, 480), (640, 480), (0, 960), (640, 960)}

    def test_two_by_two(self):
        svg = render_panel_grid(self.make_specs(4), columns=2)
        assert len(re.findall(r"<g transform", svg)) == 4

    def test_outline_builds_no_vertex_images(self, monkeypatch):
        calls = []
        fn = geometry.vertex_images

        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name == "wmsdspace" or name.startswith("wmsdspace."):
                for key, val in list(vars(module).items()):
                    if val is fn:
                        monkeypatch.setattr(module, key, counted)
        svg = render_panel_grid(self.make_specs(4), columns=2)
        assert svg.count("<g transform") == 4 and calls == []
        geometry.boundary(W3, resolution=16)
        assert len(calls) == 1

    def test_single_panel_keeps_content_adds_legend(self):
        spec = PlotSpec(weights=W3, kind="R", grid=16)
        single = render_wmsd_plot(spec)
        grid = render_panel_grid([spec], columns=1)
        body = single.splitlines()[2:-1]  # strip svg element and background
        for line in body:
            assert line in grid
        assert "score" in grid and "score" not in single

    def test_determinism(self):
        specs = self.make_specs(4)
        assert render_panel_grid(specs, 2) == render_panel_grid(specs, 2)

    def test_cell_error_carries_index(self):
        specs = self.make_specs(2)
        bad = PlotSpec(weights=W3, kind="R", grid=16,
                       points=(("x", WmsdPoint(0.69, 0.3), SOLID),))
        with pytest.raises(UnattainablePoint, match="panel 2"):
            render_panel_grid(specs + [bad], columns=2)


class TestOverlay:
    BASE = PlotSpec(weights=W3, kind="R", grid=16)
    A = (("p1", WmsdPoint(0.20, 0.05)), ("p2", WmsdPoint(0.40, 0.02)),
         ("p3", WmsdPoint(0.55, 0.01)), ("p4", WmsdPoint(0.10, 0.04)))
    B = (("p1", WmsdPoint(0.25, 0.06)), ("p2", WmsdPoint(0.35, 0.01)),
         ("p3", WmsdPoint(0.60, 0.02)), ("p4", WmsdPoint(0.12, 0.08)))

    def test_marker_and_arrow_counts(self):
        svg = render_overlay(self.BASE, self.A, self.B)
        assert svg.count('class="marker"') == 8
        assert svg.count('class="arrow"') == 4
        assert svg.count('class="arrow-head"') == 4

    def test_identical_snapshots_suppress_arrows(self):
        svg = render_overlay(self.BASE, self.A, self.A)
        assert svg.count('class="marker"') == 8
        assert svg.count('class="arrow"') == 0

    def test_solid_then_hollow(self):
        svg = render_overlay(self.BASE, self.A, self.B)
        markers = re.findall(r'<circle class="marker"[^/]*/>', svg)
        assert sum('fill="#000000"' in m for m in markers) == 4
        assert sum('fill="#ffffff"' in m for m in markers) == 4

    def test_left_region_spread_gain(self):
        # moving a left-half point up in WSD raises its relative score
        old = WmsdPoint(0.20, 0.05)
        new = WmsdPoint(0.20, 0.15)
        r_old = agg_from_wmsd("R", old, W3.mean_w)
        r_new = agg_from_wmsd("R", new, W3.mean_w)
        assert r_new > r_old
        assert color_rgb(r_new) != color_rgb(r_old)

    def test_unattainable_snapshot_point(self):
        bad = (("p1", WmsdPoint(0.69, 0.3)),)
        with pytest.raises(UnattainablePoint):
            render_overlay(self.BASE, bad, bad)


def polyline_runs_loop(points, gap):
    """The per-pair loop that render._polyline_runs replaced."""
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


COORD = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 0.1, 0.3]))


@given(st.lists(st.tuples(COORD, COORD), max_size=40),
       st.sampled_from([0.0, 0.05, 0.1, 0.2, 1.0]))
def test_polyline_runs_equal_loop(coords, gap):
    points = np.array(coords, dtype=float).reshape(-1, 2)
    got = render._polyline_runs(points, gap)
    expected = polyline_runs_loop(points, gap)
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


class TestQuantizationStep:
    def test_one_channel_notch(self):
        # two values one quantization step apart differ by at most one
        # 8-bit unit per channel
        for v in (0.1, 0.3, 0.6, 0.9):
            a = color_rgb(v)
            b = color_rgb(v + COLOR_QUANT_STEP)
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1
