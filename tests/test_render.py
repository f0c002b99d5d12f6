import math
import re
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES
from wmsdspace import geometry, render
from wmsdspace.aggregate import agg_values
from wmsdspace.errors import LengthMismatch, UnattainablePoint
from wmsdspace.geometry import attainable
from wmsdspace.model import normalize_weights
from wmsdspace.render import (
    MARGIN_L,
    MARGIN_T,
    PlotFrame,
    PlotSpec,
    COLOR_ANCHORS,
    COLOR_QUANT_STEP,
    colors_rgb,
    field_cells,
    render_panel_grid,
    render_wmsd_plot,
)
from wmsdspace.spaces import utility_array
from wmsdspace.wmsd import plane

W3 = normalize_weights([0.5, 0.6, 1.0])

RECT_RE = re.compile(r'<rect x="([0-9.]+)" y="([0-9.]+)" '
                     r'width="([0-9.]+)" height="([0-9.]+)" '
                     r'fill="(#[0-9a-f]{6})"/>')


def columns(points):
    """``ids``, ``wm`` and ``wsd`` keywords of ``(id, wm, wsd)`` triples."""
    return {"ids": [p[0] for p in points], "wm": [p[1] for p in points],
            "wsd": [p[2] for p in points]}


def rgb(value):
    """The colormap's RGB triple of one value."""
    return tuple(colors_rgb(value)[0].tolist())


@pytest.fixture(scope="module")
def students_spec(students_matrix):
    u = utility_array(students_matrix.values, students_matrix.criteria)
    wm, wsd = plane(u * W3.weights, W3)
    return PlotSpec(weights=W3, kind="R", ids=students_matrix.ids, wm=wm,
                    wsd=wsd, grid=64, show_isolines=(0.5,))


class TestColormap:
    def test_anchors(self):
        assert colors_rgb([0.0, 0.25, 0.5, 0.75, 1.0]).tolist() == [
            [0x00, 0x00, 0x8B], [0x00, 0xBF, 0xBF], [0x00, 0x8B, 0x00],
            [0xBF, 0xBF, 0x00], [0x8B, 0x00, 0x00]]

    def test_interpolation_midpoint(self):
        assert rgb(0.125) == (0, 96, 165)

    def test_clipping(self):
        assert rgb(-0.2) == rgb(0.0)
        assert rgb(1.4) == rgb(1.0)

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
        assert [rgb(v) for v in values] == expected


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
            expected = rgb(value)
            got = tuple(int(fill[k:k + 2], 16) for k in (1, 3, 5))
            assert max(abs(a - b) for a, b in zip(expected, got)) <= 1

    def test_no_cell_outside_region(self, students_spec):
        frame = PlotFrame(students_spec)
        nx = students_spec.grid
        diag = math.hypot(frame.wm_max / nx, frame.wsd_max / max(8, nx // 2))
        cells = field_cells(students_spec)
        assert attainable(W3, cells.wm, cells.wsd, tol=diag).all()
        assert len(cells) == cells.wm.size > 0

    def test_unattainable_point_raises(self):
        bad = columns([("ghost", W3.mean_w, 0.3)])
        spec = PlotSpec(weights=W3, kind="R", grid=16, **bad)
        with pytest.raises(UnattainablePoint) as exc:
            render_wmsd_plot(spec)
        assert exc.value.point_id == "ghost"

    def test_array_ids_reported_as_str(self):
        spec = PlotSpec(weights=W3, kind="R", grid=16, ids=np.array(["a"]),
                        wm=[0.69], wsd=[0.3])
        with pytest.raises(UnattainablePoint) as exc:
            render_wmsd_plot(spec)
        assert type(exc.value.point_id) is str
        assert str(exc.value).startswith("point 'a' at")

    def test_marker_columns_of_equal_length(self):
        with pytest.raises(LengthMismatch):
            PlotSpec(weights=W3, kind="R", ids=["a", "b"], wm=[0.2, 0.3],
                     wsd=[0.05])

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            PlotSpec(weights=W3, kind="R", grid=8)


SVG = "{http://www.w3.org/2000/svg}"


def isoline_elements(root):
    """The isoline elements of a parsed document, in document order."""
    return [e for e in root.iter() if e.get("class") == "isoline"]


def clipped_groups(root):
    """Each group that clips by a path, with its clip path and the
    stroked outline in the same panel, in document order."""
    panels = [g for g in root if g.tag == SVG + "g"
              and g.get("transform") is not None] or [root]
    found = []
    for panel in panels:
        clips = {c.get("id"): c for c in panel.iter(SVG + "clipPath")}
        (outline,) = [p for p in panel.iter(SVG + "path")
                      if p.get("stroke") == "#000000"]
        for group in panel.iter(SVG + "g"):
            if group.get("clip-path") is not None:
                key = re.fullmatch(r"url\(#(.+)\)", group.get("clip-path"))[1]
                found.append((group, clips[key], outline))
    return found


def students_levels(spec, *levels):
    """``spec``, the students plot, drawing ``levels`` as isolines."""
    return PlotSpec(weights=spec.weights, kind=spec.kind, ids=spec.ids,
                    wm=spec.wm, wsd=spec.wsd, grid=spec.grid,
                    show_isolines=levels)


class TestIsolineElements:
    LEVELS = (0.1, 0.25, 0.4, 0.75, 0.9)

    @pytest.mark.parametrize("kind", ["A", "I", "R"])
    def test_ellipses_are_frame_images(self, kind):
        spec = PlotSpec(weights=W3, kind=kind, grid=16,
                        show_isolines=self.LEVELS)
        frame = PlotFrame(spec)
        got = isoline_elements(ET.fromstring(render_wmsd_plot(spec)))
        assert [e.tag for e in got] == [SVG + "ellipse"] * len(self.LEVELS)
        for level, e in zip(self.LEVELS, got):
            iso = geometry.isoline(kind, level, W3)
            cx, cy = frame.x(iso.center_wm), frame.y(0.0)
            want = [cx, cy, frame.x(iso.center_wm + iso.radius) - cx,
                    cy - frame.y(iso.radius)]
            numbers = [float(e.get(k)) for k in ("cx", "cy", "rx", "ry")]
            assert np.allclose(numbers, want, rtol=0, atol=0.01)

    def test_clip_path_is_the_outline(self, students_spec):
        root = ET.fromstring(render_wmsd_plot(students_spec))
        ((group, clip, outline),) = clipped_groups(root)
        (path,) = clip
        assert path.get("d") == outline.get("d")
        assert list(group) == isoline_elements(root)
        assert (group.get("fill"), group.get("stroke"),
                group.get("stroke-dasharray")) == ("none", "#555555", "4 3")

    def test_grid_clip_ids_unique(self):
        a, b = W3, normalize_weights([1.0, 0.5])
        specs = [PlotSpec(weights=w, kind="R", grid=16,
                          show_isolines=(0.25, 0.5)) for w in (a, b, a, b)]
        root = ET.fromstring(render_panel_grid(specs, 2))
        found = clipped_groups(root)
        assert len(found) == 4
        for group, clip, outline in found:
            assert clip[0].get("d") == outline.get("d")
        ids = [e.get("id") for e in root.iter() if e.get("id") is not None]
        assert len(ids) == len(set(ids)) == 4
        outlines = [outline.get("d") for _, _, outline in found]
        assert outlines[0] == outlines[2] != outlines[1] == outlines[3]

    @pytest.mark.parametrize("level", [0.5 - 1e-7, 0.5 + 1e-7, 0.5 - 1e-12,
                                       0.5 + 1e-12, 0.5 - 8e-6, 0.5 + 8e-6,
                                       0.5 - 9e-6, 0.5 + 9e-6, 0.51])
    def test_near_neutral_r_draws_one_element(self, students_spec, level):
        """A vertical line where the circle strays less than 0.005 px from
        it up to the plot top, within about 8.8e-6 of R = 0.5; else an
        ellipse."""
        spec = students_levels(students_spec, level)
        frame = PlotFrame(spec)
        (element,) = isoline_elements(ET.fromstring(render_wmsd_plot(spec)))
        iso = geometry.isoline("R", level, W3)
        line = iso.shape == "segment"
        if not line:
            side = 1.0 if iso.center_wm > W3.mean_w / 2 else -1.0
            top = iso.center_wm - side * math.sqrt(
                iso.radius ** 2 - frame.wsd_max ** 2)
            cross = iso.center_wm - side * iso.radius
            line = abs(frame.x(top) - frame.x(cross)) < 0.005
        assert line == (abs(level - 0.5) < 8.8e-6)
        assert element.tag == SVG + ("path" if line else "ellipse")

    def test_near_neutral_line_follows_its_circle(self, students_spec):
        level = 0.5 + 1e-7
        spec = students_levels(students_spec, level)
        frame = PlotFrame(spec)
        (element,) = isoline_elements(ET.fromstring(render_wmsd_plot(spec)))
        x1, y1, x2, y2 = map(float, re.fullmatch(
            r"M (\S+) (\S+) L (\S+) (\S+)", element.get("d")).groups())
        assert x1 == x2 and (y1, y2) == (frame.y(0.0), MARGIN_T)
        iso = geometry.isoline("R", level, W3)
        assert iso.center_wm > W3.mean_w
        # The circle from the WM axis up to the plot top.
        wsd = np.linspace(0.0, frame.wsd_max, 101)
        wm = iso.center_wm - np.sqrt((iso.radius - wsd) * (iso.radius + wsd))
        assert np.max(np.abs(frame.x(wm) - x1)) < 0.005

    def test_points_draw_nothing(self, students_spec):
        svg = render_wmsd_plot(students_levels(students_spec, 0.0, 1.0))
        assert svg == render_wmsd_plot(students_levels(students_spec))
        assert "<clipPath" not in svg and "<g" not in svg


class TestBatchedChecks:
    """Every point set is checked with one envelope evaluation."""

    GOOD = (("g1", 0.20, 0.05), ("g2", 0.40, 0.02))
    BAD = (("b1", 0.69, 0.3), ("b2", 0.2, 0.3))

    @staticmethod
    def message(pid, wm, wsd):
        return (f"point {pid!r} at ({wm:.6f}, {wsd:.6f}) lies outside "
                f"the attainable region")

    @pytest.fixture
    def envelope_calls(self, monkeypatch):
        """Counts envelope_wsd calls."""
        calls = []
        env_fn = geometry.envelope_wsd

        def counted(*args, **kwargs):
            calls.append(1)
            return env_fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name == "wmsdspace" or name.startswith("wmsdspace."):
                for key, val in list(vars(module).items()):
                    if val is env_fn:
                        monkeypatch.setattr(module, key, counted)
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

    def test_check_is_one_call_made_only_for_points(self, envelope_calls):
        # GOOD lies far inside, where the cached outline decides; points
        # just under the envelope need the one exact evaluation.
        near = [(f"n{k}", wm, 0.999 * geometry.envelope_wsd(W3, wm)[0])
                for k, wm in enumerate((0.1, 0.35, 0.6))]
        geometry.envelope(W3)
        counts = []
        for pts in ((), self.GOOD, near):
            envelope_calls.clear()
            render_wmsd_plot(PlotSpec(weights=W3, kind="R", grid=16,
                                      **columns(pts)))
            counts.append(len(envelope_calls))
        assert counts[1] == counts[0] and counts[2] == counts[0] + 1

    def test_plot_reports_first_in_input_order(self):
        pts = self.GOOD[:1] + self.BAD[::-1] + self.GOOD[1:]
        spec = PlotSpec(weights=W3, kind="R", grid=16, **columns(pts))
        with pytest.raises(UnattainablePoint) as exc:
            render_wmsd_plot(spec)
        pid = self.BAD[1][0]
        assert exc.value.point_id == pid
        assert str(exc.value) == self.message(*self.BAD[1])

    def test_overlay_checks_first_then_second_snapshot(self):
        snap = self.GOOD + self.BAD[:1]
        later = self.BAD[1:] + self.GOOD
        for a, b, bad in ((snap, later, snap[2]), (later, snap, later[0]),
                          (snap[:2], later, later[0])):
            with pytest.raises(UnattainablePoint) as exc:
                render_wmsd_plot(
                    PlotSpec(weights=W3, kind="R", grid=16, **columns(a)),
                    tuple(columns(b).values()))
            assert exc.value.point_id == bad[0]
            assert str(exc.value) == self.message(*bad)

    def test_panel_grid_reports_first_bad_panel(self):
        specs = [PlotSpec(weights=W3, kind="R", grid=16, **columns(pts))
                 for pts in (self.GOOD, self.GOOD + self.BAD[1:],
                             self.BAD)]
        with pytest.raises(UnattainablePoint) as exc:
            render_panel_grid(specs, columns=2)
        pid = self.BAD[1][0]
        assert exc.value.point_id == pid
        assert str(exc.value) == f"panel 1: {self.message(*self.BAD[1])}"


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
        geometry.vertex_images(W3)
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

    @pytest.mark.parametrize("count,columns", [(0, 2), (2, 0)])
    def test_refused_layout(self, count, columns):
        with pytest.raises(ValueError):
            render_panel_grid(self.make_specs(count), columns=columns)

    def test_cell_error_carries_index(self):
        specs = self.make_specs(2)
        bad = PlotSpec(weights=W3, kind="R", grid=16,
                       **columns([("x", 0.69, 0.3)]))
        with pytest.raises(UnattainablePoint, match="panel 2"):
            render_panel_grid(specs + [bad], columns=2)


def overlay(first, second, **options):
    """``render_wmsd_plot`` of two ``(ids, wm, wsd)`` snapshots on W3."""
    ids, wm, wsd = first
    return render_wmsd_plot(PlotSpec(weights=W3, kind="R", grid=16, ids=ids,
                                     wm=wm, wsd=wsd, **options), second)


class TestOverlay:
    A = (("p1", "p2", "p3", "p4"), [0.20, 0.40, 0.55, 0.10],
         [0.05, 0.02, 0.01, 0.04])
    B = (("p1", "p2", "p3", "p4"), [0.25, 0.35, 0.60, 0.12],
         [0.06, 0.01, 0.02, 0.08])

    def test_marker_and_arrow_counts(self):
        svg = overlay(self.A, self.B)
        assert svg.count('class="marker"') == 8
        assert svg.count('class="arrow"') == 4
        assert svg.count('class="arrow-head"') == 4

    def test_identical_snapshots_suppress_arrows(self):
        svg = overlay(self.A, self.A)
        assert svg.count('class="marker"') == 8
        assert svg.count('class="arrow"') == 0

    def test_solid_then_hollow(self):
        svg = overlay(self.A, self.B)
        markers = re.findall(r'<circle class="marker"[^/]*/>', svg)
        assert sum('fill="#000000"' in m for m in markers) == 4
        assert sum('fill="#ffffff"' in m for m in markers) == 4

    def test_arrows_match_ids_not_rows(self):
        reverse = tuple(c[::-1] for c in self.B)
        assert overlay(self.A, reverse).count('class="arrow"') == 4
        lines = lambda svg: re.findall(r'<line class="arrow"[^>]*>', svg)
        assert lines(overlay(self.A, reverse)) == lines(overlay(self.A,
                                                                self.B))

    def test_id_only_in_first_snapshot_gets_no_arrow(self):
        # p3 is missing from the second snapshot: its solid marker is
        # drawn, and only the other three ids get arrows
        second = tuple(c[:2] + c[3:] for c in self.B)
        svg = overlay(self.A, second)
        markers = re.findall(r'<circle class="marker"[^/]*/>', svg)
        assert sum('fill="#000000"' in m for m in markers) == 4
        assert sum('fill="#ffffff"' in m for m in markers) == 3
        assert svg.count('class="arrow"') == 3
        frame = PlotFrame(PlotSpec(weights=W3, kind="R"))
        x3, y3 = f"{frame.x(0.55):.2f}", f"{frame.y(0.01):.2f}"
        assert f'<circle class="marker" cx="{x3}" cy="{y3}"' in svg
        assert f'x1="{x3}" y1="{y3}"' not in svg

    def test_labels_on_the_second_snapshot_only(self):
        svg = overlay(self.A, self.B, labels=True)
        assert re.findall(r'>(p\d)</text>', svg) == list(self.B[0])

    def test_left_region_spread_gain(self):
        # moving a left-half point up in WSD raises its relative score
        r_old, r_new = agg_values("R", 0.20, np.array([0.05, 0.15]),
                                  W3.mean_w)
        assert r_new > r_old
        assert rgb(r_new) != rgb(r_old)

    def test_unattainable_snapshot_point(self):
        bad = (("p1",), [0.69], [0.3])
        with pytest.raises(UnattainablePoint):
            overlay(bad, bad)


def arrows_loop(frame, first, second):
    """Reference: the per-id loop with scalar ``math.hypot`` that the id
    match in ``render._arrows_svg`` replaced; one row of line and head
    coordinates per arrow."""
    (ids_a, wm_a, wsd_a), (ids_b, wm_b, wsd_b) = first, second
    b_by_id = {pid: (b_wm, b_wsd) for pid, b_wm, b_wsd
               in zip(ids_b, wm_b.tolist(), wsd_b.tolist())}
    arrows = []
    for pid, a_wm, a_wsd in zip(ids_a, wm_a.tolist(), wsd_a.tolist()):
        if pid not in b_by_id:
            continue
        b_wm, b_wsd = b_by_id[pid]
        if math.hypot(b_wm - a_wm, b_wsd - a_wsd) <= 1e-12:
            continue
        x1, y1 = frame.x(a_wm), frame.y(a_wsd)
        x2, y2 = frame.x(b_wm), frame.y(b_wsd)
        d = math.hypot(x2 - x1, y2 - y1)
        ux, uy = ((x2 - x1) / d, (y2 - y1) / d) if d > 0 else (1.0, 0.0)
        tipx, tipy = x2 - 5 * ux, y2 - 5 * uy
        hx, hy = tipx - 5 * ux, tipy - 5 * uy
        px, py = -uy * 2.5, ux * 2.5
        arrows.append((x1, y1, tipx, tipy, tipx, tipy, hx + px, hy + py,
                       hx - px, hy - py))
    return np.array(arrows).reshape(-1, 10)


SNAP_IDS = [f"p{k}" for k in range(12)]
SNAP_WM = st.one_of(st.floats(0.0, 0.7), st.sampled_from([0.1, 0.3]))
SNAP_WSD = st.one_of(st.floats(0.0, 0.3), st.sampled_from([0.02, 0.05]))


@given(st.lists(st.tuples(SNAP_WM, SNAP_WSD), max_size=12), st.data())
def test_arrows_equal_loop(first_points, data):
    """Arrows match the reference loop for shuffled, partly missing and
    partly unmoved ids (moves down to 1e-13); the loop and numpy may
    round ``hypot`` differently in the last bit, so coordinates are
    compared to the 0.005 of their two-decimal text."""
    ids = SNAP_IDS[:len(first_points)]
    wm_a, wsd_a = np.array(first_points, dtype=float).reshape(-1, 2).T
    order = data.draw(st.permutations(range(len(ids))))
    kept = order[:data.draw(st.integers(0, len(ids)))]
    step = data.draw(st.lists(st.sampled_from([0.0, 1e-13, 1e-12, 1e-3,
                                               0.05]),
                              min_size=len(kept), max_size=len(kept)))
    second = ([ids[k] for k in kept], wm_a[kept] + np.array(step),
              wsd_a[kept] + np.array(step)[::-1])
    frame = PlotFrame(PlotSpec(weights=W3, kind="R"))
    first = (ids, wm_a, wsd_a)
    got = b"".join(render._arrows_svg(frame, first, second)).decode()
    numbers = re.findall(r'[xy][12]="(-?[0-9.]+)"|(-?[0-9.]+),(-?[0-9.]+)',
                         got)
    values = [float(v) for groups in numbers for v in groups if v]
    expected = arrows_loop(frame, first, second)
    assert np.allclose(np.reshape(values, (-1, 10)), expected, rtol=0,
                       atol=0.0051)


class TestLabelText:
    """Labels read back from the SVG as the ids they were drawn from."""

    IDS = ("a\rb", "c\r\nd", "t\tab", "x&<y>", "plain")
    WM = [0.20, 0.40, 0.55, 0.10, 0.30]
    WSD = [0.05, 0.02, 0.01, 0.04, 0.03]

    @staticmethod
    def labels(svg):
        return [t.text for t in ET.fromstring(svg).iter()
                if t.tag.endswith("text") and t.get("font-size") == "11"
                ][1:]  # skip the title

    def test_plot(self):
        spec = PlotSpec(weights=W3, kind="R", grid=16, ids=self.IDS,
                        wm=self.WM, wsd=self.WSD, labels=True)
        svg = render_wmsd_plot(spec)
        assert "&#13;" in svg and "\r" not in svg
        assert self.labels(svg) == list(self.IDS)

    def test_overlay_second_snapshot(self):
        first = (self.IDS, self.WM, self.WSD)
        second = (self.IDS[::-1], self.WM, self.WSD)
        svg = overlay(first, second, labels=True)
        assert self.labels(svg) == list(self.IDS[::-1])


class TestQuantizationStep:
    def test_one_channel_notch(self):
        # two values one quantization step apart differ by at most one
        # 8-bit unit per channel
        for v in (0.1, 0.3, 0.6, 0.9):
            a = rgb(v)
            b = rgb(v + COLOR_QUANT_STEP)
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1
