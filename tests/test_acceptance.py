"""Acceptance suite: binding end-to-end checks at fixed tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure output), exercises one criterion at its stated tolerance, and
fails with a per-check breakdown when any sub-check misses.
"""

import math
import re

import numpy as np
import pytest

from conftest import (
    box_distances,
    box_scores,
    edge_sweep_utilities,
    load_config,
    load_matrix,
    plane_scores,
    projection,
    reversal_ids,
    uniform_utilities,
)
from wmsdspace.aggregate import (
    AggregationKind,
    agg_values,
    compare_rankings,
    rank_array,
)
from wmsdspace.geometry import attainable, envelope, envelope_wsd
from wmsdspace.model import WeightVector
from wmsdspace.render import (
    MARGIN_L,
    MARGIN_T,
    PLOT_H,
    PLOT_W,
    PlotSpec,
    colors_rgb,
    field_cells,
    render_panel_grid,
)
from wmsdspace.spaces import utility_array
from wmsdspace.wmsd import plane

KINDS = list(AggregationKind)


def weighted_scores(matrix, w, kind="R"):
    """Scores of every alternative of ``matrix`` under ``w``."""
    u = utility_array(matrix.values, matrix.criteria)
    return plane_scores(kind, u * w.weights, w)


def report(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"acceptance {num:02d} {name}: {status}")
    if failures:
        shown = "\n  ".join(failures[:40])
        more = (f"\n  ... and {len(failures) - 40} more"
                if len(failures) > 40 else "")
        raise AssertionError(
            f"criterion {num} ({name}): {len(failures)} sub-check(s) "
            f"failed:\n  {shown}{more}")


# ---------------------------------------------------------------------------
# Reference tables (2- and 3-decimal values as published with the datasets).

STUDENT_COLUMNS = ("u1", "u2", "u3", "v1", "v2", "v3", "m", "sd", "wm",
                   "wsd", "i", "a", "r", "i_w", "a_w", "r_w")

STUDENT_REFERENCE = {
    "S1":  (0.29, 0.29, 0.29, 0.15, 0.17, 0.29, 0.29, 0.00, 0.20, 0.00,
            0.29, 0.29, 0.29, 0.29, 0.29, 0.29),
    "S2":  (0.49, 0.51, 0.49, 0.25, 0.30, 0.49, 0.50, 0.01, 0.35, 0.00,
            0.50, 0.50, 0.50, 0.50, 0.50, 0.50),
    "S3":  (0.71, 0.71, 0.71, 0.35, 0.43, 0.71, 0.71, 0.00, 0.50, 0.00,
            0.71, 0.71, 0.71, 0.71, 0.71, 0.71),
    "S4":  (0.41, 0.51, 0.18, 0.20, 0.30, 0.18, 0.36, 0.14, 0.20, 0.10,
            0.35, 0.39, 0.37, 0.27, 0.31, 0.31),
    "S5":  (0.35, 0.76, 0.44, 0.18, 0.46, 0.44, 0.52, 0.17, 0.35, 0.10,
            0.49, 0.55, 0.52, 0.49, 0.51, 0.50),
    "S6":  (0.59, 0.49, 0.82, 0.30, 0.30, 0.82, 0.64, 0.14, 0.50, 0.10,
            0.61, 0.65, 0.63, 0.69, 0.73, 0.69),
    "S7":  (0.44, 0.76, 0.08, 0.22, 0.46, 0.08, 0.43, 0.28, 0.20, 0.20,
            0.36, 0.51, 0.44, 0.23, 0.40, 0.34),
    "S8":  (0.94, 0.81, 0.28, 0.47, 0.49, 0.28, 0.68, 0.29, 0.35, 0.20,
            0.57, 0.73, 0.63, 0.43, 0.57, 0.50),
    "S9":  (0.56, 0.24, 0.92, 0.28, 0.14, 0.92, 0.57, 0.28, 0.50, 0.20,
            0.49, 0.64, 0.56, 0.60, 0.77, 0.66),
    "S10": (0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00,
            0.00, 0.00, 0.00, 0.00, 0.00, 0.00),
    "S11": (0.00, 0.91, 0.03, 0.00, 0.55, 0.03, 0.31, 0.42, 0.15, 0.26,
            0.19, 0.53, 0.39, 0.13, 0.43, 0.33),
    "S12": (1.00, 1.00, 1.00, 0.50, 0.60, 1.00, 1.00, 0.00, 0.70, 0.00,
            1.00, 1.00, 1.00, 1.00, 1.00, 1.00),
    "S13": (1.00, 0.09, 0.97, 0.50, 0.05, 0.97, 0.69, 0.42, 0.55, 0.26,
            0.47, 0.81, 0.61, 0.57, 0.87, 0.67),
    "S14": (0.71, 0.77, 0.44, 0.35, 0.46, 0.44, 0.64, 0.14, 0.39, 0.10,
            0.61, 0.65, 0.63, 0.53, 0.57, 0.55),
    "S15": (0.90, 0.46, 0.76, 0.45, 0.28, 0.76, 0.71, 0.18, 0.50, 0.10,
            0.66, 0.73, 0.68, 0.69, 0.73, 0.69),
}

COUNTRY_REFERENCE = {
    "w1": [("CHL", 0.746), ("URY", 0.685), ("PER", 0.659), ("COL", 0.658),
           ("PRY", 0.599), ("GUY", 0.564), ("ARG", 0.521), ("BRA", 0.519),
           ("SUR", 0.481), ("ECU", 0.471), ("BOL", 0.430), ("VEN", 0.283)],
    "w2": [("CHL", 0.806), ("PER", 0.787), ("PRY", 0.785), ("COL", 0.738),
           ("URY", 0.700), ("GUY", 0.652), ("ARG", 0.524), ("ECU", 0.523),
           ("SUR", 0.507), ("BOL", 0.474), ("BRA", 0.471), ("VEN", 0.426)],
    "w3": [("CHL", 0.775), ("PER", 0.725), ("PRY", 0.713), ("URY", 0.701),
           ("COL", 0.685), ("GUY", 0.634), ("ARG", 0.497), ("ECU", 0.497),
           ("SUR", 0.494), ("BRA", 0.456), ("BOL", 0.444), ("VEN", 0.412)],
    "w4": [("CHL", 0.684), ("URY", 0.677), ("PER", 0.548), ("COL", 0.539),
           ("GUY", 0.503), ("PRY", 0.501), ("BRA", 0.464), ("ARG", 0.453),
           ("SUR", 0.424), ("ECU", 0.382), ("BOL", 0.321), ("VEN", 0.262)],
}

BOUNDARY_WEIGHTS = ([1, 1], [1, 0.5], [0.5, 0.6, 1.0],
                    [0.25, 1, 0.25, 0.5], [1, 0.66, 0.33, 0])


@pytest.fixture(scope="module")
def students():
    config = load_config("students_config.json")
    matrix = load_matrix("students.csv", config)
    return matrix, config.weight_vector


@pytest.fixture(scope="module")
def countries():
    configs = {k: load_config(f"countries_{k}.json")
               for k in ("w1", "w2", "w3", "w4")}
    matrix = load_matrix("countries.csv", configs["w1"])
    return matrix, configs


def test_c01_students_reference_table(students):
    """All 240 cells of the students reference table within +-0.005.

    The reference table carries 2-decimal values; a handful of its cells
    (13 of 240) were evidently derived from differently rounded
    intermediates and sit 0.0051..0.0107 away from exact arithmetic, so
    this strict check reports them.  The exact values are cross-validated
    independently by criteria 2, 4, and 5.
    """
    matrix, w = students
    failures = []
    u = utility_array(matrix.values, matrix.criteria)
    v = u * w.weights
    m, sd = plane(u, WeightVector(np.ones(matrix.n)))
    wm, wsd = plane(v, w)
    table = np.column_stack(
        [u, v, m, sd, wm, wsd]
        + [agg_values(k, m, sd, 1.0) for k in KINDS]
        + [agg_values(k, wm, wsd, w.mean_w) for k in KINDS])
    for alt_id, row in zip(matrix.ids, table.tolist()):
        computed = dict(zip(STUDENT_COLUMNS, row))
        for col, ref in zip(STUDENT_COLUMNS, STUDENT_REFERENCE[alt_id]):
            dev = abs(computed[col] - ref)
            if dev > 0.005:
                failures.append(f"{alt_id} {col}: computed "
                                f"{computed[col]:.4f} vs reference {ref:.2f} "
                                f"(dev {dev:.4f})")
    report(1, "students reference table", failures)


def test_c02_worked_example():
    """Projection pair, scaling coefficient, plane point, distances."""
    failures = []
    w = WeightVector([1.0, 0.5])
    v = np.array([[0.75, 0.50]]) * w.weights
    (proj,), (rej,) = projection(v, w)
    if np.max(np.abs(proj - [0.70, 0.35])) > 1e-12:
        failures.append(f"projection {proj.tolist()} != [0.70, 0.35]")
    if np.max(np.abs(rej - [0.05, -0.10])) > 1e-12:
        failures.append(f"rejection {rej.tolist()} != [0.05, -0.10]")
    if abs(w.s - 1.4907) > 1e-3:
        failures.append(f"s {w.s:.6f} not within 1e-3 of 1.4907")
    (wm,), (wsd,) = plane(v, w)
    if abs(wm - 0.525) > 1e-3:
        failures.append(f"wm {wm:.6f} not within 1e-3 of 0.525")
    if abs(wsd - 0.075) > 1e-3:
        failures.append(f"wsd {wsd:.6f} not within 1e-3 of 0.075")
    d_anti = agg_values("A", wm, wsd, w.mean_w) * w.mean_w
    d_ideal = (1 - agg_values("I", wm, wsd, w.mean_w)) * w.mean_w
    if abs(d_anti - 0.53) > 0.005:
        failures.append(f"distance to anti-ideal {d_anti:.6f} vs 0.53")
    if abs(d_ideal - 0.24) > 0.005:
        failures.append(f"distance to ideal {d_ideal:.6f} vs 0.24")
    report(2, "worked example", failures)


def test_c03_country_scores_and_orderings(countries):
    """All 48 relative scores within +-0.001; orderings exact."""
    matrix, configs = countries
    failures = []
    for name, reference in COUNTRY_REFERENCE.items():
        w = configs[name].weight_vector
        score_array = weighted_scores(matrix, w)
        scores = dict(zip(matrix.ids, score_array.tolist()))
        for alt_id, ref in reference:
            dev = abs(scores[alt_id] - ref)
            if dev > 0.001:
                failures.append(f"{name} {alt_id}: {scores[alt_id]:.6f} vs "
                                f"{ref:.3f} (dev {dev:.5f})")
        expected_order = [alt_id for alt_id, _ in reference]
        got_order = list(rank_array(matrix.ids, score_array).ids)
        if got_order != expected_order:
            failures.append(f"{name} ordering {got_order} != "
                            f"{expected_order}")
    report(3, "country scores and orderings", failures)


def test_c04_ia_identity_suite():
    """Distance identities from plane coordinates, residuals < 1e-12."""
    rng = np.random.default_rng(101)
    failures = []
    for trial in range(1000):
        n = int(rng.integers(2, 11))
        u = rng.random(n)
        raw = rng.random(n)
        raw[int(rng.integers(n))] = 1.0
        w = WeightVector(raw)
        v = u[None] * w.weights
        wm, wsd = plane(v, w)
        d_anti = agg_values("A", wm, wsd, w.mean_w)[0] * w.mean_w
        d_ideal = (1 - agg_values("I", wm, wsd, w.mean_w)[0]) * w.mean_w
        (box_anti,), (box_ideal,) = box_distances(v, w)
        r_anti = abs(d_anti - box_anti)
        r_ideal = abs(d_ideal - box_ideal)
        if max(r_anti, r_ideal) >= 1e-12:
            failures.append(f"trial {trial}: residuals {r_anti:.2e}, "
                            f"{r_ideal:.2e}")
    report(4, "ia distance identity", failures)


def test_c05_msd_reduction_suite():
    """All-ones weights reduce to mean/std and unweighted scores."""
    rng = np.random.default_rng(202)
    failures = []
    for trial in range(1000):
        n = int(rng.integers(2, 11))
        u = rng.random(n)
        w = WeightVector(np.ones(n))
        v = u[None] * w.weights
        (wm,), (wsd,) = plane(v, w)
        if abs(wm - u.mean()) >= 1e-12 or abs(wsd - u.std()) >= 1e-12:
            failures.append(f"trial {trial}: plane point off")
        for kind in KINDS:
            if abs(agg_values(kind, wm, wsd, w.mean_w)
                   - box_scores(kind, v, w)[0]) >= 1e-12:
                failures.append(f"trial {trial}: {kind} mismatch")
    report(5, "reduction to mean/std", failures)


def _interior_points(w, rng, count):
    pts = []
    while len(pts) < count:
        wm_v = float(rng.uniform(0.05, 0.95)) * w.mean_w
        top = float(envelope_wsd(w, wm_v)[0])
        if top < 0.08 * w.mean_w:
            continue
        pts.append((wm_v, float(rng.uniform(0.3, 0.7)) * top))
    return pts


def test_c06_interplay_suite():
    """Finite-difference signs of the score fields, step 1e-6."""
    h = 1e-6
    failures = []
    rng = np.random.default_rng(303)
    for raw in ([1, 0.5], [0.5, 0.6, 1.0], [0.25, 1, 0.25, 0.5]):
        w = WeightVector(raw)
        mean_w = w.mean_w
        pts = _interior_points(w, rng, 200)

        def d(kind, wm_v, wsd_v, dwm, dwsd):
            a, b = agg_values(kind, np.array([wm_v, wm_v + dwm * h]),
                              np.array([wsd_v, wsd_v + dwsd * h]), mean_w)
            return b - a

        for wm_v, wsd_v in pts:
            if not d("I", wm_v, wsd_v, 1, 0) > 0:
                failures.append(f"I wm-slope at ({wm_v:.3f},{wsd_v:.3f})")
            if not d("I", wm_v, wsd_v, 0, 1) < 0:
                failures.append(f"I wsd-slope at ({wm_v:.3f},{wsd_v:.3f})")
            if not d("A", wm_v, wsd_v, 1, 0) > 0:
                failures.append(f"A wm-slope at ({wm_v:.3f},{wsd_v:.3f})")
            if not d("A", wm_v, wsd_v, 0, 1) > 0:
                failures.append(f"A wsd-slope at ({wm_v:.3f},{wsd_v:.3f})")
            if not d("R", wm_v, wsd_v, 1, 0) > 0:
                failures.append(f"R wm-slope at ({wm_v:.3f},{wsd_v:.3f})")
            slope = d("R", wm_v, wsd_v, 0, 1)
            if wm_v < mean_w / 2 - 1e-3 and not slope > 0:
                failures.append(f"R wsd-slope left at ({wm_v:.3f})")
            if wm_v > mean_w / 2 + 1e-3 and not slope < 0:
                failures.append(f"R wsd-slope right at ({wm_v:.3f})")

        # neutrality: along the vertical wm = mean/2, R is constant
        wm_mid = mean_w * 0.5
        r_ref = agg_values("R", wm_mid, 0.01, mean_w)
        wsd_vs = np.linspace(0.02, 0.4 * mean_w, 25)
        for wsd_v, r in zip(wsd_vs, agg_values("R", wm_mid, wsd_vs, mean_w)):
            if abs(r - r_ref) >= 1e-12:
                failures.append(f"neutrality broken at wsd={wsd_v:.3f}")
    report(6, "score-field interplay", failures)


def test_c07_boundary_oracle():
    """10^5 samples inside the envelope; tight to 0.01; permutation-safe."""
    failures = []
    res = 512
    for raw in BOUNDARY_WEIGHTS:
        w = WeightVector(raw)
        rng = np.random.default_rng(404)
        n_edges = w.n_p * 2 ** (w.n_p - 1)
        per_edge = 40_000 // n_edges
        sweeps = edge_sweep_utilities(w, per_edge, rng)
        fill = 100_000 - 60_000 - len(sweeps)
        u = np.vstack([
            uniform_utilities(w.n, 40_000 + fill, rng),
            uniform_utilities(w.n, 20_000, rng, bound_bias=0.45),
            sweeps,
        ])
        assert len(u) == 100_000
        wm_s, wsd_s = plane(u * w.weights, w)

        overshoot = wsd_s - envelope_wsd(w, wm_s)
        bad = int(np.count_nonzero(overshoot > 1e-9))
        if bad:
            failures.append(f"{raw}: {bad} samples outside envelope "
                            f"(worst {overshoot.max():.2e})")

        env_wm, env_wsd = envelope(w, res)
        step = env_wm[1] - env_wm[0]
        bins = np.clip(np.rint(wm_s / step).astype(int), 0, res - 1)
        best = np.zeros(res)
        np.maximum.at(best, bins, wsd_s)
        gap = float(np.max(env_wsd - best))
        if gap >= 0.01:
            failures.append(f"{raw}: envelope looser than samples by "
                            f"{gap:.4f}")

        perm = WeightVector(list(reversed(raw)))
        _, env_perm = envelope(perm, res)
        dev = float(np.max(np.abs(env_wsd - env_perm)))
        if dev >= 1e-9:
            failures.append(f"{raw}: permuted envelope differs by {dev:.2e}")
    report(7, "attainable-region oracle", failures)


def test_c08_zero_weight_elimination():
    """Appending a zero-weight criterion changes nothing material."""
    rng = np.random.default_rng(505)
    failures = []
    for trial in range(200):
        n = int(rng.integers(2, 9))
        u = rng.random(n)
        raw = rng.random(n)
        raw[int(rng.integers(n))] = 1.0
        w = WeightVector(raw)
        w_pad = WeightVector(list(raw) + [0.0])
        v = u[None] * w.weights
        v_pad = np.append(u, rng.random())[None] * w_pad.weights
        for kind in KINDS:
            dev = abs(plane_scores(kind, v_pad, w_pad)[0]
                      - plane_scores(kind, v, w)[0])
            if dev >= 1e-12:
                failures.append(f"trial {trial}: {kind} moved {dev:.2e}")
        (wm,), (wsd,) = plane(v, w)
        (wm_pad,), (wsd_pad,) = plane(v_pad, w_pad)
        scale = n / (n + 1)
        if abs(wm_pad - wm * scale) >= 1e-12 \
                or abs(wsd_pad - wsd * scale) >= 1e-12:
            failures.append(f"trial {trial}: plane point not scaled by "
                            f"{n}/{n + 1}")
    report(8, "zero-weight elimination", failures)


RECT_RE = re.compile(r'<rect x="([0-9.]+)" y="([0-9.]+)" '
                     r'width="([0-9.]+)" height="([0-9.]+)" '
                     r'fill="(#[0-9a-f]{6})"/>')


def test_c09_rendering(countries):
    """Panel grid byte-determinism, color-field accuracy, containment."""
    matrix, configs = countries
    failures = []
    specs = []
    for name in ("w1", "w2", "w3", "w4"):
        w = configs[name].weight_vector
        wm, wsd = plane(utility_array(matrix.values, matrix.criteria)
                        * w.weights, w)
        specs.append(PlotSpec(weights=w, kind="R", ids=matrix.ids, wm=wm,
                              wsd=wsd, grid=40))

    if render_panel_grid(specs, 2) != render_panel_grid(specs, 2):
        failures.append("panel grid not byte-deterministic")

    # color field of one panel, re-read from the document text
    spec = specs[0]
    from wmsdspace.render import render_wmsd_plot
    svg = render_wmsd_plot(spec)
    wm_max = spec.weights.mean_w
    wsd_max = wm_max / 2.0
    nx = spec.grid
    ny = max(8, nx // 2)
    cell_w, cell_h = PLOT_W / nx, PLOT_H / ny
    rects = [m for m in RECT_RE.findall(svg) if m[4] != "#ffffff"]
    rng = np.random.default_rng(606)
    for i in rng.choice(len(rects), size=100, replace=False):
        x, y, _, _, fill = rects[i]
        wm_v = ((float(x) + cell_w / 2) - MARGIN_L) / PLOT_W * wm_max
        wsd_v = (1.0 - (float(y) + cell_h / 2 - MARGIN_T) / PLOT_H) \
            * wsd_max
        value = agg_values("R", wm_v, wsd_v, spec.weights.mean_w)
        expected = tuple(colors_rgb(value)[0].tolist())
        got = tuple(int(fill[k:k + 2], 16) for k in (1, 3, 5))
        if max(abs(a - b) for a, b in zip(expected, got)) > 1:
            failures.append(f"cell at ({wm_v:.4f},{wsd_v:.4f}): {got} vs "
                            f"{expected}")

    for spec in specs:  # each panel's own cell diagonal
        mean_w = spec.weights.mean_w
        diag = math.hypot(mean_w / nx, mean_w / 2.0 / ny)
        cells = field_cells(spec)
        inside = attainable(spec.weights, cells.wm, cells.wsd, tol=diag)
        for wm_v, wsd_v in zip(cells.wm[~inside], cells.wsd[~inside]):
            failures.append(f"cell outside region at "
                            f"({wm_v:.4f},{wsd_v:.4f})")
    report(9, "rendering determinism and correctness", failures)


def test_c10_ranking_reversals(students, countries):
    """Weight-induced reversals are detected and quantified."""
    failures = []
    matrix, w = students
    scores_u = weighted_scores(matrix, WeightVector(np.ones(matrix.n)))
    scores_w = weighted_scores(matrix, w)
    ranking_u = rank_array(matrix.ids, scores_u)
    cmp = compare_rankings(ranking_u, rank_array(matrix.ids, scores_w))
    if ("S8", "S9") not in reversal_ids(cmp, ranking_u):
        failures.append("(S8, S9) reversal not flagged")

    matrix_c, configs = countries
    rankings = {}
    for name in ("w1", "w2"):
        wv = configs[name].weight_vector
        rankings[name] = rank_array(matrix_c.ids,
                                    weighted_scores(matrix_c, wv))
    cmp = compare_rankings(rankings["w1"], rankings["w2"])
    if rankings["w1"].position("URY") != 2:
        failures.append("URY not 2nd under uniform weights")
    if rankings["w2"].position("URY") != 5:
        failures.append("URY not 5th under skewed weights")
    delta = cmp.deltas[rankings["w1"].ids.index("URY")]
    if delta != 3:
        failures.append(f"URY delta {delta} != 3")
    report(10, "ranking reversals", failures)
