import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    edge_sweep_utilities,
    exact_envelope_sq,
    exact_squares,
    exact_subset_sums,
    uniform_utilities,
)
from wmsdspace import geometry
from wmsdspace.aggregate import AggregationKind, agg_values
from wmsdspace.errors import LevelOutOfRange, TooManyCriteria
from wmsdspace.geometry import (
    attainable,
    envelope,
    envelope_wsd,
    isoline,
    vertex_images,
)
from wmsdspace.model import normalize_weights, uniform_weights
from wmsdspace.wmsd import plane

W11 = uniform_weights(2)
W15 = normalize_weights([1.0, 0.5])
W3 = normalize_weights([0.5, 0.6, 1.0])


class TestBoundary:
    def test_endpoints(self):
        for w in (W11, W15, W3):
            wm, wsd = envelope(w, 257)
            assert wm[0] == 0.0 and wsd[0] == 0.0
            assert wm[-1] == pytest.approx(w.mean_w, abs=1e-15)
            assert wsd[-1] == 0.0

    def test_square_peak(self):
        wm, wsd = envelope(W11, 513)
        i = int(np.argmax(wsd))
        assert wm[i] == pytest.approx(0.5, abs=1e-12)
        assert wsd[i] == pytest.approx(0.5, abs=1e-12)

    def test_vertices_on_or_below_envelope(self):
        for w in (W11, W15, W3):
            for wm_v, wsd_v in vertex_images(w):
                assert wsd_v <= envelope_wsd(w, wm_v)[0] + 1e-9

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            envelope(W11, 1)

    def test_too_many_criteria(self):
        # 21 distinct positive weights: one past the exact cap.  Every
        # function that needs the envelope refuses, and the message points
        # at no removed function.
        w = normalize_weights(np.linspace(0.3, 1.0, 21))
        assert w.n_p == geometry.EXACT_LIMIT + 1
        calls = [lambda: envelope(w), lambda: envelope_wsd(w, 0.3),
                 lambda: vertex_images(w),
                 lambda: attainable(w, 0.3, 0.1)]
        for call in calls:
            with pytest.raises(TooManyCriteria) as info:
                call()
            message = str(info.value)
            assert message.startswith("21 positive weights exceed")
            assert "boundary" not in message.lower()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for base in ([1, 0.5], [0.5, 0.6, 1.0], [0.25, 1.0, 0.25, 0.5]):
            w = normalize_weights(base)
            _, ref = envelope(w, 257)
            for _ in range(3):
                perm = normalize_weights(rng.permutation(base))
                _, wsd = envelope(perm, 257)
                assert np.max(np.abs(wsd - ref)) < 1e-9


class TestVertexImages:
    def test_unit_square(self):
        pts = vertex_images(W11)
        assert np.allclose(pts, [[0, 0], [0.5, 0.5], [1, 0]], atol=1e-12)

    def test_rectangle(self):
        pts = vertex_images(W15)
        expected = [[0, 0], [0.15, 0.3], [0.6, 0.3], [0.75, 0]]
        assert np.allclose(pts, expected, atol=1e-12)

    def test_counting_bound(self):
        for w in (W11, W15, W3):
            assert len(vertex_images(w)) <= 2 ** w.n_p

    def test_zero_weights_dropped(self):
        w_pad = normalize_weights([1.0, 0.5, 0.0])
        pts = vertex_images(w_pad)
        # same shape as the 2-D rectangle, rescaled by the mean ratio
        ref = vertex_images(W15) * (w_pad.mean_w / W15.mean_w)
        assert np.allclose(pts, ref, atol=1e-12)

    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3, 0.7, 0.9,
                                     1e-7, 3e-8]),
                    min_size=1, max_size=12)
           .filter(lambda raw: max(raw) > 0.1))
    def test_matches_2d_unique(self, raw):
        # reference: the 2-D row dedup the sorted 1-D path replaced.  A
        # tiny weight puts subset sums within 1e-12 of each other, so WM
        # ties after rounding while WSD, decreasing for t > 1/2, differs.
        w = normalize_weights(raw)
        ref = np.unique(np.column_stack(rounded_vertex_images(w)), axis=0)
        got = vertex_images(w)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestAttainability:
    def test_ideal_image(self):
        assert attainable(W3, W3.mean_w, 0.0).tolist() == [True]

    def test_beyond_max_wm(self):
        assert attainable(W3, W3.mean_w + 0.01, 0.0).tolist() == [False]

    def test_square_corner(self):
        assert attainable(W11, 0.5, [0.5, 0.51]).tolist() == [True, False]

    def test_negative_wsd(self):
        assert attainable(W11, 0.3, -0.01).tolist() == [False]

    def test_diagonal_always_attainable(self):
        rng = np.random.default_rng(5)
        for w in (W11, W15, W3):
            assert attainable(w, rng.random(20) * w.mean_w, 0.0).all()

    def test_batch_matches_single_points(self):
        rng = np.random.default_rng(8)
        for w in (W11, W15, W3):
            wm = rng.uniform(-0.05, w.mean_w + 0.05, 400)
            wsd = rng.uniform(-0.05, w.mean_w / 2 + 0.05, 400)
            got = attainable(w, wm, wsd)
            assert got.dtype == bool and 0 < got.sum() < got.size
            assert got.tolist() == [bool(attainable(w, a, b)[0])
                                    for a, b in zip(wm, wsd)]

    def test_rounding_near_the_ideal_image_kept(self):
        # WM sits 2.4e-14 below mean(w), where the envelope is the square
        # root of a difference that cancels: the WSD overshoots the
        # computed envelope by 1.03e-9, though the row is in the box.
        w = normalize_weights([0.1, 1.0, 0.000001])
        wm, wsd = plane(np.array([[1.0, 1.0, 0.976]]) * w.weights, w)
        assert wsd[0] - envelope_wsd(w, wm)[0] > 1e-9
        assert attainable(w, wm, wsd).tolist() == [True]

    def test_slack_is_bounded(self):
        # the squared-space slack is a few eps of mean(w)^2: a WSD of
        # 1e-6 mean(w) above an envelope of zero stays outside
        for w in (W11, W3, normalize_weights([0.1, 1.0, 0.000001])):
            for wm in (0.0, w.mean_w):
                assert attainable(w, wm, [1e-9, 1e-6 * w.mean_w]).tolist() \
                    == [True, False]

    @given(st.lists(st.one_of(st.sampled_from([1.0, 0.1, 1e-3, 1e-6, 1e-8,
                                               1e-170, 1e-300]),
                              st.floats(1e-8, 1.0)),
                    min_size=2, max_size=8),
           st.data())
    def test_rows_in_the_box_never_refused(self, raw, data):
        """Rows at, near and between box vertices, under weights that
        span up to eight orders of magnitude or whose squares underflow,
        are all attainable."""
        w = normalize_weights(raw)
        near = st.one_of(
            st.sampled_from([0.0, 1.0]),
            st.integers(1, 15).map(lambda k: 1.0 - 10.0 ** -k),
            st.integers(1, 15).map(lambda k: 10.0 ** -k),
            st.floats(0.0, 1.0))
        u = np.array(data.draw(st.lists(
            st.lists(near, min_size=w.n, max_size=w.n),
            min_size=1, max_size=20)))
        wm, wsd = plane(u * w.weights, w)
        assert attainable(w, wm, wsd).all()

    def test_underflowing_square_is_a_zero_weight(self):
        # 1e-200 squares to 0: the envelope is bit for bit the one with
        # that weight at 0, with no division by its root
        grid = np.linspace(-0.01, 0.6, 8193)
        for tiny, zero in (([1.0, 1e-200, 0.5], [1.0, 0.0, 0.5]),
                           ([0.3, 1e-170, 1.0, 0.7, 1e-300],
                            [0.3, 0.0, 1.0, 0.7, 0.0])):
            w_tiny, w_zero = normalize_weights(tiny), normalize_weights(zero)
            assert w_tiny.mean_w == w_zero.mean_w
            assert envelope_wsd(w_tiny, grid).tobytes() == \
                envelope_wsd(w_zero, grid).tobytes()

    def test_msd_shape_for_two_criteria(self):
        # equal weights, n=2: the region is the triangle with peak (.5,.5)
        for m in np.linspace(0.05, 0.95, 19):
            top = envelope_wsd(W11, m)[0]
            assert top == pytest.approx(min(m, 1 - m), abs=1e-12)


class TestTableCache:
    def test_two_most_recent_kept(self, fresh_tables):
        a, b, c = (normalize_weights(np.arange(1.0, k + 1.0))
                   for k in (6, 7, 8))
        for w in (a, b, c):
            envelope_wsd(w, 0.3)
        envelope_wsd(a, 0.3)  # evicted by c: built again, evicting b
        assert fresh_tables.cache_info()[:2] == (0, 4)
        envelope_wsd(c, 0.3)
        info = fresh_tables.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 4, 2)

    def test_permuted_weights_hit(self, fresh_tables):
        envelope_wsd(W3, 0.3)
        envelope_wsd(normalize_weights([1.0, 0.5, 0.6]), 0.3)  # same multiset
        info = fresh_tables.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_zero_weight_shares_tables_not_outline(self, fresh_tables):
        w0 = normalize_weights([0.5, 0.0, 0.6, 1.0])
        fresh = geometry._outline(w0).tobytes()
        fresh_tables.cache_clear()
        tables = geometry._edge_tables(W3)
        geometry._outline(W3)
        assert geometry._edge_tables(w0) is tables
        assert geometry._outline(w0).tobytes() == fresh
        assert set(tables.outlines) == {W3.mean_w, w0.mean_w}
        info = fresh_tables.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_refused_vector_is_not_cached(self, fresh_tables):
        envelope_wsd(W3, 0.3)
        before = fresh_tables.cache_info()
        w = normalize_weights(np.arange(1.0, geometry.EXACT_LIMIT + 2.0))
        with pytest.raises(TooManyCriteria):
            envelope_wsd(w, 0.3)
        assert fresh_tables.cache_info() == before


class TestOracle:
    @pytest.mark.parametrize("raw", [[1, 1], [1, 0.5], [0.5, 0.6, 1.0],
                                     [0.25, 1, 0.25, 0.5]])
    def test_samples_inside_and_tight(self, raw):
        # edge sweeps must outnumber the bins for the tightness half of
        # the check; the acceptance suite runs the full-size version
        w = normalize_weights(raw)
        rng = np.random.default_rng(11)
        u = np.vstack([
            uniform_utilities(w.n, 20000, rng),
            uniform_utilities(w.n, 10000, rng, bound_bias=0.45),
            edge_sweep_utilities(w, 2000, rng),
        ])
        wm_s, wsd_s = plane(u * w.weights, w)
        assert np.all(wsd_s <= envelope_wsd(w, wm_s) + 1e-9)

        res = 256
        env_wm, env_wsd = envelope(w, res)
        step = env_wm[1] - env_wm[0]
        bins = np.clip(np.rint(wm_s / step).astype(int), 0, res - 1)
        best = np.zeros(res)
        np.maximum.at(best, bins, wsd_s)
        assert np.max(env_wsd - best) < 0.01


class TestIsolines:
    def test_neutral_vertical_segment(self):
        iso = isoline("R", 0.5, W3)
        assert (iso.shape, iso.center_wm, iso.radius) == (
            "segment", W3.mean_w / 2, 0.0)

    def test_degenerate_top(self):
        iso = isoline("I", 1.0, W3)
        assert (iso.shape, iso.center_wm, iso.radius) == (
            "point", W3.mean_w, 0.0)

    def test_degenerate_r_levels(self):
        for level, wm in ((0.0, 0.0), (1.0, W3.mean_w)):
            iso = isoline("R", level, W3)
            assert (iso.shape, iso.center_wm, iso.radius) == (
                "point", wm, 0.0)

    def test_arc_through_known_point(self):
        # level set of A through a country's plane position passes
        # through that very position
        w4 = uniform_weights(4)
        (m,), (sd,) = plane(np.array([[0.6243, 0.8243, 0.7537, 0.8127]]), w4)
        level = float(agg_values("A", m, sd, 1.0))
        iso = isoline("A", level, w4)
        assert iso.shape == "arc"
        assert math.hypot(m - iso.center_wm, sd) == pytest.approx(
            iso.radius, abs=1e-12)

    @pytest.mark.parametrize("kind", ["I", "A", "R"])
    @pytest.mark.parametrize("level", [0.2, 0.45, 0.62, 0.9])
    def test_points_evaluate_to_level(self, kind, level):
        # Points on the upper half of each circle, ends included.
        t = np.linspace(0.0, math.pi, 97)
        for w in (W15, W3):
            iso = isoline(kind, level, w)
            assert iso.shape == "arc"
            wm = iso.center_wm + iso.radius * np.cos(t)
            wsd = iso.radius * np.sin(t)
            vals = agg_values(kind, wm, wsd, w.mean_w)
            assert np.max(np.abs(vals - level)) < 1e-9

    def test_fields_are_the_closed_form(self):
        for iso in (isoline("A", 0.4, W3), isoline("R", 0.5, W3),
                    isoline("I", 1.0, W3)):
            assert list(vars(iso)) == ["kind", "level", "shape",
                                       "center_wm", "radius"]

    def test_past_the_exact_cap(self):
        # Only mean(w) is read: 21 positive weights give their circle.
        w = normalize_weights(np.linspace(0.3, 1.0, 21))
        assert w.n_p == geometry.EXACT_LIMIT + 1
        iso = isoline("A", 0.9, w)
        assert (iso.shape, iso.center_wm, iso.radius) == (
            "arc", 0.0, 0.9 * w.mean_w)

    def test_level_out_of_range(self):
        with pytest.raises(LevelOutOfRange):
            isoline("A", 1.2, W3)
        with pytest.raises(LevelOutOfRange):
            isoline("I", -0.1, W3)


def _reference_isoline(kind, level, w):
    """Reference: the isoline builder with a closure per shape and R's
    own level-0 and level-1 points, as before one tail built every
    shape."""
    kind = AggregationKind(kind)
    if not (math.isfinite(level) and 0.0 <= level <= 1.0):
        raise LevelOutOfRange(f"level must be in [0, 1], got {level}")
    mean_w = w.mean_w

    def _point(x):
        return geometry.Isoline(kind=kind, level=level, shape="point",
                                center_wm=x, radius=0.0)

    def _arc(center, radius):
        if radius == 0.0:
            return _point(center)
        return geometry.Isoline(kind=kind, level=level, shape="arc",
                                center_wm=center, radius=radius)

    if kind is AggregationKind.A:
        return _arc(0.0, level * mean_w)
    if kind is AggregationKind.I:
        return _arc(mean_w, (1.0 - level) * mean_w)
    if level == 0.0:
        return _point(0.0)
    if level == 1.0:
        return _point(mean_w)
    if abs(level - 0.5) < 1e-9:
        return geometry.Isoline(kind=kind, level=level, shape="segment",
                                center_wm=mean_w * 0.5, radius=0.0)
    k = level / (1.0 - level)
    k2 = k * k
    center = k2 * mean_w / (k2 - 1.0)
    radius = k * mean_w / abs(k2 - 1.0)
    return _arc(center, radius)


# All ones, W3, a zero weight, a seeded vector of 12 positive weights and
# a single criterion.
ISOLINE_WEIGHTS = [
    uniform_weights(3), W3, normalize_weights([1.0, 0.0, 0.5, 0.25]),
    normalize_weights(np.random.default_rng(12).uniform(0.05, 1.0, 12)),
    uniform_weights(1),
]
# Both zeros, levels whose radius or center underflows, both sides of the
# neutral band's edges, and the ends of the range.
ISOLINE_LEVELS = [0.0, -0.0, 5e-324, 1e-300, 1e-12, 0.2, 0.45, 0.5 - 1e-9,
                  0.5 + 1e-9, 0.5 - 1e-10, 0.5 + 1e-10, 0.5, 0.5 + 1e-7,
                  0.62, 0.9, 1.0 - 1e-12, 1.0]


def _bits(x):
    return np.float64(x).tobytes()


def assert_same_isoline(got, want):
    """Equal fields, bit for bit with the sign of zero."""
    assert got.kind is want.kind
    assert got.shape == want.shape
    for field in ("level", "center_wm", "radius"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), \
            field


@pytest.mark.parametrize("w", ISOLINE_WEIGHTS, ids=range(5))
def test_isoline_equals_reference(w):
    for kind in "AIR":
        for level in ISOLINE_LEVELS:
            assert_same_isoline(isoline(kind, level, w),
                                _reference_isoline(kind, level, w))


@given(st.sampled_from("AIR"), st.floats(0.0, 1.0),
       st.sampled_from(ISOLINE_WEIGHTS))
def test_isoline_equals_reference_at_any_level(kind, level, w):
    assert_same_isoline(isoline(kind, level, w),
                        _reference_isoline(kind, level, w))


def concat_subset_sums(values):
    """Reference: the subset sums as concatenated and sorted before they
    doubled in place."""
    sums = np.zeros(1)
    for x in values:
        sums = np.concatenate([sums, sums + x])
    return np.sort(sums)


def rounded_vertex_images(w):
    """WM and WSD of every vertex, in the order of the sorted sums, with
    1 - t taken from the complement's sum, the sums reversed."""
    tables = geometry._edge_tables(w)
    t = tables.vertex_sums / tables.norm2
    rest = tables.vertex_sums[::-1] / tables.norm2
    return (np.round(w.mean_w * t, 12),
            np.round(w.mean_w * np.sqrt(t * rest), 12))


def lexsort_vertex_images(w):
    """Reference: the vertex images sorted by (WM, WSD) with a two-key sort
    of every row, as before they kept the order of the sorted sums."""
    wm, wsd = rounded_vertex_images(w)
    order = np.lexsort((wsd, wm))
    wm, wsd = wm[order], wsd[order]
    keep = np.ones(wm.size, dtype=bool)
    keep[1:] = (wm[1:] != wm[:-1]) | (wsd[1:] != wsd[:-1])
    return np.column_stack([wm[keep], wsd[keep]])


def reference_attainable(w, wm, wsd, tol=1e-9):
    """Reference: every point tested against its exact envelope, as
    before the outline screen."""
    wm = np.atleast_1d(np.asarray(wm, dtype=float))
    wsd = np.atleast_1d(np.asarray(wsd, dtype=float))
    env = envelope_wsd(w, wm)
    slack = (4 * w.n + 9) * np.finfo(float).eps * w.mean_w ** 2
    inside = (wm >= -tol) & (wm <= w.mean_w + tol) & (wsd >= -tol)
    return inside & ((wsd <= env + tol) | (wsd * wsd <= env * env + slack))


# Repeated weights, weights whose squares sit below the rounding of the
# subset sums (rounded WM ties in which WSD falls), and one whose square
# underflows to 0.
WEIGHT = st.sampled_from([1.0, 0.5, 0.25, 0.3, 0.7, 0.9, 1e-7, 3e-8, 1e-8,
                          1e-170, 0.0])
WEIGHTS = st.lists(st.one_of(WEIGHT, st.floats(1e-9, 1.0)), min_size=1,
                   max_size=10).filter(lambda raw: max(raw) > 0.1)
# At most 7 positive weights: the exact oracle enumerates every edge.
# Weights with squares near 1e-14 put vertices at t within 1e-9 of 1.
ORACLE_WEIGHTS = [
    [1.0], [1.0, 0.5], [0.5, 0.6, 1.0], [0.25, 1.0, 0.25, 0.5],
    [1.0, 0.9, 0.7, 0.3, 1e-7, 3e-8], [0.1, 1.0, 0.000001],
    [1.0, 1e-170, 0.5, 0.0, 0.3], [0.123, 0.456, 0.789, 1.0, 0.321, 0.654,
                                    0.987],
    [1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1],
]


class TestRewrittenKernels:
    """The in-place subset sums and the vertex images in sum order against
    copies of the kernels they replaced, bit for bit."""

    @given(st.lists(st.one_of(WEIGHT, st.floats(0.0, 1.0)), max_size=12))
    def test_subset_sums_bit_identical(self, raw):
        values = np.sort(np.asarray(raw, dtype=float) ** 2)
        got = geometry._subset_sums(values, np.empty(1 << values.size))
        assert got.tobytes() == concat_subset_sums(values).tobytes()

    @given(WEIGHTS)
    def test_vertex_images_bit_identical(self, raw):
        w = normalize_weights(raw)
        got = vertex_images(w)
        assert got.tobytes() == lexsort_vertex_images(w).tobytes()

    @pytest.mark.parametrize("raw", [[1.0, 0.9, 0.7, 0.3, 1e-7, 3e-8],
                                     [0.25, 1, 0.25, 0.5, 1e-7, 1e-7]])
    def test_falling_wsd_in_wm_ties(self, raw):
        # these weights do put WSD out of order within rounded WM ties, so
        # the re-sort of those runs is exercised
        w = normalize_weights(raw)
        wm, wsd = rounded_vertex_images(w)
        assert np.all(np.diff(wm) >= 0)
        assert np.any((wm[1:] == wm[:-1]) & (wsd[1:] < wsd[:-1]))
        assert vertex_images(w).tobytes() == \
            lexsort_vertex_images(w).tobytes()


class TestExactOracle:
    """Envelope, vertex images and the attainability screen against exact
    rational arithmetic on the rounded squares of the float weights."""

    @pytest.mark.parametrize("raw", ORACLE_WEIGHTS)
    def test_envelope_within_derived_bound(self, raw):
        w = normalize_weights(raw)
        rng = np.random.default_rng(len(raw))
        m = w.mean_w
        wm = np.concatenate([[0.0, m], rng.random(24) * m,
                             m * 10.0 ** -rng.uniform(3, 15, 4),
                             m * (1 - 10.0 ** -rng.uniform(3, 15, 4))])
        tau = np.clip(wm / m, 0.0, 1.0)  # the rounding envelope_wsd does
        exact = exact_envelope_sq(w.weights, tau)
        bound = Fraction(geometry._envelope_error(w.n_p))
        for env, x in zip(envelope_wsd(w, wm), exact):
            assert abs(Fraction(float(env)) ** 2 / Fraction(m) ** 2 - x) \
                <= bound

    @pytest.mark.parametrize("raw", ORACLE_WEIGHTS)
    def test_vertex_images_are_rounded_exact_images(self, raw):
        w = normalize_weights(raw)
        sq = exact_squares(w.weights)
        norm2 = sum(sq)
        rows = set()
        with localcontext() as ctx:
            ctx.prec = 40
            m = Decimal(w.mean_w)
            for q in exact_subset_sums(sq):
                t = Decimal(q.numerator) / Decimal(q.denominator) \
                    / (Decimal(norm2.numerator) / Decimal(norm2.denominator))
                rows.add(tuple(float(round(x, 12))
                               for x in (m * t, m * (t * (1 - t)).sqrt())))
        assert vertex_images(w).tolist() == sorted(map(list, rows))

    @pytest.mark.parametrize("raw", ORACLE_WEIGHTS)
    def test_attainable_is_exact_off_the_band(self, raw):
        """``attainable`` gives the exact decision for every point off the
        band around the exact boundary.  With X the exact squared envelope
        at a point's exact WM, a point at WM in [0, mean(w)] is inside when
        0 <= WSD and WSD^2 < X - slack, and outside when WSD > tol and
        (WSD - tol)^2 > X + 2 slack: the float envelope's square may sit
        a slack from X, and the test adds its own slack and ``tol``.  A
        point with WM outside [-tol, mean(w) + tol] or WSD < -tol is
        outside.  Points inside the band may go either way."""
        w = normalize_weights(raw)
        rng = np.random.default_rng(len(raw) + 11)
        m = w.mean_w
        tau = np.concatenate([[0.0, 1.0], rng.random(20),
                              10.0 ** -rng.uniform(3, 15, 3),
                              1 - 10.0 ** -rng.uniform(3, 15, 3)])
        wm = tau * m
        exact = exact_envelope_sq(
            w.weights, [Fraction(x) / Fraction(m) for x in wm])
        env = envelope_wsd(w, wm)
        step = np.array([0.0, 1e-13, 1e-10, 1e-7, 1e-3, 0.1])
        wsd = np.concatenate([env[:, None] * (1 + step),
                              env[:, None] * (1 - step),
                              env[:, None] + [[2e-9, -2e-9, 1e-6]],
                              rng.uniform(0, 0.6 * m, (tau.size, 4))], axis=1)
        slack = Fraction((4 * w.n + 9) * np.finfo(float).eps * m ** 2)
        outside_wm = np.array([-1.0, -1e-3, -2e-9, m + 2e-9, m * 1.001,
                               m + 1.0])
        for tol in (1e-9, 0.0):
            t = Fraction(tol)
            pts, want = [], []
            for x, row, e in zip(wm, wsd, exact):
                e = e * Fraction(m) ** 2
                for y in row:
                    d = Fraction(float(y))
                    if d >= 0 and d * d < e - slack:
                        pts.append((x, y)), want.append(True)
                    elif d > t and (d - t) ** 2 > e + 2 * slack:
                        pts.append((x, y)), want.append(False)
            # WSD = 0 is under the envelope at the end WM is clipped to
            pts += [(x, 0.0) for x in outside_wm] + [(0.5 * m, -1e-3)]
            want += [False] * (outside_wm.size + 1)
            # one positive weight: the region is the segment WSD = 0
            assert want.count(False) > 100
            assert sum(want) > 100 or w.n_p == 1
            got = attainable(w, *np.array(pts).T, tol=tol)
            assert got.tolist() == want

    @pytest.mark.parametrize("raw", ORACLE_WEIGHTS)
    def test_screen_equals_reference(self, raw):
        w = normalize_weights(raw)
        rng = np.random.default_rng(7)
        m = w.mean_w
        verts = vertex_images(w)
        wm_r = rng.uniform(-0.05, 1.05, 400) * m
        env_r = envelope_wsd(w, wm_r)
        tol = 1e-9
        wm = np.concatenate([verts[:, 0], wm_r, wm_r, wm_r, [0.0, m] * 3,
                             [np.nan, 0.3 * m, np.nan],
                             rng.uniform(-0.1, 1.1, 400) * m])
        wsd = np.concatenate([
            verts[:, 1], env_r, env_r + rng.uniform(0, 2 * tol, 400),
            env_r * (1 + rng.uniform(-1e-12, 1e-12, 400)),
            [0.0, 0.0, tol, tol, 2 * tol, 2 * tol], [0.1, np.nan, np.nan],
            rng.uniform(-0.1, 0.6, 400) * m])
        for t in (tol, 0.0, 1e-6):
            got = attainable(w, wm, wsd, tol=t)
            assert got.tolist() == reference_attainable(w, wm, wsd, t).tolist()


def test_screen_sends_few_interior_points_to_the_envelope(monkeypatch):
    """The outline screen decides interior points: of 10,000 in-box rows at
    n_p = 12, only those within the outline's error band reach
    envelope_wsd."""
    rng = np.random.default_rng(12)
    w = normalize_weights(np.round(rng.uniform(0.05, 1.0, 12), 4))
    wm, wsd = plane(rng.random((10_000, 12)) * w.weights, w)
    envelope(w)  # the outline, which a plot draws anyway
    sent = []
    env_fn = geometry.envelope_wsd

    def counted(w, wm):
        sent.append(np.size(wm))
        return env_fn(w, wm)
    monkeypatch.setattr(geometry, "envelope_wsd", counted)
    assert attainable(w, wm, wsd).all()
    assert sum(sent) <= 300
