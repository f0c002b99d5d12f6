import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import edge_sweep_utilities, uniform_utilities
from wmsdspace import geometry
from wmsdspace.aggregate import agg_values
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
                 lambda: attainable(w, 0.3, 0.1),
                 lambda: isoline("A", 0.9, w)]
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
        tables = geometry._edge_tables(w)
        t = tables.vertex_sums / tables.norm2
        pairs = np.column_stack([
            w.mean_w * t, w.mean_w * np.sqrt(np.maximum(t * (1.0 - t), 0.0))])
        ref = np.unique(np.round(pairs, 12), axis=0)
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

    def test_msd_shape_for_two_criteria(self):
        # equal weights, n=2: the region is the triangle with peak (.5,.5)
        for m in np.linspace(0.05, 0.95, 19):
            top = envelope_wsd(W11, m)[0]
            assert top == pytest.approx(min(m, 1 - m), abs=1e-12)


class TestTableCache:
    def test_lru_eviction_by_bytes(self):
        a, b, c = (geometry._build_tables(np.arange(1.0, k + 1.0) ** 2)
                   for k in (6, 7, 8))
        cache = geometry._TableCache(a.nbytes + b.nbytes + c.nbytes - 1)
        cache.put(b"a", a)
        cache.put(b"b", b)
        assert cache.get(b"a") is a  # "b" is now least recently used
        cache.put(b"c", c)
        assert list(cache.entries) == [b"a", b"c"]
        assert cache.nbytes == a.nbytes + c.nbytes
        assert cache.get(b"b") is None and cache.hits == 1

    def test_oversized_entry_kept_alone(self):
        a, b = (geometry._build_tables(np.arange(1.0, k + 1.0) ** 2)
                for k in (4, 9))
        cache = geometry._TableCache(b.nbytes - 1)
        cache.put(b"a", a)
        cache.put(b"b", b)
        assert list(cache.entries) == [b"b"] and cache.nbytes == b.nbytes

    def test_repeated_weights_hit(self, monkeypatch):
        cache = geometry._TableCache(geometry.CACHE_BYTES)
        monkeypatch.setattr(geometry, "_TABLE_CACHE", cache)
        envelope_wsd(W3, 0.3)
        envelope_wsd(normalize_weights([1.0, 0.5, 0.6]), 0.3)  # same multiset
        assert cache.hits == 1 and len(cache.entries) == 1
        assert cache.nbytes == next(iter(cache.entries.values())).nbytes


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
        assert iso.shape == "segment"
        assert np.allclose(iso.points[:, 0], W3.mean_w / 2)
        assert iso.points[:, 1].max() == pytest.approx(
            envelope_wsd(W3, W3.mean_w / 2)[0], abs=1e-12)

    def test_degenerate_top(self):
        iso = isoline("I", 1.0, W3)
        assert iso.shape == "point"
        assert iso.points.tolist() == [[W3.mean_w, 0.0]]

    def test_degenerate_r_levels(self):
        assert isoline("R", 0.0, W3).points.tolist() == [[0.0, 0.0]]
        assert isoline("R", 1.0, W3).points.tolist() == [[W3.mean_w, 0.0]]

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
        for w in (W15, W3):
            iso = isoline(kind, level, w, samples=211)
            assert len(iso.points) > 0
            vals = agg_values(kind, iso.points[:, 0], iso.points[:, 1],
                              w.mean_w)
            assert np.max(np.abs(vals - level)) < 1e-9

    def test_clipped_to_region(self):
        iso = isoline("A", 0.9, W3, samples=257)
        assert attainable(W3, iso.points[:, 0], iso.points[:, 1],
                          tol=1e-6).all()

    def test_level_out_of_range(self):
        with pytest.raises(LevelOutOfRange):
            isoline("A", 1.2, W3)
        with pytest.raises(LevelOutOfRange):
            isoline("I", -0.1, W3)
