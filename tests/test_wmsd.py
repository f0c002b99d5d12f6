import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import box_distances, plane_scores, projection
from wmsdspace.aggregate import AggregationKind, agg_values
from wmsdspace.model import WeightVector
from wmsdspace.wmsd import plane

W2 = WeightVector([1.0, 0.5])
V2 = np.array([[0.75, 0.50]]) * W2.weights
W3 = WeightVector([0.5, 0.6, 1.0])


def distances(wm, wsd, mean_w):
    """(d_anti, d_ideal) from plane coordinates, via A and I."""
    return (agg_values("A", wm, wsd, mean_w) * mean_w,
            (1 - agg_values("I", wm, wsd, mean_w)) * mean_w)


class TestWorkedExample:
    def test_projection(self):
        proj, _ = projection(V2, W2)
        assert np.max(np.abs(proj[0] - [0.70, 0.35])) < 1e-12

    def test_rejection(self):
        _, rej = projection(V2, W2)
        assert np.max(np.abs(rej[0] - [0.05, -0.10])) < 1e-12

    def test_wm(self):
        assert plane(V2, W2)[0][0] == pytest.approx(0.525, abs=1e-12)

    def test_wsd(self):
        assert plane(V2, W2)[1][0] == pytest.approx(0.075, abs=1e-12)

    def test_ia_distances(self):
        d_anti, d_ideal = distances(0.525, 0.075, 0.75)
        assert d_anti == pytest.approx(0.53, abs=0.005)
        assert d_ideal == pytest.approx(0.24, abs=0.005)


class TestProjection:
    def test_diagonal_point_has_no_rejection(self):
        v = 0.37 * W2.weights[None]
        _, rej = projection(v, W2)
        assert np.max(np.abs(rej)) < 1e-15
        assert plane(v, W2)[1][0] < 1e-15

    def test_ideal_image(self):
        wm, wsd = plane(W3.weights[None], W3)
        assert wm[0] == pytest.approx(W3.mean_w, abs=1e-12)
        assert wsd[0] == pytest.approx(0.0, abs=1e-15)

    def test_anti_ideal_image(self):
        wm, wsd = plane(np.zeros((1, 3)), W3)
        assert wm[0] == 0.0
        assert wsd[0] == 0.0

    def test_student_row(self):
        v = np.array([[0.9367, 0.81, 0.278]]) * W3.weights
        wm, wsd = plane(v, W3)
        assert wm[0] == pytest.approx(0.35, abs=0.005)
        assert wsd[0] == pytest.approx(0.20, abs=0.005)


def mean_sd(u):
    """The unweighted plane coordinates of utility rows ``u``."""
    return plane(u, WeightVector(np.ones(u.shape[1])))


class TestMsd:
    def test_mid_dispersion_row(self):
        m, sd = mean_sd(np.array([[0.5949, 0.494, 0.822]]))
        assert m[0] == pytest.approx(0.64, abs=0.005)
        assert sd[0] == pytest.approx(0.14, abs=0.005)

    def test_high_dispersion_row(self):
        m, sd = mean_sd(np.array([[1.0, 0.088, 0.974]]))
        assert m[0] == pytest.approx(0.69, abs=0.005)
        assert sd[0] == pytest.approx(0.42, abs=0.005)

    def test_constant_vector(self):
        m, sd = mean_sd(np.array([[0.3, 0.3, 0.3, 0.3]]))
        assert m[0] == pytest.approx(0.3, abs=1e-15)
        assert sd[0] == 0.0

    def test_population_variance(self):
        u = np.array([[0.0, 1.0]])
        assert mean_sd(u)[1][0] == pytest.approx(0.5, abs=1e-15)  # not 1/sqrt(2)


class TestIaDistances:
    def test_ideal_point(self):
        assert distances(0.7, 0.0, 0.7) == (0.7, 0.0)

    def test_matches_direct_distances(self):
        v = np.array([[0.9367, 0.81, 0.278]]) * W3.weights
        d_anti, d_ideal = distances(*plane(v, W3), W3.mean_w)
        direct_anti, direct_ideal = box_distances(v, W3)
        assert d_anti[0] == pytest.approx(direct_anti[0], abs=1e-12)
        assert d_ideal[0] == pytest.approx(direct_ideal[0], abs=1e-12)


@st.composite
def utility_and_weights(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    u = draw(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                      min_size=n, max_size=n))
    w_raw = draw(st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False),
        min_size=n, max_size=n).filter(lambda xs: max(xs) > 1e-6))
    return np.array([u]), WeightVector(w_raw)


class TestProperties:
    @given(utility_and_weights())
    def test_reconstruction_and_orthogonality(self, uw):
        u, w = uw
        v = u * w.weights
        proj, rej = projection(v, w)
        assert np.max(np.abs((proj + rej) - v)) < 1e-12
        assert abs(float(proj[0] @ rej[0])) < 1e-12
        wm, wsd = plane(v, w)
        assert abs(wm[0] - np.linalg.norm(proj[0]) / w.s) < 1e-12
        assert abs(wsd[0] - np.linalg.norm(rej[0]) / w.s) < 1e-12

    @given(utility_and_weights())
    def test_pythagoras(self, uw):
        u, w = uw
        v = u * w.weights
        proj, rej = projection(v, w)
        lhs = float(proj[0] @ proj[0]) + float(rej[0] @ rej[0])
        rhs = float(np.dot(v[0], v[0]))
        assert abs(lhs - rhs) < 1e-10

    @given(utility_and_weights())
    def test_ia_identity(self, uw):
        u, w = uw
        v = u * w.weights
        d_anti, d_ideal = distances(*plane(v, w), w.mean_w)
        direct_anti, direct_ideal = box_distances(v, w)
        assert abs(d_anti[0] - direct_anti[0]) < 1e-12
        assert abs(d_ideal[0] - direct_ideal[0]) < 1e-12

    @given(st.integers(min_value=1, max_value=20).flatmap(
        lambda n: st.lists(st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]),
                      st.floats(min_value=0, max_value=1, allow_nan=False)),
            min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_msd_reduction(self, u):
        # under all-ones weights the plane is the mean and the population
        # standard deviation of the utility row
        u = np.array(u)
        wm, wsd = plane(u, WeightVector(np.ones(u.shape[1])))
        assert np.max(np.abs(wm - u.mean(axis=1))) < 1e-12
        assert np.max(np.abs(wsd - u.std(axis=1))) < 1e-12

    @given(utility_and_weights(),
           st.floats(min_value=0, max_value=1, allow_nan=False))
    @settings(max_examples=50)
    def test_zero_weight_padding(self, uw, extra_u):
        u, w = uw
        n = w.n
        w_pad = WeightVector(list(w.weights) + [0.0])
        v = u * w.weights
        v_pad = np.append(u, [[extra_u]], axis=1) * w_pad.weights
        wm, wsd = plane(v, w)
        wm_pad, wsd_pad = plane(v_pad, w_pad)
        scale = n / (n + 1)
        assert abs(wm_pad[0] - wm[0] * scale) < 1e-12
        assert abs(wsd_pad[0] - wsd[0] * scale) < 1e-12
        for kind in AggregationKind:
            assert abs(plane_scores(kind, v_pad, w_pad)[0]
                       - plane_scores(kind, v, w)[0]) < 1e-12
