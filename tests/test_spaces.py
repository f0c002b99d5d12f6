import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import plane_scores
from wmsdspace.errors import OutOfDomain
from wmsdspace.model import CriterionSpec, DecisionMatrix, WeightVector
from wmsdspace.spaces import utility_array
from wmsdspace.wmsd import plane

MATH = CriterionSpec("Math", 0, 100, "gain", 0.5)
BIO = CriterionSpec("Bio", 1, 6, "gain", 0.6)
ART = CriterionSpec("Art", 1, 6, "gain", 1.0)
COST16 = CriterionSpec("cost", 1, 6, "cost", 1.0)


def utilities(values, spec):
    """``utility_array`` of one column of raw values under ``spec``."""
    return utility_array(np.array(values, dtype=float)[:, None], [spec])[:, 0]


def scaled_distance(a, b, w):
    """|a - b| / s: the anti-ideal distance of the difference rows, taken
    from their plane points as A times mean(w)."""
    diff = np.atleast_2d(np.asarray(a, dtype=float) - np.asarray(b, float))
    return plane_scores("A", diff, w) * w.mean_w


class TestToUtility:
    def test_gain_examples(self):
        assert utilities([93.67], MATH)[0] == pytest.approx(0.9367,
                                                            abs=1e-12)
        assert utilities([5.05], BIO)[0] == pytest.approx(0.81, abs=1e-12)

    def test_cost_worst(self):
        assert utilities([6, 1], COST16).tolist() == [0.0, 1.0]

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            DecisionMatrix(["x"], [[101.0]], [MATH])

    def test_clamp(self):
        m = DecisionMatrix(["x", "y"], [[101.0], [-5.0]], [MATH], clamp=True)
        assert utility_array(m.values, m.criteria)[:, 0].tolist() == \
            [1.0, 0.0]

    @given(st.floats(min_value=0, max_value=100, allow_nan=False),
           st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if hi - lo < 1e-9:  # below the rescaling's resolution
            return
        u_lo, u_hi = utilities([lo, hi], MATH)
        assert u_lo < u_hi
        spec = CriterionSpec("c", 0, 100, "cost", 1.0)
        u_lo, u_hi = utilities([lo, hi], spec)
        assert u_lo > u_hi


class TestMatrixToUtility:
    def test_extremes(self):
        m = DecisionMatrix(
            ["S10", "S12"], [[0.0, 1.0, 1.0], [100.0, 6.0, 6.0]],
            [MATH, BIO, ART])
        us = utility_array(m.values, m.criteria)
        assert us[0].tolist() == [0.0, 0.0, 0.0]
        assert us[1].tolist() == [1.0, 1.0, 1.0]

    def test_percent_domains(self):
        crit = [CriterionSpec(n, 0, 100, "gain", 1.0)
                for n in ("a", "b", "c", "d")]
        m = DecisionMatrix(["CHL"], [[62.43, 82.43, 75.37, 81.27]], crit)
        u = utility_array(m.values, m.criteria)[0]
        assert np.allclose(u, [0.6243, 0.8243, 0.7537, 0.8127], atol=1e-12)


class TestToWeighted:
    def test_worked_example(self):
        w = WeightVector([1.0, 0.5])
        v = np.array([0.75, 0.50]) * w.weights
        assert v.tolist() == [0.75, 0.25]

    def test_identity_weights(self):
        w = WeightVector(np.ones(3))
        u = [0.2, 0.9, 0.4]
        assert (np.array(u) * w.weights).tolist() == u

    def test_students_row(self):
        w = WeightVector([0.5, 0.6, 1.0])
        v = np.array([0.9367, 0.81, 0.278]) * w.weights
        assert np.allclose(v, [0.47, 0.49, 0.28], atol=0.005)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            plane(np.array([[0.1, 0.2, 0.3]]), WeightVector([1.0, 0.5]))


class TestDistances:
    ONES2 = WeightVector(np.ones(2))

    def test_euclid_diagonal(self):
        # |a - b| = s * scaled distance; s = sqrt(n) under all-ones weights
        d = scaled_distance([0, 0], [1, 1], self.ONES2)[0] * self.ONES2.s
        assert d == pytest.approx(math.sqrt(2))

    def test_euclid_norm(self):
        d = scaled_distance([1.0, 0.5], [0, 0], self.ONES2)[0] * self.ONES2.s
        assert d == pytest.approx(1.1180, abs=5e-5)

    def test_euclid_identity(self):
        assert scaled_distance([0.3, 0.7], [0.3, 0.7], self.ONES2)[0] == 0.0

    def test_rescaled_extremes(self):
        ones = np.array([[1.0, 1, 1]])
        assert plane_scores("A", ones, WeightVector(np.ones(3)))[0] == \
            pytest.approx(1.0)
        assert scaled_distance([0.4, 0.2], [0.4, 0.2], self.ONES2)[0] == 0.0

    def test_rescaled_student(self):
        u = np.array([[0.9367, 0.81, 0.278]])
        assert plane_scores("I", u, WeightVector(np.ones(3)))[0] == \
            pytest.approx(0.57, abs=0.005)

    def test_weighted_worked_example(self):
        w = WeightVector([1.0, 0.5])
        v = np.array([[0.75, 0.50]]) * w.weights
        assert plane_scores("A", v, w)[0] * w.mean_w == pytest.approx(
            0.53, abs=0.005)
        assert (1 - plane_scores("I", v, w)[0]) * w.mean_w == pytest.approx(
            0.24, abs=0.005)

    def test_weighted_full_span(self):
        w = WeightVector([0.3, 0.8, 1.0])
        assert plane_scores("A", w.weights[None], w)[0] * w.mean_w == \
            pytest.approx(w.mean_w, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            plane(np.array([[1.0, 2.0, 3.0]]), self.ONES2)


@st.composite
def utility_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    box = st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                   min_size=n, max_size=n)
    return draw(box), draw(box)


class TestDistanceProperties:
    @given(utility_pairs())
    def test_all_ones_reduction(self, pair):
        a, b = map(np.array, pair)
        w = WeightVector(np.ones(len(a)))
        d = scaled_distance(a * w.weights, b * w.weights, w)[0]
        assert abs(d - np.linalg.norm(a - b) / math.sqrt(len(a))) < 1e-12

    @given(utility_pairs())
    def test_weighted_range(self, pair):
        a, b = map(np.array, pair)
        w = WeightVector(np.linspace(0.2, 1.0, len(a)))
        d = scaled_distance(a * w.weights, b * w.weights, w)[0]
        assert 0.0 <= d <= w.mean_w + 1e-12

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(2, 7)
            a, b, c = rng.random((3, n))
            w = WeightVector(rng.random(n) + 0.05)
            for ww in (WeightVector(np.ones(n)), w):
                def dist(x, y):
                    return scaled_distance(x, y, ww)[0]
                assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-15)
                assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12
