import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import box_scores, plane_scores, reversal_ids
from wmsdspace import aggregate, model
from wmsdspace.aggregate import (
    AggregationKind,
    agg_values,
    compare_rankings,
    rank_array,
)
from wmsdspace.errors import (
    DuplicateName,
    IdSetMismatch,
    LengthMismatch,
    NonFiniteScore,
    ValidationError,
)
from wmsdspace.model import WeightVector
from wmsdspace.spaces import utility_array
from wmsdspace.wmsd import plane

W3 = WeightVector([0.5, 0.6, 1.0])
KINDS = list(AggregationKind)
ONES3 = WeightVector(np.ones(3))


def scores_for(matrix, w, kind, weighted=True):
    """Scores of every alternative, in matrix order."""
    u = utility_array(matrix.values, matrix.criteria)
    if not weighted:
        w = WeightVector(np.ones(matrix.n))
    return plane_scores(kind, u * w.weights, w)


class TestUnweighted:
    S8 = np.array([[0.9367, 0.81, 0.278]])

    def test_student_row(self):
        for kind, want in zip("IAR", (0.57, 0.73, 0.63)):
            assert plane_scores(kind, self.S8, ONES3)[0] == pytest.approx(
                want, abs=0.005)

    def test_extremes(self):
        for kind in KINDS:
            top, bottom = plane_scores(
                kind, np.array([[1.0, 1, 1], [0, 0, 0]]), ONES3)
            assert top == pytest.approx(1.0)
            assert bottom == pytest.approx(0.0)

    def test_near_constant_midpoint(self):
        u = np.array([[0.4937, 0.506, 0.494]])
        for kind in KINDS:
            assert plane_scores(kind, u, ONES3)[0] == pytest.approx(
                0.50, abs=0.005)


class TestWeighted:
    def test_student_relative_score(self):
        v = np.array([[0.9367, 0.81, 0.278]]) * W3.weights
        assert plane_scores("R", v, W3)[0] == pytest.approx(0.50, abs=0.005)

    def test_student_cross_route(self):
        # textbook box distances and the plane route must agree far
        # below the table-rounding level
        v = np.array([[0.9367, 0.81, 0.278]]) * W3.weights
        for kind in KINDS:
            assert plane_scores(kind, v, W3)[0] == pytest.approx(
                box_scores(kind, v, W3)[0], abs=1e-12)

    def test_chile_under_skewed_weights(self):
        w = WeightVector([0.25, 1.0, 0.25, 0.5])
        v = np.array([[0.6243, 0.8243, 0.7537, 0.8127]]) * w.weights
        assert plane_scores("R", v, w)[0] == pytest.approx(0.806, abs=0.001)

    def test_ideal_image(self):
        for kind in KINDS:
            assert plane_scores(kind, W3.weights[None], W3)[0] == \
                pytest.approx(1.0, abs=1e-12)


class TestFromWmsd:
    def test_student_point(self):
        assert agg_values("R", 0.35, 0.20, 0.7) == \
            pytest.approx(0.50, abs=0.005)

    def test_neutrality_line(self):
        mean_w = 0.7
        r1, r2 = agg_values("R", mean_w / 2, np.array([0.05, 0.15]), mean_w)
        assert r1 == 0.5 and r2 == 0.5

    def test_ideal_point(self):
        for kind in KINDS:
            assert agg_values(kind, 0.7, 0.0, 0.7) == pytest.approx(1.0)


class TestInterplay:
    """Directional finite differences: how WM and WSD move each score."""

    def setup_method(self):
        rng = np.random.default_rng(42)
        self.mean_w = 0.7
        pts = []
        while len(pts) < 50:
            wm_v = rng.uniform(0.05, 0.65)
            wsd_v = rng.uniform(0.01, 0.1)
            pts.append((wm_v, wsd_v))
        self.points = pts

    def diff(self, kind, wm_v, wsd_v, dwm, dwsd, h=1e-6):
        a, b = agg_values(kind, np.array([wm_v, wm_v + dwm * h]),
                          np.array([wsd_v, wsd_v + dwsd * h]), self.mean_w)
        return b - a

    def test_wm_always_gain(self):
        for kind in KINDS:
            for wm_v, wsd_v in self.points:
                assert self.diff(kind, wm_v, wsd_v, 1, 0) > 0

    def test_wsd_direction_by_kind(self):
        for wm_v, wsd_v in self.points:
            assert self.diff("I", wm_v, wsd_v, 0, 1) < 0
            assert self.diff("A", wm_v, wsd_v, 0, 1) > 0
            r = self.diff("R", wm_v, wsd_v, 0, 1)
            if wm_v < self.mean_w / 2 - 1e-3:
                assert r > 0
            elif wm_v > self.mean_w / 2 + 1e-3:
                assert r < 0


class TestRank:
    def test_sorted_with_competition_ranks(self):
        r = rank_array(["a", "b", "c", "d"], [0.9, 0.5, 0.5, 0.1])
        assert list(r.ids) == ["a", "b", "c", "d"]
        assert r.ranks.tolist() == [1, 2, 2, 4]
        assert r.group_numbers.tolist() == [1, 2, 2, 3]

    def test_exact_ties_keep_input_order(self):
        r = rank_array(["z", "a", "m"], [0.5, 0.5, 0.5])
        assert list(r.ids) == ["z", "a", "m"]
        assert all(r.ranks == 1)

    def test_tolerance_groups(self):
        r = rank_array(["a", "b"], [0.500000, 0.499999], tie_tolerance=1e-5)
        assert list(r.ids) == ["a", "b"]
        assert r.group_numbers.tolist() == [1, 1]
        r = rank_array(["a", "b"], [0.500000, 0.499999], tie_tolerance=1e-9)
        assert list(r.ids) == ["a", "b"]
        assert r.group_numbers.tolist() == [1, 2]

    def test_single(self):
        r = rank_array(["only"], [0.4])
        assert r.ranks[0] == 1

    def test_position_of_unknown_id(self):
        r = rank_array(["a", "b"], [0.9, 0.5])
        assert r.position("b") == 2
        with pytest.raises(KeyError):
            r.position("c")

    def test_position_of_repeated_id(self):
        # "y" holds ranks 1 and 3: it has no one position.
        r = rank_array(["x", "y", "y"], [0.2, 0.9, 0.1])
        assert r.ranks.tolist() == [1, 2, 3] and r.position("x") == 2
        with pytest.raises(DuplicateName, match="'y'"):
            r.position("y")

    def test_non_finite(self):
        with pytest.raises(NonFiniteScore):
            rank_array(["a"], [math.nan])

    @pytest.mark.parametrize("ids, scores", [
        (["a", "b", "c"], [1.0, 2.0]),    # too few scores: c was dropped
        (["a"], [1.0, 2.0]),              # too few ids: an IndexError
        (["a", "b"], [[1.0, 2.0]]),       # 2-D scores: a numpy ValueError
        (["a", "b"], [[1.0], [2.0]]),
        (["a"], 1.0),
    ])
    def test_scores_must_line_up_with_ids(self, ids, scores):
        with pytest.raises(LengthMismatch, match=f"{len(ids)} ids"):
            rank_array(ids, scores)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_non_finite_tolerance(self, tol):
        with pytest.raises(ValidationError) as exc:
            rank_array(["a", "b"], [0.5, 0.4], tol)
        assert exc.value.details() == {
            "error": "ValidationError",
            "message": f"tie_tolerance must be finite and non-negative, "
                       f"got {tol}"}

    @staticmethod
    def leader_loop(ids, scores, tie_tolerance):
        """The sequential leader rule, one score at a time."""
        order = sorted(range(len(ids)), key=lambda k: (-scores[k], k))
        ranks, leader_score, leader_rank = [], math.inf, 1
        for pos, k in enumerate(order, start=1):
            if leader_score - scores[k] > tie_tolerance:
                leader_score, leader_rank = scores[k], pos
            ranks.append(leader_rank)
        return [ids[k] for k in order], ranks

    @given(st.sampled_from([0.0, 1e-9, 1e-3, 0.05]),
           st.floats(0.0, 1.0),
           st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.99, 1.0, 1.01, 2.0,
                                     40.0]), max_size=60),
           st.randoms(use_true_random=False))
    def test_vectorized_equals_leader_loop(self, tol, top, gaps, rnd):
        # Runs of gaps below, at and just above the tolerance, so group
        # leaders drift through close runs; tol 0 uses a fixed small unit.
        unit = tol or 1e-12
        scores = (top - np.cumsum([0.0] + gaps) * unit).tolist()
        rnd.shuffle(scores)
        ids = [f"x{k}" for k in range(len(scores))]
        got = rank_array(ids, scores, tol)
        want_ids, want_ranks = self.leader_loop(ids, scores, tol)
        assert list(got.ids) == want_ids
        assert got.ranks.tolist() == want_ranks

    # Many exact duplicates, 0.0 beside -0.0, and scores 1e-10 apart, which
    # fall in one group under the default tolerance.
    TIED = [0.0, -0.0, 0.25, 0.5, 0.5 + 1e-10, 0.5 - 1e-10, 1.0, 5e-324,
            -5e-324]

    @given(st.lists(st.sampled_from(TIED), max_size=80),
           st.sampled_from([0.0, 1e-9, 0.3]))
    @example(scores=TIED * 6, tol=1e-9)
    def test_order_is_stable_sort(self, scores, tol):
        """The unstable sort plus the tie repair orders alternatives, and
        their score bits, as a stable sort of the negated scores does."""
        s = np.array(scores)
        ids = [f"x{k}" for k in range(len(scores))]
        got = rank_array(ids, s, tol)
        order = np.argsort(-s, kind="stable")
        assert list(got.ids) == [ids[k] for k in order]
        assert got.scores.tobytes() == s[order].tobytes()

    def test_country_order(self, countries_matrix, countries_configs):
        scores = scores_for(countries_matrix,
                            countries_configs["w1"].weight_vector, "R")
        r = rank_array(countries_matrix.ids, scores)
        assert list(r.ids) == ["CHL", "URY", "PER", "COL", "PRY", "GUY",
                               "ARG", "BRA", "SUR", "ECU", "BOL", "VEN"]

    def test_near_identical_students_tie_at_table_precision(
            self, students_matrix):
        # S6 and S15 coincide in the plane only after 2-decimal rounding;
        # a loose tolerance groups them, the default keeps them apart.
        ids = students_matrix.ids
        scores = scores_for(students_matrix, W3, "R")
        by_id = dict(zip(ids, scores.tolist()))
        assert by_id["S6"] == pytest.approx(by_id["S15"], abs=1e-3)
        loose = rank_array(ids, scores, tie_tolerance=2e-3)
        tight = rank_array(ids, scores, tie_tolerance=1e-9)
        assert loose.position("S6") == loose.position("S15")
        assert tight.position("S6") != tight.position("S15")


class TestCompareRankings:
    def test_identical(self):
        r = rank_array(["a", "b"], [0.9, 0.5])
        cmp = compare_rankings(r, r)
        assert cmp.kendall_tau == pytest.approx(1.0)
        assert cmp.reversals.shape == (0, 2)
        assert cmp.order.tolist() == [0, 1]
        assert cmp.deltas.tolist() == [0, 0]

    def test_id_mismatch(self):
        for first, second in ((["a"], ["b"]), (["a", "b"], ["a"]),
                              (["a"], ["a", "b"]), (["x", "z"], ["x", "x"])):
            missing = sorted(set(first) ^ set(second))
            with pytest.raises(IdSetMismatch, match=re.escape(
                    f"rankings cover different ids: {missing}")):
                compare_rankings(rank_array(first, np.zeros(len(first))),
                                 rank_array(second, np.zeros(len(second))))

    @pytest.mark.parametrize("first, second, which, dup", [
        (["x", "y"], ["x", "y", "y"], "second", "y"),  # was tau -1.0
        (["x", "y", "y"], ["x", "y"], "first", "y"),
        (["x", "x"], ["x", "x"], "first", "x"),
        (["y", "x", "y"], ["x", "y", "x"], "first", "y"),
    ])
    def test_repeated_id_is_named(self, first, second, which, dup):
        r1 = rank_array(first, np.zeros(len(first)))
        r2 = rank_array(second, np.arange(len(second), 0, -1.0))
        with pytest.raises(IdSetMismatch) as info:
            compare_rankings(r1, r2)
        assert str(info.value) == (f"id {dup!r} occurs more than once in "
                                   f"the {which} ranking")

    def test_uruguay_shift(self, countries_matrix, countries_configs):
        ids = countries_matrix.ids
        r1 = rank_array(ids, scores_for(
            countries_matrix, countries_configs["w1"].weight_vector, "R"))
        r2 = rank_array(ids, scores_for(
            countries_matrix, countries_configs["w2"].weight_vector, "R"))
        cmp = compare_rankings(r1, r2)
        assert r1.position("URY") == 2
        assert r2.position("URY") == 5
        assert [r2.ids[k] for k in cmp.order] == list(r1.ids)
        assert cmp.deltas[r1.ids.index("URY")] == 3

    def test_student_reversal(self, students_matrix):
        ids = students_matrix.ids
        unweighted = rank_array(ids, scores_for(students_matrix, W3, "R",
                                                weighted=False))
        weighted = rank_array(ids, scores_for(students_matrix, W3, "R"))
        cmp = compare_rankings(unweighted, weighted)
        assert ("S8", "S9") in reversal_ids(cmp, unweighted)
        assert cmp.kendall_tau < 1.0

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    max_size=30),
           st.sampled_from([1, 7, 64, None]))
    # The first ranking one tie, the second strict: no pairs.
    @example([(0, s) for s in range(6)], None)
    # Two strict rankings in reverse order: all 435 pairs of 30 ids.
    @example([(s, -s) for s in range(30)], None)
    @example([(s, -s) for s in range(30)], 1)
    def test_reversals_equal_pair_loop(self, scores, block):
        """Every block size lists the pairs of the i < j loop over the
        first ranking's order, in loop order and orientation: blocks of
        1, 7 and 64 rows, each set by the budget for m ranks a row, and
        the budget as it is."""
        ids = [f"x{i}" for i in range(len(scores))]
        r1 = rank_array(ids, [s for s, _ in scores])
        r2 = rank_array(ids, [s for _, s in scores])
        rank1 = dict(zip(r1.ids, r1.ranks.tolist()))
        rank2 = dict(zip(r2.ids, r2.ranks.tolist()))
        expected = []
        for i, a in enumerate(r1.ids):
            for b in r1.ids[i + 1:]:
                d1, d2 = rank1[a] - rank1[b], rank2[a] - rank2[b]
                if d1 * d2 < 0:
                    expected.append((a, b) if d1 < 0 else (b, a))
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(model, "_BLOCK_BYTES", block * 8 * len(scores))
            assert reversal_ids(compare_quietly(r1, r2), r1) == expected


def test_reversals_stay_within_the_budget():
    """The pair scan of 1,000 ranks holds a few budgets at its peak, where
    blocks of 2^18 pair cells held 25."""
    rng = np.random.default_rng(3)
    first = np.arange(1, 1001)
    second = first.copy()
    swap = rng.choice(999, 20, replace=False)  # few pairs to list
    second[swap], second[swap + 1] = second[swap + 1], second[swap]
    ranks = np.column_stack([first, second])
    tracemalloc.start()
    try:
        pairs = aggregate._reversals(ranks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 20
    assert peak < 5 * model._BLOCK_BYTES


def tau_b_reference(x, y):
    """Tau-b from pairwise signs: sum(sx*sy) / sqrt(sum(sx^2) sum(sy^2))."""
    s = t1 = t2 = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            sx = (x[i] > x[j]) - (x[i] < x[j])
            sy = (y[i] > y[j]) - (y[i] < y[j])
            s += sx * sy
            t1 += sx * sx
            t2 += sy * sy
    return s / math.sqrt(t1 * t2) if t1 * t2 else math.nan


def compare_quietly(r1, r2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return compare_rankings(r1, r2)


class TestKendallTau:
    def test_ties_in_each_ranking(self):
        # ranks (1,2,2,4,5) vs (2,1,3,3,3): C = 5, D = 1, n1 = 1, n2 = 3,
        # n3 = 0, so tau-b = (10 - 1 - 3 - 2) / sqrt(9 * 7) = 4 / sqrt(63)
        r1 = rank_array(list("abcde"), [5, 4, 4, 2, 1])
        r2 = rank_array(list("abcde"), [4, 5, 3, 3, 3])
        assert [r1.position(k) for k in "abcde"] == [1, 2, 2, 4, 5]
        assert [r2.position(k) for k in "abcde"] == [2, 1, 3, 3, 3]
        cmp = compare_quietly(r1, r2)
        assert reversal_ids(cmp, r1) == [("a", "b")]
        assert cmp.kendall_tau == pytest.approx(4 / math.sqrt(63), abs=1e-15)
        assert round(cmp.kendall_tau, 6) == 0.503953

    def test_pair_tied_in_both(self):
        # ranks (1,1,3,4) vs (1,1,4,3): n0 = 6, n1 = n2 = n3 = 1, D = 1,
        # so tau-b = (6 - 1 - 1 + 1 - 2) / sqrt(5 * 5) = 3 / 5
        r1 = rank_array(list("abcd"), [2, 2, 1, 0])
        r2 = rank_array(list("abcd"), [2, 2, 0, 1])
        cmp = compare_quietly(r1, r2)
        assert reversal_ids(cmp, r1) == [("c", "d")]
        assert cmp.kendall_tau == pytest.approx(0.6, abs=1e-15)

    def test_full_reversal(self):
        r1 = rank_array(list("abc"), [3, 2, 1])
        r2 = rank_array(list("abc"), [1, 2, 3])
        cmp = compare_quietly(r1, r2)
        assert len(cmp.reversals) == 3
        assert cmp.kendall_tau == -1.0

    def test_single_alternative_is_nan(self):
        r = rank_array(["a"], [0.5])
        assert math.isnan(compare_quietly(r, r).kendall_tau)

    def test_all_one_tie_is_nan(self):
        r1 = rank_array(list("abc"), [1, 1, 1])
        r2 = rank_array(list("abc"), [3, 2, 1])
        cmp = compare_quietly(r1, r2)
        assert len(cmp.reversals) == 0
        assert math.isnan(cmp.kendall_tau)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    max_size=25))
    def test_matches_pairwise_sign_reference(self, scores):
        ids = [f"x{i}" for i in range(len(scores))]
        r1 = rank_array(ids, [s for s, _ in scores])
        r2 = rank_array(ids, [s for _, s in scores])
        x = [r1.position(k) for k in ids]
        y = [r2.position(k) for k in ids]
        cmp = compare_quietly(r1, r2)
        expected = tau_b_reference(x, y)
        if math.isnan(expected):
            assert math.isnan(cmp.kendall_tau)
        else:
            assert abs(cmp.kendall_tau - expected) < 1e-12
        assert len(cmp.reversals) == sum(
            (x[i] - x[j]) * (y[i] - y[j]) < 0
            for i in range(len(x)) for j in range(i + 1, len(x)))


@st.composite
def utility_and_weights(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    u = draw(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                      min_size=n, max_size=n))
    w_raw = draw(st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False),
        min_size=n, max_size=n).filter(lambda xs: max(xs) > 1e-6))
    return u, WeightVector(w_raw)


@st.composite
def box_rows(draw):
    """Weighted rows and their weights: n from 1 to 20, zero weights,
    cells of exactly 0 and 1, and the ideal and anti-ideal rows first."""
    n = draw(st.integers(min_value=1, max_value=20))
    unit = st.floats(min_value=0, max_value=1, allow_nan=False)
    cell = st.one_of(st.sampled_from([0.0, 1.0]), unit)
    w_raw = draw(st.lists(st.one_of(st.just(0.0), unit), min_size=n,
                          max_size=n).filter(lambda xs: max(xs) > 1e-6))
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                         max_size=6))
    w = WeightVector(w_raw)
    u = np.array([[1.0] * n, [0.0] * n] + rows)
    return u * w.weights, w


class TestAggregationProperties:
    @given(box_rows())
    def test_cross_formulation(self, vw):
        # the plane path is textbook TOPSIS on the box distances
        v, w = vw
        for kind in KINDS:
            got = agg_values(kind, *plane(v, w), w.mean_w)
            assert np.max(np.abs(got - box_scores(kind, v, w))) < 1e-12

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=2, max_size=8))
    def test_reduction_to_unweighted(self, u):
        u = np.array([u])
        w = WeightVector(np.ones(u.shape[1]))
        for kind in KINDS:
            assert abs(plane_scores(kind, u * w.weights, w)[0]
                       - agg_values(kind, u.mean(1), u.std(1), 1.0)[0]) \
                < 1e-12

    @given(utility_and_weights())
    def test_range(self, uw):
        u, w = uw
        u = np.array([u])
        ones = WeightVector(np.ones(w.n))
        for kind in KINDS:
            assert -1e-12 <= plane_scores(kind, u * w.weights, w)[0] \
                <= 1.0 + 1e-12
            assert -1e-12 <= plane_scores(kind, u, ones)[0] <= 1.0 + 1e-12

    @given(utility_and_weights(),
           st.floats(min_value=0, max_value=1, allow_nan=False))
    @settings(max_examples=50)
    def test_zero_weight_criterion_invariance(self, uw, extra_u):
        u, w = uw
        w_pad = WeightVector(list(w.weights) + [0.0])
        v = np.array([u]) * w.weights
        v_pad = np.array([list(u) + [extra_u]]) * w_pad.weights
        for kind in KINDS:
            assert abs(plane_scores(kind, v_pad, w_pad)[0]
                       - plane_scores(kind, v, w)[0]) < 1e-12
