import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wmsdspace.errors import (
    AllZeroWeights,
    DegenerateDomain,
    DuplicateName,
    LengthMismatch,
    NegativeWeight,
    NonFiniteBound,
    NonFiniteWeight,
    OutOfDomain,
)
from wmsdspace.model import (
    CriterionSpec,
    DecisionMatrix,
    normalize_weights,
    uniform_weights,
    validate_criteria,
)


def gain(name="c", lo=0.0, hi=100.0, weight=1.0):
    return CriterionSpec(name=name, v_min=lo, v_max=hi, kind="gain",
                         raw_weight=weight)


class TestValidateCriteria:
    def test_well_formed(self):
        specs = [gain("a"), gain("b", 1, 6, 0.5)]
        assert validate_criteria(specs) is specs

    def test_degenerate_domain(self):
        with pytest.raises(DegenerateDomain):
            validate_criteria([gain(lo=5.0, hi=5.0)])

    def test_inverted_domain(self):
        with pytest.raises(DegenerateDomain):
            validate_criteria([gain(lo=6.0, hi=1.0)])

    def test_domain_span_overflows(self):
        # Both bounds are finite, but 1e308 - -1e308 is not: every utility
        # of the criterion would be divided by inf.
        with pytest.raises(DegenerateDomain, match="'wide'"):
            validate_criteria([gain("wide", lo=-1e308, hi=1e308)])

    def test_non_finite_bound(self):
        with pytest.raises(NonFiniteBound):
            validate_criteria([gain(hi=math.inf)])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            validate_criteria([gain(weight=-0.1)])

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            validate_criteria([gain("x"), gain("x")])

    def test_bad_kind(self):
        with pytest.raises(DegenerateDomain):
            validate_criteria([CriterionSpec("x", 0, 1, "maximize", 1.0)])


class TestNormalizeWeights:
    def test_divides_by_max(self):
        w = normalize_weights([2, 1, 1])
        assert w.weights.tolist() == [1.0, 0.5, 0.5]

    def test_all_ones_coefficient(self):
        w = normalize_weights([1, 1, 1])
        assert w.weights.tolist() == [1.0, 1.0, 1.0]
        assert w.s == pytest.approx(1.7321, abs=1e-4)

    def test_all_zero(self):
        with pytest.raises(AllZeroWeights):
            normalize_weights([0, 0])

    def test_nan(self):
        with pytest.raises(NonFiniteWeight):
            normalize_weights([1, math.nan])

    def test_infinite(self):
        with pytest.raises(NonFiniteWeight):
            normalize_weights([1, math.inf])

    def test_negative(self):
        with pytest.raises(NegativeWeight):
            normalize_weights([1, -0.5])

    def test_empty(self):
        with pytest.raises(LengthMismatch):
            normalize_weights([])

    def test_statistics(self):
        w = normalize_weights([0.5, 0.6, 1.0])
        assert w.n_p == 3
        assert w.norm == pytest.approx(math.sqrt(1.61), abs=1e-12)
        assert w.mean_w == pytest.approx(0.7, abs=1e-12)

    def test_zero_entries_kept(self):
        w = normalize_weights([1.0, 0.66, 0.33, 0.0])
        assert w.n_p == 3
        assert w.n == 4
        # mean is over all entries, zeros included
        assert w.mean_w == pytest.approx(1.99 / 4, abs=1e-12)


class TestScalingCoefficient:
    def test_worked_pair(self):
        assert normalize_weights([1.0, 0.5]).s == \
            pytest.approx(1.4907, abs=5e-5)

    def test_four_ones(self):
        assert normalize_weights([1, 1, 1, 1]).s == \
            pytest.approx(2.0, abs=1e-12)

    def test_students_weights(self):
        assert normalize_weights([0.5, 0.6, 1.0]).s == \
            pytest.approx(1.8127, abs=5e-5)


# zeros are interesting; subnormals are not (they underflow to zero when
# divided by a large maximum, which is outside the contract)
raw_weight_lists = st.lists(
    st.one_of(st.just(0.0),
              st.floats(min_value=1e-9, max_value=100.0, allow_nan=False)),
    min_size=1, max_size=8,
).filter(lambda xs: max(xs) > 1e-6)


class TestWeightProperties:
    @given(raw_weight_lists)
    def test_idempotent_exactly(self, raw):
        w1 = normalize_weights(raw)
        w2 = normalize_weights(w1.weights)
        assert np.array_equal(w1.weights, w2.weights)

    @given(raw_weight_lists,
           st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_scale_invariant(self, raw, c):
        w1 = normalize_weights(raw)
        w2 = normalize_weights([c * x for x in raw])
        assert np.max(np.abs(w1.weights - w2.weights)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 33))
    def test_all_ones_s_is_sqrt_n(self, n):
        assert abs(uniform_weights(n).s - math.sqrt(n)) < 1e-12

    @given(raw_weight_lists)
    def test_np_preserved(self, raw):
        w = normalize_weights(raw)
        assert w.n_p == sum(1 for x in raw if x > 0)
        assert w.n_p == int(np.count_nonzero(w.weights > 0))

    @given(raw_weight_lists)
    def test_max_exactly_one(self, raw):
        w = normalize_weights(raw)
        assert w.weights.max() == 1.0
        assert w.weights.min() >= 0.0
        assert 0.0 < w.mean_w <= 1.0
        assert w.s > 0.0 and math.isfinite(w.s)


class TestDecisionMatrix:
    CRITERIA = [gain("Math", 0, 100), gain("Bio", 1, 6), gain("Art", 1, 6)]

    def test_from_rows(self):
        m = DecisionMatrix.from_array(
            ["S1", "S2"], [[50.0, 3.0, 4.0], [70.0, 2.0, 5.0]],
            self.CRITERIA)
        assert m.m == 2 and m.n == 3
        assert m.ids == ("S1", "S2")
        assert m.values.shape == (2, 3)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain) as exc:
            DecisionMatrix.from_array(["S1"], [[120.0, 3.0, 4.0]],
                                      self.CRITERIA)
        assert exc.value.row == 1
        assert exc.value.column == "Math"

    def test_clamp(self):
        m = DecisionMatrix.from_array(["S1"], [[120.0, 0.5, 4.0]],
                                      self.CRITERIA, clamp=True)
        assert m.values[0, 0] == 100.0
        assert m.values[0, 1] == 1.0

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, value, clamp):
        with pytest.raises(OutOfDomain, match="not finite") as exc:
            DecisionMatrix.from_array(
                ["S1", "S2"], [[50.0, 3.0, 4.0], [50.0, value, 4.0]],
                self.CRITERIA, clamp=clamp)
        assert exc.value.row == 2
        assert exc.value.column == "Bio"

    def test_first_fault_in_row_major_order(self):
        ids = ["S1", "S2", "S3", "S2"]     # S2 repeats in row 4
        values = np.array([[50.0, 3.0, 4.0],
                           [50.0, 3.0, 9.0],    # Art out of domain
                           [math.nan, 3.0, 4.0],
                           [50.0, 3.0, 4.0]])
        with pytest.raises(OutOfDomain) as exc:
            DecisionMatrix.from_array(ids, values, self.CRITERIA)
        assert (exc.value.row, exc.value.column) == (2, "Art")
        with pytest.raises(OutOfDomain) as exc:
            DecisionMatrix.from_array(ids, values, self.CRITERIA, clamp=True)
        assert (exc.value.row, exc.value.column) == (3, "Math")
        with pytest.raises(DuplicateName):
            DecisionMatrix.from_array(ids[:2] + ids[3:], values[[0, 1, 3]],
                                      self.CRITERIA, clamp=True)

    def test_from_array(self):
        m = DecisionMatrix.from_array(["S1", "S2"],
                                      np.array([[50.0, 3.0, 4.0],
                                                [70.0, 2.0, 5.0]]),
                                      self.CRITERIA)
        assert m.ids == ("S1", "S2")
        assert m.values.tolist() == [[50.0, 3.0, 4.0], [70.0, 2.0, 5.0]]
        with pytest.raises(LengthMismatch):
            DecisionMatrix.from_array(["S1"], np.ones((1, 2)), self.CRITERIA)
        # a bad cell before the first repeated id is reported first
        values = np.array([[50.0, 3.0, 4.0], [50.0, 3.0, 9.0],
                           [50.0, 3.0, 4.0]])
        with pytest.raises(OutOfDomain) as exc:
            DecisionMatrix.from_array(["S1", "S2", "S1"], values,
                                      self.CRITERIA)
        assert (exc.value.row, exc.value.column) == (2, "Art")
        with pytest.raises(DuplicateName, match="'S1'"):
            DecisionMatrix.from_array(["S1", "S2", "S1"], values,
                                      self.CRITERIA, clamp=True)

    def test_duplicate_id(self):
        with pytest.raises(DuplicateName):
            DecisionMatrix.from_array(
                ["S1", "S1"], [[1.0, 2, 3], [2.0, 3, 4]], self.CRITERIA)

    def test_row_length(self):
        with pytest.raises(LengthMismatch):
            DecisionMatrix.from_array(["S1"], [[1.0, 2]], self.CRITERIA)

    def test_values_read_only(self):
        m = DecisionMatrix.from_array(["S1"], [[50.0, 3.0, 4.0]],
                                      self.CRITERIA)
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.0

    def test_weight_vector(self):
        criteria = [gain("a", weight=2.0), gain("b", weight=1.0)]
        w = DecisionMatrix.from_array(["x"], [[1.0, 2.0]],
                                      criteria).weight_vector()
        assert w.weights.tolist() == [1.0, 0.5]


def every_record(config, matrix) -> dict:
    """One instance of each record type of the package, by type name."""
    from wmsdspace import geometry
    from wmsdspace.aggregate import compare_rankings, rank_array
    from wmsdspace.render import PlotFrame, PlotSpec

    w = config.weight_vector
    ranking = rank_array(matrix.ids, matrix.values[:, 0])
    spec = PlotSpec(weights=w, kind="R")
    records = [config, config.criteria[0], w, matrix, ranking,
               compare_rankings(ranking, ranking), spec, PlotFrame(spec),
               geometry._edge_tables(w), geometry.isoline("R", 0.3, w)]
    return {type(r).__name__: r for r in records}


class TestRecords:
    """What each record type keeps: read-only fields, a field-wise repr,
    and value equality only for the records without arrays."""

    NAMES = ["RunConfig", "CriterionSpec", "WeightVector", "DecisionMatrix",
             "Ranking", "RankingComparison", "PlotSpec", "PlotFrame",
             "_EdgeTables", "Isoline"]

    def test_one_of_each(self, students_config, students_matrix):
        assert sorted(every_record(students_config, students_matrix)) == \
            sorted(self.NAMES)

    @pytest.mark.parametrize("name", NAMES)
    def test_fields_are_read_only(self, students_config, students_matrix,
                                  name):
        record = every_record(students_config, students_matrix)[name]
        fields = dict(vars(record))
        field = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.no_such_field = 1
        assert vars(record) == fields

    def test_criterion_equality_and_hash_by_value(self):
        a = CriterionSpec("a", 0, 1, "gain")
        b = CriterionSpec(name="a", v_min=0.0, v_max=1.0, kind="gain",
                          raw_weight=1.0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != gain("a", hi=1.0, weight=0.5)
        assert a != ("a", 0, 1, "gain", 1.0)
        assert repr(b) == ("CriterionSpec(name='a', v_min=0.0, v_max=1.0, "
                           "kind='gain', raw_weight=1.0)")

    def test_config_equality_hash_and_replace(self, students_config):
        same = students_config.replace()
        assert same is not students_config
        assert same == students_config
        assert hash(same) == hash(students_config)
        clamped = students_config.replace(clamp=True)
        assert clamped.clamp and not students_config.clamp
        assert clamped != students_config
        assert vars(clamped) == {**vars(students_config), "clamp": True}
        with pytest.raises(TypeError):
            students_config.replace(no_such_field=1)

    def test_array_records_compare_by_identity(self, students_matrix):
        m = students_matrix
        copy = DecisionMatrix(m.ids, m.values, m.criteria)
        assert copy != m and copy == copy
        assert repr(copy) == repr(m) and "criteria" not in repr(m)
