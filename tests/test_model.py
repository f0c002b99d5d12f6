import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES, random_weight_vectors
from wmsdspace.errors import (
    AllZeroWeights,
    DegenerateDomain,
    DuplicateName,
    LengthMismatch,
    NegativeWeight,
    NonFiniteBound,
    NonFiniteWeight,
    OutOfDomain,
    ValidationError,
)
from wmsdspace.cli import _ranking, parse_config
from wmsdspace.model import (
    CriterionSpec,
    DecisionMatrix,
    WeightVector,
)


def gain(name="c", lo=0.0, hi=100.0, weight=1.0):
    return CriterionSpec(name=name, v_min=lo, v_max=hi, kind="gain",
                         raw_weight=weight)


class TestCriterionSpec:
    """``CriterionSpec(...)`` refuses a broken criterion, and
    ``DecisionMatrix(...)`` an empty or repeated-name criteria list."""

    def test_well_formed(self):
        specs = [gain("a"), gain("b", 1, 6, 0.5)]
        m = DecisionMatrix([], np.empty((0, 2)), specs)
        assert m.criteria == tuple(specs)
        assert all(a is b for a, b in zip(m.criteria, specs))

    def test_degenerate_domain(self):
        with pytest.raises(DegenerateDomain):
            gain(lo=5.0, hi=5.0)

    def test_inverted_domain(self):
        with pytest.raises(DegenerateDomain):
            gain(lo=6.0, hi=1.0)

    def test_domain_span_overflows(self):
        # Both bounds are finite, but 1e308 - -1e308 is not: every utility
        # of the criterion would be divided by inf.
        with pytest.raises(DegenerateDomain, match="'wide'"):
            gain("wide", lo=-1e308, hi=1e308)

    def test_non_finite_bound(self):
        with pytest.raises(NonFiniteBound):
            gain(hi=math.inf)

    def test_non_finite_weight(self):
        with pytest.raises(NonFiniteWeight):
            gain(weight=math.nan)

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            gain(weight=-0.1)

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            DecisionMatrix([], np.empty((0, 2)), [gain("x"), gain("x")])

    def test_bad_kind(self):
        with pytest.raises(DegenerateDomain):
            CriterionSpec("x", 0, 1, "maximize", 1.0)

    def test_empty(self):
        with pytest.raises(DegenerateDomain, match="criteria list is empty"):
            DecisionMatrix(["a"], np.empty((1, 0)), [])

    @pytest.mark.parametrize("args,record", [
        (("x", 5.0, 1.0, "gain"), {
            "error": "DegenerateDomain",
            "message": "criterion 'x': v_min (5.0) must be strictly below "
                       "v_max (1.0)"}),
        # the kind is checked before the weight
        (("y", 0.0, 1.0, "maximize", -2.0), {
            "error": "DegenerateDomain",
            "message": "criterion 'y': kind must be 'gain' or 'cost', "
                       "got 'maximize'"}),
    ])
    def test_refused_record(self, args, record):
        with pytest.raises(DegenerateDomain) as exc:
            CriterionSpec(*args)
        assert exc.value.details() == record

    @pytest.mark.parametrize("name", ["", 3])
    def test_name_is_a_non_empty_string(self, name):
        """The name is checked before the kind, domain and weight."""
        for args in ((0, 1, "gain"), (1, 0, "maximize", -1.0)):
            with pytest.raises(ValidationError) as exc:
                CriterionSpec(name, *args)
            assert exc.value.details() == {
                "error": "ValidationError",
                "message": f"criterion {name!r}: name must be a non-empty "
                           "string"}


class TestNormalizeWeights:
    """``WeightVector(raw)`` checks raw weights and divides them by their
    maximum."""

    def test_divides_by_max(self):
        w = WeightVector([2, 1, 1])
        assert w.weights.tolist() == [1.0, 0.5, 0.5]

    def test_all_ones_coefficient(self):
        w = WeightVector([1, 1, 1])
        assert w.weights.tolist() == [1.0, 1.0, 1.0]
        assert w.s == pytest.approx(1.7321, abs=1e-4)

    def test_all_zero(self):
        with pytest.raises(AllZeroWeights):
            WeightVector([0, 0])

    def test_nan(self):
        with pytest.raises(NonFiniteWeight):
            WeightVector([1, math.nan])

    def test_infinite(self):
        with pytest.raises(NonFiniteWeight):
            WeightVector([1, math.inf])

    def test_negative(self):
        with pytest.raises(NegativeWeight):
            WeightVector([1, -0.5])

    def test_empty(self):
        with pytest.raises(LengthMismatch):
            WeightVector([])

    def test_statistics(self):
        w = WeightVector([0.5, 0.6, 1.0])
        assert w.n_p == 3
        assert w.norm == pytest.approx(math.sqrt(1.61), abs=1e-12)
        assert w.mean_w == pytest.approx(0.7, abs=1e-12)

    def test_zero_entries_kept(self):
        w = WeightVector([1.0, 0.66, 0.33, 0.0])
        assert w.n_p == 3
        assert w.n == 4
        # mean is over all entries, zeros included
        assert w.mean_w == pytest.approx(1.99 / 4, abs=1e-12)

    @pytest.mark.parametrize("raw, record", [
        ([], ("LengthMismatch", "weights must be a non-empty 1-D sequence")),
        ([[1.0, 2.0]],
         ("LengthMismatch", "weights must be a non-empty 1-D sequence")),
        ([math.nan, 1.0], ("NonFiniteWeight", "weights must all be finite")),
        ([math.inf, 1.0], ("NonFiniteWeight", "weights must all be finite")),
        ([-1.0, 1.0], ("NegativeWeight", "weights must all be non-negative")),
        ([0.0, 0.0],
         ("AllZeroWeights", "at least one weight must be positive")),
    ], ids=["empty", "2-d", "nan", "inf", "negative", "all-zero"])
    def test_refuses_bad_weights(self, raw, record):
        """Each bad input, as a list or an array, gets its error record,
        raised before any arithmetic could divide by zero or warn."""
        error, message = record
        for arg in (raw, np.array(raw)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError) as info:
                    WeightVector(arg)
            assert info.value.details() == {"error": error,
                                            "message": message}

    def test_weight_vector_derives_its_statistics(self):
        """``WeightVector(raw)`` holds, bit for bit, ``raw / raw.max()``
        and the statistics written out from it; built again from its own
        weights it is unchanged."""
        rng = np.random.default_rng(35)
        for raw in random_weight_vectors(rng, 200):
            w = raw / raw.max()
            norm, mean_w = float(np.linalg.norm(w)), float(w.mean())
            got = WeightVector(raw)
            again = WeightVector(got.weights)
            assert not got.weights.flags.writeable
            for v in (got, again):
                assert v.weights.tobytes() == w.tobytes()
                assert (v.n_p, v.norm, v.mean_w, v.s) == (
                    int(np.count_nonzero(w > 0)), norm, mean_w,
                    norm / mean_w)


class TestScalingCoefficient:
    def test_worked_pair(self):
        assert WeightVector([1.0, 0.5]).s == \
            pytest.approx(1.4907, abs=5e-5)

    def test_four_ones(self):
        assert WeightVector([1, 1, 1, 1]).s == \
            pytest.approx(2.0, abs=1e-12)

    def test_students_weights(self):
        assert WeightVector([0.5, 0.6, 1.0]).s == \
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
        w1 = WeightVector(raw)
        w2 = WeightVector(w1.weights)
        assert np.array_equal(w1.weights, w2.weights)

    @given(raw_weight_lists,
           st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_scale_invariant(self, raw, c):
        w1 = WeightVector(raw)
        w2 = WeightVector([c * x for x in raw])
        assert np.max(np.abs(w1.weights - w2.weights)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 33))
    def test_all_ones_s_is_sqrt_n(self, n):
        assert abs(WeightVector(np.ones(n)).s - math.sqrt(n)) < 1e-12

    @given(raw_weight_lists)
    def test_np_preserved(self, raw):
        w = WeightVector(raw)
        assert w.n_p == sum(1 for x in raw if x > 0)
        assert w.n_p == int(np.count_nonzero(w.weights > 0))

    @given(raw_weight_lists)
    def test_max_exactly_one(self, raw):
        w = WeightVector(raw)
        assert w.weights.max() == 1.0
        assert w.weights.min() >= 0.0
        assert 0.0 < w.mean_w <= 1.0
        assert w.s > 0.0 and math.isfinite(w.s)


class TestDecisionMatrix:
    CRITERIA = [gain("Math", 0, 100), gain("Bio", 1, 6), gain("Art", 1, 6)]

    def test_from_rows(self):
        m = DecisionMatrix(["S1", "S2"], [[50.0, 3.0, 4.0], [70.0, 2.0, 5.0]],
                           self.CRITERIA)
        assert m.m == 2 and m.n == 3
        assert m.ids == ("S1", "S2")
        assert m.values.shape == (2, 3)

    def test_lists_become_a_tuple_and_a_read_only_array(self):
        m = DecisionMatrix(["a"], [[50.0, 3.0, 4.0]], self.CRITERIA)
        assert type(m.ids) is tuple and type(m.criteria) is tuple
        assert type(m.values) is np.ndarray and m.values.dtype == np.float64
        assert not m.values.flags.writeable

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain) as exc:
            DecisionMatrix(["S1"], [[120.0, 3.0, 4.0]], self.CRITERIA)
        assert exc.value.row == 1
        assert exc.value.column == "Math"

    def test_clamp(self):
        m = DecisionMatrix(["S1"], [[120.0, 0.5, 4.0]], self.CRITERIA,
                           clamp=True)
        assert m.values[0, 0] == 100.0
        assert m.values[0, 1] == 1.0
        assert "clamp" not in vars(m)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, value, clamp):
        with pytest.raises(OutOfDomain, match="not finite") as exc:
            DecisionMatrix(["S1", "S2"],
                           [[50.0, 3.0, 4.0], [50.0, value, 4.0]],
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
            DecisionMatrix(ids, values, self.CRITERIA)
        assert (exc.value.row, exc.value.column) == (2, "Art")
        with pytest.raises(OutOfDomain) as exc:
            DecisionMatrix(ids, values, self.CRITERIA, clamp=True)
        assert (exc.value.row, exc.value.column) == (3, "Math")
        with pytest.raises(DuplicateName):
            DecisionMatrix(ids[:2] + ids[3:], values[[0, 1, 3]],
                           self.CRITERIA, clamp=True)

    def test_array_input(self):
        m = DecisionMatrix(["S1", "S2"],
                           np.array([[50.0, 3.0, 4.0], [70.0, 2.0, 5.0]]),
                           self.CRITERIA)
        assert m.ids == ("S1", "S2")
        assert m.values.tolist() == [[50.0, 3.0, 4.0], [70.0, 2.0, 5.0]]
        with pytest.raises(LengthMismatch):
            DecisionMatrix(["S1"], np.ones((1, 2)), self.CRITERIA)
        # a bad cell before the first repeated id is reported first
        values = np.array([[50.0, 3.0, 4.0], [50.0, 3.0, 9.0],
                           [50.0, 3.0, 4.0]])
        with pytest.raises(OutOfDomain) as exc:
            DecisionMatrix(["S1", "S2", "S1"], values, self.CRITERIA)
        assert (exc.value.row, exc.value.column) == (2, "Art")
        with pytest.raises(DuplicateName, match="'S1'"):
            DecisionMatrix(["S1", "S2", "S1"], values, self.CRITERIA,
                           clamp=True)

    def test_duplicate_id(self):
        with pytest.raises(DuplicateName):
            DecisionMatrix(["S1", "S1"], [[1.0, 2, 3], [2.0, 3, 4]],
                           self.CRITERIA)

    def test_row_length(self):
        with pytest.raises(LengthMismatch):
            DecisionMatrix(["S1"], [[1.0, 2]], self.CRITERIA)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("lo,hi,record", [
        # the inverted domain is refused before any cell or id is read
        (5.0, 1.0, {
            "error": "DegenerateDomain",
            "message": "criterion 'x': v_min (5.0) must be strictly below "
                       "v_max (1.0)"}),
        # the NaN in row 1 comes before the repeat in row 2
        (1.0, 5.0, {
            "error": "OutOfDomain",
            "message": "alternative 'a', criterion 'x': value nan is not "
                       "finite", "row": 1, "column": "x"}),
    ])
    def test_repeat_nan_and_domain_record(self, lo, hi, record, clamp):
        with pytest.raises(ValidationError) as exc:
            DecisionMatrix(("a", "a"), np.array([[math.nan], [7.0]]),
                           (CriterionSpec("x", lo, hi, "gain"),), clamp=clamp)
        assert exc.value.details() == record

    def test_shape_record(self):
        with pytest.raises(LengthMismatch) as exc:
            DecisionMatrix(["a"], [[1.0, 2.0]], [gain("c", 0, 10)])
        assert exc.value.details() == {
            "error": "LengthMismatch",
            "message": "values have shape (1, 2), expected (1, 1)"}

    def test_values_read_only(self):
        m = DecisionMatrix(["S1"], [[50.0, 3.0, 4.0]], self.CRITERIA)
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.0

    def test_holders_cannot_change_the_matrix(self):
        """A caller's writeable array, and the base of a read-only view,
        are copied: writing them later leaves the matrix as it was.  A
        read-only array that owns its data, as the CLI's reader hands over,
        is kept without a copy."""
        rows = [[50.0, 3.0, 4.0], [70.0, 2.0, 5.0]]
        writeable = np.array(rows)
        base = np.array(rows)
        view = base[:]
        view.flags.writeable = False
        for values, holder in ((writeable, writeable), (view, base)):
            m = DecisionMatrix(["S1", "S2"], values, self.CRITERIA)
            holder[0, 0] = 60.0
            assert m.values.tolist() == rows
        owned = np.array(rows)
        owned.flags.writeable = False
        m = DecisionMatrix(["S1", "S2"], owned, self.CRITERIA)
        assert m.values is owned
        clamped = DecisionMatrix(["S1", "S2"], owned, self.CRITERIA,
                                 clamp=True)
        assert not clamped.values.flags.writeable
        assert clamped.values.tolist() == rows

    def test_weight_vector(self):
        criteria = [gain("a", weight=2.0), gain("b", weight=1.0)]
        m = DecisionMatrix(["x"], [[1.0, 2.0]], criteria)
        w = WeightVector([c.raw_weight for c in m.criteria])
        assert w.weights.tolist() == [1.0, 0.5]


def every_record(config, matrix) -> dict:
    """One instance of each record type of the package, by type name."""
    from wmsdspace import geometry
    from wmsdspace.aggregate import compare_rankings, rank_array
    from wmsdspace.render import PlotSpec, field_cells

    w = config.weight_vector
    ranking = rank_array(matrix.ids, matrix.values[:, 0])
    spec = PlotSpec(weights=w, kind="R", grid=16)
    records = [config, config.criteria[0], w, matrix, ranking,
               compare_rankings(ranking, ranking), spec, field_cells(spec),
               geometry._edge_tables(w), geometry.isoline("R", 0.3, w)]
    return {type(r).__name__: r for r in records}


class TestRecords:
    """What each record type keeps: read-only fields, a field-wise repr,
    and value equality only for the records without arrays."""

    NAMES = ["RunConfig", "CriterionSpec", "WeightVector", "DecisionMatrix",
             "Ranking", "RankingComparison", "PlotSpec", "FieldCells",
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

    @pytest.mark.parametrize("name", sorted(
        p.name for p in FIXTURES.glob("*.json")))
    def test_parsed_configs_compare_by_value(self, name):
        text = (FIXTURES / name).read_text()
        a, b = parse_config(text), parse_config(text)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_replace_criteria_scores_with_their_weights(
            self, students_config, students_matrix):
        criteria = tuple(CriterionSpec(c.name, c.v_min, c.v_max, c.kind,
                                       weight)
                         for c, weight in zip(students_config.criteria,
                                              (1.0, 0.2, 0.4)))
        changed = students_config.replace(criteria=criteria)
        assert changed.weights.weights.tolist() == [1.0, 0.2, 0.4]
        doc = json.loads((FIXTURES / "students_config.json").read_text())
        for entry, weight in zip(doc["criteria"], (1.0, 0.2, 0.4)):
            entry["weight"] = weight
        parsed = parse_config(json.dumps(doc))
        assert changed == parsed
        got, want = (_ranking(students_matrix, c) for c in (changed, parsed))
        assert got.scores.tolist() == want.scores.tolist()
        assert got.scores.tolist() != _ranking(
            students_matrix, students_config).scores.tolist()

    def test_array_records_compare_by_identity(self, students_matrix):
        m = students_matrix
        copy = DecisionMatrix(m.ids, m.values, m.criteria)
        assert copy != m and copy == copy
        # field by field the same: the checked values are kept, not copied
        assert list(vars(copy)) == list(vars(m)) == ["ids", "values",
                                                     "criteria"]
        assert copy.ids == m.ids and copy.criteria == m.criteria
        assert copy.values is m.values
        assert repr(copy) == repr(m) and "criteria" not in repr(m)
