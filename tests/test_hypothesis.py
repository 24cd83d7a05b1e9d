"""Base classifiers, dictionaries, and convex combinations."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from npconvex.errors import (BaseRangeError, DimensionMismatch, DomainError,
                             EmptyData, NonFiniteValue, SchemaError)
from npconvex.hypothesis import (BaseDictionary, CombinedClassifier,
                                 ConstantClassifier, DecisionStump,
                                 FunctionClassifier, SimplexWeights,
                                 build_stump_dictionary)


def test_stump_evaluation():
    s = DecisionStump(0, 0.5, 1)
    X = np.array([[0.2], [0.5], [0.7]])
    assert list(s.evaluate_batch(X)) == [1.0, 1.0, -1.0]
    flipped = DecisionStump(0, 0.5, -1)
    assert list(flipped.evaluate_batch(X)) == [-1.0, -1.0, 1.0]


def test_stump_validation():
    with pytest.raises(DomainError):
        DecisionStump(0, 0.5, 2)
    with pytest.raises(DomainError):
        DecisionStump(-1, 0.5, 1)
    with pytest.raises(DomainError, match="NaN"):
        DecisionStump(0, float("nan"), 1)
    with pytest.raises(DomainError, match="NaN"):
        BaseDictionary.from_json({"bases": [{"kind": "stump", "axis": 0,
                                             "threshold": float("nan"), "polarity": 1}]})
    # infinite thresholds are constant stumps, and allowed
    X = np.array([[-np.inf], [0.0], [np.inf]])
    assert list(DecisionStump(0, np.inf, 1).evaluate_batch(X)) == [1.0, 1.0, 1.0]
    assert list(DecisionStump(0, -np.inf, 1).evaluate_batch(X)) == [1.0, -1.0, -1.0]


def test_constant_validation():
    ConstantClassifier(-1.0)
    ConstantClassifier(0.25)
    with pytest.raises(DomainError):
        ConstantClassifier(1.5)


def test_combined_is_linear_in_weights():
    rng = np.random.default_rng(3)
    d = BaseDictionary([DecisionStump(0, 0.3, 1), DecisionStump(1, -0.2, -1),
                        ConstantClassifier(0.5)], dim=2)
    X = rng.uniform(-1, 1, (40, 2))
    H = d.evaluate_matrix(X)
    for _ in range(20):
        raw = rng.random(3)
        lam = raw / raw.sum()
        h = CombinedClassifier(d, SimplexWeights(lam))
        direct = h.evaluate_batch(X)
        assert np.max(np.abs(direct - H @ lam)) < 1e-12


def test_predict_sign_tie_goes_positive():
    d = BaseDictionary([ConstantClassifier(1.0), ConstantClassifier(-1.0)])
    h = CombinedClassifier(d, SimplexWeights([0.5, 0.5]))
    assert list(h.predict_sign_batch(np.zeros((3, 1)))) == [1, 1, 1]


def test_simplex_weights_validation():
    w = SimplexWeights([0.25, 0.75])
    assert w.m == 2
    assert not w.lam.flags.writeable
    with pytest.raises(DomainError):
        SimplexWeights([0.5, 0.4])
    with pytest.raises(DomainError):
        SimplexWeights([-0.1, 1.1])
    with pytest.raises(DomainError):
        SimplexWeights([np.nan, 1.0])
    # float dust below the tolerance is forgiven and clipped
    tiny = SimplexWeights([1.0 + 1e-13, -1e-13])
    assert tiny.lam[1] == 0.0


def test_weight_count_must_match():
    d = BaseDictionary([ConstantClassifier(0.0)])
    with pytest.raises(DimensionMismatch):
        CombinedClassifier(d, SimplexWeights([0.5, 0.5]))


def test_dictionary_range_check():
    class Loud:
        def evaluate_batch(self, X):
            return np.full(X.shape[0], 1.5)

        def min_dim(self):
            return 1

    d = BaseDictionary([Loud()])
    with pytest.raises(BaseRangeError):
        d.evaluate_matrix(np.zeros((2, 1)))


def test_dimension_checks():
    d = BaseDictionary([DecisionStump(1, 0.0, 1)])
    with pytest.raises(DimensionMismatch):
        d.evaluate_matrix(np.zeros((3, 1)))
    fixed = BaseDictionary([DecisionStump(0, 0.0, 1)], dim=2)
    with pytest.raises(DimensionMismatch):
        fixed.evaluate_matrix(np.zeros((3, 1)))


def test_build_stump_dictionary_count_and_order():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (100, 2))
    d = build_stump_dictionary(X, 3)
    assert d.m == 12  # 2 axes x 3 thresholds x 2 polarities
    assert d.dim == 2
    assert all(isinstance(b, DecisionStump) for b in d.bases)
    # axis-major ordering, +1 polarity first
    assert [b.axis for b in d.bases] == [0] * 6 + [1] * 6
    assert [b.polarity for b in d.bases[:2]] == [1, -1]
    # thresholds are the 1/4, 2/4, 3/4 quantiles
    want = np.quantile(X[:, 0], [0.25, 0.5, 0.75])
    got = [b.threshold for b in d.bases[:6:2]]
    assert np.allclose(got, want)


def test_build_stump_dictionary_dedup_and_determinism():
    X = np.zeros((50, 1))  # all thresholds collide
    d = build_stump_dictionary(X, 4)
    assert d.m == 2
    Y = np.random.default_rng(9).normal(size=(64, 3))
    a = build_stump_dictionary(Y, 2)
    b = build_stump_dictionary(Y, 2)
    assert [x.to_json() for x in a.bases] == [x.to_json() for x in b.bases]
    with pytest.raises(EmptyData):
        build_stump_dictionary(np.empty((0, 1)), 2)
    with pytest.raises(DomainError):
        build_stump_dictionary(X, 0)


def test_build_stump_dictionary_rejects_nan_data():
    # np.quantile turns one NaN into all-NaN thresholds, each stump then
    # the constant -polarity
    Y = np.random.default_rng(4).normal(size=(40, 2))
    Y[17, 1] = np.nan
    with pytest.raises(NonFiniteValue):
        build_stump_dictionary(Y, 3)
    # infinite features still give stumps
    Y[17, 1] = np.inf
    assert build_stump_dictionary(Y, 3).m == 12


def test_build_stump_dictionary_names_the_axis_of_an_undefined_quantile():
    # np.quantile's lerp meets inf - inf here: it warned and made a NaN
    # threshold, which DecisionStump rejected as if the user had passed it
    X = np.array([[0.0, 5.0], [1.0, 6.0], [np.inf, 7.0], [np.inf, 8.0]])
    for data, axis in ((X, 0), (X[:, ::-1], 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=f"axis {axis}"):
                build_stump_dictionary(data, 3)
    # quantiles that stay finite next to an infinite value still work, warning-free
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = build_stump_dictionary(np.array([[0.0], [1.0], [2.0], [np.inf]]), 1)
        # where the lerp is NaN the lower and higher order statistics agree:
        # at interpolation weight 0, or between two equal infinities
        at_weight_0 = build_stump_dictionary(np.array([[0.0], [1.0], [np.inf]]), 1)
        two_infs = build_stump_dictionary(np.array([[-np.inf], [-np.inf], [0.0], [1.0]]), 3)
    assert [b.threshold for b in d.bases] == [1.5, 1.5]
    assert [b.threshold for b in at_weight_0.bases] == [1.0, 1.0]
    assert [b.threshold for b in two_infs.bases] == [-np.inf, -np.inf, 0.25, 0.25]
    # the level-1/2 quantile of [0, 1, inf, inf] lies between 1 and inf
    with pytest.raises(NonFiniteValue, match="axis 0"):
        build_stump_dictionary(np.array([[0.0], [1.0], [np.inf], [np.inf]]), 1)


def _unsorted_thresholds(column, levels):
    """Each axis's thresholds as np.quantile gives them on the raw column,
    with a zero's sign made +: the builder's only deviation from it."""
    with np.errstate(invalid="ignore"):
        t = np.quantile(column, levels)
    undefined = np.isnan(t)
    t[undefined] = np.quantile(column, levels[undefined], method="lower")
    return t + 0.0


def test_stump_thresholds_are_bitwise_those_of_the_unsorted_column():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(401, 4))
    X[:, 1] = np.round(X[:, 1], 1)  # ties, among them -0.0 and 0.0
    X[rng.choice(401, 3, replace=False), 2] = np.inf
    X[rng.choice(401, 2, replace=False), 2] = -np.inf
    X[:, 3] = np.where(X[:, 3] > 1.5, np.inf, X[:, 3])
    for T in (1, 3, 10, 50):
        levels = np.arange(1, T + 1) / (T + 1)
        got = [(b.axis, np.float64(b.threshold).tobytes(), b.polarity)
               for b in build_stump_dictionary(X, T).bases]
        want, seen = [], set()
        for axis in range(X.shape[1]):
            for t in _unsorted_thresholds(X[:, axis], levels):
                for polarity in (1, -1):
                    if (axis, float(t), polarity) not in seen:
                        seen.add((axis, float(t), polarity))
                        want.append((axis, t.tobytes(), polarity))
        assert got == want


def test_dictionary_json_round_trip():
    d = BaseDictionary([DecisionStump(0, 0.3, -1), ConstantClassifier(0.5)],
                       dim=1)
    blob = d.to_json()
    back = BaseDictionary.from_json(blob)
    assert back.m == d.m
    assert back.dim == d.dim
    X = np.linspace(-1, 1, 11).reshape(-1, 1)
    assert np.array_equal(back.evaluate_matrix(X), d.evaluate_matrix(X))


_STUMP = {"kind": "stump", "axis": 0, "threshold": 0.5, "polarity": 1}


@pytest.mark.parametrize("entry, named", [
    ({**_STUMP, "axis": 1.7}, "'axis' must be an integer, got 1.7"),
    ({**_STUMP, "polarity": 1.5}, "'polarity' must be an integer, got 1.5"),
    ({**_STUMP, "axis": True}, "'axis' must be an integer, got True"),
    ({**_STUMP, "axis": "0"}, "'axis' must be an integer, got '0'"),
    ({**_STUMP, "threshold": "0.5"}, "'threshold' must be a number, got '0.5'"),
    ({**_STUMP, "polarity": "1"}, "'polarity' must be an integer, got '1'"),
    ({**_STUMP, "threshold": False}, "'threshold' must be a number, got False"),
    ({"kind": "stump", "axis": 0, "threshold": 0.5}, "'polarity' must be an integer, got nothing"),
    ({"kind": "constant"}, "'value' must be a number, got nothing"),
    ({"kind": "constant", "value": True}, "'value' must be a number, got True"),
], ids=["axis_float", "polarity_float", "axis_bool", "axis_string", "threshold_string",
        "polarity_string", "threshold_bool", "polarity_missing", "value_missing", "value_bool"])
def test_from_json_refuses_entries_it_would_change(entry, named):
    # int(), float() and bool arithmetic once loaded these as other bases,
    # and a missing key raised a bare KeyError
    blob = {"dim": 1, "bases": [{"kind": "constant", "value": -1}, entry]}
    with pytest.raises(SchemaError, match=f"^dictionary JSON base 1 {named}$"):
        BaseDictionary.from_json(blob)


def test_from_json_refuses_a_dim_that_is_not_a_positive_integer():
    # after "dim": "2" every batch failed: "data has dimension 2, dictionary expects 2"
    for dim in ("2", 0, -1, 1.0, True):
        with pytest.raises(SchemaError, match="'dim' must be a positive integer or null"):
            BaseDictionary.from_json({"dim": dim, "bases": [_STUMP]})
    # integer thresholds and values are numbers, and dim may be null
    d = BaseDictionary.from_json({"dim": None, "bases": [{**_STUMP, "threshold": 1},
                                                         {"kind": "constant", "value": 0}]})
    assert d.dim is None and d.to_json()["bases"][0]["threshold"] == 1.0
    with pytest.raises(DomainError, match="unknown base kind"):
        BaseDictionary.from_json({"bases": [{"kind": "tree"}]})
    with pytest.raises(SchemaError, match="^dictionary JSON base 1 must be an object, got 1$"):
        BaseDictionary.from_json({"bases": [_STUMP, 1]})


def _mixed_dictionary(X):
    stumps = build_stump_dictionary(X, 4)
    user = FunctionClassifier(lambda row: float(np.tanh(row[0] - row[1])), "tanh")
    return BaseDictionary([ConstantClassifier(-0.5), *stumps.bases, user], dim=X.shape[1])


def test_column_means_match_matrix_means():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(700, 3))
    d = _mixed_dictionary(X)
    means = d.column_means(X)
    assert means.shape == (d.m,)
    np.testing.assert_allclose(means, d.evaluate_matrix(X).mean(axis=0), rtol=0, atol=1e-12)
    # row-major and column-major inputs give the same means
    np.testing.assert_array_equal(means, d.column_means(np.asfortranarray(X)))
    one = BaseDictionary([DecisionStump(0, 0.5, -1)])
    assert one.column_means(np.array([0.1, 0.9, 0.7])) == pytest.approx([1.0 / 3.0])


def _assert_means_bitwise(d, X):
    H = d.evaluate_matrix(X)
    got = d.column_means(X)
    # each column's own np.mean, and, where every column sum is exact,
    # the matrix mean too
    for want in (np.array([np.mean(col) for col in H.T]), H.mean(axis=0)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_column_means_are_bitwise_the_matrix_means():
    rng = np.random.default_rng(11)
    # duplicate values, with thresholds placed exactly on data values
    X = rng.integers(-3, 4, size=(501, 2)).astype(float)
    X[:, 1] += rng.choice([0.0, 0.25], size=501)
    thresholds = [-3.0, -0.5, 0.0, 0.25, 1.0, 3.25, 7.0]
    stumps = [DecisionStump(a, t, p) for a in (0, 1) for t in thresholds for p in (1, -1)]
    _assert_means_bitwise(BaseDictionary(stumps, dim=2), X)
    _assert_means_bitwise(BaseDictionary(stumps, dim=2), -X)
    _assert_means_bitwise(build_stump_dictionary(X, 9), X)
    # signed zeros compare equal
    Z = np.array([[-0.0], [0.0], [0.0], [1.0]])
    _assert_means_bitwise(BaseDictionary([DecisionStump(0, 0.0, 1),
                                          DecisionStump(0, -0.0, -1)]), Z)
    # infinite thresholds, and infinite features
    inf = BaseDictionary([DecisionStump(0, np.inf, 1), DecisionStump(0, -np.inf, 1),
                          DecisionStump(0, np.inf, -1), DecisionStump(0, -np.inf, -1),
                          DecisionStump(0, 0.0, 1)])
    _assert_means_bitwise(inf, X[:, :1])
    _assert_means_bitwise(inf, np.array([[-np.inf], [1.0], [np.inf], [np.inf]]))
    # NaN features (allowed through the Python API) count as above every
    # threshold, +inf included
    W = X.copy()
    W[::7, 0] = np.nan
    _assert_means_bitwise(BaseDictionary(stumps, dim=2), W)
    _assert_means_bitwise(inf, W[:, :1])
    # a single row
    for row in (X[:1], W[:1], np.array([[np.nan, 0.25]])):
        _assert_means_bitwise(BaseDictionary(stumps, dim=2), row)
    # stumps mixed with a constant and a user function, which keep their
    # own path (dyadic user values, so that every column sum is exact)
    Y = rng.normal(size=(333, 2))
    user = FunctionClassifier(lambda row: float(np.round(np.tanh(row[0] - row[1]) * 8) / 8))
    mixed = BaseDictionary([ConstantClassifier(-0.5), *build_stump_dictionary(Y, 4).bases,
                            user], dim=2)
    for rows in (Y, Y[4:5]):
        _assert_means_bitwise(mixed, rows)
    d = _mixed_dictionary(Y)
    H = d.evaluate_matrix(Y)
    assert d.column_means(Y).tobytes() == np.array([np.mean(col) for col in H.T]).tobytes()


def test_stump_subclasses_keep_their_own_evaluation():
    class Soft(DecisionStump):
        def evaluate_batch(self, X):
            return 0.5 * super().evaluate_batch(X)

    X = np.array([[0.1], [0.4], [0.9]])
    d = BaseDictionary([Soft(0, 0.5, 1), DecisionStump(0, 0.5, 1)])
    np.testing.assert_array_equal(d.column_means(X), [1.0 / 6.0, 1.0 / 3.0])


def test_column_means_name_a_bad_base_after_the_stumps():
    X = np.array([[0.2, 1.0], [0.7, -4.0], [0.9, 0.0]])
    bad = FunctionClassifier(lambda row: float(row[1]), "second feature")
    d = BaseDictionary([DecisionStump(0, 0.5, 1), ConstantClassifier(0.5),
                        DecisionStump(1, 0.0, -1), bad], dim=2)
    with pytest.raises(BaseRangeError) as from_matrix:
        d.evaluate_matrix(X)
    with pytest.raises(BaseRangeError) as from_means:
        d.column_means(X)
    assert str(from_means.value) == str(from_matrix.value) == (
        "base 3 returned -4.0, outside [-1, 1]")


def test_column_means_errors_match_evaluate_matrix():
    X = np.array([[0.0, 1.0], [2.0, 0.0], [-3.0, 0.5]])

    def bad(row):
        return float(row[0])  # leaves [-1, 1] on the last two rows

    # |h| = 3 is reached twice: in one row, and in two different rows
    for other in (lambda row: -float(row[0]), lambda row: 3.0 * float(row[1])):
        d = BaseDictionary([ConstantClassifier(1.0), FunctionClassifier(bad, "bad"),
                            FunctionClassifier(other, "other")])
        with pytest.raises(BaseRangeError) as from_matrix:
            d.evaluate_matrix(X)
        with pytest.raises(BaseRangeError) as from_means:
            d.column_means(X)
        assert str(from_means.value) == str(from_matrix.value)

    # NaN fails the range check too and, within one column, wins over a
    # larger finite value in any row; across columns the first failing
    # base is the one named
    def nan_at(i):
        return lambda row: np.nan if row[0] == X[i, 0] else float(row[0])

    for columns, named in (((nan_at(2), bad), "base 0 returned nan"),
                           ((nan_at(1), nan_at(2)), "base 0 returned nan"),
                           ((lambda row: 0.0, nan_at(1)), "base 1 returned nan"),
                           ((bad, nan_at(1)), "base 0 returned -3.0")):
        d = BaseDictionary([FunctionClassifier(fn) for fn in columns])
        with pytest.raises(BaseRangeError, match=f"^{named}, ") as from_matrix:
            d.evaluate_matrix(X)
        with pytest.raises(BaseRangeError) as from_means:
            d.column_means(X)
        assert str(from_means.value) == str(from_matrix.value)

    narrow = BaseDictionary([DecisionStump(1, 0.0, 1)])
    fixed = BaseDictionary([DecisionStump(0, 0.0, 1)], dim=2)
    for dictionary, data in ((narrow, np.zeros((3, 1))), (fixed, np.zeros((3, 1))),
                             (fixed, np.zeros((2, 2, 2)))):
        with pytest.raises(DimensionMismatch):
            dictionary.evaluate_matrix(data)
        with pytest.raises(DimensionMismatch):
            dictionary.column_means(data)
    # zero rows: an empty (0, M) matrix, but no column means
    wide = BaseDictionary([ConstantClassifier(1.0), DecisionStump(1, 0.0, -1),
                           FunctionClassifier(bad)], dim=2)
    for dictionary in (fixed, wide):
        H = dictionary.evaluate_matrix(np.zeros((0, 2)))
        assert H.shape == (0, dictionary.m)
        with pytest.raises(EmptyData):
            dictionary.column_means(np.zeros((0, 2)))


def test_first_base_out_of_range_is_named_and_later_bases_are_not_called():
    X = np.array([[0.0], [1.0]])
    calls = []

    def spy(row):
        calls.append(row)
        return 0.0

    d = BaseDictionary([FunctionClassifier(lambda row: 3.0),
                        FunctionClassifier(lambda row: np.nan),
                        FunctionClassifier(spy)])
    for evaluate in (d.evaluate_matrix, d.column_means, d.operator):
        with pytest.raises(BaseRangeError,
                           match=r"^base 0 returned 3\.0, outside \[-1, 1\]$"):
            evaluate(X)
    assert calls == []


def _tanh_of(axis):
    return lambda row: 0.0 if np.isnan(row[axis]) else float(np.tanh(row[axis]))


def _random_mixed_dictionary(rng, d):
    """Stumps on any axis (both polarities, duplicate and +-inf
    thresholds), constants and a user function, in a shuffled order."""
    grid = np.array([-np.inf, -1.0, -0.5, 0.0, 0.5, 1.0, np.inf])
    bases = [DecisionStump(int(a), float(rng.choice(grid)), int(rng.choice([-1, 1])))
             for a in rng.integers(0, d, size=int(rng.integers(0, 25)))]
    bases += [ConstantClassifier(float(c)) for c in rng.uniform(-1, 1, rng.integers(1, 3))]
    if rng.random() < 0.5:
        bases.append(FunctionClassifier(_tanh_of(d - 1), "tanh"))
    return BaseDictionary([bases[i] for i in rng.permutation(len(bases))], dim=d)


def _random_features(rng, n, d):
    """Features on the threshold grid, +-inf and NaN, among normal draws."""
    X = rng.normal(size=(n, d))
    special = rng.random((n, d))
    X[special < 0.3] = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=int(np.sum(special < 0.3)))
    X[special > 0.95] = np.inf
    X[(special > 0.9) & (special <= 0.95)] = -np.inf
    X[(special > 0.85) & (special <= 0.9)] = np.nan
    return X


def test_operator_matches_the_dense_matrix():
    rng = np.random.default_rng(17)
    for trial in range(60):
        d = int(rng.integers(1, 4))
        dictionary = _random_mixed_dictionary(rng, d)
        X = _random_features(rng, int(rng.integers(1, 300)), d)
        H = dictionary.evaluate_matrix(X)
        op = dictionary.operator(X)
        assert op.shape == H.shape
        for _ in range(3):
            lam = rng.dirichlet(np.ones(dictionary.m))
            v = rng.normal(size=X.shape[0])
            np.testing.assert_allclose(op.matvec(lam), H @ lam, rtol=0, atol=1e-12)
            np.testing.assert_allclose(op.rmatvec(v), H.T @ v, rtol=0, atol=1e-12)


def test_operator_without_stumps_or_constants_is_the_matrix_product():
    rng = np.random.default_rng(5)
    X = _random_features(rng, 400, 2)
    dictionary = BaseDictionary([
        FunctionClassifier(_tanh_of(0)), FunctionClassifier(_tanh_of(1)),
        FunctionClassifier(lambda row: 0.5)], dim=2)
    H = dictionary.evaluate_matrix(X)
    op = dictionary.operator(X)
    for _ in range(5):
        lam = rng.dirichlet(np.ones(3))
        v = rng.normal(size=400)
        assert op.matvec(lam).tobytes() == (H @ lam).tobytes()
        assert op.rmatvec(v).tobytes() == (H.T @ v).tobytes()


def test_operator_range_errors_match_evaluate_matrix():
    X = np.array([[0.2, 1.0], [0.7, -4.0], [0.9, 0.0]])
    for value in (3.0, np.nan):
        d = BaseDictionary([DecisionStump(0, 0.5, 1), ConstantClassifier(0.5),
                            FunctionClassifier(lambda row, v=value: v if row[1] < 0 else 0.0),
                            DecisionStump(1, 0.0, -1)], dim=2)
        with pytest.raises(BaseRangeError) as from_matrix:
            d.evaluate_matrix(X)
        with pytest.raises(BaseRangeError) as from_operator:
            d.operator(X)
        assert str(from_operator.value) == str(from_matrix.value) == (
            f"base 2 returned {value!r}, outside [-1, 1]")


def test_min_dim_is_read_once_per_dictionary():
    calls = []

    class Spy:
        def evaluate_batch(self, X):
            return np.zeros(X.shape[0])

        def min_dim(self):
            calls.append(1)
            return 1

    d = BaseDictionary([Spy(), DecisionStump(0, 0.5, 1), ConstantClassifier(0.5)])
    X = np.array([[0.2], [0.7]])
    for _ in range(3):
        d.evaluate_matrix(X)
        d.column_means(X)
        d.operator(X)
    assert calls == [1]
    with pytest.raises(DimensionMismatch, match="needs at least 2"):
        BaseDictionary([Spy(), DecisionStump(1, 0.0, 1)]).column_means(X)


def test_operator_never_evaluates_stock_stumps_or_constants(monkeypatch):
    calls = []
    for cls in (DecisionStump, ConstantClassifier):
        def spy(self, X, evaluate=cls.evaluate_batch):
            calls.append(type(self).__name__)
            return evaluate(self, X)
        monkeypatch.setattr(cls, "evaluate_batch", spy)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 2))
    d = BaseDictionary([ConstantClassifier(-1.0), *build_stump_dictionary(X, 3).bases,
                        FunctionClassifier(_tanh_of(1))], dim=2)
    op = d.operator(X)
    assert calls == []
    H = d.evaluate_matrix(X)  # the referees' path still evaluates every base
    assert calls == ["ConstantClassifier"] + ["DecisionStump"] * (d.m - 2)
    lam = rng.dirichlet(np.ones(d.m))
    np.testing.assert_allclose(op.matvec(lam), H @ lam, rtol=0, atol=1e-12)
