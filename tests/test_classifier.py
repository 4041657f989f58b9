import numpy as np
import pytest

from slepmoments import ParameterError, classifier, make_synthetic_dataset
from slepmoments.classifier import _FITS_PER_CALL, _distinct, train_classifier, train_classifiers

from oracles import hinge_objective, hinge_optimum, reference_train_classifier


def test_separable_one_dimensional():
    x = np.array([[0.0], [1.0], [0.0], [1.0]])
    y = np.array([1, 2, 1, 2])
    for reg in (0.0, 1e-4, 0.1):
        model = train_classifier(x, y, reg=reg, epochs=200)
        assert np.array_equal(model.predict(x), y)


def test_three_gaussian_blobs(rng):
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    xs, ys = [], []
    for label, c in enumerate(centers, start=1):
        xs.append(c + rng.normal(0, 1.0, (50, 2)))
        ys.append(np.full(50, label))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    order = rng.permutation(x.shape[0])
    train_idx, test_idx = order[:90], order[90:]
    model = train_classifier(x[train_idx], y[train_idx], reg=1e-3, epochs=300)
    acc = (model.predict(x[test_idx]) == y[test_idx]).mean()
    assert acc >= 0.95


def test_duplication_leaves_decision_function_unchanged(rng):
    x = rng.random((20, 5))
    y = np.concatenate([np.ones(10, int), np.full(10, 2)])
    base = train_classifier(x, y, reg=1e-3, epochs=150)
    doubled = train_classifier(
        np.vstack([x, x]), np.concatenate([y, y]), reg=1e-3, epochs=150
    )
    probe = rng.random((7, 5))
    assert np.abs(
        base.decision_function(probe) - doubled.decision_function(probe)
    ).max() < 1e-9


def test_single_class_rejected():
    with pytest.raises(ParameterError):
        train_classifier(np.zeros((4, 2)), np.ones(4, int))


@pytest.mark.parametrize("reg", [float("nan"), float("inf")])
def test_non_finite_reg_rejected(reg):
    x = np.array([[0.0], [1.0]])
    with pytest.raises(ParameterError, match="reg"):
        train_classifier(x, np.array([1, 2]), reg=reg)


@pytest.mark.parametrize("reg", [True, np.False_, "1e-3", None],
                         ids=["bool", "numpy-bool", "str", "none"])
def test_reg_must_be_a_real_number(reg):
    x = np.array([[0.0], [1.0]])
    with pytest.raises(ParameterError) as exc:
        train_classifier(x, np.array([1, 2]), reg=reg)
    assert str(exc.value) == f"reg must be a real number, got {reg!r}"


def test_ties_break_to_lowest_label():
    x = np.zeros((4, 3))
    y = np.array([3, 5, 3, 5])
    model = train_classifier(x, y, reg=1.0, epochs=1)
    # all-zero features give identical class scores; argmax picks lowest label
    assert np.all(model.predict(np.zeros((2, 3))) == 3)


def test_training_is_deterministic(rng):
    x = rng.random((30, 4))
    y = rng.integers(1, 4, 30)
    if len(np.unique(y)) < 2:
        y[0], y[1] = 1, 2
    a = train_classifier(x, y, reg=1e-3, epochs=100)
    b = train_classifier(x, y, reg=1e-3, epochs=100)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


def test_training_matches_the_two_dimensional_reference(rng):
    x = rng.normal(0.0, 1.0, (40, 7)) * rng.uniform(0.1, 10.0, 7)
    x[:, 3] = 2.5  # a constant column keeps its unit scale
    y = rng.integers(1, 5, 40)
    a = train_classifier(x, y)
    b = reference_train_classifier(x, y)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.biases.tobytes() == b.biases.tobytes()


def test_stacked_fits_equal_single_fits(rng):
    x = rng.random((30, 4))
    y = np.arange(30) % 3 + 1
    by_class = [np.flatnonzero(y == c) for c in (1, 2, 3)]
    # more same-shaped subsets than one stack takes, then other sizes, other
    # class sets and slices, in a mixed order
    subsets = [np.concatenate([rng.permutation(rows)[:4] for rows in by_class])
               for _ in range(_FITS_PER_CALL + 2)]
    subsets[3:3] = [np.concatenate(by_class[:2]), slice(None), slice(1, 20, 2)]
    subsets.append(np.concatenate([rng.permutation(rows)[:2] for rows in by_class[1:]]))
    assert len({(y[rows].size, *np.unique(y[rows])) for rows in subsets}) == 5

    stacked = train_classifiers(x, y, subsets, reg=1e-2, epochs=80)
    assert len(stacked) == len(subsets)
    for model, rows in zip(stacked, subsets):
        single = train_classifier(x[rows], y[rows], reg=1e-2, epochs=80)
        assert model.weights.tobytes() == single.weights.tobytes()
        assert model.biases.tobytes() == single.biases.tobytes()
    assert train_classifiers(x, y, []) == []


def _same_model(a, b) -> bool:
    return a.weights.tobytes() == b.weights.tobytes() and a.biases.tobytes() == b.biases.tobytes()


def _noisy(rng, n=40, classes=3):
    # labels that ignore the features: no separator exists, so violators keep moving
    return rng.normal(0.0, 1.0, (n, 3)), np.arange(n) % classes + 1


def _separable(rng, n=20):
    # two distant blobs: every row clears its margin within a few dozen epochs
    y = np.repeat([1, 2], n // 2)
    return rng.normal(0.0, 0.5, (n, 3)) + 4.0 * (y[:, None] == 2), y


@pytest.fixture()
def loss_products(monkeypatch):
    """Each fit's count of loss-gradient products in one training call, in stack order."""
    counts = {}
    real = classifier._loss_gradient

    def spy(violators, targets, z, *out):
        counts[z.ctypes.data] = counts.get(z.ctypes.data, 0) + 1
        real(violators, targets, z, *out)

    monkeypatch.setattr(classifier, "_loss_gradient", spy)
    return counts


def test_a_fit_whose_violators_keep_moving_matches_the_reference(rng, loss_products):
    x, y = _noisy(rng)
    assert _same_model(train_classifier(x, y), reference_train_classifier(x, y))
    (recomputed,) = loss_products.values()
    loss_products.clear()
    train_classifier(x, y, epochs=299)
    (before_the_last,) = loss_products.values()
    # most epochs move the violator set, the last one included
    assert recomputed > 250 and recomputed == before_the_last + 1


def test_a_fit_whose_violators_empty_early_matches_the_reference(rng, loss_products):
    x, y = _separable(rng)
    assert _same_model(train_classifier(x, y), reference_train_classifier(x, y))
    (recomputed,) = loss_products.values()
    assert recomputed < 30


def test_a_stack_of_moving_and_settled_fits_matches_the_reference(rng, loss_products):
    xs, ys = _separable(rng)
    xn, yn = _noisy(rng, 20, 2)
    x, y = np.vstack([xs, xn]), np.concatenate([ys, yn])
    settled, moving = np.arange(20), np.arange(20, 40)
    subsets = [settled, moving, settled[::-1], rng.permutation(moving), rng.permutation(settled)]
    for model, rows in zip(train_classifiers(x, y, subsets), subsets):
        assert _same_model(model, reference_train_classifier(x[rows], y[rows]))
    counts = list(loss_products.values())
    assert len(counts) == len(subsets)
    assert max(counts[0], counts[2], counts[4]) < 30 and min(counts[1], counts[3]) > 150


@pytest.mark.parametrize("reg, epochs", [(0.0, 300), (1e-3, 1), (0.0, 1)])
@pytest.mark.parametrize("data", [_noisy, _separable])
def test_zero_reg_and_a_single_epoch_match_the_reference(rng, data, reg, epochs):
    x, y = data(rng)
    subsets = [slice(None), rng.permutation(y.size), slice(None, None, -1)]
    for model, rows in zip(train_classifiers(x, y, subsets, reg=reg, epochs=epochs), subsets):
        assert _same_model(model, reference_train_classifier(x[rows], y[rows], reg=reg,
                                                             epochs=epochs))


def test_settled_fits_reuse_their_loss_gradient(rng, loss_products):
    # a fit's loss gradient changes only with its violator set, so it is recomputed
    # at epoch 1 and when that set moves, not once per epoch
    x, y = _separable(rng, 40)
    subsets = [rng.choice(40, 30, replace=False) for _ in range(4)]
    train_classifiers(x, y, subsets, epochs=300)
    assert len(loss_products) == 4
    assert all(1 <= count <= 30 for count in loss_products.values())


@pytest.mark.parametrize("labels, subsets, match", [
    (np.array([1, 2, 1]), [slice(None)], "one label per row"),
    (np.array([1, 2, 1, 2, 1]), [slice(None)], "one label per row"),
    (np.array([1, 2, 1, 2]), [slice(None), np.array([0, 2])], "two classes"),
], ids=["fewer-labels", "more-labels", "one-class-subset"])
def test_subsets_need_one_label_per_row_and_two_classes(labels, subsets, match):
    with pytest.raises(ParameterError, match=match):
        train_classifiers(np.zeros((4, 2)), labels, subsets)


def test_training_objective_falls_with_epochs():
    ds = make_synthetic_dataset(4, 10, 1, seed=1)
    x, y = ds.features, ds.labels
    objectives = [hinge_objective(train_classifier(x, y, reg=1e-3, epochs=epochs), x, y, 1e-3)
                  for epochs in (100, 300, 1000)]
    assert np.all(objectives[1] < objectives[0])
    assert np.all(objectives[2] < objectives[1])


def test_svm_dual_oracle_meets_its_primal():
    # an optimum is certified only where its primal and dual values meet
    ds = make_synthetic_dataset(4, 10, 1, seed=1)
    for label in np.unique(ds.labels):
        primal, dual = hinge_optimum(ds.features, ds.labels, label, 1e-3)
        assert dual > 0.0 and abs(primal - dual) <= 1e-4 * dual


def test_trained_objective_is_no_less_than_the_dual_optimum():
    # weak duality: no model reaches below the dual optimum. After the default 300
    # epochs each class's objective is 5.4 to 7.1 times its optimum (1.99e-5 to
    # 2.90e-5; primal and dual meet there to 1e-14), so the fit is far from
    # converged. The gap is recorded here, not bounded
    ds = make_synthetic_dataset(4, 10, 1, seed=1)
    x, y = ds.features, ds.labels
    model = train_classifier(x, y, reg=1e-3, epochs=300)
    optima = [hinge_optimum(x, y, label, 1e-3)[1] for label in model.classes]
    assert np.all(hinge_objective(model, x, y, 1e-3) >= optima)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_features_rejected(value):
    x = np.array([[0.0], [1.0], [2.0]])
    x[1, 0] = value
    with pytest.raises(ParameterError, match="finite"):
        train_classifier(x, np.array([1, 2, 1]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("low, high, scale", [(1.0, 1.7, 1e308), (-1.0, 1.0, 1e300)],
                         ids=["mean-overflows", "spread-overflows"])
def test_features_that_overflow_their_standardization_are_refused(low, high, scale):
    # the standardization overflowed to a z of zeros, which trained all-zero weights
    # that put every row in the lowest class, with only a RuntimeWarning to show
    x = np.linspace(low, high, 40).reshape(20, 2)
    y = np.repeat([1, 2], 10)
    with pytest.raises(ParameterError, match="^training features overflow their standardization"):
        train_classifier(x * scale, y)
    assert (train_classifier(x, y).predict(x) == y).all()


@pytest.mark.filterwarnings("error")
def test_a_spread_that_underflows_is_refused():
    # the squares of spreads near 1e-300 underflow, so the std is 0 over unequal
    # values; it was taken for a constant column, and the fit put every row in one class
    x = np.linspace(-1, 1, 40).reshape(20, 2)
    y = np.repeat([1, 2], 10)
    with pytest.raises(ParameterError, match="^training features underflow their standardization"):
        train_classifier(x * 1e-300, y)
    assert (train_classifier(x, y).predict(x) == y).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [0.0, 0.1, 1e-300])
def test_a_column_of_equal_values_is_constant(value):
    # a constant column keeps a spread of 1, also where the rounded mean differs from
    # its values (0.1) or its spread underflows (1e-300), so it adds nothing to a score
    x = np.linspace(-1, 1, 20)[:, None]
    y = np.repeat([1, 2], 10)
    model = train_classifier(np.hstack([x, np.full_like(x, value)]), y)
    assert np.all(model.weights[:, 1] == 0.0)
    assert np.allclose(model.weights[:, :1], train_classifier(x, y).weights, rtol=1e-12, atol=0)


@pytest.mark.parametrize("labels", [
    np.array([3, 1, 2, 3, 1, -7]),
    np.array([2.0, np.nan, 1.0, -np.nan, np.inf, 0.0, -0.0, np.nan]),
    np.array(["b", "a", "ab", "b", ""]),
], ids=["int", "float-nan", "str"])
def test_distinct_is_np_unique(labels):
    expected = np.unique(labels)
    got = _distinct(labels)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
