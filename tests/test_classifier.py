import numpy as np
import pytest

from slepmoments import ParameterError
from slepmoments.classifier import train_classifier, train_classifiers

from oracles import reference_train_classifier


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
    xs = [rng.random((15, 4)) for _ in range(3)]
    ys = [rng.permutation(np.arange(15) % 3 + 1) for _ in range(3)]
    stacked = train_classifiers((x for x in xs), ys, reg=1e-2, epochs=80)
    for model, x, y in zip(stacked, xs, ys):
        single = train_classifier(x, y, reg=1e-2, epochs=80)
        assert model.weights.tobytes() == single.weights.tobytes()
        assert model.biases.tobytes() == single.biases.tobytes()


@pytest.mark.parametrize("second, match", [
    ((np.zeros((4, 2)), np.array([1, 3, 1, 3])), "class set"),
    ((np.zeros((6, 2)), np.array([1, 2, 1, 2, 1, 2])), "n and d"),
    ((np.zeros((4, 3)), np.array([1, 2, 1, 2])), "n and d"),
], ids=["classes", "n", "d"])
def test_stacked_sets_must_match(second, match):
    first = (np.zeros((4, 2)), np.array([1, 2, 1, 2]))
    with pytest.raises(ParameterError, match=match):
        train_classifiers([first[0], second[0]], [first[1], second[1]])


@pytest.mark.parametrize("sets, labels", [
    ([np.zeros((2, 1))], [np.array([1, 2]), np.array([1, 2])]),
    ([np.zeros((2, 1)), np.zeros((2, 1))], [np.array([1, 2])]),
    ([], []),
], ids=["fewer-features", "fewer-labels", "none"])
def test_stacked_sets_need_one_label_vector_each(sets, labels):
    with pytest.raises(ParameterError):
        train_classifiers(sets, labels)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_features_rejected(value):
    x = np.array([[0.0], [1.0], [2.0]])
    x[1, 0] = value
    with pytest.raises(ParameterError, match="finite"):
        train_classifier(x, np.array([1, 2, 1]))
