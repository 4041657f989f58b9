import numpy as np
import pytest

from slepmoments import ParameterError
from slepmoments.classifier import train_classifier


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
