"""One-vs-rest maximum-margin linear classifier trained by subgradient descent.

Training minimizes, per class, the regularized mean hinge loss with full-batch
subgradient steps. Batch (rather than per-example) updates make the training
deterministic and invariant to duplicating the dataset, which is what the
harness relies on for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = ["LinearModel", "train_classifier"]


@dataclass(frozen=True)
class LinearModel:
    """Per-class weight vectors and biases over raw (unstandardized) features."""

    classes: np.ndarray
    weights: np.ndarray = field(repr=False)
    biases: np.ndarray

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        return x @ self.weights.T + self.biases

    def predict(self, features: np.ndarray) -> np.ndarray:
        scores = self.decision_function(features)
        # argmax picks the first maximum, and classes are sorted ascending,
        # so ties resolve to the lowest label
        return self.classes[np.argmax(scores, axis=1)]


def train_classifier(
    features: np.ndarray,
    labels: np.ndarray,
    reg: float = 1e-3,
    epochs: int = 300,
) -> LinearModel:
    """Fit one hinge-loss separator per class on standardized features.

    The standardization is folded back into the returned weights and biases, so
    the model scores raw features directly. Training is deterministic.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ParameterError("training set must be a nonempty 2-D feature matrix")
    if x.shape[0] != y.shape[0]:
        raise ParameterError("feature and label counts differ")
    if not (0.0 <= reg < np.inf):
        raise ParameterError(f"reg must be finite and >= 0, got {reg}")
    if epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {epochs}")
    classes = np.unique(y)
    if classes.size < 2:
        raise ParameterError("training set must contain at least two classes")

    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0.0] = 1.0
    z = (x - mu) / sd

    n, dim = z.shape
    targets = np.where(y[:, None] == classes[None, :], 1.0, -1.0)  # n x C
    w = np.zeros((classes.size, dim))
    b = np.zeros(classes.size)
    for epoch in range(1, epochs + 1):
        margins = targets * (z @ w.T + b)  # n x C
        viol = (margins < 1.0) * targets  # n x C, +-1 on violators
        grad_w = reg * w - (viol.T @ z) / n
        grad_b = -viol.mean(axis=0)
        eta = 1.0 / (reg * epoch + 10.0)
        w -= eta * grad_w
        b -= eta * grad_b

    w_raw = w / sd
    b_raw = b - (w * (mu / sd)).sum(axis=1)
    return LinearModel(
        classes=classes,
        weights=w_raw,
        biases=b_raw,
    )
