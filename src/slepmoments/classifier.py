"""One-vs-rest linear classifier trained by a fixed number of subgradient-descent epochs.

Training takes, per class, full-batch subgradient steps on the regularized
mean hinge loss for a fixed epoch count. It is not a maximum-margin solve: it
stops unconverged, and on the 384-image synthetic `sweep` corpus the objective
after the default 300 epochs is typically six to seven times the optimum.
Batch (rather than per-example) updates make the training deterministic and
invariant to duplicating the dataset, which is what the harness relies on for
reproducibility. ``train_classifiers`` runs the fits of several same-sized
training sets as one stack, each slice bit for bit the fit of its set alone;
``train_classifier`` is its stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dpss import _check_integer
from .errors import ParameterError

__all__ = ["LinearModel", "train_classifier", "train_classifiers"]


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
    return train_classifiers([features], [labels], reg=reg, epochs=epochs)[0]


def train_classifiers(
    features,
    labels,
    reg: float = 1e-3,
    epochs: int = 300,
) -> list[LinearModel]:
    """Fit one model per training set, all in one stacked epoch loop.

    ``labels`` is a sequence of label vectors and ``features`` an iterable of
    as many n x d matrices, read once and in order; a generator lets the caller
    hold one training set at a time, since only the standardized stack is kept.
    Every set must share one n, d and class set. Each returned model is bit for
    bit the one ``train_classifier`` fits on that set alone: the standardization
    is per set, and each batched product runs the same BLAS call per slice.
    """
    if not (0.0 <= reg < np.inf):
        raise ParameterError(f"reg must be finite and >= 0, got {reg}")
    _check_integer("epochs", epochs)
    if epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {epochs}")
    ys = [np.asarray(y) for y in labels]
    z = None
    mus, sds = [], []
    for i, x in enumerate(features):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ParameterError("training set must be a nonempty 2-D feature matrix")
        if i >= len(ys) or x.shape[0] != ys[i].shape[0]:
            raise ParameterError("feature and label counts differ")
        if not np.all(np.isfinite(x)):
            raise ParameterError("training features must be finite")
        if z is None:
            z = np.empty((len(ys), *x.shape))
        elif x.shape != z.shape[1:]:
            raise ParameterError("stacked training sets must share one n and d")
        mu = x.mean(axis=0)
        sd = x.std(axis=0)
        sd[sd == 0.0] = 1.0
        np.divide(np.subtract(x, mu, out=z[i]), sd, out=z[i])
        mus.append(mu)
        sds.append(sd)
    if len(mus) != len(ys) or not ys:
        raise ParameterError("need one feature matrix per label vector, and at least one")
    classes = np.unique(ys[0])
    if classes.size < 2:
        raise ParameterError("training set must contain at least two classes")
    if any(not np.array_equal(np.unique(y), classes) for y in ys[1:]):
        raise ParameterError("stacked training sets must share one class set")

    n, dim = z.shape[1:]
    targets = np.where(np.stack(ys)[:, :, None] == classes, 1.0, -1.0)  # B x n x C
    w = np.zeros((len(ys), classes.size, dim))
    b = np.zeros((len(ys), classes.size))
    for epoch in range(1, epochs + 1):
        margins = targets * (z @ w.transpose(0, 2, 1) + b[:, None, :])  # B x n x C
        viol = (margins < 1.0) * targets  # B x n x C, +-1 on violators
        grad_w = reg * w - (viol.transpose(0, 2, 1) @ z) / n
        grad_b = -viol.mean(axis=1)
        eta = 1.0 / (reg * epoch + 10.0)
        w -= eta * grad_w
        b -= eta * grad_b

    return [
        LinearModel(
            classes=classes,
            weights=wi / sd,
            biases=bi - (wi * (mu / sd)).sum(axis=1),
        )
        for wi, bi, mu, sd in zip(w, b, mus, sds)
    ]
