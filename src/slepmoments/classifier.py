"""One-vs-rest linear classifier trained by a fixed number of subgradient-descent epochs.

Training takes, per class, full-batch subgradient steps on the regularized
mean hinge loss for a fixed epoch count. It is not a maximum-margin solve: it
stops unconverged, and on the 384-image synthetic `sweep` corpus the objective
after the default 300 epochs is typically six to seven times the optimum.
Batch (rather than per-example) updates make the training deterministic and
invariant to duplicating the dataset, which is what the harness relies on for
reproducibility. ``train_classifiers`` fits any row subsets of one labeled
matrix: it stacks the fits of subsets that share a size and class set into one
epoch loop, each model bit for bit the fit of its subset alone, so the sweep
may hand each worker process any span of its repeats. The epoch loop works in
buffers allocated once per stack. ``train_classifier`` is its fit of every
row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dpss import _check_integer, _check_real
from .errors import ParameterError

__all__ = ["LinearModel", "train_classifier", "train_classifiers"]


def _distinct(labels) -> np.ndarray:
    """The sorted distinct labels, exactly as ``np.unique(labels)`` returns them.

    ``np.unique``'s default path asks ``np.ma.is_masked`` of its input, which
    imports numpy.ma (about 14 ms and 1.2 MB of a process that masks nothing);
    the sorting path that ``return_counts`` takes never does.
    """
    return np.unique(labels, return_counts=True)[0]


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
    return train_classifiers(features, labels, [slice(None)], reg=reg, epochs=epochs)[0]


# Most fits one epoch loop stacks (the sweep's default repeat count), so the
# stack of standardized training sets stays O(10 n d) however many are fitted.
_FITS_PER_CALL = 10


def train_classifiers(
    features: np.ndarray,
    labels: np.ndarray,
    subsets,
    reg: float = 1e-3,
    epochs: int = 300,
) -> list[LinearModel]:
    """Fit one model per row subset of one labeled matrix, in order.

    ``features`` is an n x d matrix, ``labels`` its n labels, and each subset an
    index array or slice into their rows. Subsets that share a size and class
    set train together, up to ten in one stacked epoch loop. Each returned model
    is bit for bit the one ``train_classifier`` fits on that subset alone: the
    standardization is per subset, and each batched product runs the same BLAS
    call per slice.
    """
    reg = _check_real("reg", reg)
    if not (0.0 <= reg < np.inf):
        raise ParameterError(f"reg must be finite and >= 0, got {reg}")
    epochs = _check_integer("epochs", epochs, 1)
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != x.shape[:1]:
        raise ParameterError("features must be an n x d matrix with one label per row")
    if not np.all(np.isfinite(x)):
        raise ParameterError("training features must be finite")
    groups: dict[tuple, list] = {}
    for i, rows in enumerate(subsets):
        yi = y[rows]
        classes = _distinct(yi)
        if classes.size < 2:
            raise ParameterError("training set must contain at least two classes")
        groups.setdefault((yi.size, *classes), []).append((i, rows))
    models = {}
    for members in groups.values():
        for start in range(0, len(members), _FITS_PER_CALL):
            chunk = members[start : start + _FITS_PER_CALL]
            fits = _fit_stack(x, y, [rows for _, rows in chunk], reg, epochs)
            models.update(zip((i for i, _ in chunk), fits))
    return [models[i] for i in range(len(models))]


def _fit_stack(x, y, subsets, reg, epochs) -> list[LinearModel]:
    """Fit row subsets of one size and class set in one stacked epoch loop."""
    ys = [y[rows] for rows in subsets]
    z = np.empty((len(ys), ys[0].size, x.shape[1]))
    mus, sds = [], []
    # finite features near the float64 limit overflow the standardization: refused
    # below, instead of training all-zero weights on a z of zeros
    with np.errstate(over="ignore", invalid="ignore"):
        for zi, rows in zip(z, subsets):
            xi = x[rows]
            mu = xi.mean(axis=0)
            sd = xi.std(axis=0)
            # a column is constant when all its values are equal; a spread of 0
            # over unequal values is one whose squares underflowed
            constant = (xi == xi[0]).all(axis=0)
            if np.any((sd == 0.0) & ~constant):
                raise ParameterError("training features underflow their standardization: "
                                     "a column's values differ, but their spread is 0 "
                                     "in float64")
            sd[constant] = 1.0
            np.divide(np.subtract(xi, mu, out=zi), sd, out=zi)
            mus.append(mu)
            sds.append(sd)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(sds))):
        raise ParameterError("training features overflow their standardization: "
                             "their mean or spread is beyond float64's range")

    n, dim = z.shape[1:]
    classes = _distinct(ys[0])
    targets = np.where(np.stack(ys)[:, :, None] == classes, 1.0, -1.0)  # B x n x C
    w = np.zeros((len(ys), classes.size, dim))
    b = np.zeros((len(ys), classes.size))
    # every epoch reuses these: B x n x C margins, violators and their signs, and
    # the B x C x d and B x C gradients
    margins, viol = np.empty(targets.shape), np.empty(targets.shape)
    violators = np.empty(targets.shape, dtype=bool)
    grad_w, reg_w, grad_b = np.empty(w.shape), np.empty(w.shape), np.empty(b.shape)
    for epoch in range(1, epochs + 1):
        np.matmul(z, w.transpose(0, 2, 1), out=margins)
        margins += b[:, None, :]
        margins *= targets
        np.less(margins, 1.0, out=violators)
        np.multiply(violators, targets, out=viol)  # +-1 on violators
        np.matmul(viol.transpose(0, 2, 1), z, out=grad_w)
        grad_w /= n
        np.subtract(np.multiply(w, reg, out=reg_w), grad_w, out=grad_w)  # reg w - G / n
        # minus the mean violator sign; a sum of -1, 0 and +1 is exact in any order
        np.add.reduce(viol, axis=1, out=grad_b)
        grad_b /= -n
        eta = 1.0 / (reg * epoch + 10.0)
        grad_w *= eta
        grad_b *= eta
        w -= grad_w
        b -= grad_b

    return [
        LinearModel(
            classes=classes,
            weights=wi / sd,
            biases=bi - (wi * (mu / sd)).sum(axis=1),
        )
        for wi, bi, mu, sd in zip(w, b, mus, sds)
    ]
