"""Experiment harness: rotation-stability tables, noise-robustness tables, and
train-fraction classification sweeps over rotation-invariant features."""

from __future__ import annotations

import json
import mmap
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import _distinct, train_classifiers
from .dpss import DpssBasis, _check_integer, _check_real, basis_from_json
from .errors import ParameterError
from .imaging import (
    GENERATOR_NAME,
    NoiseSpec,
    RasterImage,
    _child_seed,
    _read_input,
    _rng,
    add_gaussian_noise,
    read_pgm,
    rotate_image,
)
from .moments import Featurizer, _csv
from .synthetic import _shape_class_renderer

__all__ = [
    "DEFAULT_SEED",
    "PROTOCOL_ANGLES_DEG",
    "PROTOCOL_ORDERS",
    "StabilityReport",
    "LabeledDataset",
    "ClassificationReport",
    "rotation_stability",
    "classification_sweep",
    "make_synthetic_dataset",
    "synthetic_images",
    "load_labeled_directory",
    "default_basis",
]

# Fixed default seed for every CLI/harness entry point (never time-based).
DEFAULT_SEED = 7

# The eight orientations and ten invariant columns of the rotation protocol.
PROTOCOL_ANGLES_DEG = (0.0, 35.0, 90.0, 140.0, 180.0, 230.0, 270.0, 325.0)
PROTOCOL_ORDERS = (
    (1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
    (3, 2), (3, 4), (4, 1), (4, 3), (4, 5),
)


def default_basis() -> DpssBasis:
    """Basis used when the caller does not supply one (N=64, W=0.2, K=10).

    It is read, through ``basis_from_json``, from ``default_basis.json`` beside
    this module, which ``slepmoments dpss gen --n 64 --w 0.2 --k 10`` wrote, so
    no eigenproblem is solved and scipy is never loaded.
    """
    return _read_input(Path(__file__).with_name("default_basis.json"), basis_from_json, "basis")


# --- stability protocol -------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Per-angle invariant values plus per-column mean and population std."""

    angles: list[float]
    columns: list[tuple[int, int]]
    values: np.ndarray = field(repr=False)
    mean_row: np.ndarray
    std_row: np.ndarray
    metadata: dict

    def to_csv(self) -> str:
        # one row per angle plus a final std row; the mean row lives in the
        # JSON serialization only
        return _csv(["angle_deg"] + [f"phi_{m}_{n}" for m, n in self.columns],
                    [*([angle, *row] for angle, row in zip(self.angles, self.values)),
                     ["std", *self.std_row]])

    def to_json(self) -> str:
        doc = {
            "angles_deg": list(self.angles),
            "columns": [[m, n] for m, n in self.columns],
            "values": self.values.tolist(),
            "mean": self.mean_row.tolist(),
            "std": self.std_row.tolist(),
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=1)


def rotation_stability(
    image: RasterImage,
    angles,
    orders,
    basis: DpssBasis,
    grid: tuple[int, int],
    noise: NoiseSpec | None = None,
) -> StabilityReport:
    """Rotate, optionally add per-row noise, featurize, and tabulate invariants.

    Each angle row draws its own noise field from a child seed of noise.seed, so
    rows are independent yet the whole table is reproducible, and the rows are
    computed on every usable CPU (see ``_fork_rows``) with the same bytes.
    """
    angles = [_check_real("angle", a) for a in angles]
    if not angles:
        raise ParameterError("angle list must not be empty")
    orders = [(_check_integer(f"m of order {(m, n)!r}", m, 0),
               _check_integer(f"n of order {(m, n)!r}", n, 0)) for m, n in orders]
    if not orders:
        raise ParameterError("order list must not be empty")
    max_radial = max(m for m, _ in orders) + 1
    max_angular = max(n for _, n in orders)

    featurize = Featurizer(basis, max_radial, max_angular, grid)

    def frame_row(i: int) -> list[float]:
        frame = rotate_image(image, angles[i])
        if noise is not None:
            frame = add_gaussian_noise(
                frame, NoiseSpec(noise.snr_db, _child_seed(noise.seed, i))
            )
        phi = featurize(frame).reshape(max_radial, -1)
        return [phi[m, n] for m, n in orders]

    rows = _fork_rows(len(angles), len(orders), lambda span: map(frame_row, span))

    meta = {
        "grid": [int(size) for size in grid],  # json cannot encode numpy integers
        "basis_id": basis.basis_id,
        "noise_snr_db": None if noise is None else noise.snr_db,
        "seed": None if noise is None else noise.seed,
        "generator": GENERATOR_NAME,
    }
    return StabilityReport(
        angles=angles,
        columns=orders,
        values=rows,
        mean_row=rows.mean(axis=0),
        std_row=rows.std(axis=0),
        metadata=meta,
    )


def _fork_rows(n_rows: int, n_cols: int, fill) -> np.ndarray:
    """The (n_rows, n_cols) float64 table of the rows that ``fill`` yields, filled
    as one contiguous span of rows per usable CPU.

    ``fill(span)`` takes a ``range`` of row numbers and yields their rows in
    order; each worker calls it once, for its own span, so whatever a span's rows
    share (a renderer, a stacked fit) is set up once per worker. A fill may write
    files (``synth`` writes its images from every worker), each one atomically,
    so a worker killed mid-write leaves at most a temporary file, which the
    caller removes once this returns or raises. The table lives
    in an anonymous shared mapping, beside one "done" byte per row. This process
    fills the first span. Each further span runs in an ``os.fork`` child, which
    inherits the mapping, writes each row into it and marks the row done as the
    row is yielded, and leaves through ``os._exit``, so it runs no exit handler
    and never reaches the caller's error handling. Once every child has left, the
    rows not marked done, because a row failed, the child died or no process
    could be forked, are filled here in order, each by ``fill(range(i, i + 1))``,
    so the lowest failing row raises its own exception once, as in a serial
    loop. No child waits on this process, so a wide table is filled in parallel
    too. Every child is killed if still running and reaped before this returns
    or raises, and the caller gets a copy, not the mapping. Forking needs
    ``os.sched_getaffinity`` (Linux), two or more usable CPUs and rows, and no
    other Python thread, whose locks a child could inherit held; otherwise this
    process fills every row. ``taskset -c 0`` therefore gives a serial run.
    """
    workers = 1
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        workers = min(len(os.sched_getaffinity(0)), n_rows)
    bounds = [n_rows * k // workers for k in range(workers + 1)]
    shared = mmap.mmap(-1, n_rows * (8 * n_cols + 1))  # MAP_SHARED, kept across fork
    rows = np.frombuffer(shared, count=n_rows * n_cols).reshape(n_rows, n_cols)
    done = np.frombuffer(shared, np.uint8, n_rows, offset=rows.nbytes)

    def fill_span(start, stop):
        span = range(start, stop)
        for i, row in zip(span, fill(span), strict=True):
            rows[i] = row
            done[i] = 1

    pids = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the rest is filled here
                break
            if pid == 0:
                try:
                    fill_span(start, stop)
                finally:
                    os._exit(0)
            pids.append(pid)
        fill_span(0, bounds[1])
        for pid in pids:  # wait for the child to leave, but leave it to be reaped below
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        for i in range(bounds[1], n_rows):
            if not done[i]:
                fill_span(i, i + 1)
        return rows.copy()
    finally:
        for pid in pids:
            from signal import SIGKILL  # loaded by forking calls only
            os.kill(pid, SIGKILL)  # a child that has left is a zombie until reaped
            os.waitpid(pid, 0)


# --- labeled data ------------------------------------------------------------


@dataclass(frozen=True)
class LabeledDataset:
    """An n x d feature matrix, n small-integer class labels and a label-name map."""

    features: np.ndarray = field(repr=False)
    labels: np.ndarray
    class_names: dict[int, str]

    def __post_init__(self):
        # the sweep indexes both with the same split, so extra rows would be dropped silently
        if np.ndim(self.features) != 2 or len(self.features) != len(self.labels):
            raise ParameterError("features must be an n x d matrix with one row per label")
        if _distinct(self.labels).size < 2:
            raise ParameterError("dataset must contain at least two distinct labels")


# --- classification sweep ------------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    """Mean/std accuracy per training fraction over repeated stratified splits."""

    train_fractions: list[float]
    mean_accuracy: np.ndarray
    std_accuracy: np.ndarray
    repeats: int
    seed: int
    metadata: dict

    def to_csv(self) -> str:
        return _csv(["train_fraction", "mean_accuracy", "std_accuracy"],
                    zip(self.train_fractions, self.mean_accuracy, self.std_accuracy))

    def to_json(self) -> str:
        doc = {
            "train_fractions": list(self.train_fractions),
            "mean_accuracy": self.mean_accuracy.tolist(),
            "std_accuracy": self.std_accuracy.tolist(),
            "repeats": self.repeats,
            "seed": self.seed,
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=1)


def _stratified_split(y, fraction, rng, class_names):
    train_idx, test_idx = [], []
    for label in _distinct(y):
        idx = np.where(y == label)[0]
        count = int(np.floor(fraction * idx.size))
        if count < 1:
            name = class_names.get(int(label), str(label))
            raise ParameterError(
                f"training fraction {fraction} leaves class {name!r} with no "
                f"training items ({idx.size} available)"
            )
        perm = rng.permutation(idx)
        train_idx.extend(perm[:count])
        test_idx.extend(perm[count:])
    return np.array(train_idx), np.array(test_idx)


def _draw_splits(ds: LabeledDataset, fraction: float, fi: int, repeats: int,
                 seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (train, test) index pair of every repeat at fraction number ``fi``."""
    return [_stratified_split(ds.labels, fraction, _rng(seed, fi, rep), ds.class_names)
            for rep in range(repeats)]


def classification_sweep(
    ds: LabeledDataset,
    fractions=(0.2, 0.3, 0.4, 0.5),
    repeats: int = 10,
    seed: int = DEFAULT_SEED,
    reg: float = 1e-3,
    epochs: int = 300,
) -> ClassificationReport:
    """Repeat train/test splits at each fraction and report accuracy mean/std.

    Splits are stratified: each class sends the floor of ``fraction`` times its
    size, drawn at random, to training. Each (fraction, repeat) pair derives its own
    child seed, so repeats are independent and order-insensitive. This process
    draws every split, fraction by fraction, so the first failing split raises
    before anything is trained. Then every fit is trained on every usable CPU
    (see ``_fork_rows``), on rows taken repeat by repeat, so each worker fits the
    same repeats of every fraction, in one ``train_classifiers`` call, with the
    same result as one fit per split, bit for bit. Each fraction's mean and std
    are taken here in repeat order.
    """
    fractions = [_check_real("fraction", p) for p in fractions]
    if not fractions or any(not (0.0 < p < 1.0) for p in fractions):
        raise ParameterError("fractions must lie strictly between 0 and 1")
    repeats = _check_integer("repeats", repeats, 1)
    seed = _check_integer("seed", seed, 0)
    x, y = ds.features, ds.labels
    by_fraction = [_draw_splits(ds, p, fi, repeats, seed) for fi, p in enumerate(fractions)]
    splits = [reps[r] for r in range(repeats) for reps in by_fraction]  # row r * F + f

    def accuracies(span):
        models = train_classifiers(x, y, [splits[i][0] for i in span], reg=reg, epochs=epochs)
        for model, i in zip(models, span):
            test = splits[i][1]
            yield [(model.predict(x[test]) == y[test]).mean()]

    # one contiguous row of repeats per fraction, so the sums below run in the
    # same order as one fit per split
    accs = _fork_rows(len(splits), 1, accuracies).reshape(repeats, len(fractions)).T.copy()
    meta = {
        "classes": {int(k): v for k, v in sorted(ds.class_names.items())},
        "items": len(ds.labels),
        "stratified": True,
        "reg": float(reg),  # json cannot encode numpy floats or integers
        "epochs": int(epochs),
        "generator": GENERATOR_NAME,
    }
    return ClassificationReport(
        train_fractions=fractions,
        mean_accuracy=accs.mean(axis=1),
        std_accuracy=accs.std(axis=1),
        repeats=repeats,
        seed=seed,
        metadata=meta,
    )


# --- dataset construction -------------------------------------------------------

# Side length of the synthetic images, in pixels.
_IMAGE_SIZE = 96


def make_synthetic_dataset(
    n_classes: int,
    per_class: int,
    rotations_per_item: int = 1,
    seed: int = DEFAULT_SEED,
    basis: DpssBasis | None = None,
    grid: tuple[int, int] = (64, 128),
) -> LabeledDataset:
    """Generate labeled rotation-invariant features from synthetic shape classes.

    The images are those of ``synthetic_images``, which yields the classes in
    order, so class ``classK`` gets label K and labels run 1..n_classes. Each
    worker of ``_featurize`` renders only the images of its own span.
    """
    count, names, render = _synthetic_spans(n_classes, per_class, rotations_per_item, seed,
                                            _IMAGE_SIZE)
    return _featurize([name for name, _ in names(range(count))], render, basis, grid)


def synthetic_images(
    n_classes: int,
    per_class: int,
    rotations_per_item: int = 1,
    seed: int = DEFAULT_SEED,
    image_size: int = _IMAGE_SIZE,
):
    """Yield (class_name, file_stem, RasterImage) for the synthetic dataset.

    Every (class, item, rotation) triple gets an independent child seed, so the
    dataset is reproducible item by item. Each class's rng-free layers are
    built once, and its images are rendered from them.
    """
    count, names, render = _synthetic_spans(n_classes, per_class, rotations_per_item, seed,
                                            image_size)
    everything = range(count)
    for (class_name, stem), image in zip(names(everything), render(everything)):
        yield class_name, stem, image


# The most images a synthetic dataset may hold, classes x per-class x rotations:
# 1e6 images of the default 96 x 96 are 9.2 GB of PGM files.
_MAX_SYNTHETIC_IMAGES = 1_000_000


def _synthetic_spans(n_classes, per_class, rotations_per_item, seed, image_size):
    """The synthetic dataset as spans of its images: their number, ``names(span)``,
    which yields the (class_name, file_stem) of each image of a ``range`` span, and
    ``render(span)``, which yields their RasterImages, building a class's layers once
    per run of its keys in the span.

    The (class id, item, rotation) key of image i is i written in the mixed radix
    (n_classes, per_class, rotations_per_item), so the images run class by class,
    then item by item. A count above _MAX_SYNTHETIC_IMAGES is refused here, before
    anything is rendered or forked.
    """
    n_classes = _check_integer("n_classes", n_classes, 2)
    per_class = _check_integer("per_class", per_class, 1)
    rotations_per_item = _check_integer("rotations_per_item", rotations_per_item, 1)
    seed = _check_integer("seed", seed, 0)
    count = n_classes * per_class * rotations_per_item
    if count > _MAX_SYNTHETIC_IMAGES:
        raise ParameterError(
            f"a synthetic dataset of {n_classes} classes x {per_class} items x "
            f"{rotations_per_item} rotations would hold {count} images, more than "
            f"{_MAX_SYNTHETIC_IMAGES}"
        )

    def keys(span):
        for i in span:
            rest, rot = divmod(i, rotations_per_item)
            cid, item = divmod(rest, per_class)
            yield cid, item, rot

    def names(span):
        for cid, item, rot in keys(span):
            yield f"class{cid + 1}", f"item{item:03d}r{rot}"

    def render(span):
        layers, layers_cid = None, None
        for cid, item, rot in keys(span):
            if cid != layers_cid:
                layers = None  # release the last class's layers before this class's are built
                layers, layers_cid = _shape_class_renderer(cid, image_size), cid
            yield layers(_rng(seed, cid, item, rot))

    return count, names, render


def load_labeled_directory(
    root: str | Path,
    basis: DpssBasis | None = None,
    grid: tuple[int, int] = (64, 128),
) -> LabeledDataset:
    """Featurize a directory tree laid out as <root>/<class_name>/<image>.pgm.

    Each worker of ``_featurize`` reads only the images of its own span, each
    through ``imaging._read_input``, so an image must be a regular file or a
    symlink to one.
    """
    root = Path(root)
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if len(class_dirs) < 2:
        raise ParameterError(f"{root} must contain at least two class directories")
    classes = [(cdir, sorted(cdir.glob("*.pgm"))) for cdir in class_dirs]
    for cdir, paths in classes:
        if not paths:
            raise ParameterError(f"class directory {cdir} holds no .pgm images")
    items = [(cdir.name, path) for cdir, paths in classes for path in paths]
    return _featurize([name for name, _ in items],
                      lambda span: (_read_input(items[i][1], read_pgm, "image") for i in span),
                      basis, grid)


def _featurize(
    names: list[str], images, basis: DpssBasis | None, grid: tuple[int, int]
) -> LabeledDataset:
    """Featurize n items with one ``Featurizer``: item i has class name ``names[i]``,
    and ``images(span)`` yields the RasterImage of each item of a ``range`` span.

    The feature rows are filled on every usable CPU (see ``_fork_rows``), each
    worker loading and featurizing its own span of items one at a time, so no
    process holds more than one image. Labels are numbered 1, 2, ... here, in
    order of each class name's first appearance.
    """
    featurize = Featurizer(default_basis() if basis is None else basis, grid=grid)
    labels: dict[str, int] = {}
    ys = [labels.setdefault(name, len(labels) + 1) for name in names]
    return LabeledDataset(
        features=_fork_rows(len(names), featurize._size,
                            lambda span: map(featurize, images(span))),
        labels=np.array(ys),
        class_names={label: name for name, label in labels.items()},
    )
