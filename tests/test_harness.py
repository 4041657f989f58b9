import json
import os
import re
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from slepmoments import (
    DomainError,
    FormatError,
    LabeledDataset,
    NoiseSpec,
    ParameterError,
    RasterImage,
    classification_sweep,
    load_labeled_directory,
    read_pgm,
    rotate_image,
    rotation_stability,
    synthetic,
    train_classifier,
    write_pgm,
)
from slepmoments import harness, moments
from slepmoments.cli import run
from slepmoments.classifier import _FITS_PER_CALL
from slepmoments.harness import (
    PROTOCOL_ANGLES_DEG,
    PROTOCOL_ORDERS,
    _draw_splits,
    _fork_rows,
    synthetic_images,
)

from oracles import reference_shape_class_image, reference_sweep, synthetic_dataset

GRID = (48, 96)
ORDERS = ((1, 1), (2, 1), (2, 2))


def test_stability_report_shape_and_std(basis64, test_image):
    report = rotation_stability(
        test_image, PROTOCOL_ANGLES_DEG, PROTOCOL_ORDERS, basis64, (64, 128)
    )
    assert report.values.shape == (8, 10)
    recomputed = report.values.std(axis=0)  # population convention
    assert np.abs(recomputed - report.std_row).max() < 1e-12
    assert report.metadata["generator"] == "pcg64"


def test_stability_std_invariant_to_angle_permutation(basis64, test_image):
    a = rotation_stability(test_image, (0, 90, 180), ORDERS, basis64, GRID)
    b = rotation_stability(test_image, (180, 0, 90), ORDERS, basis64, GRID)
    assert np.abs(np.sort(a.values, axis=0) - np.sort(b.values, axis=0)).max() < 1e-15
    assert np.abs(a.std_row - b.std_row).max() < 1e-12


def test_stability_single_angle_zero_std(basis64, test_image):
    report = rotation_stability(test_image, (0.0,), ORDERS, basis64, GRID)
    assert np.all(report.std_row == 0)


def test_stability_high_snr_matches_clean(basis64, test_image):
    clean = rotation_stability(test_image, (0, 35), ORDERS, basis64, GRID)
    quiet = rotation_stability(
        test_image, (0, 35), ORDERS, basis64, GRID, noise=NoiseSpec(300.0, 5)
    )
    assert np.abs(clean.values - quiet.values).max() < 1e-6


def test_stability_rejects_empty_angles(basis64, test_image):
    with pytest.raises(ParameterError):
        rotation_stability(test_image, (), ORDERS, basis64, GRID)


def test_stability_rejects_empty_orders(basis64, test_image):
    with pytest.raises(ParameterError) as exc:
        rotation_stability(test_image, (0.0,), (), basis64, GRID)
    assert str(exc.value) == "order list must not be empty"


@pytest.mark.parametrize("order", [(1.7, 2), (1, 2.5), (True, 1)])
def test_stability_refuses_non_integer_orders(basis64, test_image, order):
    # int() would truncate these, so the table would hold another order than the one asked
    with pytest.raises(ParameterError, match=r"of order \("):
        rotation_stability(test_image, (0.0,), [order], basis64, GRID)


def test_stability_takes_numpy_integer_orders(basis64, test_image):
    plain = rotation_stability(test_image, (0.0, 35.0), ORDERS, basis64, GRID)
    numpy = rotation_stability(test_image, (0.0, 35.0),
                               [(np.int64(m), np.int64(n)) for m, n in ORDERS], basis64, GRID)
    assert numpy.to_json() == plain.to_json()
    # orders, grid and noise seed all go on as the ints of dpss._check_integer
    noisy = rotation_stability(test_image, (0.0, 35.0), ORDERS, basis64, GRID,
                               NoiseSpec(30.0, 7)).to_json()
    for kind in (np.int64, np.int32, np.uint8):
        numpy = rotation_stability(test_image, (0.0, 35.0),
                                   [(kind(m), kind(n)) for m, n in ORDERS], basis64,
                                   tuple(map(kind, GRID)), NoiseSpec(30.0, kind(7)))
        assert numpy.to_json() == noisy


@pytest.mark.parametrize("order, message", [
    ((-1, 2), "m of order (-1, 2) must be >= 0, got -1"),
    ((1, -2), "n of order (1, -2) must be >= 0, got -2"),
], ids=["negative-m", "negative-n"])
def test_stability_refuses_negative_orders(basis64, test_image, order, message):
    with pytest.raises(ParameterError) as exc:
        rotation_stability(test_image, (0.0,), [order], basis64, GRID)
    assert str(exc.value) == message


def test_stability_csv_layout(basis64, test_image):
    report = rotation_stability(test_image, (0, 90), ORDERS, basis64, GRID)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "angle_deg,phi_1_1,phi_2_1,phi_2_2"
    assert len(lines) == 1 + 2 + 1  # header, two angle rows, std row
    assert lines[-1].startswith("std,")
    # every number is the shortest decimal that reads back as the same float64
    rows = [line.split(",") for line in lines[1:]]
    assert rows[:2] == [[repr(float(cell)) for cell in (angle, *values)]
                        for angle, values in zip((0, 90), report.values)]
    assert rows[2] == ["std", *(repr(float(cell)) for cell in report.std_row)]
    assert "mean" in report.to_json()  # mean row carried by the JSON form


# --- rows on every usable CPU ----------------------------------------------------

forking = pytest.mark.skipif(not hasattr(os, "fork"), reason="rows are forked with os.fork")


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _corner_dot():
    """A 9x9 raster whose one bright pixel, at (0, 0), leaves the frame at 45 degrees."""
    pixels = np.zeros((9, 9))
    pixels[0, 0] = 1.0
    return RasterImage(pixels)


@forking
@pytest.mark.parametrize("noise", [None, NoiseSpec(20.0, 3)], ids=["clean", "noisy"])
@pytest.mark.parametrize("angles", [PROTOCOL_ANGLES_DEG, PROTOCOL_ANGLES_DEG[:7], (35.0,)],
                         ids=["8-angles", "7-angles", "1-angle"])
def test_stability_rows_are_bitwise_equal_on_any_worker_count(basis64, test_image, cpus,
                                                              angles, noise):
    reports = []
    for n in (1, 2, 3):
        forks = cpus(n)
        reports.append(rotation_stability(test_image, angles, ORDERS, basis64, GRID, noise))
        assert len(forks) == min(n, len(angles)) - 1
    for report in reports[1:]:
        assert report.values.tobytes() == reports[0].values.tobytes()
    _assert_no_children()


@forking
@pytest.mark.parametrize("angles", [(0.0, 45.0), (45.0, 0.0)],
                         ids=["child-span-fails", "own-span-fails"])
def test_a_failing_frame_raises_the_serial_error_once(basis64, cpus, capfd, angles):
    # the 45-degree frame is all zeros, so its noise cannot be referenced to it
    args = (_corner_dot(), angles, ORDERS, basis64, GRID, NoiseSpec(30.0, 1))
    cpus(1)
    with pytest.raises(DomainError) as serial:
        rotation_stability(*args)
    forks = cpus(2)
    with pytest.raises(DomainError) as forked:
        rotation_stability(*args)
    assert len(forks) == 1
    assert str(forked.value) == str(serial.value)
    assert str(serial.value).startswith("signal power is zero")
    assert forked.value.__context__ is None  # raised once, not while handling another
    assert capfd.readouterr() == ("", "")  # the child printed nothing
    _assert_no_children()


@forking
def test_each_row_is_filled_once_in_one_span_per_cpu(cpus):
    parent, calls = os.getpid(), []

    def fill(span):
        if os.getpid() == parent:
            calls.append(span)
        return ([i, -i] for i in span)

    forks = cpus(3)
    rows = _fork_rows(7, 2, fill)
    assert rows.tolist() == [[i, -i] for i in range(7)]
    assert len(forks) == 2
    assert calls == [range(0, 2)]  # the spans are rows 0-1 here, 2-3 and 4-6 in the children
    _assert_no_children()


def test_no_child_is_forked_while_another_thread_runs(cpus):
    forks = cpus(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        rows = _fork_rows(2, 1, lambda span: ([float(i)] for i in span))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    assert rows.tolist() == [[0.0], [1.0]]


@forking
def test_a_failing_own_span_kills_and_reaps_a_running_child(cpus):
    def fill(span):
        for i in span:
            if i == 0:
                raise ValueError("row 0")
            time.sleep(60)  # the child's row would outlast the test
            yield [float(i)]

    forks = cpus(2)
    start = time.monotonic()
    with pytest.raises(ValueError, match="^row 0$"):
        _fork_rows(2, 1, fill)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    _assert_no_children()


@forking
def test_rows_of_a_child_killed_by_a_signal_are_filled_here(cpus):
    parent = os.getpid()

    def fill(span):
        for i in span:
            if i == 3 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            yield [i, 2.0 * i]

    forks = cpus(2)
    rows = _fork_rows(4, 2, fill)
    assert len(forks) == 1
    assert rows.tolist() == [[i, 2.0 * i] for i in range(4)]
    _assert_no_children()


def test_rows_are_filled_here_when_no_process_can_be_forked(monkeypatch, cpus):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    cpus(3)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _fork_rows(3, 1, lambda span: ([float(i)] for i in span)).tolist() == [
        [0.0], [1.0], [2.0]]


@forking
def test_a_child_delivers_rows_wider_than_a_pipe_buffer_while_the_parent_works(cpus,
                                                                              tmp_path):
    # 128 KiB rows: a child writing them to a pipe would block at row 1 until this
    # process read it, so it would reach row 2 only after row 0 was done here
    marker, seen = tmp_path / "row-2-started", []

    def fill(span):
        for i in span:
            if i == 2:
                marker.touch()
            if i == 0:
                deadline = time.monotonic() + 10
                while not marker.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                seen.append(marker.exists())
            yield np.full(1 << 14, float(i))

    forks = cpus(2)
    rows = _fork_rows(3, 1 << 14, fill)
    assert seen == [True]
    assert len(forks) == 1
    assert rows.tolist() == [[float(i)] * (1 << 14) for i in range(3)]
    _assert_no_children()


@forking
def test_sweep_bytes_are_equal_on_any_worker_count(cpus):
    ds = _overlapping_dataset()
    docs = []
    for n in (1, 2, 3):
        forks = cpus(n)
        docs.append(classification_sweep(ds, (0.3, 0.5), repeats=5, seed=3,
                                          epochs=50).to_json())
        assert len(forks) == n - 1  # one fork trains every fraction's repeats
    assert docs[1:] == docs[:1] * 2
    _assert_no_children()


@forking
def test_datasets_are_bitwise_equal_on_any_worker_count(basis64, cpus, tmp_path):
    _write_tree(tmp_path / "tree", 3, 3)
    synth = _synth_tree(tmp_path / "synth", "--classes", "3", "--per-class", "2",
                        "--rotations", "2", "--seed", "5")
    for make in (lambda: load_labeled_directory(tmp_path / "tree", basis=basis64, grid=GRID),
                 lambda: load_labeled_directory(synth, basis=basis64, grid=GRID)):
        datasets = []
        for n in (1, 2, 3):
            forks = cpus(n)
            datasets.append(make())
            assert len(forks) == n - 1
        for ds in datasets[1:]:
            assert ds.features.tobytes() == datasets[0].features.tobytes()
            assert ds.labels.tolist() == datasets[0].labels.tolist()
            assert ds.class_names == datasets[0].class_names
    # synth's spans wrote the images synthetic_images yields, in its order
    featurize = moments.Featurizer(basis64, grid=GRID)
    reference = [featurize(read_pgm(write_pgm(img)))
                 for _, _, img in synthetic_images(3, 2, 2, seed=5)]
    assert datasets[0].features.tobytes() == np.array(reference).tobytes()
    _assert_no_children()


@forking
def test_a_worker_builds_the_layers_of_the_classes_its_span_touches(cpus, monkeypatch,
                                                                   tmp_path):
    calls = []
    disk_coords = synthetic._disk_coords
    monkeypatch.setattr(synthetic, "_disk_coords",
                        lambda size: calls.append(size) or disk_coords(size))
    cpus(2)  # items 0-2 (class1, class1, class2) here, 3-5 in the child
    _synth_tree(tmp_path, "--classes", "3", "--per-class", "2", "--seed", "1")
    assert calls == [96, 96]


def test_featurizing_holds_one_image_at_a_time(basis64, cpus, tmp_path):
    # 80 images: 5.6 MiB as 96 x 96 synth reads, 2.5 MiB as 64 x 64 reads. One at
    # a time, the peak is 0.8 MiB for either tree.
    _write_tree(tmp_path / "tree", 2, 40)
    synth = _synth_tree(tmp_path / "synth", "--classes", "2", "--per-class", "40", "--seed", "1")
    cpus(1)
    for make in (lambda: load_labeled_directory(synth, basis=basis64, grid=GRID),
                 lambda: load_labeled_directory(tmp_path / "tree", basis=basis64, grid=GRID)):
        tracemalloc.start()
        try:
            make()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20


def test_stability_builds_the_polar_sampler_once_at_the_first_frame(basis64, test_image,
                                                                    monkeypatch, cpus):
    cpus(1)  # a forked span's calls would not be seen here
    events = []
    real_sampler, real_rotate = moments._polar_plans, harness.rotate_image
    monkeypatch.setattr(moments, "_polar_plans",
                        lambda *args: events.append("sampler") or real_sampler(*args))
    monkeypatch.setattr(harness, "rotate_image",
                        lambda *args: events.append("frame") or real_rotate(*args))
    rotation_stability(test_image, (0.0, 35.0, 90.0), ORDERS, basis64, GRID)
    # the Featurizer builds the image shape's plans when it meets its first frame
    assert events == ["frame", "sampler", "frame", "frame"]


def _tiny_dataset():
    # two trivially separable classes in feature space
    features, labels = [], []
    for i in range(4):
        features += [[0.0, float(i % 2)], [10.0, float(i % 2)]]
        labels += [1, 2]
    return LabeledDataset(np.array(features), np.array(labels), {1: "low", 2: "high"})


@pytest.mark.parametrize("features", [np.zeros((10, 2)), np.zeros(6)], ids=["rows", "1-d"])
def test_dataset_needs_one_feature_row_per_label(features):
    with pytest.raises(ParameterError, match="one row per label"):
        LabeledDataset(features, np.array([1, 2] * 3), {1: "low", 2: "high"})


def test_dataset_needs_two_distinct_labels():
    with pytest.raises(ParameterError) as exc:
        LabeledDataset(np.zeros((3, 2)), np.array([1, 1, 1]), {1: "low"})
    assert str(exc.value) == "dataset must contain at least two distinct labels"


def test_sweep_trivial_dataset_perfect_accuracy():
    report = classification_sweep(_tiny_dataset(), fractions=(0.5,), repeats=1, seed=3)
    assert report.mean_accuracy[0] == 1.0
    assert report.std_accuracy[0] == 0.0


@pytest.mark.parametrize("seed, refusal", [
    (3, None), (np.int64(3), None), (np.uint8(3), None),
    (True, "seed must be an integer, got True"), (-1, "seed must be >= 0, got -1"),
    (2.5, "seed must be an integer, got 2.5"), ("3", "seed must be an integer, got '3'"),
], ids=["int", "int64", "uint8", "bool", "negative", "float", "str"])
def test_sweep_stores_a_non_negative_integer_seed_as_an_int(seed, refusal):
    # the rule NoiseSpec applies: a numpy integer is stored as an int, which json can
    # write, and a bool, a negative or a non-integer is refused before any split
    def sweep(seed):
        return classification_sweep(_tiny_dataset(), fractions=(0.5,), repeats=1, seed=seed)
    if refusal:
        with pytest.raises(ParameterError, match=re.escape(refusal)):
            sweep(seed)
        return
    report = sweep(seed)
    assert type(report.seed) is int
    assert report.to_json() == sweep(3).to_json()


def test_sweep_small_fraction_names_class():
    with pytest.raises(ParameterError, match="low"):
        classification_sweep(_tiny_dataset(), fractions=(0.1,), repeats=1, seed=3)


def test_sweep_is_deterministic():
    a = classification_sweep(_tiny_dataset(), fractions=(0.5, 0.7), repeats=3, seed=11)
    b = classification_sweep(_tiny_dataset(), fractions=(0.5, 0.7), repeats=3, seed=11)
    assert np.array_equal(a.mean_accuracy, b.mean_accuracy)
    assert np.array_equal(a.std_accuracy, b.std_accuracy)
    assert a.to_json() == b.to_json()


def test_sweep_rejects_bad_fraction():
    with pytest.raises(ParameterError):
        classification_sweep(_tiny_dataset(), fractions=(1.5,), repeats=1)


def _overlapping_dataset(n_classes=8, per_class=12, dim=6):
    # class means closer than the noise, so accuracies vary from split to split
    rng = np.random.default_rng(2024)
    centers = rng.normal(0.0, 1.0, (n_classes, dim))
    labels = np.repeat(np.arange(1, n_classes + 1), per_class)
    features = centers[labels - 1] + rng.normal(0.0, 1.0, (labels.size, dim))
    return LabeledDataset(features, labels, {k: f"c{k}" for k in range(1, n_classes + 1)})


def test_stacked_sweep_matches_per_split_reference(cpus):
    ds = _overlapping_dataset()
    fractions, repeats, seed = (0.2, 0.5), _FITS_PER_CALL + 3, 4
    # a stratified split trains on every class, so each fraction's fits form one
    # stack, which holds more fits than one call takes; stacks of fits whose class
    # sets differ are test_classifier.py's test_stacked_fits_equal_single_fits
    groups = []
    for fi, p in enumerate(fractions):
        sets = [tuple(np.unique(ds.labels[tr]))
                for tr, _ in _draw_splits(ds, p, fi, repeats, seed)]
        groups.append({s: sets.count(s) for s in sets})
    assert all(len(g) == 1 for g in groups)
    assert any(max(g.values()) > _FITS_PER_CALL for g in groups)

    means, stds = reference_sweep(ds, fractions, repeats, seed)
    # in one process a fraction's fits cross the stack cap; over three CPUs no span does
    for n in (1, 3):
        cpus(n)
        report = classification_sweep(ds, fractions, repeats=repeats, seed=seed)
        assert report.mean_accuracy.tobytes() == means.tobytes()
        assert report.std_accuracy.tobytes() == stds.tobytes()
    assert np.all(stds > 0)


def test_synthetic_dataset_counts_and_determinism(basis64, tmp_path):
    sizes = ("--classes", "6", "--per-class", "8", "--seed", "9")
    ds = load_labeled_directory(_synth_tree(tmp_path / "a", *sizes), basis=basis64, grid=GRID)
    assert len(ds.labels) == 48
    assert sorted(ds.class_names) == [1, 2, 3, 4, 5, 6]
    again = load_labeled_directory(_synth_tree(tmp_path / "b", *sizes), basis=basis64,
                                   grid=GRID)
    x1, y1 = ds.features, ds.labels
    x2, y2 = again.features, again.labels
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_synthetic_labels_follow_class_numbers(basis64, tmp_path):
    # synthetic_images names class K classK, and a synth tree of them loads with
    # the labels of its sorted class directories, as any tree does
    assert [name for name, _, _ in synthetic_images(11, 1, 1, seed=3, image_size=8)] == [
        f"class{k}" for k in range(1, 12)]
    tree = _synth_tree(tmp_path, "--classes", "11", "--per-class", "1", "--seed", "3")
    ds = load_labeled_directory(tree, basis=basis64, grid=GRID)
    names = sorted(f"class{k}" for k in range(1, 12))
    assert ds.class_names == {label: name for label, name in enumerate(names, start=1)}
    assert ds.class_names[2] == "class10" and ds.class_names[3] == "class11"
    assert ds.labels.tolist() == list(range(1, 12))


def test_synthetic_dataset_rotations_multiply_items(basis64, tmp_path):
    tree = _synth_tree(tmp_path, "--classes", "2", "--per-class", "3", "--rotations", "2",
                       "--seed", "5")
    ds = load_labeled_directory(tree, basis=basis64, grid=GRID)
    assert len(ds.labels) == 12


def test_synthetic_rotations_are_independent_draws():
    # a record of ROADMAP item 20, to 5%: "rotation r" of an item is a new draw of its
    # class, no closer to the item than the class's other items are, while a true 35
    # degree rotation of it moves its features ten times less; the item's fix is
    # expected to change this test
    featurize = moments.Featurizer(harness.default_basis(), grid=(64, 128))
    images = {stem: image for name, stem, image in synthetic_images(2, 3, 3, seed=7)
              if name == "class1"}
    item = featurize(images["item000r0"])

    def distance(image):
        return np.linalg.norm(featurize(image) - item) / np.linalg.norm(item)
    found = {stem: distance(images[stem])
             for stem in ("item000r1", "item000r2", "item001r0", "item002r0")}
    found["rotated"] = distance(rotate_image(images["item000r0"], 35.0))
    assert found == pytest.approx({"item000r1": 0.0077, "item000r2": 0.0257,
                                   "item001r0": 0.0162, "item002r0": 0.0153,
                                   "rotated": 0.0011}, rel=0.05)
    assert found["item000r2"] > max(found["item001r0"], found["item002r0"])


def test_synthetic_classes_form_triplet_margins(basis64):
    ds = synthetic_dataset(2, 8, 1, seed=11, basis=basis64, grid=GRID)
    x, y = ds.features, ds.labels
    a, b = x[y == 1], x[y == 2]
    good = total = 0
    for i in range(len(a)):
        for j in range(len(a)):
            if i == j:
                continue
            intra = np.linalg.norm(a[i] - a[j])
            for k in range(len(b)):
                total += 1
                good += np.linalg.norm(a[i] - b[k]) > intra
    assert good / total >= 0.95


def test_synthetic_dataset_rejects_single_class(tmp_path, capsys):
    with pytest.raises(ParameterError):
        next(synthetic_images(1, 4))
    assert run(["synth", "--classes", "1", "--per-class", "4", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "slepmoments: usage error: argument --classes: must be >= 2, got 1\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("use, message", [
    (lambda: classification_sweep(_tiny_dataset(), (0.5,), repeats=2.5),
     "repeats must be an integer, got 2.5"),
    (lambda: classification_sweep(_tiny_dataset(), (0.5,), repeats=1, epochs=True),
     "epochs must be an integer, got True"),
    (lambda: classification_sweep(_tiny_dataset(), (0.5,), repeats=1, epochs=2.5),
     "epochs must be an integer, got 2.5"),
    (lambda: next(synthetic_images(2.0, 1)), "n_classes must be an integer, got 2.0"),
    (lambda: next(synthetic_images(2, True)), "per_class must be an integer, got True"),
    (lambda: next(synthetic_images(3, 1, True)),
     "rotations_per_item must be an integer, got True"),
    (lambda: next(synthetic_images(2, 1, image_size=8.0)),
     "image size must be an integer, got 8.0"),
    (lambda: synthetic.smooth_test_image(8.0), "image size must be an integer, got 8.0"),
], ids=["sweep-repeats", "sweep-epochs-bool", "sweep-epochs-fraction", "n-classes",
        "per-class", "rotations", "image-size", "test-image-size"])
def test_integer_counts_refuse_bools_and_non_integers(use, message):
    # a bool would be taken as one item or epoch, and a float fails inside numpy unnamed
    with pytest.raises(ParameterError) as exc:
        use()
    assert str(exc.value) == message


def test_integer_counts_accept_numpy_integers():
    report = classification_sweep(_tiny_dataset(), (0.5,), repeats=np.int64(1),
                                  epochs=np.int32(5))
    doc = json.loads(report.to_json())
    assert (doc["repeats"], doc["metadata"]["epochs"]) == (1, 5)
    images = list(synthetic_images(np.int64(2), np.int64(1), np.int64(1), image_size=np.int64(8)))
    assert len(images) == 2 and images[0][2].pixels.shape == (8, 8)
    small = classification_sweep(_tiny_dataset(), (0.5,), repeats=np.uint8(1),
                                 seed=np.uint8(3), epochs=np.uint8(5))
    assert type(small.repeats) is int
    assert small.to_json() == classification_sweep(_tiny_dataset(), (0.5,), repeats=1, seed=3,
                                                   epochs=5).to_json()
    plain = [img.pixels.tobytes() for *_, img in synthetic_images(2, 1, 2, seed=3, image_size=8)]
    kinds = synthetic_images(np.uint8(2), np.int32(1), np.uint8(2), seed=np.uint8(3),
                             image_size=np.uint8(8))
    assert [img.pixels.tobytes() for *_, img in kinds] == plain


@pytest.mark.parametrize("use, message", [
    (lambda: classification_sweep(_tiny_dataset(), (0.5,), repeats=0),
     "repeats must be >= 1, got 0"),
    (lambda: classification_sweep(_tiny_dataset(), (0.5,), repeats=1, epochs=0),
     "epochs must be >= 1, got 0"),
    (lambda: next(synthetic_images(1, 1)), "n_classes must be >= 2, got 1"),
    (lambda: next(synthetic_images(2, 0)), "per_class must be >= 1, got 0"),
    (lambda: next(synthetic_images(2, 1, 0)), "rotations_per_item must be >= 1, got 0"),
    (lambda: next(synthetic_images(2, 1, image_size=1)), "image size must be >= 2, got 1"),
], ids=["sweep-repeats", "sweep-epochs", "n-classes", "per-class", "rotations", "image-size"])
def test_integer_counts_refuse_values_out_of_range(use, message):
    with pytest.raises(ParameterError) as exc:
        use()
    assert str(exc.value) == message


def test_sweep_reports_a_numpy_reg_as_a_float():
    # json could not write a numpy float, and it wrote an integer reg as an integer
    def sweep(reg):
        return classification_sweep(_tiny_dataset(), (0.5,), repeats=1, reg=reg).to_json()
    assert sweep(np.float32(0.5)) == sweep(0.5)
    assert sweep(np.int64(0)) == sweep(0) == sweep(0.0)


@pytest.mark.parametrize("use, message", [
    (lambda basis, img: classification_sweep(_tiny_dataset(), (0.5,), repeats=1, reg=True),
     "reg must be a real number, got True"),
    (lambda basis, img: classification_sweep(_tiny_dataset(), ("0.5",), repeats=1),
     "fraction must be a real number, got '0.5'"),
    (lambda basis, img: rotation_stability(img, (True,), ORDERS, basis, GRID),
     "angle must be a real number, got True"),
    (lambda basis, img: rotation_stability(img, ("30",), ORDERS, basis, GRID),
     "angle must be a real number, got '30'"),
], ids=["reg-bool", "fraction-str", "angle-bool", "angle-str"])
def test_sweep_and_stability_refuse_reals_that_are_not_numbers(basis64, test_image, use,
                                                               message):
    # True was trained as reg 1 and reported as "reg": true, or rotated by one degree,
    # and float() took the strings
    with pytest.raises(ParameterError) as exc:
        use(basis64, test_image)
    assert str(exc.value) == message



@pytest.mark.parametrize("seed, refusal", [
    (True, "seed must be an integer, got True"), (-1, "seed must be >= 0, got -1"),
    (1.5, "seed must be an integer, got 1.5"), (np.int64(3), None),
], ids=["bool", "negative", "float", "int64"])
def test_synthetic_images_take_a_non_negative_integer_seed(basis64, seed, refusal):
    # True rendered seed 1's images, and -1 and 1.5 failed inside numpy, unnamed
    def render(seed):
        images = synthetic_images(2, 1, 2, seed=seed, image_size=16)
        return [img.pixels.tobytes() for _, _, img in images]
    if refusal is None:
        assert render(seed) == render(3)
        return
    # synth takes its images' names and renders from harness._synthetic_spans
    for use in (render, lambda seed: harness._synthetic_spans(2, 1, 1, seed, 16)):
        with pytest.raises(ParameterError) as exc:
            use(seed)
        assert str(exc.value) == refusal

def test_train_classifier_on_dataset(basis64):
    ds = synthetic_dataset(3, 4, 1, seed=2, basis=basis64, grid=GRID)
    x, y = ds.features, ds.labels
    model = train_classifier(x, y, reg=1e-3, epochs=200)
    assert (model.predict(x) == y).mean() == 1.0


@pytest.mark.parametrize("size", [2, 3, 64])
def test_synthetic_images_match_the_per_image_oracle_bitwise(size):
    # classes 0..9 take every angular order and radius of the class formulas
    keys = [(cid, item, rot) for cid in range(10) for item in range(2) for rot in range(2)]
    images = synthetic_images(10, 2, 2, seed=3, image_size=size)
    for (cid, item, rot), (name, stem, image) in zip(keys, images, strict=True):
        assert (name, stem) == (f"class{cid + 1}", f"item{item:03d}r{rot}")
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=3, spawn_key=(cid, item, rot))
        )
        assert image.pixels.tobytes() == reference_shape_class_image(cid, rng, size).tobytes()


def test_synthetic_image_count_is_capped_at_one_million(monkeypatch, tmp_path, capsys):
    # 2 x 500,000 images is the cap, and 101 x 9,901 one image more; the count is
    # refused before anything is rendered
    count, names, _ = harness._synthetic_spans(2, 500_000, 1, 0, 8)
    assert count == 1_000_000
    assert list(names(range(count - 1, count))) == [("class2", "item499999r0")]
    assert next(synthetic_images(2, 500_000, image_size=8))[:2] == ("class1", "item000r0")
    message = ("a synthetic dataset of 101 classes x 9901 items x 1 rotations would hold "
               "1000001 images, more than 1000000")

    def rendered(*args):
        raise AssertionError("an image was rendered")
    monkeypatch.setattr(harness, "_shape_class_renderer", rendered)
    with pytest.raises(ParameterError) as exc:
        next(synthetic_images(101, 9_901))
    assert str(exc.value) == message
    assert run(["synth", "--classes", "101", "--per-class", "9901",
                "--out-dir", str(tmp_path / "tree")]) == 1
    assert capsys.readouterr().err == f"slepmoments: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_each_synthetic_span_names_its_images_in_nested_order():
    # image i is (class, item, rotation) in the order of three nested loops, and a
    # span of any start names its own images
    count, names, _ = harness._synthetic_spans(3, 2, 2, 0, 8)
    nested = [(f"class{c + 1}", f"item{i:03d}r{r}")
              for c in range(3) for i in range(2) for r in range(2)]
    assert count == 12 and list(names(range(count))) == nested
    assert [next(names(range(k, k + 1))) for k in range(count)] == nested
    assert list(names(range(5, 9))) == nested[5:9]


def test_synthetic_images_build_each_class_layers_once(monkeypatch):
    calls = []
    disk_coords = synthetic._disk_coords

    def counted(size):
        calls.append(size)
        return disk_coords(size)

    monkeypatch.setattr(synthetic, "_disk_coords", counted)
    assert len(list(synthetic_images(3, 2, 2, seed=1, image_size=8))) == 12
    assert calls == [8, 8, 8]


def test_synthetic_images_hold_one_class_of_layers_at_a_time():
    # one 512 x 512 raster is 2 MiB. The peak is 18.7 MiB, and 20.7 MiB when
    # every image is rendered from scratch; keeping a class's layers alive while
    # the next class builds its own lifts it above 22 MiB.
    tracemalloc.start()
    try:
        for _ in synthetic_images(3, 2, 1, seed=1, image_size=512):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 22 * 2**20


def _synth_tree(root, *flags):
    """Write a synth tree of 96 x 96 images at ``root``, sized by synth's ``flags``."""
    assert run(["synth", *flags, "--out-dir", str(root)]) == 0
    return root


def _write_tree(root, n_classes, per_class):
    for class_name, stem, image in synthetic_images(n_classes, per_class, 1, seed=4,
                                                    image_size=64):
        cdir = root / class_name
        cdir.mkdir(parents=True, exist_ok=True)
        (cdir / f"{stem}.pgm").write_bytes(write_pgm(image))


def test_directory_ingestion_round_trip(tmp_path, basis64):
    _write_tree(tmp_path, 2, 3)
    ds = load_labeled_directory(tmp_path, basis=basis64, grid=GRID)
    assert len(ds.labels) == 6
    assert ds.class_names == {1: "class1", 2: "class2"}


def test_directory_labels_follow_sorted_class_names(tmp_path, basis64):
    _write_tree(tmp_path, 11, 1)
    ds = load_labeled_directory(tmp_path, basis=basis64, grid=GRID)
    # sorted order: class1, class10, class11, class2, ..., class9
    names = sorted(f"class{k}" for k in range(1, 12))
    assert ds.class_names == {label: name for label, name in enumerate(names, start=1)}
    assert ds.class_names[2] == "class10"
    assert ds.labels.tolist() == list(range(1, 12))


@pytest.mark.parametrize("n_classes", [0, 1])
def test_directory_with_fewer_than_two_classes_rejected(tmp_path, basis64, n_classes):
    for k in range(n_classes):
        (tmp_path / f"class{k}").mkdir()
        (tmp_path / f"class{k}" / "a.pgm").write_bytes(write_pgm(RasterImage(np.ones((8, 8)))))
    (tmp_path / "notes.txt").write_text("a file is no class")
    with pytest.raises(ParameterError) as exc:
        load_labeled_directory(tmp_path, basis=basis64, grid=GRID)
    assert str(exc.value) == f"{tmp_path} must contain at least two class directories"


def test_directory_images_are_regular_files_or_links_to_them(tmp_path, basis64):
    # a linked image is read through its link; a FIFO is refused, never opened
    _write_tree(tmp_path, 2, 2)
    direct = load_labeled_directory(tmp_path, basis=basis64, grid=GRID)
    image = tmp_path / "class2" / "item001r0.pgm"
    image.rename(tmp_path / "elsewhere.pgm")
    image.symlink_to(tmp_path / "elsewhere.pgm")
    linked = load_labeled_directory(tmp_path, basis=basis64, grid=GRID)
    assert np.array_equal(direct.features, linked.features)
    image.unlink()
    os.mkfifo(image)
    with pytest.raises(FormatError) as exc:
        load_labeled_directory(tmp_path, basis=basis64, grid=GRID)
    assert str(exc.value) == f"image file {image}: not a regular file"


def test_directory_with_empty_class_rejected(tmp_path, basis64):
    _write_tree(tmp_path, 2, 2)
    (tmp_path / "class3").mkdir()
    with pytest.raises(ParameterError, match="class3"):
        load_labeled_directory(tmp_path, basis=basis64, grid=GRID)


def test_fifty_percent_split_counts(basis64):
    # 6 classes x 8 items at 50% training: 24 train / 24 test
    ds = synthetic_dataset(6, 8, 1, seed=13, basis=basis64, grid=GRID)
    x, y = ds.features, ds.labels
    from slepmoments.harness import _stratified_split

    rng = np.random.default_rng(0)
    tr, te = _stratified_split(y, 0.5, rng, ds.class_names)
    assert len(tr) == 24 and len(te) == 24
