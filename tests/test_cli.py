import hashlib
import importlib
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import slepmoments
from slepmoments import (
    PROTOCOL_ORDERS,
    RasterImage,
    cli,
    default_basis,
    rotation_stability,
    smooth_test_image,
    write_pgm,
)
from slepmoments.cli import _build_parser, _write_atomic, run
from slepmoments.dpss import _json_chunks

from test_cli_fuzz import _entry, _option_strings

forking = pytest.mark.skipif(not hasattr(os, "fork"), reason="classify forks its spans")


@pytest.fixture(scope="module")
def image_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("img") / "test.pgm"
    path.write_bytes(write_pgm(smooth_test_image(64)))
    return path


@pytest.fixture(scope="module")
def basis_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("basis") / "b.json"
    assert run(["dpss", "gen", "--n", "64", "--w", "0.1", "--k", "10",
                "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def moments_path(tmp_path_factory, image_path, basis_path):
    path = tmp_path_factory.mktemp("moments") / "s.json"
    assert run(["moments", "compute", "--image", str(image_path), "--basis", str(basis_path),
                "--m", "3", "--l", "2", "--radial", "16", "--angular", "32",
                "--out", str(path)]) == 0
    return path


def test_dpss_gen_schema_and_ordering(basis_path):
    doc = json.loads(basis_path.read_text())
    assert sorted(doc) == ["eigenvalues", "k", "n", "sequences", "w"]
    eig = doc["eigenvalues"]
    assert len(eig) == 10
    assert all(a > b for a, b in zip(eig, eig[1:]))
    assert len(doc["sequences"]) == 10 and len(doc["sequences"][0]) == 64


def test_moments_compute_dimensions(tmp_path, image_path, basis_path):
    out = tmp_path / "s.json"
    rc = run(["moments", "compute", "--image", str(image_path),
              "--basis", str(basis_path), "--m", "10", "--l", "9",
              "--radial", "64", "--angular", "128", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["moments"]) == 10 * 19
    assert doc["metadata"]["grid"] == [64, 128]



def test_moments_compute_holds_no_polar_array(tmp_path, basis_path):
    # 2048 x 2048 samples are 32 MiB as float64; each block of rings is planned,
    # sampled and projected, then dropped
    image = tmp_path / "big.pgm"
    image.write_bytes(write_pgm(smooth_test_image(256)))
    argv = ["moments", "compute", "--image", str(image), "--basis", str(basis_path),
            "--m", "10", "--l", "9", "--radial", "2048", "--angular", "2048",
            "--out", str(tmp_path / "s.json")]
    assert run(argv) == 0  # warm: lazy imports and caches are not counted
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20

def test_invariants_csv(tmp_path, image_path, basis_path):
    moments = tmp_path / "s.json"
    run(["moments", "compute", "--image", str(image_path), "--basis", str(basis_path),
         "--m", "3", "--l", "2", "--radial", "32", "--angular", "64",
         "--out", str(moments)])
    out = tmp_path / "phi.csv"
    assert run(["invariants", "--moments", str(moments), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split(",")[:4] == ["phi_0_0", "phi_0_1", "phi_0_2", "phi_1_0"]
    assert len(lines) == 2 and len(lines[1].split(",")) == 9


def test_reconstruct_output(tmp_path, image_path, basis_path):
    moments = tmp_path / "s.json"
    run(["moments", "compute", "--image", str(image_path), "--basis", str(basis_path),
         "--m", "4", "--l", "3", "--radial", "16", "--angular", "32",
         "--out", str(moments)])
    out = tmp_path / "rec.json"
    rc = run(["reconstruct", "--moments", str(moments), "--basis", str(basis_path),
              "--radial", "16", "--angular", "32", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["n_radial"] == 16 and doc["n_angular"] == 32
    assert len(doc["samples"]) == 16
    assert "imag_residual" in doc


def test_rotate_test_table_layout(tmp_path, image_path):
    out = tmp_path / "table.csv"
    rc = run(["rotate-test", "--image", str(image_path),
              "--angles", "0,35,90,140,180,230,270,325",
              "--radial", "48", "--angular", "96", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 8 + 1  # header + 8 data rows + std row
    assert lines[0].split(",")[1] == "phi_1_1"
    assert lines[-1].startswith("std,")


def test_noise_test_json_metadata(tmp_path, image_path):
    out = tmp_path / "noise.csv"
    jout = tmp_path / "noise.json"
    rc = run(["noise-test", "--image", str(image_path), "--angles", "0,90",
              "--radial", "32", "--angular", "64", "--seed", "5",
              "--out", str(out), "--json-out", str(jout)])
    assert rc == 0
    doc = json.loads(jout.read_text())
    assert doc["metadata"]["noise_snr_db"] == 30.0
    assert doc["metadata"]["seed"] == 5
    assert doc["metadata"]["generator"] == "pcg64"


@pytest.mark.parametrize("argv", [
    ["rotate-test", "--image", "{image}", "--angles", "0,35,90", "--radial", "32",
     "--angular", "64"],
    ["noise-test", "--image", "{image}", "--angles", "0,35,90", "--radial", "32",
     "--angular", "64", "--snr-db", "20"],
    ["classify", "--classes", "2", "--per-class", "4", "--fractions", "0.25,0.5",
     "--repeats", "3", "--epochs", "5", "--radial", "8", "--angular", "32"],
], ids=["rotate-test", "noise-test", "classify"])
def test_a_table_number_reads_back_as_the_json_float(tmp_path, image_path, argv):
    # every number in a table is the shortest decimal that reads back as the float64
    # the JSON report holds for its cell: the values and std row, or both accuracies
    out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    argv = [a.format(image=image_path) for a in argv]
    assert run([*argv, "--out", str(out), "--json-out", str(json_out)]) == 0
    doc = json.loads(json_out.read_text())
    if argv[0] == "classify":
        expected = [list(row) for row in zip(doc["train_fractions"], doc["mean_accuracy"],
                                             doc["std_accuracy"])]
    else:
        expected = [[angle, *row] for angle, row in zip(doc["angles_deg"], doc["values"])]
        expected.append(["std", *doc["std"]])
    _, *rows = [line.split(",") for line in out.read_text().splitlines()]
    cells = [cell for row in rows for cell in row if cell != "std"]
    assert cells and all(cell == repr(float(cell)) for cell in cells)
    assert [[cell if cell == "std" else float(cell) for cell in row] for row in rows] == expected


def test_synth_directory_layout(tmp_path):
    root = tmp_path / "data"
    rc = run(["synth", "--classes", "2", "--per-class", "2", "--size", "48",
              "--out-dir", str(root)])
    assert rc == 0
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.pgm"))
    assert files == [
        "class1/item000r0.pgm", "class1/item001r0.pgm",
        "class2/item000r0.pgm", "class2/item001r0.pgm",
    ]


def _tree_digest(root):
    """SHA-256 of the lines "<file sha256>  <relative posix path>", one per .pgm, sorted."""
    paths = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*.pgm"))
    lines = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {rel}\n"
                    for rel, p in paths)
    return hashlib.sha256(lines.encode("ascii")).hexdigest()


_SYNTH_GOLDEN = [
    ("--seed 5 --classes 3 --per-class 4 --rotations 2 --size 64",
     "bf9225f39865a57c384c4634b1150af6cb24964be0128a926796a8f17a20d473"),
    ("--seed 7 --classes 2 --per-class 3 --size 2",
     "9a412f26181303b6757fe966bcda7d64d0ac3064e4acb083e1125a9d4d44a3c8"),
]


@pytest.mark.parametrize("argv, digest", _SYNTH_GOLDEN, ids=["golden", "size2"])
def test_synth_writes_the_recorded_tree(tmp_path, argv, digest):
    # the tree digests in CHANGES.md; the golden tree is the synth/ input of the
    # golden corpus below
    assert run(["synth", *argv.split(), "--out-dir", str(tmp_path)]) == 0
    assert _tree_digest(tmp_path) == digest


def _temporaries(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob(".*.pgm.*"))


@forking
@pytest.mark.parametrize("argv, digest", _SYNTH_GOLDEN, ids=["golden", "size2"])
def test_synth_writes_the_recorded_tree_on_any_cpu_count(tmp_path, cpus, argv, digest):
    # each worker renders and writes its own span of the images; on 2 and 5 CPUs
    # some class directories are shared by two workers, which may both create them
    for n in (1, 2, 3, 5):
        forks = cpus(n)
        root = tmp_path / str(n)
        assert run(["synth", *argv.split(), "--out-dir", str(root)]) == 0
        assert len(forks) == n - 1
        assert _tree_digest(root) == digest
        assert _temporaries(root) == []
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def _failing_writes(monkeypatch, plan, forks):
    """Make ``cli._write_atomic`` fail the images that ``plan`` names once it has
    written a temporary file's first bytes: "fail" raises a full disk, once a
    forked "stall" has begun, "stall" holds a forked writer until it is killed,
    and "die" kills a forked writer."""
    real, parent = cli._write_atomic, os.getpid()

    def write_atomic(output):
        path, data = output
        how = plan.get(f"{path.parent.name}/{path.name}")
        if how is None or (how != "fail" and os.getpid() == parent):
            return real(output)
        stalled = path.parent.parent / "stalled"

        def chunks():
            yield "P5\n"
            if how == "fail":
                deadline = time.monotonic() + 10
                while ("stall" in plan.values() and forks and not stalled.exists()
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                raise OSError(28, "No space left on device")
            if how == "die":
                os.kill(os.getpid(), signal.SIGKILL)
            stalled.touch()
            time.sleep(60)
            yield ""

        return real((path, chunks()))

    monkeypatch.setattr(cli, "_write_atomic", write_atomic)


_SMALL_SYNTH = ["synth", "--classes", "2", "--per-class", "2", "--size", "16", "--out-dir"]


@forking
@pytest.mark.parametrize("plan", [
    {"class1/item001r0.pgm": "fail", "class2/item000r0.pgm": "stall"},
    {"class2/item001r0.pgm": "fail"},
], ids=["own-span-fails", "child-span-fails"])
def test_a_failing_image_prints_its_serial_error_once_and_leaves_no_temporary(
        tmp_path, capfd, monkeypatch, cpus, plan):
    # four images: class1's are written here on two CPUs and class2's in the forked
    # child. A failure here kills the child mid-write; a failure there leaves its
    # rows to be written again here, in order, up to the failing one
    failing = next(name for name, how in plan.items() if how == "fail")
    for n in (1, 2):
        forks = cpus(n)
        _failing_writes(monkeypatch, plan, forks)
        root = tmp_path / str(n)
        start = time.monotonic()
        assert run([*_SMALL_SYNTH, str(root)]) == 1
        assert time.monotonic() - start < 30
        assert len(forks) == n - 1
        assert capfd.readouterr() == ("", "slepmoments: error: [Errno 28] No space left on "
                                          f"device: '{root / failing}'\n")
        assert _temporaries(root) == []
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)


@forking
def test_a_writer_killed_mid_write_leaves_no_temporary(tmp_path, monkeypatch, cpus):
    # the child dies inside its first image's temporary file, so both of its images
    # are written here
    trees = []
    for n in (1, 2):
        forks = cpus(n)
        _failing_writes(monkeypatch, {"class2/item000r0.pgm": "die"}, forks)
        root = tmp_path / str(n)
        assert run([*_SMALL_SYNTH, str(root)]) == 0
        assert len(forks) == n - 1
        assert _temporaries(root) == []
        trees.append(_tree_digest(root))
    assert trees[0] == trees[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_synth_keeps_the_user_files_beside_its_outputs(tmp_path):
    # a synth removes only the temporaries its own writes named: these files share an
    # output's ".<name>." start, and ".item000r0.pgm.original" has eight letters of
    # mkstemp's alphabet after it, as a temporary file's random part has
    root = tmp_path / "out"
    (root / "class1").mkdir(parents=True)
    kept = [".item000r0.pgm.bak", ".item001r0.pgm.swp", ".item000r0.pgm.original"]
    for name in kept:
        (root / "class1" / name).write_text(name)
    assert run([*_SMALL_SYNTH, str(root)]) == 0
    assert {name: (root / "class1" / name).read_text() for name in kept} == {
        name: name for name in kept}
    assert len(list(root.rglob("*.pgm"))) == 4


_HUGE = 10**30 - 1


@pytest.mark.parametrize("command, out_flag", [("synth", "--out-dir"), ("classify", "--out")])
@pytest.mark.parametrize("argv, sizes", [
    (["--classes", str(_HUGE)], (_HUGE, 8, 1)),
    (["--per-class", str(_HUGE)], (6, _HUGE, 1)),
    (["--rotations", str(_HUGE)], (6, 8, _HUGE)),
    (["--classes", "101", "--per-class", "9901"], (101, 9901, 1)),
], ids=["classes", "per-class", "rotations", "one-above-the-cap"])
def test_a_synthetic_count_above_the_cap_exits_one_with_one_line(tmp_path, capsys, monkeypatch,
                                                                  command, out_flag, argv, sizes):
    # a count above 2**63 - 1 ended in a 20-line OverflowError traceback. Nothing
    # may be rendered, so a lost cap fails here at once instead of writing 1e6 files
    def rendered(*args):
        raise AssertionError("an image was rendered")
    monkeypatch.setattr(slepmoments.harness, "_shape_class_renderer", rendered)
    out = tmp_path / "out"
    assert run([command, *argv, out_flag, str(out)]) == 1
    classes, per_class, rotations = sizes
    assert capsys.readouterr() == ("", (
        f"slepmoments: error: a synthetic dataset of {classes} classes x {per_class} items "
        f"x {rotations} rotations would hold {classes * per_class * rotations} images, "
        "more than 1000000\n"))
    assert list(tmp_path.iterdir()) == []


def test_classify_synthetic(tmp_path):
    out = tmp_path / "acc.csv"
    rc = run(["classify", "--classes", "2", "--per-class", "4", "--repeats", "2",
              "--fractions", "0.5", "--radial", "32", "--angular", "64",
              "--epochs", "60", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "train_fraction,mean_accuracy,std_accuracy"
    assert len(lines) == 2


def test_classify_data_dir(tmp_path):
    root = tmp_path / "data"
    run(["synth", "--classes", "2", "--per-class", "3", "--size", "48",
         "--out-dir", str(root)])
    out = tmp_path / "acc.csv"
    rc = run(["classify", "--data-dir", str(root), "--fractions", "0.5",
              "--repeats", "2", "--radial", "32", "--angular", "64",
              "--epochs", "60", "--out", str(out)])
    assert rc == 0


@pytest.mark.parametrize("flags, named", [
    (["--classes", "9", "--per-class", "50", "--rotations", "7"], "--classes"),
    (["--per-class", "50"], "--per-class"),
    (["--rotations", "7"], "--rotations"),
    (["--classes", "6"], "--classes"),
], ids=["all", "per-class", "rotations", "the-default-given"])
def test_classify_data_dir_refuses_the_synthetic_flags(tmp_path, capsys, monkeypatch, flags,
                                                       named):
    # they size the synthetic dataset only, and --data-dir used to ignore them, exit 0;
    # the refusal comes before the tree is read or anything is written
    def loaded(*args, **kwargs):
        raise AssertionError("the directory was read")
    monkeypatch.setattr(cli, "load_labeled_directory", loaded)
    argv = ["classify", "--data-dir", str(tmp_path), *flags, "--out", str(tmp_path / "a.csv")]
    assert run(argv) == 2
    assert capsys.readouterr() == (
        "", f"slepmoments: usage error: argument {named}: not allowed with --data-dir\n")
    assert list(tmp_path.iterdir()) == []


class _Recorded(Exception):
    pass


def _defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_the_cli_defaults_are_the_library_defaults(tmp_path, monkeypatch):
    # each value classify (both modes) and synth pass for an omitted flag is the
    # signature default of the library function it feeds, so the CLI's experiments
    # and the library's cannot drift apart
    from slepmoments import harness
    from slepmoments.classifier import train_classifier, train_classifiers
    from slepmoments.moments import Featurizer

    calls = {}

    def recorder(name, fn, stop):
        def record(*args, **kwargs):
            calls[name] = inspect.signature(fn).bind(*args, **kwargs).arguments
            if stop:
                raise _Recorded(name)
        return record
    for name, stop in (("make_synthetic_dataset", False), ("load_labeled_directory", False),
                       ("classification_sweep", True)):
        monkeypatch.setattr(cli, name, recorder(name, getattr(harness, name), stop))
    # synth feeds what synthetic_images takes, under the same names
    monkeypatch.setattr(cli, "_synthetic_spans",
                        recorder("synth", harness.synthetic_images, True))

    sweep = _defaults(harness.classification_sweep)
    swept = ("repeats", "seed", "reg", "epochs")
    for argv, source in ((["classify"], "make_synthetic_dataset"),
                         (["classify", "--data-dir", str(tmp_path)], "load_labeled_directory")):
        calls.clear()
        with pytest.raises(_Recorded):
            run([*argv, "--out", str(tmp_path / "a.csv")])
        assert calls.keys() == {source, "classification_sweep"}
        passed = calls["classification_sweep"]
        assert list(passed["fractions"]) == list(sweep["fractions"])
        assert {name: passed[name] for name in swept} == {name: sweep[name] for name in swept}
        fed, defaults = calls[source], _defaults(getattr(harness, source))
        assert fed["grid"] == defaults["grid"] == (64, 128)
        if source == "make_synthetic_dataset":
            assert (fed["rotations_per_item"], fed["seed"]) == (
                defaults["rotations_per_item"], defaults["seed"]) == (1, harness.DEFAULT_SEED)

    with pytest.raises(_Recorded):
        run(["synth", "--out-dir", str(tmp_path / "tree")])
    images = _defaults(harness.synthetic_images)
    assert {name: calls["synth"][name] for name in images} == images
    assert images["image_size"] == 96 and images["rotations_per_item"] == 1

    # the sweep trains with the classifier's own defaults, and the datasets featurize
    # on a Featurizer's default grid
    for trainer in (train_classifiers, train_classifier):
        assert {name: _defaults(trainer)[name] for name in ("reg", "epochs")} == {
            name: sweep[name] for name in ("reg", "epochs")}
    grid = _defaults(Featurizer)["grid"]
    assert _defaults(harness.make_synthetic_dataset)["grid"] == grid
    assert _defaults(harness.load_labeled_directory)["grid"] == grid
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero():
    assert run(["--help"]) == 0
    for cmd in (["dpss", "gen", "--help"], ["moments", "compute", "--help"],
                ["invariants", "--help"], ["reconstruct", "--help"],
                ["rotate-test", "--help"], ["noise-test", "--help"],
                ["classify", "--help"], ["synth", "--help"]):
        assert run(cmd) == 0


def test_usage_errors_exit_two(tmp_path):
    assert run(["dpss", "gen", "--n", "8", "--w", "0.9", "--k", "2",
                "--out", str(tmp_path / "x.json")]) == 2
    assert run(["dpss", "gen", "--unknown-flag", "1"]) == 2
    assert run(["nonsense-command"]) == 2
    assert run(["classify", "--fractions", "2.0", "--out", str(tmp_path / "y.csv")]) == 2


def test_runtime_errors_exit_one(tmp_path, basis_path):
    assert run(["moments", "compute", "--image", str(tmp_path / "missing.pgm"),
                "--basis", str(basis_path), "--m", "2", "--l", "1",
                "--out", str(tmp_path / "s.json")]) == 1
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n1 1\n255\n\x00")
    assert run(["moments", "compute", "--image", str(bad), "--basis", str(basis_path),
                "--m", "2", "--l", "1", "--out", str(tmp_path / "s.json")]) == 1


def test_identical_invocations_identical_bytes(tmp_path, image_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cmd = ["noise-test", "--image", str(image_path), "--angles", "0,45,90",
           "--radial", "32", "--angular", "64", "--seed", "21"]
    assert run(cmd + ["--out", str(a)]) == 0
    assert run(cmd + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_default_image_is_the_bundled_pattern(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["rotate-test", "--angles", "0,90", "--radial", "32", "--angular", "64",
                "--out", str(out)]) == 0
    report = rotation_stability(smooth_test_image(128), (0.0, 90.0), PROTOCOL_ORDERS,
                                default_basis(), (32, 64))
    assert out.read_text() == report.to_csv()


def test_directory_as_image_exits_one(tmp_path, capsys):
    rc = run(["rotate-test", "--image", str(tmp_path), "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("slepmoments: error:") and err.count("\n") == 1


# A CLI process whose address space is capped at 1 GiB, so a command that read
# /dev/zero after all would end as "out of memory" instead of taking the machine's.
_MEMORY_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from slepmoments.cli import main
main()
"""


@pytest.mark.parametrize("argv, kind", [
    (["invariants", "--moments", "{zero}"], "moment"),
    (["moments", "compute", "--image", "{zero}", "--basis", "{basis}", "--m", "2", "--l", "1"],
     "image"),
    (["moments", "compute", "--image", "{image}", "--basis", "{fifo}", "--m", "2", "--l", "1"],
     "basis"),
], ids=["moments-dev-zero", "image-dev-zero", "basis-fifo"])
def test_an_input_that_is_not_a_regular_file_is_refused_unread(tmp_path, image_path,
                                                               basis_path, argv, kind):
    # the path is stat'ed, never opened: opening a FIFO with no writer blocks, and
    # reading /dev/zero never ends
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    paths = dict(zero="/dev/zero", fifo=fifo, image=image_path, basis=basis_path)
    argv = [arg.format(**paths) for arg in argv]
    source = paths["zero" if "/dev/zero" in argv else "fifo"]
    argv += ["--out", str(tmp_path / "o")]
    proc = subprocess.run([sys.executable, "-c", _MEMORY_CAPPED, *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"slepmoments: error: {kind} file {source}: not a regular file\n")
    assert os.listdir(tmp_path) == ["fifo"]


def test_a_symlinked_input_is_read_through(tmp_path, image_path, basis_path):
    (tmp_path / "b.json").symlink_to(basis_path)
    (tmp_path / "i.pgm").symlink_to(image_path)
    outs = []
    for image, basis in ((image_path, basis_path), (tmp_path / "i.pgm", tmp_path / "b.json")):
        outs.append(tmp_path / f"s{len(outs)}.json")
        assert run(["moments", "compute", "--image", str(image), "--basis", str(basis),
                    "--m", "2", "--l", "1", "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("flag", ["--out", "--json-out"])
@pytest.mark.parametrize("make", [
    lambda path: os.mkfifo(path),
    lambda path: path.symlink_to("/dev/null"),
    lambda path: (os.mkfifo(path.with_name("pipe")), path.symlink_to("pipe")),
], ids=["fifo", "link-to-device", "link-to-fifo"])
def test_an_output_that_is_a_fifo_or_device_is_refused_and_kept(tmp_path, capsys, flag,
                                                               make):
    # nothing is written: neither output, nor a temporary beside either
    target = tmp_path / "target"
    make(target)
    before = {name: _entry(tmp_path / name) for name in os.listdir(tmp_path)}
    argv = ["rotate-test", "--angles", "0", "--radial", "8", "--angular", "16",
            "--out", str(tmp_path / "t.csv"), flag, str(target)]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"slepmoments: error: [Errno 22] not a regular file: {str(target)!r}\n")
    assert {name: _entry(tmp_path / name) for name in os.listdir(tmp_path)} == before


def test_a_symlinked_output_is_replaced_and_its_target_kept(tmp_path):
    # the file is renamed over the link, as mv would; what the link named is untouched
    (tmp_path / "old.csv").write_text("old")
    link = tmp_path / "t.csv"
    link.symlink_to("old.csv")
    argv = ["rotate-test", "--angles", "0", "--radial", "8", "--angular", "16", "--out"]
    assert run([*argv, str(link)]) == 0
    assert run([*argv, str(tmp_path / "plain.csv")]) == 0
    assert _entry(link) == (tmp_path / "plain.csv").read_bytes()  # a file, no longer a link
    assert (tmp_path / "old.csv").read_text() == "old"


@pytest.mark.parametrize("out", ["nodir/a.csv", "d"], ids=["missing-directory", "directory"])
def test_unwritable_output_error_names_the_output(tmp_path, capsys, out):
    # the temporary file beside the output has a random name, so it must not show
    (tmp_path / "d").mkdir()
    target = tmp_path / out
    argv = ["rotate-test", "--angles", "0", "--radial", "8", "--angular", "16",
            "--out", str(target)]
    errs = []
    for _ in range(2):
        assert run(argv) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("slepmoments: error:") and errs[0].count("\n") == 1
    assert errs[0].endswith(f"{str(target)!r}\n")
    assert os.listdir(tmp_path) == ["d"] and os.listdir(tmp_path / "d") == []


@pytest.mark.parametrize("json_out", ["nodir/a.json", "d"], ids=["missing-directory", "directory"])
@pytest.mark.parametrize("command", [
    ["rotate-test", "--angles", "0", "--radial", "8", "--angular", "16"],
    ["classify", "--classes", "2", "--per-class", "2", "--fractions", "0.5", "--repeats", "1",
     "--epochs", "1", "--radial", "8", "--angular", "32"],
], ids=["rotate-test", "classify"])
def test_an_unwritable_json_out_leaves_the_out_unwritten(tmp_path, capsys, command, json_out):
    # both outputs are written to temporaries before either is renamed; --out was
    # renamed into place before --json-out failed
    (tmp_path / "d").mkdir()
    out, target = tmp_path / "t.csv", tmp_path / json_out
    assert run([*command, "--out", str(out), "--json-out", str(target)]) == 1
    assert capsys.readouterr().err.endswith(f"{str(target)!r}\n")
    assert os.listdir(tmp_path) == ["d"] and os.listdir(tmp_path / "d") == []


@pytest.mark.parametrize("argv", [
    ["rotate-test", "--angles", "0,nan"],
    ["classify", "--fractions", "0.5,inf"],
], ids=["angles-nan", "fractions-inf"])
def test_non_finite_reals_exit_two(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert argv[1] in err and "finite" in err


def test_invalid_moment_document_exits_one(tmp_path):
    doc = {"metadata": {"grid": [4, 8], "basis_id": "b"},
           "moments": [{"m": 0, "n": 0, "re": 1.0, "im": 0.0}] * 2}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert run(["invariants", "--moments", str(path), "--out", str(tmp_path / "p.csv")]) == 1


@pytest.mark.parametrize("grid", [[4], "ab", [0, 0], [-5, 8]],
                         ids=["one-size", "string", "zero", "negative"])
def test_reconstruct_rejects_malformed_grid(tmp_path, capsys, moments_path, basis_path, grid):
    doc = json.loads(moments_path.read_text())
    doc["metadata"]["grid"] = grid
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["reconstruct", "--moments", str(bad), "--basis", str(basis_path),
                "--radial", "16", "--angular", "32", "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"slepmoments: error: moment file {bad}: moment grid")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("text", ['{"n": 8,', "[" * 100000, "\udcff"],
                         ids=["truncated", "nested-too-deep", "not-utf8"])
@pytest.mark.parametrize("command", ["moments", "invariants", "reconstruct"])
def test_malformed_json_names_the_file(tmp_path, capsys, image_path, basis_path, text,
                                       command):
    bad = tmp_path / "bad.json"
    bad.write_text(text, errors="surrogateescape")  # the last case is the byte 0xff
    out = ["--out", str(tmp_path / "out")]
    argv, kind = {
        "moments": (["moments", "compute", "--image", str(image_path), "--basis", str(bad),
                     "--m", "2", "--l", "1", *out], "basis"),
        "invariants": (["invariants", "--moments", str(bad), *out], "moment"),
        "reconstruct": (["reconstruct", "--moments", str(bad), "--basis", str(basis_path),
                         "--radial", "16", "--angular", "32", *out], "moment"),
    }[command]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"slepmoments: error: {kind} file {bad}") and err.count("\n") == 1


@pytest.mark.parametrize("patch", [
    {"re": 10**400}, {"re": True, "im": False}, {"basis_id": [1, 2]}, {"grid": [16, 4]},
], ids=["re-overflow", "bool-parts", "basis-id-list", "grid-aliases"])
@pytest.mark.parametrize("command", ["invariants", "reconstruct"])
def test_invalid_moment_values_exit_one(tmp_path, capsys, moments_path, basis_path,
                                        patch, command):
    # the moment file holds |n| <= 2, which needs 5 angular samples
    doc = json.loads(moments_path.read_text())
    target = doc["metadata"] if patch.keys() & {"basis_id", "grid"} else doc["moments"][0]
    target.update(patch)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command, "--moments", str(bad), "--out", str(tmp_path / "out")]
    if command == "reconstruct":
        argv += ["--basis", str(basis_path), "--radial", "16", "--angular", "32"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"slepmoments: error: moment file {bad}: ")
    assert err.count("\n") == 1


_P6 = b"P6\n1 1\n255\n\x00\x00\x00"
_P6_ERROR = "unsupported magic b'P6', expected b'P5' (byte offset 0)"


def test_pgm_format_error_names_the_image(tmp_path, capsys, basis_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(_P6)
    assert run(["moments", "compute", "--image", str(bad), "--basis", str(basis_path),
                "--m", "2", "--l", "1", "--out", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"slepmoments: error: image file {bad}: {_P6_ERROR}\n"


def test_pgm_sample_above_maxval_names_the_image(tmp_path, capsys):
    header = b"P5\n2 2\n10\n"
    bad = tmp_path / "over.pgm"
    bad.write_bytes(header + bytes([0, 10, 0xFF, 5]))
    assert run(["rotate-test", "--image", str(bad), "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err == (
        f"slepmoments: error: image file {bad}: sample 255 exceeds maxval 10 "
        f"(byte offset {len(header) + 2})\n")


def test_pgm_format_error_in_data_dir_names_the_image(tmp_path, capsys):
    root = tmp_path / "data"
    assert run(["synth", "--classes", "2", "--per-class", "2", "--size", "32",
                "--out-dir", str(root)]) == 0
    bad = root / "class2" / "zz.pgm"
    bad.write_bytes(_P6)
    assert run(["classify", "--data-dir", str(root), "--fractions", "0.5", "--repeats", "1",
                "--radial", "16", "--angular", "32", "--epochs", "5",
                "--out", str(tmp_path / "a.csv")]) == 1
    err = capsys.readouterr().err
    assert err == f"slepmoments: error: image file {bad}: {_P6_ERROR}\n"


@forking
@pytest.mark.parametrize("bad_class", ["class2", "class1"],
                         ids=["child-span-fails", "own-span-fails"])
def test_a_truncated_image_prints_the_serial_error_once_and_writes_nothing(
        tmp_path, capfd, cpus, bad_class):
    # four images: 1 and 2 (class1) are featurized here on two CPUs, 3 and 4 (class2)
    # in the forked child
    root = tmp_path / "data"
    assert run(["synth", "--classes", "2", "--per-class", "2", "--size", "32",
                "--out-dir", str(root)]) == 0
    bad = root / bad_class / "item001r0.pgm"
    data = bad.read_bytes()[:-7]  # 32 x 32 samples of one byte, less 7
    bad.write_bytes(data)
    capfd.readouterr()
    out = tmp_path / "a.csv"
    argv = ["classify", "--data-dir", str(root), "--fractions", "0.5", "--repeats", "1",
            "--radial", "16", "--angular", "32", "--epochs", "5", "--out", str(out)]
    errors = []
    for n in (1, 2):
        forks = cpus(n)
        assert run(argv) == 1
        assert len(forks) == n - 1
        errors.append(capfd.readouterr())
    assert errors[0] == errors[1]
    assert errors[0].out == ""
    assert errors[0].err == (f"slepmoments: error: image file {bad}: truncated payload: "
                             f"need 1024 bytes, have 1017 (byte offset {len(data)})\n")
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_outputs_follow_umask(tmp_path, umask, mode):
    out = tmp_path / "b.json"
    old = os.umask(umask)
    try:
        assert run(["dpss", "gen", "--n", "8", "--w", "0.2", "--k", "2",
                    "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode


_SCIPY_FREE = """
import sys
from slepmoments.cli import run

def check(step):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, (step, loaded[:5])

check("import")
image, basis, out = sys.argv[1:]
assert run(["moments", "compute", "--image", image, "--basis", basis, "--m", "3",
            "--l", "2", "--radial", "16", "--angular", "32", "--out", out + "/s.json"]) == 0
check("moments compute")
assert run(["invariants", "--moments", out + "/s.json", "--out", out + "/p.csv"]) == 0
check("invariants")
assert run(["reconstruct", "--moments", out + "/s.json", "--basis", basis,
            "--radial", "16", "--angular", "32", "--out", out + "/r.json"]) == 0
check("reconstruct")
grid = ["--radial", "16", "--angular", "32"]
assert run(["rotate-test", "--angles", "0,90", *grid, "--out", out + "/rot.csv"]) == 0
check("rotate-test")
assert run(["noise-test", "--angles", "0,90", *grid, "--out", out + "/noise.csv"]) == 0
check("noise-test")
sweep = ["--fractions", "0.5", "--repeats", "1", "--epochs", "5", *grid]
assert run(["classify", "--classes", "2", "--per-class", "2", *sweep,
            "--out", out + "/cls.csv"]) == 0
check("classify")
assert run(["synth", "--classes", "2", "--per-class", "2", "--size", "32",
            "--out-dir", out + "/synth"]) == 0
assert run(["classify", "--data-dir", out + "/synth", *sweep,
            "--out", out + "/clsdir.csv"]) == 0
check("classify --data-dir")
"""


def _src_env():
    """Environment in which a child interpreter imports this checkout's package."""
    src = str(Path(slepmoments.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_lean_commands_never_load_scipy(tmp_path, image_path, basis_path):
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE, str(image_path), str(basis_path), str(tmp_path)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_NO_SCIPY_FFT = """
import sys
from slepmoments.cli import run

assert run(["dpss", "gen", "--n", "64", "--w", "0.1", "--k", "10", "--out", sys.argv[1]]) == 0
assert "scipy.linalg" in sys.modules
loaded = sorted(m for m in sys.modules if m == "scipy.fft" or m.startswith("scipy.fft."))
assert not loaded, loaded[:5]
"""


def test_dpss_gen_never_loads_scipy_fft(tmp_path):
    # the sinc-kernel product runs on numpy.fft; scipy is loaded for eigh_tridiagonal only
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_FFT, str(tmp_path / "b.json")],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_MODULE_FORMS = (["-m", "slepmoments"], ["-m", "slepmoments.cli"])


def test_python_m_runs_the_cli(tmp_path, image_path, basis_path):
    env = _src_env()
    args = ["rotate-test", "--image", str(image_path), "--basis", str(basis_path),
            "--angles", "0,90", "--radial", "16", "--angular", "32"]
    expected = tmp_path / "expected.csv"
    assert run(args + ["--out", str(expected)]) == 0
    for i, form in enumerate(_MODULE_FORMS):
        out = tmp_path / f"out{i}.csv"
        proc = subprocess.run([sys.executable, *form, *args, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == expected.read_bytes()
        proc = subprocess.run([sys.executable, *form, *args, "--radial", "0", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("slepmoments: usage error: argument --radial: ")


_NO_NUMPY_MA = """
import sys
from slepmoments.cli import run

out = sys.argv[1]
sweep = ["--fractions", "0.5", "--repeats", "2", "--epochs", "5", "--radial", "16",
         "--angular", "32"]
assert run(["classify", "--classes", "2", "--per-class", "3", *sweep,
            "--out", out + "/cls.csv"]) == 0
assert "numpy.ma" not in sys.modules, "classify"
assert run(["synth", "--classes", "2", "--per-class", "3", "--size", "32",
            "--out-dir", out + "/synth"]) == 0
assert run(["classify", "--data-dir", out + "/synth", *sweep,
            "--out", out + "/clsdir.csv"]) == 0
assert "numpy.ma" not in sys.modules, "classify --data-dir"
"""


def test_classify_never_loads_numpy_ma(tmp_path):
    # np.unique's default path imports numpy.ma only to ask whether labels are masked
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA, str(tmp_path)],
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_EXIT_HANDLER = (
    "import atexit, sys\n"
    "atexit.register(print, 'an exit handler ran', file=sys.stderr)\n"
    "from slepmoments.cli import main\n"
    "main()\n"
)


@pytest.mark.parametrize("args, code", [
    (["invariants", "--moments", "{moments}", "--out", "{out}"], 0),
    (["invariants", "--moments", "{out}", "--out", "{out}"], 1),
    (["invariants", "--moments", "{moments}"], 2),
], ids=["0", "1", "2"])
def test_main_ends_the_process_once_its_outputs_are_written(tmp_path, moments_path, args,
                                                            code):
    # the interpreter's exit (its exit handlers, collections and module teardown) is
    # skipped, and the exit code, the one stderr line and the output are those of run
    out = tmp_path / "p.csv"
    args = [a.format(moments=moments_path, out=out) for a in args]
    proc = subprocess.run([sys.executable, "-c", _EXIT_HANDLER, *args], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == (code != 0) and "exit handler" not in proc.stderr
    assert out.exists() == (code == 0)
    if code == 0:
        expected = tmp_path / "expected.csv"
        assert run(["invariants", "--moments", str(moments_path), "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [["--help"], ["dpss", "gen", "--help"]],
                         ids=["help", "dpss-gen-help"])
def test_a_closed_stdout_exits_one_with_one_line(args, unbuffered):
    # a pipe whose read end is closed before the run: a buffered stdout fails at
    # main's flush, an unbuffered one at argparse's write; either way the line names
    # the stream, where Python's own exit printed two lines and exited 120
    env = {k: v for k, v in _src_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "slepmoments", *args], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "slepmoments: error: [Errno 32] Broken pipe: '<stdout>'\n"


def test_stability_commands_leave_no_process_behind(tmp_path, monkeypatch, image_path):
    # a worker that outlived its command would hold the captured stderr open, and
    # the run would time out; the bytes are those of a serial run in this process
    args = ["--image", str(image_path), "--angles", "0,30,60,90,120",
            "--radial", "16", "--angular", "32"]
    for command in ("rotate-test", "noise-test"):
        out, expected = tmp_path / f"{command}.csv", tmp_path / f"{command}-serial.csv"
        proc = subprocess.run([sys.executable, "-m", "slepmoments", command, *args,
                               "--out", str(out)],
                              env=_src_env(), capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == proc.stderr == b""
        with monkeypatch.context() as serial:
            serial.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            assert run([command, *args, "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()


def test_a_failing_frame_prints_one_error_and_writes_nothing(tmp_path):
    # the 45-degree frame of a corner dot is all zeros, so its noise is undefined
    pixels = np.zeros((9, 9))
    pixels[0, 0] = 1.0
    image, out = tmp_path / "dot.pgm", tmp_path / "t.csv"
    image.write_bytes(write_pgm(RasterImage(pixels)))
    proc = subprocess.run([sys.executable, "-m", "slepmoments", "noise-test", "--image",
                           str(image), "--angles", "0,45", "--radial", "16", "--angular",
                           "32", "--out", str(out), "--json-out", str(tmp_path / "t.json")],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ("slepmoments: error: signal power is zero; "
                           "SNR-referenced noise is undefined\n")
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dot.pgm"]


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_env(**thread_vars):
    """``_src_env()`` without the BLAS thread variables, then with ``thread_vars`` set."""
    env = {k: v for k, v in _src_env().items() if k not in _BLAS_THREAD_VARS}
    return dict(env, **thread_vars)


_THREADS_AFTER_DPSS = """
import os
import sys
import slepmoments.cli
from slepmoments import DpssParams, compute_dpss

compute_dpss(DpssParams(64, 0.2, 4))
assert "scipy.linalg" in sys.modules
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
def test_cli_process_runs_on_one_thread():
    # numpy's and scipy's OpenBLAS each start a worker thread unless told otherwise
    proc = subprocess.run([sys.executable, "-c", _THREADS_AFTER_DPSS], env=_blas_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


_ENV_CHANGES = """
import json
import os
import sys

before = dict(os.environ)
if sys.argv[1:] == ["numpy-first"]:
    import numpy
import slepmoments.cli

after = dict(os.environ)
print(json.dumps({k: after.get(k) for k in before.keys() | after.keys()
                  if before.get(k) != after.get(k)}))
"""


@pytest.mark.parametrize("thread_vars, args, changes", [
    ({}, [], {"OPENBLAS_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, [], {}),
    ({"GOTO_NUM_THREADS": "2"}, [], {}),
    ({"OMP_NUM_THREADS": "2"}, [], {}),
    ({}, ["numpy-first"], {}),
], ids=["unset", "openblas", "goto", "omp", "numpy-loaded-first"])
def test_cli_import_sets_one_blas_thread_only_when_nothing_chose(thread_vars, args, changes):
    proc = subprocess.run([sys.executable, "-c", _ENV_CHANGES, *args],
                          env=_blas_env(**thread_vars), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == changes


def test_package_import_loads_no_numpy():
    code = "import sys, slepmoments; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_PUBLIC_NAMES = {
    "classifier": ["LinearModel", "train_classifier", "train_classifiers"],
    "dpss": ["DpssBasis", "DpssParams", "basis_from_json", "basis_to_json", "compute_dpss",
             "radial_basis"],
    "errors": ["AliasingError", "DomainError", "FormatError", "ParameterError"],
    "harness": ["DEFAULT_SEED", "PROTOCOL_ANGLES_DEG", "PROTOCOL_ORDERS",
                "ClassificationReport", "LabeledDataset", "StabilityReport",
                "classification_sweep", "default_basis", "load_labeled_directory",
                "make_synthetic_dataset", "rotation_stability"],
    "imaging": ["GENERATOR_NAME", "NoiseSpec", "RasterImage", "add_gaussian_noise",
                "read_pgm", "rotate_image", "to_polar", "write_pgm"],
    "moments": ["Featurizer", "MomentSet", "compute_moments", "invariants",
                "invariants_to_csv", "moments_from_json", "moments_to_json", "reconstruct"],
    "synthetic": ["smooth_test_image"],
}


def test_package_namespace_is_its_submodules_public_names():
    assert sorted(slepmoments.__all__) == sorted(n for ns in _PUBLIC_NAMES.values() for n in ns)
    for module, names in _PUBLIC_NAMES.items():
        home = importlib.import_module(f"slepmoments.{module}")
        for name in names:
            assert getattr(slepmoments, name) is getattr(home, name), name
            assert vars(slepmoments)[name] is getattr(home, name), name
    assert set(slepmoments.__all__) <= set(dir(slepmoments))
    with pytest.raises(AttributeError, match="no_such_name"):
        slepmoments.no_such_name


def test_benchmark_traced_figures_name_public_functions():
    # perfbench's tracer times only the plain functions in each module's __all__,
    # under their own names, plus LinearModel.predict, and `run.py --trace 1` stops
    # when a figure BENCHMARK.json declares is missing
    declared = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    traced = [match.groups() for layer in declared["per_layer"]
              if (match := re.fullmatch(r"(\w+)\.([\w.]+)\.(?:calls|total_s|self_s)",
                                        layer["name"]))]
    assert ("imaging", "to_polar") in traced
    for module, name in traced:
        if (module, name) == ("classifier", "LinearModel.predict"):
            assert inspect.isfunction(slepmoments.classifier.LinearModel.predict)
            continue
        home = importlib.import_module(f"slepmoments.{module}")
        fn = getattr(home, name, None)
        assert name in home.__all__, f"{module}.{name}"
        assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn), f"{module}.{name}"
        assert fn.__name__ == name, f"{module}.{name}"


def test_each_subcommand_takes_exactly_its_flags():
    stability = ["--image", "--basis", "--angles", "--orders", "--radial", "--angular"]
    assert dict(_option_strings(_build_parser())) == {
        "dpss gen": ["--n", "--w", "--k", "--out"],
        "moments compute": ["--image", "--basis", "--m", "--l", "--radial", "--angular",
                            "--angle", "--out"],
        "invariants": ["--moments", "--out"],
        "reconstruct": ["--moments", "--basis", "--radial", "--angular", "--out"],
        "rotate-test": stability + ["--out", "--json-out"],
        "noise-test": stability + ["--snr-db", "--seed", "--out", "--json-out"],
        "classify": ["--data-dir", "--classes", "--per-class", "--rotations", "--fractions",
                     "--repeats", "--basis", "--radial", "--angular", "--reg", "--epochs",
                     "--out", "--json-out", "--seed"],
        "synth": ["--classes", "--per-class", "--rotations", "--size", "--out-dir", "--seed"],
    }


_CHEAP_STABILITY = ["--angles", "0", "--radial", "16", "--angular", "32"]


@pytest.mark.parametrize("argv", [
    ["dpss", "gen", "--n", "8", "--w", "0.2", "--k", "2", "--seed", "1"],
    ["invariants", "--moments", "{moments}", "--precision", "3"],
    ["reconstruct", "--moments", "{moments}", "--basis", "{basis}", "--radial", "16",
     "--angular", "32", "--seed", "1"],
    ["rotate-test", *_CHEAP_STABILITY, "--snr-db", "20"],
    ["rotate-test", *_CHEAP_STABILITY, "--seed", "1"],
    ["synth", "--classes", "2", "--per-class", "1", "--size", "16", "--precision", "2"],
    ["classify", "--classes", "2", "--per-class", "2", "--no-stratify"],
    ["rotate-test", *_CHEAP_STABILITY, "--precision", "4"],
    ["noise-test", *_CHEAP_STABILITY, "--precision", "4"],
    ["classify", "--classes", "2", "--per-class", "2", "--precision", "4"],
], ids=["dpss-seed", "invariants-precision", "reconstruct-seed", "rotate-snr-db",
        "rotate-seed", "synth-precision", "classify-no-stratify", "rotate-precision",
        "noise-precision", "classify-precision"])
def test_removed_flags_exit_two(tmp_path, capsys, moments_path, basis_path, argv):
    argv = [a.format(moments=moments_path, basis=basis_path) for a in argv]
    out = "--out-dir" if argv[0] == "synth" else "--out"
    assert run(argv + [out, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    removed = argv[-2:] if argv[-1][0].isdigit() else argv[-1:]  # the flag and any value
    assert err == f"slepmoments: usage error: unrecognized arguments: {' '.join(removed)}\n"
    assert not (tmp_path / "out").exists()


_COMPUTE = ["moments", "compute", "--image", "x.pgm", "--basis", "b.json", "--m", "2"]


@pytest.mark.parametrize("argv, flag", [
    (["noise-test", "--seed", "-1"], "--seed"),
    (["classify", "--classes", "1"], "--classes"),
    (_COMPUTE + ["--l", "1", "--angle", "nan"], "--angle"),
    (["classify", "--reg", "inf"], "--reg"),
    (_COMPUTE + ["--l", "-1"], "--l"),
    (_COMPUTE + ["--l", "1", "--radial", "0"], "--radial"),
    (["rotate-test", "--angles", ""], "--angles"),
    (["classify", "--fractions", ""], "--fractions"),
    (["rotate-test", "--orders", ""], "--orders"),
    (["rotate-test", "--orders=-1,1"], "--orders"),
    (["synth", "--size", "1"], "--size"),
    (["dpss", "gen", "--n", "8", "--w", "0.6", "--k", "2"], "--w"),
    (["dpss", "gen", "--n", "8", "--w", "0.1", "--k", "9"], "--k"),
    (["classify", "--reg", "-1"], "--reg"),
    # "" names no file, though Path("") is the working directory
    (["moments", "compute", "--image", "", "--basis", "b.json", "--m", "2", "--l", "1"],
     "--image"),
    (["rotate-test", "--image", ""], "--image"),
    (["noise-test", "--basis", ""], "--basis"),
    (["invariants", "--moments", ""], "--moments"),
    (["invariants", "--moments", "m.json", "--out", ""], "--out"),
    (["classify", "--json-out", ""], "--json-out"),
    (["classify", "--data-dir", ""], "--data-dir"),
    (["synth", "--out-dir", ""], "--out-dir"),
], ids=["seed", "classes", "angle", "reg", "l", "radial", "angles-empty",
        "fractions-empty", "orders-empty", "orders-negative", "size", "w", "k",
        "reg-negative", "compute-image-empty", "image-empty", "basis-empty",
        "moments-empty", "out-empty", "json-out-empty", "data-dir-empty", "out-dir-empty"])
def test_bad_values_exit_two_naming_the_flag(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"slepmoments: usage error: argument {flag}: ")
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_a_list_that_starts_with_a_minus_is_joined_to_its_flag(tmp_path, monkeypatch, capsys):
    # argparse reads a separate word that starts with '-' as a flag unless it is one
    # negative number; joined by '=', the list reaches its own parser
    monkeypatch.chdir(tmp_path)
    grid = ["--radial", "16", "--angular", "32", "--out", "t.csv"]
    assert run(["rotate-test", "--angles=-35,0", *grid]) == 0
    assert [row.split(",")[0] for row in (tmp_path / "t.csv").read_text().splitlines()] == [
        "angle_deg", "-35.0", "0.0", "std"]
    assert run(["rotate-test", "--orders=-1,1", *grid]) == 2
    assert capsys.readouterr().err == (
        "slepmoments: usage error: argument --orders: orders must be nonnegative, "
        "got '-1,1'\n")
    assert run(["rotate-test", "--angles", "-35,0", *grid]) == 2
    assert capsys.readouterr().err == (
        "slepmoments: usage error: argument --angles: expected one argument\n")


@pytest.mark.parametrize("json_out", ["x", "./x", "link"], ids=["same", "dot-slash", "symlink"])
@pytest.mark.parametrize("argv", [
    ["rotate-test", "--angles", "0,90", "--radial", "16", "--angular", "32"],
    ["noise-test", "--angles", "0,90", "--radial", "16", "--angular", "32"],
    ["classify", "--classes", "2", "--per-class", "2", "--fractions", "0.5", "--repeats", "1",
     "--epochs", "1", "--radial", "8", "--angular", "32"],
], ids=["rotate-test", "noise-test", "classify"])
def test_json_out_naming_the_out_file_exits_two(tmp_path, monkeypatch, capsys, argv,
                                                json_out):
    # one file cannot hold both reports: the CSV renamed into place would be replaced
    # by the JSON, so the pair is refused before anything is read, computed or written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to("x")
    assert run([*argv, "--out", "x", "--json-out", json_out]) == 2
    assert capsys.readouterr().err == (
        "slepmoments: usage error: argument --json-out: names the same file as --out\n")
    assert {name: _entry(tmp_path / name) for name in os.listdir(tmp_path)} == {
        "link": ("link", "x")}


class _Reached(Exception):
    pass


@pytest.fixture()
def commands_unreachable(monkeypatch):
    """Make every capped command raise _Reached instead of computing anything."""
    def reached(args):
        raise _Reached(args.command)
    for name in ("_cmd_dpss_gen", "_cmd_moments_compute", "_cmd_reconstruct",
                 "_cmd_stability", "_cmd_classify", "_cmd_synth"):
        monkeypatch.setattr(cli, name, reached)


_RECONSTRUCT = ["reconstruct", "--moments", "m.json", "--basis", "b.json",
                "--radial", "8", "--angular", "8"]
_CAPPED = [
    (["dpss", "gen", "--w", "0.1", "--k", "1"], "--n", 4096),
    *((argv, flag, 2048)
      for argv in (_COMPUTE + ["--l", "1"], _RECONSTRUCT, ["rotate-test"], ["noise-test"],
                   ["classify"])
      for flag in ("--radial", "--angular")),
    (["synth"], "--size", 2048),
    (["classify"], "--repeats", 10_000),
    (["classify"], "--epochs", 100_000),
]


@pytest.mark.parametrize("argv, flag, cap", _CAPPED,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in _CAPPED])
def test_size_flags_refuse_one_above_their_cap(commands_unreachable, capsys, argv, flag,
                                               cap):
    # the value is refused while parsing, so nothing the size would allocate is reached;
    # the cap itself parses and reaches the (disabled) command
    argv = argv + ["--out-dir" if argv[0] == "synth" else "--out", "out"]
    assert run(argv + [flag, str(cap + 1)]) == 2
    assert capsys.readouterr().err == (
        f"slepmoments: usage error: argument {flag}: must be <= {cap}, got {cap + 1}\n")
    with pytest.raises(_Reached):
        run(argv + [flag, str(cap)])


_SNR_LEVELS = [
    ("-3001", "must be >= -3000, got -3001.0"), ("-3000", None), ("-2999", None),
    ("2999", None), ("3000", None), ("3001", "must be <= 3000, got 3001.0"),
]


@pytest.mark.parametrize("value, refusal", _SNR_LEVELS, ids=[v for v, _ in _SNR_LEVELS])
def test_snr_db_is_capped_at_3000_db_either_way(commands_unreachable, capsys, value,
                                                refusal):
    # 10 ** (snr_db / 10) overflows at 4000 dB and is 0 at -4000 dB; the cap is
    # checked while parsing, so no noise is drawn here
    argv = ["noise-test", f"--snr-db={value}", "--out", "out"]
    if refusal is None:
        with pytest.raises(_Reached):
            run(argv)
    else:
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"slepmoments: usage error: argument --snr-db: {refusal}\n")


def test_reconstruct_rejects_another_basis(tmp_path, capsys, image_path):
    b16, b8, mom = tmp_path / "b16.json", tmp_path / "b8.json", tmp_path / "s.json"
    assert run(["dpss", "gen", "--n", "16", "--w", "0.2", "--k", "4", "--out", str(b16)]) == 0
    assert run(["dpss", "gen", "--n", "8", "--w", "0.2", "--k", "2", "--out", str(b8)]) == 0
    assert run(["moments", "compute", "--image", str(image_path), "--basis", str(b16),
                "--m", "2", "--l", "1", "--radial", "16", "--angular", "32",
                "--out", str(mom)]) == 0
    capsys.readouterr()
    assert run(["reconstruct", "--moments", str(mom), "--basis", str(b8), "--radial", "16",
                "--angular", "32", "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert "dpss-n16-w0.2-k4" in err and "dpss-n8-w0.2-k2" in err and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_reconstruct_rejects_a_basis_whose_half_bandwidth_differs_past_six_digits(
        tmp_path, capsys, image_path):
    # --w 0.2 and --w 0.2000001 write bases whose sequences differ by about 5e-7, and
    # a six-digit id named both dpss-n64-w0.2-k10, so reconstruct took either
    b, other, mom = tmp_path / "b.json", tmp_path / "other.json", tmp_path / "s.json"
    for w, out in (("0.2", b), ("0.2000001", other)):
        assert run(["dpss", "gen", "--n", "64", "--w", w, "--k", "10", "--out", str(out)]) == 0
    assert run(["moments", "compute", "--image", str(image_path), "--basis", str(b),
                "--m", "2", "--l", "1", "--radial", "16", "--angular", "32",
                "--out", str(mom)]) == 0
    capsys.readouterr()
    assert run(["reconstruct", "--moments", str(mom), "--basis", str(other), "--radial", "16",
                "--angular", "32", "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr() == ("", (
        f"slepmoments: error: moment file {mom} was computed with basis 'dpss-n64-w0.2-k10', "
        f"but {other} is 'dpss-n64-w0.2000001-k10'\n"))
    assert not (tmp_path / "r.json").exists()


def test_reconstruct_refuses_more_radial_orders_than_the_basis_has(tmp_path, capsys,
                                                                   image_path):
    # a moment file edited to hold m = 4, 5 still names the N=16, K=4 basis it came from
    basis, mom, out = tmp_path / "b16.json", tmp_path / "s.json", tmp_path / "r.json"
    assert run(["dpss", "gen", "--n", "16", "--w", "0.2", "--k", "4", "--out", str(basis)]) == 0
    assert run(["moments", "compute", "--image", str(image_path), "--basis", str(basis),
                "--m", "4", "--l", "1", "--radial", "16", "--angular", "32",
                "--out", str(mom)]) == 0
    doc = json.loads(mom.read_text())
    doc["moments"] += [{"m": m, "n": n, "re": 0.0, "im": 0.0} for m in (4, 5) for n in (-1, 0, 1)]
    mom.write_text(json.dumps(doc))
    assert run(["reconstruct", "--moments", str(mom), "--basis", str(basis), "--radial", "16",
                "--angular", "32", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"slepmoments: error: moment file {mom} cannot be reconstructed with {basis}: "
        "max_radial 6 exceeds basis n_seq 4\n")
    assert not out.exists()


def test_reconstruct_refuses_a_grid_coarser_than_the_moment_grid(tmp_path, capsys,
                                                                  moments_path, basis_path):
    out = tmp_path / "r.json"
    assert run(["reconstruct", "--moments", str(moments_path), "--basis", str(basis_path),
                "--radial", "8", "--angular", "32", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"slepmoments: error: moment file {moments_path} cannot be reconstructed with "
        f"{basis_path}: target grid (8, 32) must match or refine the moment grid (16, 32)\n")
    assert not out.exists()


def test_classify_empty_class_directory_exits_one(tmp_path, capsys):
    root = tmp_path / "data"
    assert run(["synth", "--classes", "2", "--per-class", "2", "--size", "32",
                "--out-dir", str(root)]) == 0
    (root / "class3").mkdir()
    assert run(["classify", "--data-dir", str(root), "--fractions", "0.5", "--repeats", "1",
                "--radial", "16", "--angular", "32", "--epochs", "5",
                "--out", str(tmp_path / "a.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slepmoments: error:") and "class3" in err


@pytest.mark.parametrize("patch, reason", [
    ({"n": 8.5}, "n and k must be integers"),
    ({"k": 2.0}, "n and k must be integers"),
    ({"sequences": [[7.0] * 8] * 2, "eigenvalues": [0.5, 0.5]}, "unit norm"),
    ({"eigenvalues": [float("nan"), 0.5]}, "must be finite"),
    ({"sequences": [[1.0] + [0.0] * 7, [0.0, 2.0] + [0.0] * 6]}, "unit norm"),
    ({"eigenvalues": [1.0, 0.5]}, "eigenvalues must decrease strictly within (0, 1)"),
    ({"eigenvalues": [0.5, 0.0]}, "eigenvalues must decrease strictly within (0, 1)"),
    ({"eigenvalues": [0.5, 0.9]}, "eigenvalues must decrease strictly within (0, 1)"),
    ({"w": "0.1"}, "w must be a number"),
    ({"w": True}, "w must be a number"),
    ({"w": 0.7}, "half_bandwidth must lie in (0, 0.5)"),
    ({"sequences": "abc"}, "sequences must be an array of numbers"),
    ({"sequences": [[0.5] * 8, [0.5] * 7]}, "sequences must be an array of numbers"),
    ({"eigenvalues": "x"}, "eigenvalues must be an array of numbers"),
    ([1, 2], "must hold a JSON object"),
    ("basis", "must hold a JSON object"),
    ({"sequences": [[1e300] * 8] * 2}, "unit norm"),
    ({"w": 10**400}, "too large to convert to float"),
    ({"n": 2, "w": 0.25, "k": 1, "eigenvalues": [0.5], "sequences": [[True, 0]]},
     "sequences must be an array of numbers"),
], ids=["n-real", "k-real", "all-sevens", "nan", "norm-2", "eig-1", "eig-0", "eig-rising",
        "w-string", "w-bool", "w-range", "sequences-string", "sequences-ragged",
        "eigenvalues-string", "top-list", "top-string", "norm-overflow", "w-overflow",
        "sequences-bool-beside-number"])
@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_invalid_basis_exits_one(tmp_path, capsys, image_path, patch, reason):
    # a dict patches a valid basis document; any other value replaces the whole document
    good = tmp_path / "b.json"
    assert run(["dpss", "gen", "--n", "8", "--w", "0.2", "--k", "2", "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    if isinstance(patch, dict):
        doc.update(patch)
    else:
        doc = patch
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["moments", "compute", "--image", str(image_path), "--basis", str(bad),
                "--m", "2", "--l", "1", "--radial", "16", "--angular", "32",
                "--out", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    # each case is refused for the reason it was written for, in one line
    assert err.startswith(f"slepmoments: error: basis file {bad}: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("command", ["moments", "reconstruct", "rotate-test"])
def test_basis_with_negated_sequences_exits_one(tmp_path, capsys, image_path, basis_path,
                                                moments_path, command):
    # every row but the first is negated, so a check of row 0 alone would pass it
    doc = json.loads(basis_path.read_text())
    doc["sequences"][1:] = [[-x for x in row] for row in doc["sequences"][1:]]
    bad = tmp_path / "negated.json"
    bad.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "moments": ["moments", "compute", "--image", str(image_path), "--basis", str(bad),
                    "--m", "2", "--l", "1", *out],
        "reconstruct": ["reconstruct", "--moments", str(moments_path), "--basis", str(bad),
                        "--radial", "16", "--angular", "32", *out],
        "rotate-test": ["rotate-test", "--basis", str(bad), *_CHEAP_STABILITY, *out],
    }[command]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"slepmoments: error: basis file {bad}: "
        "each sequence's first nonzero entry must be positive\n")
    assert not (tmp_path / "out").exists()


def test_write_atomic_streams_json_chunks(tmp_path):
    # a document the size of the N=4096, K=80 basis is written a row at a time,
    # so the text held at once is a small part of the file
    rng = np.random.default_rng(7)
    doc = {"n": 4096, "w": 0.01, "k": 80, "eigenvalues": rng.random(80),
           "sequences": rng.standard_normal((80, 4096))}
    path = tmp_path / "b.json"
    tracemalloc.start()
    try:
        _write_atomic((path, _json_chunks(doc)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 7_000_000
    assert peak < size / 8
    loaded = json.loads(path.read_text())
    assert np.array(loaded["sequences"]).tobytes() == doc["sequences"].tobytes()


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 8.00 GiB for an array with shape (80, 4096, 4096)"),
     "slepmoments: error: out of memory: Unable to allocate 8.00 GiB for an array "
     "with shape (80, 4096, 4096)\n"),
    (MemoryError(), "slepmoments: error: out of memory\n"),
], ids=["numpy", "bare"])
def test_memory_error_exits_one_with_one_line(tmp_path, capsys, monkeypatch, exc, line):
    def fail(params):
        raise exc
    monkeypatch.setattr(slepmoments.cli, "compute_dpss", fail)
    out = tmp_path / "b.json"
    assert run(["dpss", "gen", "--n", "8", "--w", "0.2", "--k", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == line
    assert not out.exists()


@forking
def test_a_later_split_failure_reads_the_same_on_any_cpu_count(tmp_path, capsys, cpus):
    # every split is drawn before anything is trained, so the 0.1 split fails first
    out = tmp_path / "c.csv"
    argv = ["classify", "--classes", "6", "--per-class", "8", "--fractions", "0.5,0.1",
            "--repeats", "4", "--epochs", "5", "--radial", "16", "--angular", "32",
            "--out", str(out)]
    errors = []
    for n in (1, 2):
        forks = cpus(n)
        assert run(argv) == 1
        assert len(forks) == n - 1  # the featurization's child; no training is forked
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].count("\n") == 1
    assert errors[0] == ("slepmoments: error: training fraction 0.1 leaves class 'class1' "
                         "with no training items (8 available)\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, digest", [
    (["--n", "64", "--w", "0.1", "--k", "10"],
     "3c73a45b090bcd62178b333cf6c7d68646b342f9a8c80fa7baa7e3e16878261b"),
    (["--n", "1024", "--w", "0.05", "--k", "30"],
     "18fcd29f421747e005f9d7357486cfa6f705f70f5fffaa2874e5b08bd9a26ad2"),
    (["--n", "4096", "--w", "0.01", "--k", "80"],
     "225ba01ce4478141f7c6ff71f124f80f4a474f67e2b410b88b2c45033647ba59"),
], ids=["basis", "basis_big", "basis_batch"])
def test_dpss_gen_writes_the_recorded_bytes(tmp_path, argv, digest):
    # the SHA-256 of the golden-corpus basis files in CHANGES.md; they were
    # recorded on x86-64 with numpy 2.4 and scipy 1.17, and another LAPACK
    # build may differ in the last bits
    out = tmp_path / "b.json"
    assert run(["dpss", "gen", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    """The golden-corpus inputs: p128 and p64 are smooth_test_image(128) and (64) as PGM,
    basis.json and basis_big.json the `basis` and `basis_big` bases above, mom.json and
    mom_rot.json moments of p128 and synth/ a small PGM tree."""
    root = tmp_path_factory.mktemp("golden")
    (root / "p128").write_bytes(write_pgm(smooth_test_image(128)))
    (root / "p64").write_bytes(write_pgm(smooth_test_image(64)))
    assert run(["synth", "--seed", "5", "--classes", "3", "--per-class", "4",
                "--rotations", "2", "--size", "64", "--out-dir", str(root / "synth")]) == 0
    for name, n, w, k in (("basis.json", "64", "0.1", "10"),
                          ("basis_big.json", "1024", "0.05", "30")):
        assert run(["dpss", "gen", "--n", n, "--w", w, "--k", k,
                    "--out", str(root / name)]) == 0
    for name, rotation in (("mom.json", []), ("mom_rot.json", ["--angle", "35"])):
        assert run(["moments", "compute", "--image", str(root / "p128"), "--basis",
                    str(root / "basis.json"), "--m", "10", "--l", "9", *rotation,
                    "--out", str(root / name)]) == 0
    return root


# each row is (command, --out digest, --json-out digest or None); a row with a
# --json-out digest pins both files of one run
_GOLDEN = [
    ("moments compute --image p128 --basis basis.json --m 10 --l 9",
     "91b16dca39479aee178b16cc6221d0d5f1907664fce113ca779f756bf42b0576", None),
    ("moments compute --image p128 --basis basis.json --m 10 --l 9 --angle 35",
     "3e63f70d2a74bd3498ad3e2b12be771b4fce0ede75e09b5cbb0205ead90dcaaa", None),
    ("moments compute --image p64 --basis basis_big.json --m 20 --l 12 --radial 64 "
     "--angular 64",
     "99092038a2b2eb27808019233287bfa137e94a79739d5d9658a21b15139aa57d", None),
    ("invariants --moments mom.json",
     "fc437883a1b662dd6820eafa6f95030a196164cfd63ffc9bae4c710cefec7113", None),
    ("invariants --moments mom_rot.json",
     "04c3f2daf87e136cd8520565d39455db1af879b87e3097d8eef616b90c5a6409", None),
    # rec.json changes when reconstruct is made to invert compute_moments
    # (ROADMAP item 1), under its own exception to the byte-for-byte rule
    ("reconstruct --moments mom.json --basis basis.json --radial 128 --angular 256",
     "90372389a2106cf1a75d96c3357e54c29b9833bcec2beffadfccf51d2265c4f7", None),
    ("rotate-test --image p128",
     "c37b0ab20fbef1039ce8f97b2d244dc93f7ab3b2958ee9c44fe0933ab37da4a9",
     "3c57a2ef42910ddb4eaa9d5d8d20b0faaddfd585aa838a410e15dd2406e9c8fb"),
    ("rotate-test",
     "854ea589c9d3bd42220169e565ba8926949d109f26f4cbbf2ab2c850a7a354e4", None),
    ("noise-test --image p128 --seed 11",
     "0a3616500b386c3d0d036926eb385b78ef63568c65076dd0852ce92f53576ce0",
     "ce3c5eff7600c8139c3988b4cdf1766a0ddd7b706d6cbd6f2d9296d11c516eac"),
    ("noise-test",
     "77e8f78568f52df2a5ec73c7f296b7363b4edb216720ee7465a93d0245114cc5", None),
    ("noise-test --image p64 --basis basis.json --snr-db 20 --seed 3 --angles 0,10,20",
     "d6df9690f780897561bfe333d51913e2955e2b6581ae32c7b9fff78ab813dc8a",
     "64ee287b81cbf4d7b5cab7c6e8272cdf17e74b45fd838c697d1043af9968d344"),
    ("classify --seed 5",
     "ca62ad466d0d4b65bfe981a0149d8d9f40f622d4b15c99dfed0ca0cd8305c763",
     "1d9353717d07a325c15a761a07ea830dea1aead45e3ea145551a8d7bbcc97127"),
    ("classify --seed 5 --classes 3 --per-class 5 --rotations 2 --fractions 0.3,0.6 "
     "--repeats 4",
     "40b2cd2d771bef2eb63841dcb4c8bf90f885c82b472684002972e33c86d709db",
     "47ca05b415adf4f38728d0b25a110bb60c1fe9d19320575841d3ab3ab2576655"),
    ("classify --seed 5 --data-dir synth --fractions 0.5 --repeats 3",
     "1e8e8ff6707291572c9461159703ae109239d8c101c62e11ebcf6c736229be08",
     "2b8d63ba34df633af5e3f7ccc84194c72250ec2f720bf94fe90e22c2ef033b8d"),
    ("classify",
     "381f6b5d69bc9ce0316ac92645e75d910926a5af9c3f02cc69380e0bb317f3a6", None),
]
_GOLDEN_IDS = ["mom.json", "mom_rot.json", "mom_big.json", "phi.csv", "phi_rot.csv",
               "rec.json", "rot.csv", "default_rot.csv", "noise.csv", "default_noise.csv",
               "rot2.csv", "cls.csv", "cls2.csv", "clsdir.csv", "default_cls.csv"]


def _check_golden(out_dir, argv, digest, json_digest):
    # the SHA-256 of the golden-corpus outputs in CHANGES.md, from the same inputs and
    # commands; they were recorded on x86-64 with numpy 2.4 and scipy 1.17, and
    # another LAPACK build may differ in the last bits
    out, json_out = out_dir / "out", out_dir / "out.json"
    extra = [] if json_digest is None else ["--json-out", str(json_out)]
    assert run([*argv.split(), "--out", str(out), *extra]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if json_digest is not None:
        assert hashlib.sha256(json_out.read_bytes()).hexdigest() == json_digest


@pytest.mark.parametrize("argv, digest, json_digest", _GOLDEN, ids=_GOLDEN_IDS)
def test_commands_write_the_recorded_bytes(tmp_path, monkeypatch, golden_inputs, argv,
                                           digest, json_digest):
    monkeypatch.chdir(golden_inputs)
    _check_golden(tmp_path, argv, digest, json_digest)


_STABILITY_GOLDEN = [(row, name) for row, name in zip(_GOLDEN, _GOLDEN_IDS)
                     if row[0].split()[0] in ("rotate-test", "noise-test")]


@pytest.mark.parametrize("cpus", [1, 3], ids=["serial", "3-cpus"])
@pytest.mark.parametrize("argv, digest, json_digest", [row for row, _ in _STABILITY_GOLDEN],
                         ids=[name for _, name in _STABILITY_GOLDEN])
def test_stability_commands_write_the_recorded_bytes_on_any_cpu_count(
        tmp_path, monkeypatch, golden_inputs, argv, digest, json_digest, cpus):
    # the frames run in one process, or forked over three
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.chdir(golden_inputs)
    _check_golden(tmp_path, argv, digest, json_digest)


_CLASSIFY_GOLDEN = [(row, name) for row, name in zip(_GOLDEN, _GOLDEN_IDS)
                    if row[0].split()[0] == "classify"]


@pytest.mark.parametrize("cpus", [1, 3], ids=["serial", "3-cpus"])
@pytest.mark.parametrize("argv, digest, json_digest", [row for row, _ in _CLASSIFY_GOLDEN],
                         ids=[name for _, name in _CLASSIFY_GOLDEN])
def test_classify_commands_write_the_recorded_bytes_on_any_cpu_count(
        tmp_path, monkeypatch, golden_inputs, argv, digest, json_digest, cpus):
    # the images are featurized and every split trained in one process, or forked
    # over three
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.chdir(golden_inputs)
    _check_golden(tmp_path, argv, digest, json_digest)
