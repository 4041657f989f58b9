import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slepmoments
from slepmoments import (
    PROTOCOL_ORDERS,
    default_basis,
    rotation_stability,
    smooth_test_image,
    write_pgm,
)
from slepmoments.cli import _build_parser, run


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
    assert err.startswith("slepmoments: error: moment grid") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


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


def _option_strings(parser, prefix=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(prefix), [opt for a in parser._actions for opt in a.option_strings
                                 if opt not in ("-h", "--help")]
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _option_strings(child, prefix + (name,))


def test_each_subcommand_takes_exactly_its_flags():
    stability = ["--image", "--basis", "--angles", "--orders", "--radial", "--angular"]
    assert dict(_option_strings(_build_parser())) == {
        "dpss gen": ["--n", "--w", "--k", "--out"],
        "moments compute": ["--image", "--basis", "--m", "--l", "--radial", "--angular",
                            "--angle", "--out"],
        "invariants": ["--moments", "--out"],
        "reconstruct": ["--moments", "--basis", "--radial", "--angular", "--out"],
        "rotate-test": stability + ["--out", "--json-out", "--precision"],
        "noise-test": stability + ["--snr-db", "--seed", "--out", "--json-out",
                                   "--precision"],
        "classify": ["--data-dir", "--classes", "--per-class", "--rotations", "--fractions",
                     "--repeats", "--basis", "--radial", "--angular", "--reg", "--epochs",
                     "--no-stratify", "--out", "--json-out", "--seed", "--precision"],
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
], ids=["dpss-seed", "invariants-precision", "reconstruct-seed", "rotate-snr-db",
        "rotate-seed", "synth-precision"])
def test_removed_flags_exit_two(tmp_path, capsys, moments_path, basis_path, argv):
    argv = [a.format(moments=moments_path, basis=basis_path) for a in argv]
    out = "--out-dir" if argv[0] == "synth" else "--out"
    assert run(argv + [out, str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"slepmoments: usage error: unrecognized arguments: {' '.join(argv[-2:])}\n"
    assert not (tmp_path / "out").exists()


_COMPUTE = ["moments", "compute", "--image", "x.pgm", "--basis", "b.json", "--m", "2"]


@pytest.mark.parametrize("argv, flag", [
    (["rotate-test", "--precision", "-1"], "--precision"),
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
], ids=["precision", "seed", "classes", "angle", "reg", "l", "radial", "angles-empty",
        "fractions-empty", "orders-empty", "orders-negative", "size"])
def test_bad_values_exit_two_naming_the_flag(tmp_path, capsys, argv, flag):
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"slepmoments: usage error: argument {flag}: ")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("patch", [
    {"n": 8.5},
    {"k": 2.0},
    {"sequences": [[7.0] * 8] * 2, "eigenvalues": [0.5, 0.5]},
    {"eigenvalues": [float("nan"), 0.5]},
    {"sequences": [[1.0] + [0.0] * 7, [0.0, 2.0] + [0.0] * 6]},
    {"eigenvalues": [1.0, 0.5]},
    {"eigenvalues": [0.5, 0.0]},
    {"eigenvalues": [0.5, 0.9]},
    {"w": "0.1"},
    {"w": True},
    {"w": 0.7},
], ids=["n-real", "k-real", "all-sevens", "nan", "norm-2", "eig-1", "eig-0", "eig-rising",
        "w-string", "w-bool", "w-range"])
def test_invalid_basis_exits_one(tmp_path, capsys, image_path, patch):
    good = tmp_path / "b.json"
    assert run(["dpss", "gen", "--n", "8", "--w", "0.2", "--k", "2", "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    doc.update(patch)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["moments", "compute", "--image", str(image_path), "--basis", str(bad),
                "--m", "2", "--l", "1", "--radial", "16", "--angular", "32",
                "--out", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"slepmoments: error: basis file {bad}") and err.count("\n") == 1
