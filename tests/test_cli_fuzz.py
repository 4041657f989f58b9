"""A seeded fuzzer of the CLI's exit-code contract, run in process through ``cli.run``.

Each run draws a subcommand and, for each of its flags, a valid value, an edge
value from the pool of the flag's kind, or no value. Every run works in a fresh
directory holding the same small inputs. The contract: no exception escapes;
exit 0 prints nothing and writes its --out; exit 1 or 2 prints exactly one
stderr line and leaves the directory as it was. A test checks that each
command's pool holds exactly the flags the parser declares for it, so a new
flag fails that test until it joins its pool and is fuzzed.

The inputs include a FIFO and symlinks, one to a regular input and one to
/dev/zero, and the input pools name devices, because every input must be a
regular file and is refused unopened otherwise. An output may be a FIFO, which
is refused too, but never a path under /dev: were that refusal lost, a run
with the right to write /dev would replace the device node.
"""

import argparse
import os
import random
import resource
import stat
from pathlib import Path

import numpy as np
import pytest

from slepmoments import RasterImage, smooth_test_image, write_pgm
from slepmoments.cli import _build_parser, run

SEED = 2016
RUNS = 400

# edge values of each kind of flag: empty, signed, fractional, huge and
# non-ASCII-digit integers; nan, +-inf and out-of-range reals; malformed lists
# and orders
_INTEGERS = ["", "-1", "+2", "0", "1.5", "1e3", "٣", " 3 ", "1_0", "0x10",
             str(2**63), str(10**30 - 1)]
_REALS = ["", "nan", "inf", "-inf", "1e400", "-1e400", "-0.0", "0", "1e-320", "1e300",
          "-1e300", "abc", "٠.٥"]
_LISTS = _REALS + [",", " , ", "1,,2", "a,b", "0;1", "nan,0.5", "0.5,1e400", "0.999999999999",
                   "-0.5,0.5", "0.5,0.5"]
_ORDERS = ["", ";", "1,1;;2,2", "a,b", "1,", "1,2,3", "-1,1", "1,-1", "0,0", "99,1", "1,99",
           f"{10**30},1", "٢,١"]
# inputs that are no regular file: a FIFO, a link to a device and devices themselves
_SPECIAL = ["fifo", "zero", "/dev/zero", "/dev/null"]
# every path pool holds "", which names no file and is refused while parsing
_IMAGES = ["", "img.pgm", "trunc.pgm", "text.pgm", "zero.pgm", "missing.pgm", "dir", "b.json",
           "link.json", *_SPECIAL]
_BASES = ["", "b.json", "b2.json", "bad.json", "m.json", "missing.json", "dir", "img.pgm",
          "link.json", *_SPECIAL]
_MOMENTS = ["", "m.json", "b.json", "bad.json", "missing.json", "dir", "img.pgm", "link.json",
            *_SPECIAL]
_DATA_DIRS = ["", "synth", "one", "broken", "pipes", "dir", "missing", "img.pgm", "fifo"]
_OUTPUTS = ["", "nodir/out", "dir", "img.pgm", "fifo", "link.json"]
_OUT_DIRS = ["", "nodir/tree", "dir", "img.pgm", "fifo"]

# (flag, required, valid values, edge values); an output flag's valid value is a new
# file, or a new directory for --out-dir
_GRID = [("--radial", False, ["8", "16"], _INTEGERS + ["2049"]),
         ("--angular", False, ["32", "48"], _INTEGERS + ["2049"])]
_STABILITY = [("--image", False, ["img.pgm"], _IMAGES),
              ("--basis", False, ["b.json"], _BASES),
              ("--angles", False, ["0,90", "35"], _LISTS),
              ("--orders", False, ["1,1;2,2", "1,2"], _ORDERS),
              *_GRID,
              ("--out", True, None, _OUTPUTS),
              ("--json-out", False, None, _OUTPUTS)]
_PATHS = (_IMAGES, _BASES, _MOMENTS, _DATA_DIRS, _OUTPUTS, _OUT_DIRS)
_COMMANDS = {
    ("dpss", "gen"): [("--n", True, ["8", "32"], _INTEGERS + ["4097"]),
                      ("--w", True, ["0.1", "0.2"], _REALS + ["0.5", "-0.1"]),
                      ("--k", True, ["1", "3"], _INTEGERS + ["33"]),
                      ("--out", True, None, _OUTPUTS)],
    ("moments", "compute"): [("--image", True, ["img.pgm"], _IMAGES),
                             ("--basis", True, ["b.json"], _BASES),
                             ("--m", True, ["2", "3"], _INTEGERS),
                             ("--l", True, ["1", "2"], _INTEGERS),
                             *_GRID,
                             ("--angle", False, ["35"], _REALS),
                             ("--out", True, None, _OUTPUTS)],
    ("invariants",): [("--moments", True, ["m.json"], _MOMENTS),
                      ("--out", True, None, _OUTPUTS)],
    ("reconstruct",): [("--moments", True, ["m.json"], _MOMENTS),
                       ("--basis", True, ["b.json"], _BASES),
                       ("--radial", True, ["8", "16"], _INTEGERS + ["2049"]),
                       ("--angular", True, ["32", "48"], _INTEGERS + ["2049"]),
                       ("--out", True, None, _OUTPUTS)],
    ("rotate-test",): _STABILITY,
    ("noise-test",): [*_STABILITY,
                      ("--snr-db", False, ["20"], _REALS + ["3001", "-3001"]),
                      ("--seed", False, ["5"], _INTEGERS)],
    ("classify",): [("--data-dir", True, ["synth"], _DATA_DIRS),
                    ("--fractions", False, ["0.5", "0.4,0.6"], _LISTS),
                    ("--repeats", False, ["1", "2"], _INTEGERS),
                    ("--basis", False, ["b.json"], _BASES),
                    *_GRID,
                    ("--reg", False, ["0.01", "0"], _REALS),
                    ("--epochs", False, ["1", "5"], _INTEGERS),
                    ("--out", True, None, _OUTPUTS),
                    ("--json-out", False, None, _OUTPUTS),
                    ("--seed", False, ["5"], _INTEGERS)],
    ("synth",): [("--classes", False, ["2", "3"], _INTEGERS),
                 ("--per-class", False, ["2", "3"], _INTEGERS),
                 ("--rotations", False, ["1", "2"], _INTEGERS),
                 ("--seed", False, ["5"], _INTEGERS),
                 ("--size", False, ["8", "16"], _INTEGERS + ["1", "2049"]),
                 ("--out-dir", True, None, _OUT_DIRS)],
}


def _option_strings(parser, prefix=()):
    """Yield each subcommand of ``parser`` (its words joined by spaces) with its
    option strings in declaration order, --help left out."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(prefix), [opt for a in parser._actions for opt in a.option_strings
                                 if opt not in ("-h", "--help")]
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _option_strings(child, prefix + (name,))


def test_the_pools_draw_every_flag_the_parser_declares():
    # a flag no pool names is never fuzzed, so each new flag must join its command's pool
    pools = {" ".join(command): sorted(flag for flag, *_ in pool)
             for command, pool in _COMMANDS.items()}
    assert pools == {command: sorted(flags)
                     for command, flags in _option_strings(_build_parser())}


def _draw(rng: random.Random) -> tuple[list[str], list[str], list[str], bool]:
    """One argv, the outputs it names that must exist after exit 0, every value it
    gives --out or --json-out, and whether it gives a path flag ""."""
    command = rng.choice(sorted(_COMMANDS))
    argv, outputs, files, empty_path = list(command), [], [], False
    for flag, required, valid, edges in _COMMANDS[command]:
        roll = rng.random()
        if roll < (0.05 if required else 0.3):
            continue
        if roll < 0.75:
            value = rng.choice(valid) if valid else f"new{flag}"
            if valid is None and flag != "--json-out":
                outputs.append(value)
        else:
            value = rng.choice(edges)
        if edges is _OUTPUTS:
            files.append(value)
        empty_path |= value == "" and any(edges is pool for pool in _PATHS)
        argv += [flag, value]
    if rng.random() < 0.05:  # a flag of no command
        argv.append("--bogus")
    return argv, outputs, files, empty_path


_FIFO = "fifo"  # the entry of a FIFO; a link's is ("link", target)


def _inputs(root: Path) -> dict:
    """The entry of every input a run's directory starts with, by relative path: a
    file's bytes, None for a directory, ``_FIFO`` or a link's ``("link", target)``.
    Its files are made in ``root``: a 32-pixel image, a basis and a moment file of
    it, a second basis, PGM trees, and damaged or misplaced copies."""
    image = write_pgm(smooth_test_image(32))
    files = {"img.pgm": image, "trunc.pgm": image[:-10], "text.pgm": b"P5\n8 8\n255\nabc",
             "zero.pgm": write_pgm(RasterImage(np.zeros((8, 8)))), "bad.json": b'{"n": 8,',
             "dir": None, "one": None, "one/a": None, "one/a/x.pgm": image,
             "synth": None, "broken": None, "broken/a": None, "broken/b": None,
             "broken/a/x.pgm": image, "broken/b/x.pgm": image[:20],
             "pipes": None, "pipes/a": None, "pipes/b": None, "pipes/a/x.pgm": _FIFO,
             "pipes/b/x.pgm": image, "fifo": _FIFO, "link.json": ("link", "b.json"),
             "zero": ("link", "/dev/zero")}
    (root / "img.pgm").write_bytes(image)
    for name, n in (("b.json", "32"), ("b2.json", "24")):
        assert run(["dpss", "gen", "--n", n, "--w", "0.2", "--k", "5",
                    "--out", str(root / name)]) == 0
        files[name] = (root / name).read_bytes()
    assert run(["moments", "compute", "--image", str(root / "img.pgm"), "--basis",
                str(root / "b.json"), "--m", "3", "--l", "2", "--radial", "16",
                "--angular", "32", "--out", str(root / "m.json")]) == 0
    files["m.json"] = (root / "m.json").read_bytes()
    assert run(["synth", "--classes", "2", "--per-class", "2", "--size", "16",
                "--out-dir", str(root / "synth")]) == 0
    for path in sorted((root / "synth").rglob("*")):
        files[str(path.relative_to(root))] = None if path.is_dir() else path.read_bytes()
    return files


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _inputs(tmp_path_factory.mktemp("fuzz-inputs"))


def _make(path: Path, entry) -> None:
    """Make the input that ``entry`` of ``_inputs`` describes at ``path``."""
    if entry is None:
        path.mkdir(parents=True)
    elif entry == _FIFO:
        os.mkfifo(path)
    elif isinstance(entry, tuple):
        path.symlink_to(entry[1])
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(entry)


def _entry(path: Path):
    """The ``_inputs`` entry of what is at ``path``, seen by ``lstat``: a FIFO is never
    opened and a link never followed."""
    mode = path.lstat().st_mode
    if stat.S_ISLNK(mode):
        return ("link", os.readlink(path))
    if stat.S_ISFIFO(mode):
        return _FIFO
    return None if stat.S_ISDIR(mode) else path.read_bytes()


def _snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): _entry(p) for p in sorted(root.rglob("*"))}


@pytest.fixture()
def capped_memory():
    """Cap this process's address space 1 GiB above its size for the test, so that a
    read of /dev/zero, were it no longer refused, fails instead of filling memory."""
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limits = [limit for limit in (soft, hard) if limit != resource.RLIM_INFINITY]
    resource.setrlimit(resource.RLIMIT_AS, (min([size + 2**30, *limits]), hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_no_run_breaks_the_exit_code_contract(tmp_path, monkeypatch, capsys, inputs,
                                              capped_memory):
    rng = random.Random(SEED)
    codes = []
    for i in range(RUNS):
        argv, outputs, files, empty_path = _draw(rng)
        work = tmp_path / f"run{i}"
        work.mkdir()
        for name, entry in inputs.items():
            _make(work / name, entry)
        before = _snapshot(work)
        assert before == inputs
        monkeypatch.chdir(work)
        try:
            code = run(argv)
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{argv} raised {type(exc).__name__}: {exc}")
        out, err = capsys.readouterr()
        assert out == "", argv
        assert code == 2 or not empty_path, (argv, code)
        if code == 0:
            assert err == "", argv
            assert all((work / name).exists() for name in outputs), argv
            # an output may be new, or replace a regular file or a symlink, nothing else
            assert all(isinstance(before.get(name, b""), (bytes, tuple)) for name in files), argv
        else:
            assert code in (1, 2), (argv, code)
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert err.startswith("slepmoments: error: " if code == 1
                                  else "slepmoments: usage error: "), (argv, err)
            assert _snapshot(work) == before, (argv, err)
        codes.append(code)
    # the pools reach every outcome, so the contract is checked on each
    assert {0, 1, 2} <= set(codes)
