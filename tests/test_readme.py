"""The README's examples, run as a reader runs them: the Library example in a fresh
interpreter from an empty working directory, and every CLI example through
``cli.run`` from a directory that holds the ``face.pgm`` they name, and the one
line that remakes the bundled test pattern. The README names every flag the CLI
parser declares, and no flag it does not."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from slepmoments import smooth_test_image, write_pgm
from slepmoments.cli import _build_parser, run

from test_cli import _src_env
from test_cli_fuzz import _option_strings

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("(12, 100) ")


def _cli_lines() -> list[str]:
    """Every ``slepmoments ...`` command of the README's ``sh`` blocks, its
    continuation lines joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [line.strip() for line in text.splitlines() if line.startswith("slepmoments ")]


def test_the_cli_examples_run(tmp_path, monkeypatch):
    # in README order, from a directory that holds face.pgm, as a reader runs them
    lines = _cli_lines()
    assert len(lines) == 12
    (tmp_path / "face.pgm").write_bytes(write_pgm(smooth_test_image(128)))
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert run(argv) == 0, line
        outputs = [value for flag, value in zip(argv, argv[1:])
                   if flag in ("--out", "--json-out", "--out-dir")]
        assert outputs, line
        for output in outputs:
            path = tmp_path / output
            assert (any(path.rglob("*.pgm")) if path.is_dir() else path.stat().st_size > 0), line


def test_the_pattern_line_remakes_the_bundled_pattern(tmp_path):
    # the README's one python line, run from a root holding src/slepmoments, writes
    # the bytes the package ships as rotate-test's and noise-test's default image
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("python -c ")]
    assert len(lines) == 1
    (tmp_path / "src" / "slepmoments").mkdir(parents=True)
    proc = subprocess.run([sys.executable, *shlex.split(lines[0])[1:]], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    default = _build_parser().parse_args(["rotate-test", "--out", "t.csv"]).image
    made = tmp_path / "src" / "slepmoments" / "pattern128.pgm"
    assert made.read_bytes() == Path(default).read_bytes()


def test_the_readme_names_every_flag_and_no_other():
    # a flag the README never names is undocumented, and one the parser does not
    # declare, such as a removed flag, is a stale sentence
    named = set(re.findall(r"(?<![\w-])--\w[\w-]*", README.read_text()))
    flags = {flag for _, flags in _option_strings(_build_parser()) for flag in flags}
    assert flags - named == set()
    assert named - flags == {"--help", "--no-build-isolation"}  # the parser's own, and pip's
