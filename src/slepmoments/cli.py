"""Command-line interface: one executable exposing the pipeline as subcommands.

Exit codes: 0 success, 1 computation/format/input errors, 2 usage errors.
Each flag is checked once, by its argparse type (dpss gen --k, bounded by
--n, right after parsing), so a bad value exits 2 with one line naming the
flag. The flags that size one allocation (dpss gen --n, --radial, --angular,
synth --size) or a loop (classify --repeats, --epochs) have upper bounds,
noise-test --snr-db must lie within +-3000 dB and classify --reg must be >= 0.
classify reads its images from --data-dir, a required flag: the synthetic
dataset is written by synth --out-dir first, as a user's own images are laid
out. Only noise-test, classify and synth draw random numbers, so only they take
--seed (a fixed default, never time-based). Every number in a table is the
shortest decimal that reads back as the same float64.

Every path flag (--image, --basis, --moments, --out, --json-out, --data-dir,
--out-dir) must be non-empty: "" names no file, though Path("") is the working
directory, so it exits 2 like any other bad value, before anything is read or
written. --json-out may not name the file --out names (after symlinks are
resolved), since the JSON would replace the CSV: that exits 2 too.

Every input file, image, basis or moment, is read by imaging._read_input, the
built-in ones too: the default --image of rotate-test and noise-test is
pattern128.pgm beside this module, the bytes of write_pgm(smooth_test_image(128)),
so a default run and one given --image of that file write the same bytes; the
default --basis of rotate-test, noise-test and classify is default_basis.json
beside this module, the file harness._DEFAULT_BASIS names and default_basis()
reads, so a default run and one given --basis of that file write the same bytes.
The CLI keeps no basis rule of its own: reconstruct's refusal of moments made
with another basis is moments.reconstruct's, which the command's line wraps to
name both files. An input file
must be a regular file (a symlink is followed): a FIFO, device or directory is
refused before it is opened, with one line "<kind> file <path>: not a regular
file", exit 1. So is a file its parser refuses, such as a basis that breaks a
sequence convention, signs included, or a PGM sample above its maxval; a
missing or unreadable file exits 1 with the system's line naming the path. A
synth of more than a million images (--classes x --per-class x --rotations)
exits 1 too, refused by harness._synthetic_spans before anything is rendered.
Every output file is written atomically, so identical invocations are
byte-identical, and a command with two outputs writes both or neither. Its
temporary file, named by _temporary_affixes, ends in a marker that only this
package writes, so synth's clean-up removes no user file beside an output. An
output path may be absent, a regular file or a symlink, which is replaced by
the file; a directory, FIFO, socket or device is refused, before anything is
written, with one line naming the path.

A process ends once its outputs are written: ``main`` flushes stdout and stderr
and leaves through ``os._exit``, since every output is closed and renamed and
every worker reaped before ``run`` returns. A failed flush (stdout on a closed
pipe) exits 1 with one line.

A CLI process runs OpenBLAS, numpy's and scipy's alike, on one thread: every
product here is small, so worker threads would only spin. Setting
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS overrides this, and
a process that loaded numpy before this module keeps its own choice.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

# OpenBLAS reads its thread count once, when it loads, so the choice must come
# before numpy's import; scipy.linalg's own OpenBLAS reads the same variable.
if "numpy" not in sys.modules and not any(
    var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .dpss import DpssParams, _json_chunks, basis_from_json, basis_to_json, compute_dpss
from .errors import FormatError, ParameterError
from .harness import (
    DEFAULT_SEED,
    PROTOCOL_ANGLES_DEG,
    PROTOCOL_ORDERS,
    _DEFAULT_BASIS,
    _fork_rows,
    _synthetic_spans,
    classification_sweep,
    load_labeled_directory,
    rotation_stability,
)
from .imaging import _MAX_SNR_DB, NoiseSpec, _read_input, read_pgm, rotate_image, write_pgm
from .moments import (
    _raster_moments,
    invariants,
    invariants_to_csv,
    moments_from_json,
    moments_to_json,
    reconstruct,
)

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep diagnostics to one line, exit code 2
        raise _UsageError(message)

    def _print_message(self, message, file=None):
        # argparse drops a failed write (--help into a closed pipe, unbuffered); raise
        # it, naming the stream, as main reports a failed flush
        file = file or sys.stderr
        if message and file is not None:
            try:
                file.write(message)
            except OSError as exc:
                raise _stream_error(file, exc) from exc


def _stream_error(stream, exc: OSError) -> OSError:
    return OSError(exc.errno, exc.strerror, stream.name)


def _write_atomic(*outputs: tuple[str | Path, bytes | str | Iterable[str]]) -> None:
    """Write each ``(path, data)`` output to a temporary file beside its path, then
    rename every temporary over its path, so a failure writes none of them.

    ``data`` is bytes, text, or text chunks that are written as they are produced.
    A path may be absent, a regular file or a symlink, which is replaced, as ``mv``
    would; a directory, FIFO, socket or device (a symlink to one too) is refused
    before any temporary is made. An OSError names the output's path, not the
    temporary file, whose name is random.
    """
    # mkstemp creates a file as 0600; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    written = []  # (temporary, path) pairs
    outputs = [(Path(path), data) for path, data in outputs]
    try:
        for path, _ in outputs:  # before any temporary is made; each check follows a link
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if path.exists() and not path.is_file():
                raise OSError(errno.EINVAL, "not a regular file")
        for path, data in outputs:
            prefix, suffix = _temporary_affixes(path)
            fd, tmp = tempfile.mkstemp(suffix, prefix, path.parent)
            written.append((tmp, path))
            with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
                if isinstance(data, (bytes, str)):
                    fh.write(data)
                else:
                    fh.writelines(data)
            os.chmod(tmp, 0o666 & ~umask)
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in written:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _temporary_affixes(path: Path) -> tuple[str, str]:
    """The one naming rule of the temporary files ``_write_atomic`` makes beside
    ``path``: ``.<name>.``, mkstemp's random part, then a marker that only this
    package writes. ``_remove_temporaries`` removes only what starts with the one and
    ends with the other, so a user's ``.<name>.bak`` beside an output is kept."""
    return f".{path.name}.", ".slepmoments-tmp"


def _remove_temporaries(paths: Iterable[Path]) -> None:
    """Remove the temporary files that ``_write_atomic`` left beside ``paths``, as a
    process killed while writing one does."""
    prefixes: dict[Path, set[str]] = {}
    for path in paths:
        prefix, mark = _temporary_affixes(path)
        prefixes.setdefault(path.parent, set()).add(prefix)
    for folder, starts in prefixes.items():
        try:
            entries = list(os.scandir(folder))
        except OSError:  # no such directory, so nothing was written in it
            continue
        for entry in entries:
            # mkstemp's random part holds no dot, so a temporary's prefix ends at the
            # last dot before the marker
            head = entry.name.removesuffix(mark)
            if head != entry.name and head[:head.rfind(".") + 1] in starts:
                os.unlink(entry.path)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _path(text: str) -> str:
    if text == "":  # "" names no file, but Path("") is the working directory
        raise argparse.ArgumentTypeError("expected a non-empty path")
    return text


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a real number, got {text!r}")
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _bounded(low: float, high: float | None = None, parse=_integer):
    """The argparse type that reads a value with ``parse`` and refuses it outside [low, high]."""
    def check(text: str):
        value = parse(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return check


_count = _bounded(1)
_natural = _bounded(0)
# The flags that size one allocation are capped. A 2048 x 2048 polar grid is
# 4.2 M samples, 32 MiB as float64, which moments compute never holds: it plans,
# samples and projects one block of rings at a time, so a whole process of a
# 256-pixel image peaks near 33 MB. A 2048-pixel synth image peaks near 0.35 GB
# of render temporaries.
_grid_size = _bounded(1, 2048)
# So are the flags that size a loop, which would otherwise run without end: on a
# default synth tree, 10,000 repeats hold about 30 MB of splits and take about 15 s,
# and 100,000 epochs about 8 s.
_repeats = _bounded(1, 10_000)
_epochs = _bounded(1, 100_000)


def _half_bandwidth(text: str) -> float:
    value = _finite(text)
    if not (0.0 < value < 0.5):
        raise argparse.ArgumentTypeError(
            f"must lie strictly between 0 and 0.5, got {text!r}"
        )
    return value


def _reals(text: str) -> list[float]:
    values = [_finite(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _fractions(text: str) -> list[float]:
    values = _reals(text)
    if any(not (0.0 < p < 1.0) for p in values):
        raise argparse.ArgumentTypeError(
            f"values must lie strictly between 0 and 1, got {text!r}"
        )
    return values


def _orders(text: str) -> list[tuple[int, int]]:
    try:
        pairs = []
        for chunk in text.split(";"):
            if chunk.strip() == "":
                continue
            m, n = chunk.split(",")
            pairs.append((int(m), int(n)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}; expected 'm,n;m,n;...'")
    if not pairs:
        raise argparse.ArgumentTypeError("expected at least one m,n pair")
    if any(m < 0 or n < 0 for m, n in pairs):
        raise argparse.ArgumentTypeError(f"orders must be nonnegative, got {text!r}")
    return pairs


_SEED = dict(type=_natural, default=DEFAULT_SEED,
             help="64-bit seed for all randomness (fixed default)")


def _add_grid(p: _Parser, rings: int | None, spokes: int | None) -> None:
    """Declare --radial and --angular, the polar grid's R and T; a None default is required."""
    p.add_argument("--radial", type=_grid_size, default=rings, required=rings is None,
                   help="polar grid rings R (at most 2048)")
    p.add_argument("--angular", type=_grid_size, default=spokes, required=spokes is None,
                   help="polar grid spokes T (at most 2048)")


def _build_parser() -> _Parser:
    # --help says what the tool does; the full contract is the module docstring and README
    top = _Parser(prog="slepmoments", description=(
        "Slepian (DPSS) moments of grayscale images: basis files, moments, rotation "
        "invariants, reconstruction, and the rotation, noise and classification studies. "
        "Exit codes: 0 success, 1 computation, format or input error, 2 usage error."))
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("dpss", help="sequence basis tools")
    dsub = p.add_subparsers(dest="dpss_command", required=True, parser_class=_Parser)
    g = dsub.add_parser("gen", help="generate a basis file")
    g.add_argument("--n", type=_bounded(1, 4096), required=True,
                   help="sequence length N (at most 4096)")
    g.add_argument("--w", type=_half_bandwidth, required=True,
                   help="half bandwidth in (0, 0.5)")
    g.add_argument("--k", type=_count, required=True, help="number of sequences K <= N")
    g.add_argument("--out", type=_path, required=True, help="output basis JSON path")
    g.set_defaults(run=_cmd_dpss_gen)

    p = sub.add_parser("moments", help="moment computation")
    msub = p.add_subparsers(dest="moments_command", required=True, parser_class=_Parser)
    c = msub.add_parser("compute", help="compute moments of a PGM image")
    c.add_argument("--image", type=_path, required=True, help="input PGM (binary P5) path")
    c.add_argument("--basis", type=_path, required=True, help="basis JSON path")
    c.add_argument("--m", type=_count, required=True, help="radial orders 0..M-1")
    c.add_argument("--l", type=_natural, required=True, help="angular orders -L..L")
    _add_grid(c, 128, 256)
    c.add_argument("--angle", type=_finite, default=0.0,
                   help="rotate image first (degrees)")
    c.add_argument("--out", type=_path, required=True, help="output moment JSON path")
    c.set_defaults(run=_cmd_moments_compute)

    p = sub.add_parser("invariants", help="rotation invariants of a moment file")
    p.add_argument("--moments", type=_path, required=True, help="moment JSON path")
    p.add_argument("--out", type=_path, required=True, help="output CSV path")
    p.set_defaults(run=_cmd_invariants)

    p = sub.add_parser("reconstruct", help="truncated series reconstruction from moments")
    p.add_argument("--moments", type=_path, required=True, help="moment JSON path")
    p.add_argument("--basis", type=_path, required=True, help="basis JSON path")
    _add_grid(p, None, None)
    p.add_argument("--out", type=_path, required=True, help="output JSON path")
    p.set_defaults(run=_cmd_reconstruct)

    for name, help_text in (
        ("rotate-test", "rotation-stability table"),
        ("noise-test", "rotation-stability table under Gaussian noise"),
    ):
        p = sub.add_parser(name, help=help_text)
        # the default is the shipped write_pgm(smooth_test_image(128))
        p.add_argument("--image", type=_path,
                       default=str(Path(__file__).with_name("pattern128.pgm")),
                       help="input PGM path (default: the built-in pattern128.pgm)")
        p.add_argument("--basis", type=_path, default=str(_DEFAULT_BASIS),
                       help="basis JSON path (default: the built-in default_basis.json)")
        p.add_argument("--angles", type=_reals,
                       default=",".join(str(a) for a in PROTOCOL_ANGLES_DEG),
                       help="comma-separated rotation angles in degrees; join a list "
                            "that starts with '-' by '=': --angles=-35,0")
        p.add_argument("--orders", type=_orders,
                       default=";".join(f"{m},{n}" for m, n in PROTOCOL_ORDERS),
                       help="semicolon-separated m,n pairs; join a value that starts "
                            "with '-' by '=': --orders=-1,1")
        _add_grid(p, 128, 256)
        if name == "noise-test":
            p.add_argument("--snr-db", type=_bounded(-_MAX_SNR_DB, _MAX_SNR_DB, _finite),
                           default=30.0, help="Gaussian noise level in dB, within +-3000")
            p.add_argument("--seed", **_SEED)
        p.add_argument("--out", type=_path, required=True, help="output CSV path")
        p.add_argument("--json-out", type=_path, default=None, help="optional JSON report path")
        p.set_defaults(run=_cmd_stability)

    p = sub.add_parser("classify", help="train-fraction classification sweep")
    p.add_argument("--data-dir", type=_path, required=True,
                   help="directory tree <root>/<class>/<image>.pgm, such as synth writes")
    p.add_argument("--fractions", type=_fractions, default="0.2,0.3,0.4,0.5",
                   help="comma-separated training fractions in (0, 1)")
    p.add_argument("--repeats", type=_repeats, default=10,
                   help="splits per fraction (at most 10000)")
    p.add_argument("--basis", type=_path, default=str(_DEFAULT_BASIS),
                   help="basis JSON path (default: the built-in default_basis.json)")
    _add_grid(p, 64, 128)
    p.add_argument("--reg", type=_bounded(0, parse=_finite), default=1e-3,
                   help="hinge-loss regularization, finite and >= 0")
    p.add_argument("--epochs", type=_epochs, default=300,
                   help="training epochs (at most 100000)")
    p.add_argument("--out", type=_path, required=True, help="output CSV path")
    p.add_argument("--json-out", type=_path, default=None, help="optional JSON report path")
    p.add_argument("--seed", **_SEED)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("synth", help="write the synthetic dataset as PGM files")
    p.add_argument("--classes", type=_bounded(2), default=6, help="class count")
    p.add_argument("--per-class", type=_count, default=8, help="items per class")
    p.add_argument("--rotations", type=_count, default=1,
                   help="independent draws per item, named r0 .. r{R-1}; not R "
                        "orientations of one item")
    p.add_argument("--size", type=_bounded(2, 2048), default=96,
                   help="image side length (at most 2048)")
    p.add_argument("--out-dir", type=_path, required=True, help="output directory root")
    p.add_argument("--seed", **_SEED)
    p.set_defaults(run=_cmd_synth)

    return top


def _cmd_dpss_gen(args) -> int:
    if args.k > args.n:
        raise _UsageError(f"argument --k: must be <= --n ({args.n}), got {args.k}")
    basis = compute_dpss(DpssParams(n_len=args.n, half_bandwidth=args.w, n_seq=args.k))
    _write_atomic((args.out, basis_to_json(basis)))
    return 0


def _cmd_moments_compute(args) -> int:
    image = _read_input(args.image, read_pgm, "image")
    basis = _read_input(args.basis, basis_from_json, "basis")
    if args.angle != 0.0:
        image = rotate_image(image, args.angle)
    ms = _raster_moments(image, basis, args.m, args.l, (args.radial, args.angular))
    _write_atomic((args.out, moments_to_json(ms)))
    return 0


def _cmd_invariants(args) -> int:
    ms = _read_input(args.moments, moments_from_json, "moment")
    _write_atomic((args.out, invariants_to_csv(invariants(ms))))
    return 0


def _cmd_reconstruct(args) -> int:
    ms = _read_input(args.moments, moments_from_json, "moment")
    basis = _read_input(args.basis, basis_from_json, "basis")
    try:
        samples, residual = reconstruct(ms, basis, (args.radial, args.angular))
    except ParameterError as exc:
        raise FormatError(f"moment file {args.moments} cannot be reconstructed with "
                          f"{args.basis}: {exc}")
    _write_atomic((args.out, _json_chunks({
        "n_radial": args.radial,
        "n_angular": args.angular,
        "imag_residual": residual,
        "samples": samples,
    })))
    return 0


def _write_report(args, report) -> None:
    """Write a table command's CSV to --out and, if asked, its JSON to --json-out."""
    outputs = [(args.out, report.to_csv())]
    if args.json_out is not None:
        outputs.append((args.json_out, report.to_json()))
    _write_atomic(*outputs)


def _cmd_stability(args) -> int:
    image = _read_input(args.image, read_pgm, "image")
    basis = _read_input(args.basis, basis_from_json, "basis")
    noise = NoiseSpec(args.snr_db, args.seed) if args.command == "noise-test" else None
    report = rotation_stability(
        image, args.angles, args.orders, basis, (args.radial, args.angular), noise=noise
    )
    _write_report(args, report)
    return 0


def _cmd_classify(args) -> int:
    basis = _read_input(args.basis, basis_from_json, "basis")
    ds = load_labeled_directory(args.data_dir, basis=basis, grid=(args.radial, args.angular))
    report = classification_sweep(ds, fractions=args.fractions, repeats=args.repeats,
                                  seed=args.seed, reg=args.reg, epochs=args.epochs)
    _write_report(args, report)
    return 0


def _cmd_synth(args) -> int:
    """Write the images on every usable CPU (see ``harness._fork_rows``): each worker
    renders its span of images and writes them itself, one row of the table per
    image marking it written."""
    root = Path(args.out_dir)
    count, names, render = _synthetic_spans(args.classes, args.per_class, args.rotations,
                                            args.seed, args.size)

    def write(span):
        made = None
        for (class_name, stem), image in zip(names(span), render(span)):
            if class_name != made:
                (root / class_name).mkdir(parents=True, exist_ok=True)  # another worker may too
                made = class_name
            _write_atomic((root / class_name / f"{stem}.pgm", write_pgm(image)))
            yield (1.0,)

    try:
        _fork_rows(count, 1, write)
    finally:
        _remove_temporaries(root / class_name / f"{stem}.pgm"
                            for class_name, stem in names(range(count)))
    return 0


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        json_out = getattr(args, "json_out", None)
        if json_out is not None and os.path.realpath(json_out) == os.path.realpath(args.out):
            raise _UsageError("argument --json-out: names the same file as --out")
        return args.run(args)
    except _UsageError as exc:
        print(f"slepmoments: usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        # ValueError covers the package's parameter/domain/format/aliasing
        # errors plus malformed JSON; OSError covers unreadable inputs and
        # unwritable outputs
        print(f"slepmoments: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"slepmoments: error: out of memory{f': {exc}' if str(exc) else ''}",
              file=sys.stderr)
        return 1


def main() -> None:
    """Run ``sys.argv`` and end the process with ``os._exit``.

    Before ``run`` returns, every output is written, closed and renamed and every
    worker is reaped, so the interpreter's own exit would only collect garbage and
    tear down modules. The standard streams are flushed first. A failed
    flush (stdout on a closed pipe, say) prints one error line and exits 1, unless
    the command already failed with its own line and code. An exception that
    escapes ``run`` ends in Python's traceback.
    """
    code = run(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with the fd closed
                stream.flush()
    except OSError as exc:
        if code == 0:
            code = 1
            try:
                print(f"slepmoments: error: {_stream_error(stream, exc)}",
                      file=sys.stderr, flush=True)
            except OSError:  # stderr itself is broken; the exit code still tells
                pass
    os._exit(code)


if __name__ == "__main__":
    main()
