"""Command-line interface: one executable exposing the pipeline as subcommands.

Exit codes: 0 success, 1 computation/format/input errors, 2 usage errors.
Each flag is checked once, by its argparse type (dpss gen --k, bounded by
--n, right after parsing), so a bad value exits 2 with one line naming the
flag. The flags that size one allocation (dpss gen --n, --radial, --angular,
synth --size, --precision) have upper bounds, noise-test --snr-db must lie
within +-3000 dB and classify --reg must be >= 0. A basis file is read by
dpss.basis_from_json, so one that breaks a sequence convention, signs
included, exits 1 with one line naming the file, as does a PGM sample above
its maxval. Only noise-test, classify and synth draw random numbers, so only
they take --seed (a fixed default, never time-based); only the table writers,
rotate-test, noise-test and classify, take --precision. Every output file is
written atomically, so identical invocations are byte-identical.

A CLI process runs OpenBLAS, numpy's and scipy's alike, on one thread: every
product here is small, so worker threads would only spin. Setting
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS overrides this, and
a process that loaded numpy before this module keeps its own choice.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections.abc import Iterable
from itertools import groupby
from operator import itemgetter
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
    classification_sweep,
    default_basis,
    load_labeled_directory,
    make_synthetic_dataset,
    rotation_stability,
    synthetic_images,
)
from .imaging import _MAX_SNR_DB, NoiseSpec, _read_pgm_file, rotate_image, write_pgm
from .moments import (
    _raster_moments,
    invariants,
    invariants_to_csv,
    moments_from_json,
    moments_to_json,
    reconstruct,
)
from .synthetic import smooth_test_image

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep diagnostics to one line, exit code 2
        raise _UsageError(message)


def _write_atomic(path: str | Path, data: bytes | str | Iterable[str]) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it over ``path``.

    ``data`` is bytes, text, or text chunks that are written as they are produced.
    An OSError names ``path``, not the temporary file, whose name is random.
    """
    path = Path(path)
    mode = "wb" if isinstance(data, bytes) else "w"
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        with os.fdopen(fd, mode) as fh:
            if isinstance(data, (bytes, str)):
                fh.write(data)
            else:
                fh.writelines(data)
        # mkstemp creates the file as 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _load(path: str, parse, kind: str):
    """``parse`` the text of a file; a refused document gives a FormatError naming the file."""
    try:
        return parse(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, nested too deep, or refused
        raise FormatError(f"{kind} file {path}: {exc}")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


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
# 256-pixel image peaks near 35 MB. A 2048-pixel synth image peaks near 0.35 GB
# of render temporaries.
_grid_size = _bounded(1, 2048)


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
_PRECISION = dict(type=_bounded(0, 100), default=None,
                  help="fixed decimal places in CSV tables, at most 100 "
                       "(default: shortest round-trip)")


def _add_grid(p: _Parser, rings: int | None, spokes: int | None) -> None:
    """Declare --radial and --angular, the polar grid's R and T; a None default is required."""
    p.add_argument("--radial", type=_grid_size, default=rings, required=rings is None,
                   help="polar grid rings R (at most 2048)")
    p.add_argument("--angular", type=_grid_size, default=spokes, required=spokes is None,
                   help="polar grid spokes T (at most 2048)")


def _build_parser() -> _Parser:
    top = _Parser(prog="slepmoments", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("dpss", help="sequence basis tools")
    dsub = p.add_subparsers(dest="dpss_command", required=True, parser_class=_Parser)
    g = dsub.add_parser("gen", help="generate a basis file")
    g.add_argument("--n", type=_bounded(1, 4096), required=True,
                   help="sequence length N (at most 4096)")
    g.add_argument("--w", type=_half_bandwidth, required=True,
                   help="half bandwidth in (0, 0.5)")
    g.add_argument("--k", type=_count, required=True, help="number of sequences K <= N")
    g.add_argument("--out", required=True, help="output basis JSON path")
    g.set_defaults(run=_cmd_dpss_gen)

    p = sub.add_parser("moments", help="moment computation")
    msub = p.add_subparsers(dest="moments_command", required=True, parser_class=_Parser)
    c = msub.add_parser("compute", help="compute moments of a PGM image")
    c.add_argument("--image", required=True, help="input PGM (binary P5) path")
    c.add_argument("--basis", required=True, help="basis JSON path")
    c.add_argument("--m", type=_count, required=True, help="radial orders 0..M-1")
    c.add_argument("--l", type=_natural, required=True, help="angular orders -L..L")
    _add_grid(c, 128, 256)
    c.add_argument("--angle", type=_finite, default=0.0,
                   help="rotate image first (degrees)")
    c.add_argument("--out", required=True, help="output moment JSON path")
    c.set_defaults(run=_cmd_moments_compute)

    p = sub.add_parser("invariants", help="rotation invariants of a moment file")
    p.add_argument("--moments", required=True, help="moment JSON path")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(run=_cmd_invariants)

    p = sub.add_parser("reconstruct", help="truncated series reconstruction from moments")
    p.add_argument("--moments", required=True, help="moment JSON path")
    p.add_argument("--basis", required=True, help="basis JSON path")
    _add_grid(p, None, None)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(run=_cmd_reconstruct)

    for name, help_text in (
        ("rotate-test", "rotation-stability table"),
        ("noise-test", "rotation-stability table under Gaussian noise"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--image", default=None,
                       help="input PGM path (default: built-in 128x128 test pattern)")
        p.add_argument("--basis", default=None, help="basis JSON path (default: built-in)")
        p.add_argument("--angles", type=_reals,
                       default=",".join(str(a) for a in PROTOCOL_ANGLES_DEG),
                       help="comma-separated rotation angles in degrees")
        p.add_argument("--orders", type=_orders,
                       default=";".join(f"{m},{n}" for m, n in PROTOCOL_ORDERS),
                       help="semicolon-separated m,n pairs")
        _add_grid(p, 128, 256)
        if name == "noise-test":
            p.add_argument("--snr-db", type=_bounded(-_MAX_SNR_DB, _MAX_SNR_DB, _finite),
                           default=30.0, help="Gaussian noise level in dB, within +-3000")
            p.add_argument("--seed", **_SEED)
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--json-out", default=None, help="optional JSON report path")
        p.add_argument("--precision", **_PRECISION)
        p.set_defaults(run=_cmd_stability)

    p = sub.add_parser("classify", help="train-fraction classification sweep")
    p.add_argument("--data-dir", default=None,
                   help="directory tree <root>/<class>/<image>.pgm; "
                        "omit to use the synthetic dataset")
    p.add_argument("--classes", type=_bounded(2), default=6,
                   help="synthetic class count")
    p.add_argument("--per-class", type=_count, default=8, help="synthetic items per class")
    p.add_argument("--rotations", type=_count, default=1,
                   help="synthetic rotations per item")
    p.add_argument("--fractions", type=_fractions, default="0.2,0.3,0.4,0.5",
                   help="comma-separated training fractions in (0, 1)")
    p.add_argument("--repeats", type=_count, default=10, help="splits per fraction")
    p.add_argument("--basis", default=None, help="basis JSON path (default: built-in)")
    _add_grid(p, 64, 128)
    p.add_argument("--reg", type=_bounded(0, parse=_finite), default=1e-3,
                   help="hinge-loss regularization, finite and >= 0")
    p.add_argument("--epochs", type=_count, default=300, help="training epochs")
    p.add_argument("--no-stratify", action="store_true",
                   help="use plain random splits instead of per-class stratification")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--json-out", default=None, help="optional JSON report path")
    p.add_argument("--seed", **_SEED)
    p.add_argument("--precision", **_PRECISION)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("synth", help="write the synthetic dataset as PGM files")
    p.add_argument("--classes", type=_bounded(2), default=6, help="class count")
    p.add_argument("--per-class", type=_count, default=8, help="items per class")
    p.add_argument("--rotations", type=_count, default=1, help="rotations per item")
    p.add_argument("--size", type=_bounded(2, 2048), default=96,
                   help="image side length (at most 2048)")
    p.add_argument("--out-dir", required=True, help="output directory root")
    p.add_argument("--seed", **_SEED)
    p.set_defaults(run=_cmd_synth)

    return top


def _cmd_dpss_gen(args) -> int:
    if args.k > args.n:
        raise _UsageError(f"argument --k: must be <= --n ({args.n}), got {args.k}")
    basis = compute_dpss(DpssParams(n_len=args.n, half_bandwidth=args.w, n_seq=args.k))
    _write_atomic(args.out, basis_to_json(basis))
    return 0


def _cmd_moments_compute(args) -> int:
    image = _read_pgm_file(args.image)
    basis = _load(args.basis, basis_from_json, "basis")
    if args.angle != 0.0:
        image = rotate_image(image, args.angle)
    ms = _raster_moments(image, basis, args.m, args.l, (args.radial, args.angular))
    _write_atomic(args.out, moments_to_json(ms))
    return 0


def _cmd_invariants(args) -> int:
    ms = _load(args.moments, moments_from_json, "moment")
    _write_atomic(args.out, invariants_to_csv(invariants(ms)))
    return 0


def _cmd_reconstruct(args) -> int:
    ms = _load(args.moments, moments_from_json, "moment")
    basis = _load(args.basis, basis_from_json, "basis")
    if ms.basis_id != basis.basis_id:
        raise FormatError(
            f"moment file {args.moments} was computed with basis {ms.basis_id!r}, "
            f"but {args.basis} is {basis.basis_id!r}"
        )
    try:
        samples, residual = reconstruct(ms, basis, (args.radial, args.angular))
    except ParameterError as exc:
        raise FormatError(f"moment file {args.moments} cannot be reconstructed with "
                          f"{args.basis}: {exc}")
    _write_atomic(args.out, _json_chunks({
        "n_radial": args.radial,
        "n_angular": args.angular,
        "imag_residual": residual,
        "samples": samples,
    }))
    return 0


def _cmd_stability(args) -> int:
    image = _read_pgm_file(args.image) if args.image else smooth_test_image(128)
    basis = _load(args.basis, basis_from_json, "basis") if args.basis else default_basis()
    noise = NoiseSpec(args.snr_db, args.seed) if args.command == "noise-test" else None
    report = rotation_stability(
        image, args.angles, args.orders, basis, (args.radial, args.angular), noise=noise
    )
    _write_atomic(args.out, report.to_csv(precision=args.precision))
    if args.json_out:
        _write_atomic(args.json_out, report.to_json())
    return 0


def _cmd_classify(args) -> int:
    basis = _load(args.basis, basis_from_json, "basis") if args.basis else default_basis()
    grid = (args.radial, args.angular)
    if args.data_dir:
        ds = load_labeled_directory(args.data_dir, basis=basis, grid=grid)
    else:
        ds = make_synthetic_dataset(
            args.classes, args.per_class, args.rotations,
            seed=args.seed, basis=basis, grid=grid,
        )
    report = classification_sweep(
        ds, fractions=args.fractions, repeats=args.repeats, seed=args.seed,
        stratified=not args.no_stratify, reg=args.reg, epochs=args.epochs,
    )
    _write_atomic(args.out, report.to_csv(precision=args.precision))
    if args.json_out:
        _write_atomic(args.json_out, report.to_json())
    return 0


def _cmd_synth(args) -> int:
    root = Path(args.out_dir)
    images = synthetic_images(
        args.classes, args.per_class, args.rotations,
        seed=args.seed, image_size=args.size,
    )
    for class_name, items in groupby(images, key=itemgetter(0)):
        cdir = root / class_name
        cdir.mkdir(parents=True, exist_ok=True)
        for _, stem, image in items:
            _write_atomic(cdir / f"{stem}.pgm", write_pgm(image))
    return 0


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(f"slepmoments: usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ValueError, KeyError, OSError) as exc:
        # ValueError covers the package's parameter/domain/format/aliasing
        # errors plus malformed JSON; KeyError covers missing document fields;
        # OSError covers unreadable inputs and unwritable outputs
        print(f"slepmoments: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"slepmoments: error: out of memory{f': {exc}' if str(exc) else ''}",
              file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
