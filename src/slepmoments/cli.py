"""Command-line interface: one executable exposing the pipeline as subcommands.

Exit codes: 0 success, 1 computation/format/input errors, 2 usage errors.
All randomness flows from --seed (fixed default, never time-based) and every
output file is written atomically, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .dpss import DpssBasis, DpssParams, compute_dpss
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
from .imaging import NoiseSpec, read_pgm, rotate_image, to_polar, write_pgm
from .moments import (
    compute_moments,
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


def _write_atomic(path: str | Path, data: bytes | str) -> None:
    path = Path(path)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        # mkstemp creates the file as 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_basis(path: str) -> DpssBasis:
    doc = json.loads(Path(path).read_text())
    try:
        params = DpssParams(
            n_len=int(doc["n"]), half_bandwidth=float(doc["w"]), n_seq=int(doc["k"])
        )
        seqs = np.asarray(doc["sequences"], dtype=float)
        eig = np.asarray(doc["eigenvalues"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"basis file {path} is missing field {exc}")
    if seqs.shape != (params.n_seq, params.n_len) or eig.shape != (params.n_seq,):
        raise FormatError(f"basis file {path} has inconsistent array shapes")
    return DpssBasis(params=params, sequences=seqs, eigenvalues=eig)


def _basis_json(basis: DpssBasis) -> str:
    doc = {
        "n": basis.params.n_len,
        "w": basis.params.half_bandwidth,
        "k": basis.params.n_seq,
        "eigenvalues": basis.eigenvalues.tolist(),
        "sequences": basis.sequences.tolist(),
    }
    return json.dumps(doc, indent=1)


def _parse_reals(flag: str, text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"{flag}: cannot parse {text!r} as comma-separated reals")
    if not np.isfinite(values).all():
        raise _UsageError(f"{flag}: values must be finite, got {text!r}")
    return values


def _parse_orders(text: str) -> list[tuple[int, int]]:
    try:
        pairs = []
        for chunk in text.split(";"):
            if chunk.strip() == "":
                continue
            m, n = chunk.split(",")
            pairs.append((int(m), int(n)))
        return pairs
    except ValueError:
        raise _UsageError(
            f"--orders: cannot parse {text!r}; expected 'm,n;m,n;...'"
        )


def _read_image(path: str):
    try:
        return read_pgm(Path(path).read_bytes())
    except FileNotFoundError:
        raise FormatError(f"input image {path} does not exist")


def _add_common(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="64-bit seed for all randomness (fixed default)")
    p.add_argument("--precision", type=int, default=None,
                   help="fixed decimal places in CSV tables (default: shortest round-trip)")


def _build_parser() -> _Parser:
    top = _Parser(prog="slepmoments", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("dpss", help="sequence basis tools")
    dsub = p.add_subparsers(dest="dpss_command", required=True, parser_class=_Parser)
    g = dsub.add_parser("gen", help="generate a basis file")
    g.add_argument("--n", type=int, required=True, help="sequence length N")
    g.add_argument("--w", type=float, required=True, help="half bandwidth in (0, 0.5)")
    g.add_argument("--k", type=int, required=True, help="number of sequences K <= N")
    g.add_argument("--out", required=True, help="output basis JSON path")
    _add_common(g)

    p = sub.add_parser("moments", help="moment computation")
    msub = p.add_subparsers(dest="moments_command", required=True, parser_class=_Parser)
    c = msub.add_parser("compute", help="compute moments of a PGM image")
    c.add_argument("--image", required=True, help="input PGM (binary P5) path")
    c.add_argument("--basis", required=True, help="basis JSON path")
    c.add_argument("--m", type=int, required=True, help="radial orders 0..M-1")
    c.add_argument("--l", type=int, required=True, help="angular orders -L..L")
    c.add_argument("--radial", type=int, default=128, help="polar grid rings R")
    c.add_argument("--angular", type=int, default=256, help="polar grid spokes T")
    c.add_argument("--angle", type=float, default=0.0, help="rotate image first (degrees)")
    c.add_argument("--out", required=True, help="output moment JSON path")
    _add_common(c)

    p = sub.add_parser("invariants",
                       help="rotation invariants of a moment file")
    p.add_argument("--moments", required=True, help="moment JSON path")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p)

    p = sub.add_parser("reconstruct",
                       help="truncated series reconstruction from moments")
    p.add_argument("--moments", required=True, help="moment JSON path")
    p.add_argument("--basis", required=True, help="basis JSON path")
    p.add_argument("--radial", type=int, required=True, help="target rings R")
    p.add_argument("--angular", type=int, required=True, help="target spokes T")
    p.add_argument("--out", required=True, help="output JSON path")
    _add_common(p)

    for name, help_text in (
        ("rotate-test", "rotation-stability table"),
        ("noise-test", "rotation-stability table under Gaussian noise"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--image", default=None,
                       help="input PGM path (default: built-in 128x128 test pattern)")
        p.add_argument("--basis", default=None, help="basis JSON path (default: built-in)")
        p.add_argument("--angles", default=",".join(str(a) for a in PROTOCOL_ANGLES_DEG),
                       help="comma-separated rotation angles in degrees")
        p.add_argument("--orders", default=";".join(f"{m},{n}" for m, n in PROTOCOL_ORDERS),
                       help="semicolon-separated m,n pairs")
        p.add_argument("--radial", type=int, default=128, help="polar grid rings R")
        p.add_argument("--angular", type=int, default=256, help="polar grid spokes T")
        if name == "noise-test":
            p.add_argument("--snr-db", type=float, default=30.0,
                           help="Gaussian noise level in dB")
        else:
            p.add_argument("--snr-db", type=float, default=None,
                           help="optional Gaussian noise level in dB")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--json-out", default=None, help="optional JSON report path")
        _add_common(p)

    p = sub.add_parser("classify",
                       help="train-fraction classification sweep")
    p.add_argument("--data-dir", default=None,
                   help="directory tree <root>/<class>/<image>.pgm; "
                        "omit to use the synthetic dataset")
    p.add_argument("--classes", type=int, default=6, help="synthetic class count")
    p.add_argument("--per-class", type=int, default=8, help="synthetic items per class")
    p.add_argument("--rotations", type=int, default=1, help="synthetic rotations per item")
    p.add_argument("--fractions", default="0.2,0.3,0.4,0.5",
                   help="comma-separated training fractions in (0, 1)")
    p.add_argument("--repeats", type=int, default=10, help="splits per fraction")
    p.add_argument("--basis", default=None, help="basis JSON path (default: built-in)")
    p.add_argument("--radial", type=int, default=64, help="feature grid rings R")
    p.add_argument("--angular", type=int, default=128, help="feature grid spokes T")
    p.add_argument("--reg", type=float, default=1e-3, help="hinge-loss regularization")
    p.add_argument("--epochs", type=int, default=300, help="training epochs")
    p.add_argument("--no-stratify", action="store_true",
                   help="use plain random splits instead of per-class stratification")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--json-out", default=None, help="optional JSON report path")
    _add_common(p)

    p = sub.add_parser("synth",
                       help="write the synthetic dataset as PGM files")
    p.add_argument("--classes", type=int, default=6, help="class count")
    p.add_argument("--per-class", type=int, default=8, help="items per class")
    p.add_argument("--rotations", type=int, default=1, help="rotations per item")
    p.add_argument("--size", type=int, default=96, help="image side length")
    p.add_argument("--out-dir", required=True, help="output directory root")
    _add_common(p)

    return top


def _validate_positive(args, names: dict[str, int]) -> None:
    for flag, value in names.items():
        if value < 1:
            raise _UsageError(f"{flag} must be >= 1, got {value}")


def _cmd_dpss_gen(args) -> int:
    try:
        params = DpssParams(n_len=args.n, half_bandwidth=args.w, n_seq=args.k)
    except ParameterError as exc:
        raise _UsageError(f"--n/--w/--k: {exc}")
    basis = compute_dpss(params)
    _write_atomic(args.out, _basis_json(basis))
    return 0


def _cmd_moments_compute(args) -> int:
    _validate_positive(args, {"--m": args.m, "--radial": args.radial,
                              "--angular": args.angular})
    if args.l < 0:
        raise _UsageError(f"--l must be >= 0, got {args.l}")
    image = _read_image(args.image)
    basis = _load_basis(args.basis)
    if args.angle != 0.0:
        image = rotate_image(image, args.angle)
    polar = to_polar(image, args.radial, args.angular)
    ms = compute_moments(polar, basis, args.m, args.l)
    _write_atomic(args.out, moments_to_json(ms))
    return 0


def _cmd_invariants(args) -> int:
    ms = moments_from_json(Path(args.moments).read_text())
    _write_atomic(args.out, invariants_to_csv(invariants(ms)))
    return 0


def _cmd_reconstruct(args) -> int:
    _validate_positive(args, {"--radial": args.radial, "--angular": args.angular})
    ms = moments_from_json(Path(args.moments).read_text())
    basis = _load_basis(args.basis)
    polar = reconstruct(ms, basis, (args.radial, args.angular))
    doc = {
        "n_radial": polar.n_radial,
        "n_angular": polar.n_angular,
        "imag_residual": polar.meta["imag_residual"],
        "samples": np.asarray(polar.samples, dtype=float).tolist(),
    }
    _write_atomic(args.out, json.dumps(doc, indent=1))
    return 0


def _cmd_stability(args, force_noise: bool) -> int:
    _validate_positive(args, {"--radial": args.radial, "--angular": args.angular})
    angles = _parse_reals("--angles", args.angles)
    orders = _parse_orders(args.orders)
    image = _read_image(args.image) if args.image else smooth_test_image(128)
    basis = _load_basis(args.basis) if args.basis else default_basis()
    noise = None
    if force_noise or args.snr_db is not None:
        snr = args.snr_db if args.snr_db is not None else 30.0
        noise = NoiseSpec(snr_db=snr, seed=args.seed)
    report = rotation_stability(
        image, angles, orders, basis, (args.radial, args.angular), noise=noise
    )
    _write_atomic(args.out, report.to_csv(precision=args.precision))
    if args.json_out:
        _write_atomic(args.json_out, report.to_json())
    return 0


def _cmd_classify(args) -> int:
    _validate_positive(args, {"--repeats": args.repeats, "--epochs": args.epochs,
                              "--radial": args.radial, "--angular": args.angular})
    fractions = _parse_reals("--fractions", args.fractions)
    if any(not (0.0 < p < 1.0) for p in fractions):
        raise _UsageError("--fractions: values must lie strictly between 0 and 1")
    basis = _load_basis(args.basis) if args.basis else default_basis()
    grid = (args.radial, args.angular)
    if args.data_dir:
        ds = load_labeled_directory(args.data_dir, basis=basis, grid=grid)
    else:
        _validate_positive(args, {"--classes": args.classes,
                                  "--per-class": args.per_class,
                                  "--rotations": args.rotations})
        ds = make_synthetic_dataset(
            args.classes, args.per_class, args.rotations,
            seed=args.seed, basis=basis, grid=grid,
        )
    report = classification_sweep(
        ds, fractions=fractions, repeats=args.repeats, seed=args.seed,
        stratified=not args.no_stratify, reg=args.reg, epochs=args.epochs,
    )
    _write_atomic(args.out, report.to_csv(precision=args.precision))
    if args.json_out:
        _write_atomic(args.json_out, report.to_json())
    return 0


def _cmd_synth(args) -> int:
    _validate_positive(args, {"--classes": args.classes, "--per-class": args.per_class,
                              "--rotations": args.rotations, "--size": args.size})
    root = Path(args.out_dir)
    for class_name, stem, image in synthetic_images(
        args.classes, args.per_class, args.rotations,
        seed=args.seed, image_size=args.size,
    ):
        cdir = root / class_name
        cdir.mkdir(parents=True, exist_ok=True)
        _write_atomic(cdir / f"{stem}.pgm", write_pgm(image))
    return 0


def run(argv) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "dpss":
            return _cmd_dpss_gen(args)
        if args.command == "moments":
            return _cmd_moments_compute(args)
        if args.command == "invariants":
            return _cmd_invariants(args)
        if args.command == "reconstruct":
            return _cmd_reconstruct(args)
        if args.command == "rotate-test":
            return _cmd_stability(args, force_noise=False)
        if args.command == "noise-test":
            return _cmd_stability(args, force_noise=True)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "synth":
            return _cmd_synth(args)
        raise _UsageError(f"unknown command {args.command!r}")
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


def main() -> None:
    sys.exit(run(sys.argv[1:]))
