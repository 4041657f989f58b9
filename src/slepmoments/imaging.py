"""Raster image I/O (binary PGM), rotation, polar resampling, and noise injection."""

from __future__ import annotations

import re
import stat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dpss import _check_integer, _check_real
from .errors import DomainError, FormatError, ParameterError

__all__ = [
    "RasterImage",
    "NoiseSpec",
    "GENERATOR_NAME",
    "read_pgm",
    "write_pgm",
    "rotate_image",
    "to_polar",
    "add_gaussian_noise",
]

# Algorithm behind every seeded random draw in this package; recorded in report
# metadata so results can be reproduced bit for bit.
GENERATOR_NAME = "pcg64"

# NoiseSpec and noise-test --snr-db refuse levels past +-this many dB, where the
# noise sigma of _noisy would soon overflow or divide by zero
_MAX_SNR_DB = 3000


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The pcg64 generator of the SeedSequence (seed, key); every seeded draw uses one."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _child_seed(seed: int, *key: int) -> int:
    """Independent 64-bit child seed derived from (seed, key); order-stable."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class RasterImage:
    """Grayscale (height, width) raster with intensities in [0, 1]; row 0 is the top."""

    pixels: np.ndarray = field(repr=False)

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=float)
        if px.ndim != 2 or px.size == 0:
            raise ParameterError(f"pixels must be a non-empty 2-D array, got {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ParameterError("pixel intensities must be finite")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ParameterError("pixel intensities must lie in [0, 1]")
        object.__setattr__(self, "pixels", px)


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian noise level as an SNR in decibels, within +-3000 dB, plus a non-negative
    integer seed."""

    snr_db: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "snr_db", _check_real("snr_db", self.snr_db))
        if not (-_MAX_SNR_DB <= self.snr_db <= _MAX_SNR_DB):
            raise ParameterError(f"snr_db must lie within +-{_MAX_SNR_DB} dB, got {self.snr_db}")
        object.__setattr__(self, "seed", _check_integer("seed", self.seed, 0))


# --- PGM ------------------------------------------------------------------


# A header token: whitespace and '#' comments skipped, then a run of non-whitespace.
# In a bytes pattern \s is exactly the six bytes that bytes.isspace() accepts.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Skip whitespace and '#' comments, return (token, position after it)."""
    match = _TOKEN.match(data, pos)
    if not match[1]:  # only the end of the data stops a token before its first byte
        raise FormatError("unexpected end of header", offset=match.end())
    return match[1], match.end()


def read_pgm(data: bytes) -> RasterImage:
    """Parse a binary ('P5') PGM with maxval up to 65535 into a RasterImage."""
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise FormatError(f"unsupported magic {magic!r}, expected b'P5'", offset=0)
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(data, pos)
        try:
            # a field is ASCII decimal digits; int() alone would also take b"+10" and b"1_0"
            if not tok.isdigit():
                raise ValueError
            fields.append(int(tok))
        except ValueError:
            raise FormatError(f"invalid {name} field {tok!r}", offset=pos - len(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError("image dimensions must be positive", offset=pos)
    if not (0 < maxval <= 65535):
        raise FormatError(f"maxval {maxval} out of range (0, 65535]", offset=pos)
    pos += 1  # exactly one whitespace byte separates header and payload
    bytes_per = 1 if maxval < 256 else 2
    need = width * height * bytes_per
    have = max(len(data) - pos, 0)  # pos is one past the end when maxval ends the data
    if have < need:
        raise FormatError(f"truncated payload: need {need} bytes, have {have}",
                          offset=pos + have)
    # a view of the payload where it lies; dividing makes the one float64 array
    samples = np.frombuffer(data, np.uint8 if bytes_per == 1 else ">u2", width * height, pos)
    if samples.max() > maxval:
        first = int(np.argmax(samples > maxval))
        raise FormatError(f"sample {samples[first]} exceeds maxval {maxval}",
                          offset=pos + first * bytes_per)
    return RasterImage((samples / maxval).reshape(height, width))


def _read_input(path: str | Path, parse, kind: str):
    """``parse`` of the bytes of the file at ``path``: the package's one reader of files.

    The path is stat'ed before it is opened, since opening a FIFO blocks and a
    device such as /dev/zero never ends, and anything but a regular file (a
    symlink is followed) is refused. That refusal, and a ``ValueError`` or
    ``RecursionError`` of ``parse``, raise a ``FormatError`` that reads
    ``<kind> file <path>: <reason>``; an ``OSError`` names the path itself. The
    bytes are handed over, not kept, so a parse that decodes them to text can drop
    them before it builds its own objects.
    """
    if not stat.S_ISREG(Path(path).stat().st_mode):
        raise FormatError(f"{kind} file {path}: not a regular file")
    try:
        return parse(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # refused, or nested too deep
        raise FormatError(f"{kind} file {path}: {exc}")


def write_pgm(image: RasterImage, maxval: int = 255) -> bytes:
    """Encode to binary PGM; round-trips within 1/(2*maxval) per pixel."""
    maxval = _check_integer("maxval", maxval, 1, 65535)
    height, width = image.pixels.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    levels = np.rint(image.pixels * maxval)
    return header + levels.astype(np.uint8 if maxval < 256 else ">u2").tobytes()


# --- geometry ---------------------------------------------------------------

# Plans are built and applied, and polar samples projected, this many samples at
# a time (whole rows, at least one). A block's float64 temporaries are then
# 64 KiB, below glibc's 128 KiB mmap threshold, so malloc reuses them from the
# heap instead of mapping, and faulting in, fresh pages for every full-frame
# temporary. Blocks of 32768 samples faulted about four times as often in
# rotate-test and seven times in noise-test (132 k and 99 k minor faults against
# 34 k and 15 k, 72 frames at 256 x 512, 2-CPU x86 Linux).
_BLOCK = 8192


def _blocks(n_rows: int, row_len: int) -> list[slice]:
    """Consecutive slices of n_rows rows, each at most _BLOCK samples or one row."""
    step = max(1, _BLOCK // row_len)
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


def _bilinear_plan(shape: tuple[int, int], xs: np.ndarray, ys: np.ndarray) -> tuple:
    """Gather plan ``(base, corners)`` for bilinear sampling of an (h, w) raster at
    fractional (x, y).

    ``base`` holds the flat index of each sample's top-left corner in the raster
    inside a 2-pixel zero border, (h + 4) x (w + 4), as ``_samples`` lays it
    out. ``corners`` holds one (offset, weight) pair per corner, in the order
    (dy, dx) = (0, 0), (0, 1), (1, 0), (1, 1), with offsets 0, 1, w + 4 and
    w + 5; a corner is read as ``flat[offset:][base]``. The top-left corner is
    clamped to [-2, h] x [-2, w], where a sample whose corners all leave the
    raster reads only border zeros, so every corner outside the raster reads 0
    and base + w + 5 stays inside the bordered raster.
    """
    h, w = shape
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    tx = xs - x0
    ty = ys - y0
    base = (np.clip(y0, -2, h) + 2) * (w + 4) + (np.clip(x0, -2, w) + 2)
    sx, sy = 1.0 - tx, 1.0 - ty
    return base, ((0, sx * sy), (1, tx * sy), (w + 4, sx * ty), (w + 5, tx * ty))


def _plans(shape: tuple[int, int], grid: tuple[int, int], coords):
    """The one maker of bilinear plans: a ``(rows, plan)`` pair for each ``_blocks``
    row slice ``rows`` of a ``grid`` whose rows lie at raster coordinates
    ``coords(rows) = (xs, ys)``, with ``plan`` the ``_bilinear_plan`` of those rows
    on an (h, w) raster, made when it is drawn. A caller that reuses the plans
    keeps them with ``list(...)``."""
    return ((rows, _bilinear_plan(shape, *coords(rows))) for rows in _blocks(*grid))


def _samples(pixels: np.ndarray, plans):
    """The one applier of bilinear plans: for each ``(rows, plan)`` pair of ``_plans``,
    the pair ``(rows, block)``, ``block`` the samples of pixels under ``plan``.

    Pixels are read inside a 2-pixel zero border, flattened, and a sample is the sum
    0 + w00 v00 + w01 v01 + w10 v10 + w11 v11; the zeros start turns a sum of
    -0.0 terms into +0.0.
    """
    # the border is made here, at the call, which needs no generator of its own; one
    # that made it when the first block was drawn takes as many minor faults
    # (33.5 k against 33.9 k in rotate-test, 72 frames at 256 x 512, 2-CPU x86 Linux)
    h, w = pixels.shape
    flat = np.zeros((h + 4) * (w + 4))
    flat.reshape(h + 4, w + 4)[2:-2, 2:-2] = pixels

    def sample(pair):
        # a plan drawn from _plans is dropped on return, before its block is used; a
        # generator that held it across its yield raised the minor faults from 33.9 k
        # to 52.4 k in rotate-test and from 14.8 k to 50.0 k in noise-test (same
        # machine and inputs as above)
        rows, (base, corners) = pair
        out = np.zeros(base.shape)
        for offset, weight in corners:
            out += weight * flat[offset:][base]
        return rows, out
    return map(sample, plans)


def _resample(pixels: np.ndarray, shape: tuple[int, int], plans) -> np.ndarray:
    """The ``shape`` array of the ``_samples`` of pixels under the ``_plans`` of that
    grid, each block placed at its own rows."""
    out = np.empty(shape)
    for rows, block in _samples(pixels, plans):
        out[rows] = block
    return out


def _polar_grid(n_radial: int, n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Rings r_i = (i + 0.5)/R and spokes theta_j = 2pi j/T of every R x T polar grid."""
    n_radial = _check_integer("n_radial", n_radial, 1)
    n_angular = _check_integer("n_angular", n_angular, 1)
    rings = (np.arange(n_radial) + 0.5) / n_radial
    return rings, 2.0 * np.pi * np.arange(n_angular) / n_angular


def _disk(h: int, w: int) -> tuple[float, float, float]:
    """Centre (cx, cy) = ((w-1)/2, (h-1)/2) and radius rho = min(w, h)/2 - 0.5 of the
    disk inscribed in an (h, w) raster, in pixel coordinates."""
    return (w - 1) / 2.0, (h - 1) / 2.0, min(w, h) / 2.0 - 0.5


def _polar_plans(shape: tuple[int, int], n_radial: int, n_angular: int):
    """The ``_plans`` of ``to_polar``'s R x T grid on an (h, w) raster; the grid is
    checked at the call, each block of rings is planned when it is drawn."""
    cx, cy, rho = _disk(*shape)
    r, th = _polar_grid(n_radial, n_angular)
    cos, sin = np.cos(th), np.sin(th)
    return _plans(shape, (r.size, th.size), lambda rings: (
        cx + np.outer(r[rings], cos) * rho, cy - np.outer(r[rings], sin) * rho))


def rotate_image(image: RasterImage, angle_deg: float) -> RasterImage:
    """Rotate about the pixel-grid center, keeping the original size.

    Each output pixel is bilinearly interpolated from its inverse-rotated source
    coordinate; sources outside the raster contribute 0, so corners that leave
    the frame are clipped. The angle must be a finite real number.
    """
    angle_deg = _check_real("angle_deg", angle_deg)
    if not np.isfinite(angle_deg):
        raise ParameterError(f"angle_deg must be finite, got {angle_deg}")
    a = np.deg2rad(angle_deg)
    h, w = image.pixels.shape
    cx, cy, _ = _disk(h, w)
    dx = (np.arange(w) - cx)[None, :]
    dy = (np.arange(h) - cy)[:, None]
    out = _resample(image.pixels, (h, w), _plans((h, w), (h, w), lambda rows: (
        np.cos(a) * dx - np.sin(a) * dy[rows] + cx,
        np.sin(a) * dx + np.cos(a) * dy[rows] + cy,
    )))
    return RasterImage(np.clip(out, 0.0, 1.0, out=out))


def to_polar(image: RasterImage, n_radial: int, n_angular: int) -> np.ndarray:
    """Resample the inscribed disk onto the uniform polar grid, an R x T array.

    Sample (i, j) holds f(r_i, theta_j) on the ``_polar_grid``. It reads the
    raster at (cx + r_i rho cos theta_j, cy - r_i rho sin theta_j) on the
    ``_disk`` of centre ((w-1)/2, (h-1)/2) and radius rho = min(w, h)/2 - 0.5;
    reads outside the raster give 0. Its blocks are those of ``_polar_plans``, the
    plans a ``Featurizer`` keeps and ``moments._raster_moments`` makes and drops,
    so all three read the same samples.
    """
    plans = _polar_plans(image.pixels.shape, n_radial, n_angular)
    return _resample(image.pixels, (n_radial, n_angular), plans)


def _noisy(pixels: np.ndarray, snr_db: float, rng: np.random.Generator) -> np.ndarray:
    """The one noise model: pixels plus zero-mean Gaussian noise drawn from rng at
    snr_db dB, referenced to their mean squared intensity, clamped to [0, 1]."""
    power = float(np.mean(pixels**2))
    if power == 0.0:
        raise DomainError("signal power is zero; SNR-referenced noise is undefined")
    sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    return np.clip(pixels + rng.normal(0.0, sigma, pixels.shape), 0.0, 1.0)


def add_gaussian_noise(image: RasterImage, spec: NoiseSpec) -> RasterImage:
    """Add zero-mean Gaussian noise at the requested SNR, then clamp to [0, 1].

    Noise power is referenced to the mean squared intensity of the input; the
    draw comes from a private pcg64 generator seeded from spec.seed.
    """
    return RasterImage(_noisy(image.pixels, spec.snr_db, _rng(spec.seed)))
