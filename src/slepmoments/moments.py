"""Slepian-based moments of polar images, rotation invariants, and reconstruction.

A moment S[m][n] is the projection of the conjugated image onto
psi_m(r) * exp(-i n theta) with area weight r dr dtheta, evaluated on the
uniform polar grid by midpoint quadrature in r and a length-T FFT in theta.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .dpss import DpssBasis, radial_basis
from .errors import AliasingError, FormatError, ParameterError
from .imaging import PolarImage, RasterImage, _gather, _polar_plan

__all__ = [
    "MomentSet",
    "compute_moments",
    "invariants",
    "reconstruct",
    "Featurizer",
    "feature_vector",
    "moments_to_json",
    "moments_from_json",
    "invariants_to_csv",
]

QUADRATURE_NAME = "midpoint-radial-x-fft-angular"


@dataclass(frozen=True)
class MomentSet:
    """Complex moments S[m][n] for m in [0, M) and n in [-L, L].

    ``values`` has shape (M, 2L+1); column index L+n holds angular order n.
    """

    max_radial: int
    max_angular: int
    values: np.ndarray = field(repr=False)
    grid: tuple[int, int]
    basis_id: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        expected = (self.max_radial, 2 * self.max_angular + 1)
        if v.shape != expected:
            raise ParameterError(f"moment array shape {v.shape}, expected {expected}")
        if not np.all(np.isfinite(v)):
            raise ParameterError("moment values must be finite")
        object.__setattr__(self, "values", v)

    def value(self, m: int, n: int) -> complex:
        if not (0 <= m < self.max_radial and -self.max_angular <= n <= self.max_angular):
            raise IndexError(f"moment order ({m}, {n}) outside stored range")
        return complex(self.values[m, self.max_angular + n])


def _check_orders(basis: DpssBasis, max_radial: int, max_angular: int, n_t: int) -> None:
    if max_radial < 1:
        raise ParameterError(f"max_radial must be >= 1, got {max_radial}")
    if max_angular < 0:
        raise ParameterError(f"max_angular must be >= 0, got {max_angular}")
    if max_radial > basis.params.n_seq:
        raise ParameterError(
            f"max_radial {max_radial} exceeds basis n_seq {basis.params.n_seq}"
        )
    if 2 * max_angular + 1 > n_t:
        raise AliasingError(
            f"angular orders [-{max_angular}, {max_angular}] need at least "
            f"{2 * max_angular + 1} angular samples, grid has {n_t}"
        )


def _radial_weights(basis: DpssBasis, max_radial: int, n_r: int) -> np.ndarray:
    """psi_m(r_i) * r_i * dr for m < M on the R rings, an M x R matrix."""
    r = (np.arange(n_r) + 0.5) / n_r
    return radial_basis(basis, r)[:max_radial] * (r / n_r)


def _project(samples: np.ndarray, psi_w: np.ndarray, max_angular: int) -> np.ndarray:
    """Moments of polar samples against ``_radial_weights``, an M x (2L+1) matrix."""
    n_t = samples.shape[1]
    # DFT of conj(f) along theta gives the inner sum for every n at once.
    spectrum = np.fft.fft(np.conj(samples), axis=1)
    cols = spectrum[:, np.arange(-max_angular, max_angular + 1) % n_t]
    cols = cols * (2.0 * np.pi / n_t)
    return psi_w @ cols


def compute_moments(
    img: PolarImage, basis: DpssBasis, max_radial: int, max_angular: int
) -> MomentSet:
    """Project the image onto the moment kernels via one FFT per radial ring.

    S[m][n] = sum_i psi_m(r_i) r_i dr * (sum_j exp(-i n theta_j) conj(f) dtheta)
    with dr = 1/R and dtheta = 2pi/T; identical to the direct double sum.
    """
    n_r, n_t = img.n_radial, img.n_angular
    _check_orders(basis, max_radial, max_angular, n_t)
    psi_w = _radial_weights(basis, max_radial, n_r)
    return MomentSet(
        max_radial=max_radial,
        max_angular=max_angular,
        values=_project(img.samples, psi_w, max_angular),
        grid=(n_r, n_t),
        basis_id=basis.basis_id,
    )


def invariants(ms: MomentSet) -> np.ndarray:
    """Moduli |S[m][n]| for n >= 0 (negative n is redundant for real images).

    Shape (M, L+1); entry [m, n] holds phi_{m,n}.
    """
    return np.abs(ms.values[:, ms.max_angular :])


def reconstruct(ms: MomentSet, basis: DpssBasis, grid: tuple[int, int]) -> PolarImage:
    """Evaluate the truncated series sum_{m,n} S[m][n] psi_m(r) exp(-i n theta).

    All stored orders contribute, negative n included. Returns the real part;
    the largest absolute imaginary residual is reported in the image metadata.
    """
    n_r, n_t = grid
    if n_r < ms.grid[0] or n_t < ms.grid[1]:
        raise ParameterError(
            f"target grid {grid} must match or refine the moment grid {ms.grid}"
        )
    r = (np.arange(n_r) + 0.5) / n_r
    psi = radial_basis(basis, r)[: ms.max_radial]
    theta = 2.0 * np.pi * np.arange(n_t) / n_t
    ns = np.arange(-ms.max_angular, ms.max_angular + 1)
    angular = np.exp(-1j * np.outer(ns, theta))
    series = psi.T @ ms.values @ angular
    residual = float(np.abs(series.imag).max()) if series.size else 0.0
    return PolarImage(
        n_radial=n_r,
        n_angular=n_t,
        samples=series.real,
        meta={"imag_residual": residual},
    )


class Featurizer:
    """Polar resampling, moments and invariants of raster images in one step.

    The order and grid checks run once, psi_m(r) * r * dr is built once, and the
    polar gather plan once per raster shape, so featurizing many images repeats
    only the per-image work. Each call returns the invariants flattened m-major:
    entry m*(L+1)+n holds phi_{m,n}. Defaults give 100 entries (10 radial
    orders, angular orders 0..9).
    """

    def __init__(
        self,
        basis: DpssBasis,
        max_radial: int = 10,
        max_angular: int = 9,
        grid: tuple[int, int] = (64, 128),
    ):
        n_r, n_t = grid
        if n_r < 1 or n_t < 1:
            raise ParameterError("polar grid dimensions must be positive")
        _check_orders(basis, max_radial, max_angular, n_t)
        self._basis_id = basis.basis_id
        self._max_radial = max_radial
        self._max_angular = max_angular
        self._grid = (n_r, n_t)
        self._psi_w = _radial_weights(basis, max_radial, n_r)
        self._plans: dict[tuple[int, int], list] = {}

    def __call__(self, img: RasterImage) -> np.ndarray:
        shape = img.pixels.shape
        if shape not in self._plans:
            self._plans[shape] = _polar_plan(shape, *self._grid)
        polar = PolarImage(*self._grid, samples=_gather(img.pixels, self._plans[shape]))
        ms = MomentSet(
            max_radial=self._max_radial,
            max_angular=self._max_angular,
            values=_project(polar.samples, self._psi_w, self._max_angular),
            grid=self._grid,
            basis_id=self._basis_id,
        )
        return invariants(ms).ravel()


def feature_vector(
    img: RasterImage,
    basis: DpssBasis,
    max_radial: int = 10,
    max_angular: int = 9,
    grid: tuple[int, int] = (64, 128),
) -> np.ndarray:
    """``Featurizer(basis, max_radial, max_angular, grid)(img)``, for one image.

    To featurize many images, build one ``Featurizer`` and reuse it.
    """
    return Featurizer(basis, max_radial, max_angular, grid)(img)


# --- serialization -----------------------------------------------------------


def moments_to_json(ms: MomentSet) -> str:
    """Dump as {"metadata": ..., "moments": [{"m","n","re","im"}, ...]}."""
    entries = []
    for m in range(ms.max_radial):
        for n in range(-ms.max_angular, ms.max_angular + 1):
            v = ms.values[m, ms.max_angular + n]
            entries.append({"m": m, "n": n, "re": float(v.real), "im": float(v.imag)})
    doc = {
        "metadata": {
            "grid": list(ms.grid),
            "basis_id": ms.basis_id,
            "quadrature": QUADRATURE_NAME,
        },
        "moments": entries,
    }
    return json.dumps(doc, indent=1)


def moments_from_json(text: str) -> MomentSet:
    """Parse ``moments_to_json`` output.

    M and L are taken from the largest m and n present, and every order with
    0 <= m < M and |n| <= L must appear exactly once.
    """
    doc = json.loads(text)
    try:
        meta = doc["metadata"]
        grid, basis_id = tuple(meta["grid"]), meta["basis_id"]
        orders = [(e["m"], e["n"]) for e in doc["moments"]]
        # complex(re, im) keeps the sign of a zero part; re + 1j * im does not
        coeffs = [complex(e["re"], e["im"]) for e in doc["moments"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed moment document ({type(exc).__name__}: {exc})")
    if len(grid) != 2 or any(type(size) is not int or size < 1 for size in grid):
        raise FormatError(
            f"moment grid must be two positive integers, got {meta['grid']!r}"
        )
    if not orders:
        raise FormatError("moment document holds no moments")
    if any(type(order) is not int for pair in orders for order in pair):
        raise FormatError("moment orders m and n must be integers")
    max_radial = max(m for m, _ in orders) + 1
    max_angular = max(n for _, n in orders)
    # the length test comes first, so the expected set is never larger than the document
    if len(orders) != max_radial * (2 * max_angular + 1) or set(orders) != {
        (m, n) for m in range(max_radial) for n in range(-max_angular, max_angular + 1)
    }:
        raise FormatError(
            f"moment orders must cover 0 <= m < {max_radial} and |n| <= {max_angular} "
            f"once each; the document holds {len(orders)} entries"
        )
    values = np.zeros((max_radial, 2 * max_angular + 1), dtype=complex)
    for (m, n), coeff in zip(orders, coeffs):
        values[m, max_angular + n] = coeff
    return MomentSet(
        max_radial=max_radial,
        max_angular=max_angular,
        values=values,
        grid=grid,
        basis_id=basis_id,
    )


def invariants_to_csv(phi: np.ndarray) -> str:
    """Single-row CSV of an (M, L+1) invariant array, header phi_m_n, m-major."""
    header = [f"phi_{m}_{n}" for m, n in np.ndindex(phi.shape)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerow([repr(float(v)) for v in phi.ravel()])
    return buf.getvalue()
