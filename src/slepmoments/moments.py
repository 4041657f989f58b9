"""Slepian-based moments of polar images, rotation invariants, and reconstruction.

A moment S[m][n] is the projection of the conjugated image onto
psi_m(r) * exp(-i n theta) with area weight r dr dtheta, evaluated on the
uniform polar grid by midpoint quadrature in r and a length-T FFT in theta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dpss import DpssBasis, _check_integer, radial_basis
from .errors import AliasingError, FormatError, ParameterError
from .imaging import RasterImage, _blocks, _polar_grid, _polar_plans, _samples

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
        # the grid rules, which moments_from_json applies through here: a pair of
        # sizes, each an integer >= 1 under dpss._check_integer. The grid and the
        # orders are stored as the ints their checks return.
        if not (isinstance(self.grid, tuple) and len(self.grid) == 2):
            raise ParameterError(
                f"moment grid must be a tuple of two positive integers, got {self.grid!r}")
        grid = tuple(_check_integer(f"moment grid {name}", size, 1)
                     for name, size in zip(("n_radial", "n_angular"), self.grid))
        max_radial, max_angular = _check_order_range(self.max_radial, self.max_angular, grid[1])
        v = np.asarray(self.values, dtype=complex)
        expected = (max_radial, 2 * max_angular + 1)
        if v.shape != expected:
            raise ParameterError(f"moment array shape {v.shape}, expected {expected}")
        if not np.all(np.isfinite(v)):
            raise ParameterError("moment values must be finite")
        for name, value in (("max_radial", max_radial), ("max_angular", max_angular),
                            ("values", v), ("grid", grid)):
            object.__setattr__(self, name, value)


def _check_order_range(max_radial: int, max_angular: int, n_t: int) -> tuple[int, int]:
    """The one home of the order rules: integer orders, max_radial >= 1,
    max_angular >= 0, and enough of the n_t angular samples for every order.
    Returns the orders as ints."""
    max_radial = _check_integer("max_radial", max_radial, 1)
    max_angular = _check_integer("max_angular", max_angular, 0)
    if 2 * max_angular + 1 > n_t:
        raise AliasingError(
            f"angular orders [-{max_angular}, {max_angular}] need at least "
            f"{2 * max_angular + 1} angular samples, grid has {n_t}"
        )
    return max_radial, max_angular


def _radial(
    basis: DpssBasis, max_radial: int, max_angular: int, grid: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, int, tuple[int, int]]:
    """The one home of the radial rule on the R x T ``_polar_grid``: after the order
    checks, psi_m(r_i) for m < M, an M x R matrix, the ring weights r_i dr = r_i/R,
    and the checked L and (R, T) as ints, for the caller to go on with."""
    r, theta = _polar_grid(*grid)
    max_radial, max_angular = _check_order_range(max_radial, max_angular, theta.size)
    if max_radial > basis.params.n_seq:
        raise ParameterError(f"max_radial {max_radial} exceeds basis n_seq {basis.params.n_seq}")
    return radial_basis(basis, r)[:max_radial], r / r.size, max_angular, (r.size, theta.size)


def compute_moments(
    samples: np.ndarray, basis: DpssBasis, max_radial: int, max_angular: int
) -> MomentSet:
    """Project R x T samples f(r_i, theta_j), real or complex, via one FFT per ring.

    S[m][n] = sum_i psi_m(r_i) r_i dr * (sum_j exp(-i n theta_j) conj(f) dtheta)
    with dr = 1/R and dtheta = 2pi/T; identical to the direct double sum. It is
    the exact discrete transform of the samples it is given, whatever their grid.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.size == 0:
        raise ParameterError(f"samples must be a non-empty 2-D array, got {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ParameterError("polar samples must be finite")
    blocks = ((rings, samples[rings]) for rings in _blocks(*samples.shape))
    return Featurizer(basis, max_radial, max_angular, samples.shape)._moments(blocks)


def _raster_moments(image: RasterImage, basis: DpssBasis, max_radial: int,
                    max_angular: int, grid: tuple[int, int]) -> MomentSet:
    """``compute_moments(to_polar(image, *grid), ...)``, bit for bit, without the
    R x T array: each block of rings is planned, sampled and projected, then dropped."""
    # the plans check the grid at the call, so a bad grid is refused before a bad order
    blocks = _samples(image.pixels, _polar_plans(image.pixels.shape, *grid))
    return Featurizer(basis, max_radial, max_angular, grid)._moments(blocks)


def invariants(ms: MomentSet) -> np.ndarray:
    """Moduli |S[m][n]| for n >= 0 (negative n is redundant for real images).

    Shape (M, L+1); entry [m, n] holds phi_{m,n}.
    """
    return np.abs(ms.values[:, ms.max_angular :])


def reconstruct(
    ms: MomentSet, basis: DpssBasis, grid: tuple[int, int]
) -> tuple[np.ndarray, float]:
    """Invert ``compute_moments``: evaluate on the R x T ``grid`` the series
    f = sum_{m,n} c[m][n] psi_m(r) exp(+i n theta) whose moments are ``ms``.

    Sampled on the moment grid, a real f of that form has the moments S = G c, where
    G = 2pi (psi * weights) psi^T is the radial Gram matrix of ``_radial`` on that
    grid's rings, so c = solve(G, S). An f in the span of the stored orders comes
    back to rounding, on the moment grid or on a finer one; any other real f comes
    back as its least-squares projection on that span under the ring weights. All
    stored orders contribute, negative n included, so the orders must pass the same
    checks as in ``compute_moments``. Moments whose ``basis_id`` is not the basis's
    are refused first, since their series on another basis is another image; then an
    invalid ``grid``, or one coarser than the moment grid; then a G that is singular
    or ill-conditioned: the orders it resolves are its eigenvalues above 1e-8 of its
    largest, and fewer than M are refused, as on fewer rings than radial orders or
    on rings too coarse for the basis. Well-posed grids read cond(G) below 10, so the
    bound lies decades from either side, and a solve it lets through loses at most
    about 8 of its 16 digits. Returns the real part on ``grid`` and the largest
    absolute imaginary residual.
    """
    if ms.basis_id != basis.basis_id:
        raise ParameterError(f"the moments were computed with basis {ms.basis_id!r}, "
                             f"but the basis is {basis.basis_id!r}")
    r, theta = _polar_grid(*grid)
    if r.size < ms.grid[0] or theta.size < ms.grid[1]:
        raise ParameterError(
            f"target grid {grid} must match or refine the moment grid {ms.grid}"
        )
    psi, weights, _, _ = _radial(basis, ms.max_radial, ms.max_angular, ms.grid)
    gram = 2.0 * np.pi * (psi * weights) @ psi.T
    eigenvalues = np.linalg.eigvalsh(gram)  # ascending
    resolved = int(np.count_nonzero(eigenvalues > 1e-8 * eigenvalues[-1]))
    if resolved < ms.max_radial:
        raise ParameterError(f"the rings of moment grid {ms.grid} resolve {resolved} of its "
                             f"{ms.max_radial} radial orders: the radial Gram matrix is singular")
    coeffs = np.linalg.solve(gram, ms.values)
    ns = np.arange(-ms.max_angular, ms.max_angular + 1)
    target = _radial(basis, ms.max_radial, ms.max_angular, grid)[0]
    series = target.T @ coeffs @ np.exp(1j * np.outer(ns, theta))
    return series.real, float(np.abs(series.imag).max())


class Featurizer:
    """Polar resampling, moments and invariants of raster images in one step.

    The order and grid checks run once and psi_m(r) * r * dr is built once. It
    holds the block plans of ``imaging._polar_plans`` for the last raster shape it
    saw (``_shape``, ``_plans``): an image of another shape drops them, then builds
    and keeps its own. So featurizing many images of one shape repeats only the
    per-image work, and images of mixed sizes never hold more than one shape's
    plans. A call samples and projects one block of rings at a time, so it never
    holds all R x T samples. It returns ``invariants`` of its ``_moments``,
    flattened m-major: entry m*(L+1)+n holds phi_{m,n}. Defaults give 100 entries
    (10 radial orders, angular orders 0..9); ``_size`` holds the count.

    ``_moments`` is the package's one projection of polar samples: ``compute_moments``
    and ``_raster_moments`` build a Featurizer only to call it, so theirs never
    holds plans.
    """

    def __init__(
        self,
        basis: DpssBasis,
        max_radial: int = 10,
        max_angular: int = 9,
        grid: tuple[int, int] = (64, 128),
    ):
        psi, weights, self._max_angular, self._grid = _radial(
            basis, max_radial, max_angular, grid)
        self._psi_w, self._basis_id = psi * weights, basis.basis_id
        self._size = len(psi) * (self._max_angular + 1)
        self._shape = self._plans = None

    def __call__(self, img: RasterImage) -> np.ndarray:
        shape = img.pixels.shape
        if shape != self._shape:
            self._shape = self._plans = None  # the last shape's plans go first
            self._plans, self._shape = list(_polar_plans(shape, *self._grid)), shape
        return invariants(self._moments(_samples(img.pixels, self._plans))).ravel()

    def _moments(self, blocks) -> MomentSet:
        """The one projection: the MomentSet of R x T polar samples on this grid, given
        as ``(rings, block)`` pairs of a ring slice and its samples.

        Of each block's DFT only the 2L+1 columns the moments use are kept, so no
        R x T spectrum is ever held.
        """
        keep = np.arange(-self._max_angular, self._max_angular + 1) % self._grid[1]
        cols = np.empty((self._grid[0], keep.size), dtype=complex)
        for rings, block in blocks:
            # DFT of conj(f) along theta gives the inner sum for every n at once;
            # conj() of a real block is the block itself, not a copy
            spectrum = np.fft.fft(block.conj(), axis=1)
            np.multiply(spectrum[:, keep], 2.0 * np.pi / self._grid[1], out=cols[rings])
        return MomentSet(len(self._psi_w), self._max_angular, self._psi_w @ cols, self._grid,
                         self._basis_id)


def feature_vector(
    img: RasterImage,
    basis: DpssBasis,
    max_radial: int = 10,
    max_angular: int = 9,
    grid: tuple[int, int] = (64, 128),
) -> np.ndarray:
    """``Featurizer(basis, max_radial, max_angular, grid)(img)``, for one image.

    Not exported by the package; build a ``Featurizer`` instead. It stays
    because BENCHMARK.json declares the per-layer figure
    ``moments.feature_vector.self_s``, and ``perfbench/run.py --trace 1``
    stops when a declared figure is missing.
    """
    return Featurizer(basis, max_radial, max_angular, grid)(img)


# --- serialization -----------------------------------------------------------


def moments_to_json(ms: MomentSet) -> str:
    """Dump as {"metadata": ..., "moments": [{"m","n","re","im"}, ...]}."""
    entries = [{"m": m, "n": j - ms.max_angular, "re": float(v.real), "im": float(v.imag)}
               for (m, j), v in np.ndenumerate(ms.values)]
    doc = {
        "metadata": {
            "grid": list(ms.grid),
            "basis_id": ms.basis_id,
            "quadrature": QUADRATURE_NAME,
        },
        "moments": entries,
    }
    return json.dumps(doc, indent=1)


def moments_from_json(text: str | bytes) -> MomentSet:
    """Parse ``moments_to_json`` output, given as text or as its strict UTF-8 bytes,
    as ``basis_from_json`` takes them.

    M and L are taken from the largest m and n present, and every order with
    0 <= m < M and |n| <= L must appear exactly once.
    """
    # rebinding drops the bytes before json.loads builds its objects
    text = text.decode() if isinstance(text, bytes) else text
    doc = json.loads(text)
    try:
        meta = doc["metadata"]
        grid, basis_id = tuple(meta["grid"]), meta["basis_id"]
        orders = [(e["m"], e["n"]) for e in doc["moments"]]
        parts = [(e["re"], e["im"]) for e in doc["moments"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed moment document ({type(exc).__name__}: {exc})")
    if type(basis_id) is not str:
        raise FormatError(f"moment basis_id must be a string, got {type(basis_id).__name__}")
    if not orders:
        raise FormatError("moment document holds no moments")
    if any(type(order) is not int for pair in orders for order in pair):
        raise FormatError("moment orders m and n must be integers")
    if any(type(part) not in (int, float) for pair in parts for part in pair):
        raise FormatError("moment parts re and im must be numbers")
    try:
        # complex(re, im) keeps the sign of a zero part; re + 1j * im does not
        coeffs = [complex(re, im) for re, im in parts]
    except OverflowError:
        raise FormatError("moment parts re and im must fit in a float")
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
    m_idx, n_idx = np.array(orders).T
    values = np.zeros((max_radial, 2 * max_angular + 1), dtype=complex)
    values[m_idx, n_idx + max_angular] = coeffs
    try:
        return MomentSet(max_radial, max_angular, values, grid, basis_id)
    except ParameterError as exc:
        raise FormatError(str(exc))


def invariants_to_csv(phi: np.ndarray) -> str:
    """Single-row CSV of an (M, L+1) invariant array, header phi_m_n, m-major."""
    return _csv([f"phi_{m}_{n}" for m, n in np.ndindex(phi.shape)], [phi.ravel()])


def _csv(header, rows) -> str:
    """CSV text of the header and rows, one line each: a string cell is written as
    it is, any other as ``repr(float(cell))``, the shortest decimal that reads back
    as the same float64 and the one number format of every table. No field holds a
    comma, quote or newline (headers and labels are names, values are numbers), so
    none is quoted."""
    return "".join(",".join(cell if isinstance(cell, str) else repr(float(cell))
                            for cell in row) + "\n" for row in (header, *rows))
