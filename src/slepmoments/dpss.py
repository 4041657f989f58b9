"""Discrete prolate spheroidal sequences (DPSS) and the radial basis built from them.

The sequences are computed as eigenvectors of the symmetric tridiagonal matrix
that commutes with the bandlimiting sinc kernel; this is the numerically stable
route, since the sinc kernel's own eigenvalues cluster exponentially near 0 and 1.
Concentration eigenvalues are then recovered as Rayleigh quotients against the
sinc kernel, whose Toeplitz product is taken with numpy FFTs over blocks of
sequences, so the dense kernel is never formed. scipy supplies only the
tridiagonal eigensolver.

A basis file is the JSON object {n, w, k, eigenvalues, sequences}, written by
``basis_to_json`` and read back, checked, by ``basis_from_json``.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError, ParameterError

__all__ = [
    "DpssParams",
    "DpssBasis",
    "compute_dpss",
    "radial_basis",
    "basis_to_json",
    "basis_from_json",
]


def _check_integer(name: str, value, low: int, high: int | None = None) -> int:
    """The one integer rule, for every size, count, order and seed: ``value`` as a
    plain int within [low, high], with no upper bound when ``high`` is None.

    A Python or numpy integer passes. A bool or a non-integer, which numpy or scipy
    would refuse later without naming it or take as 0 or 1, raises "<name> must be
    an integer, got <repr>"; a value out of range, "<name> must be >= <low>, got <v>"
    or "<name> must be <= <high>, got <v>". Callers go on with the int returned:
    json cannot write a numpy integer, and a small one overflows in arithmetic.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ParameterError(f"{name} must be <= {high}, got {value}")
    return int(value)


def _check_real(name: str, value) -> float:
    """``value`` as a float, refusing a bool, which numpy would take as 0 or 1, a
    non-number, or an integer past the float range; each caller keeps its own
    range rule."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{name} must lie within the float range, got {value!r}") from None


@dataclass(frozen=True)
class DpssParams:
    """Sequence length N, half bandwidth W in (0, 0.5), and sequence count K <= N."""

    n_len: int
    half_bandwidth: float
    n_seq: int

    def __post_init__(self):
        n_len = _check_integer("n_len", self.n_len, 1, 4096)
        w = _check_real("half_bandwidth", self.half_bandwidth)
        if not (0.0 < w < 0.5):
            raise ParameterError(f"half_bandwidth must lie in (0, 0.5), got {w}")
        object.__setattr__(self, "n_len", n_len)
        object.__setattr__(self, "half_bandwidth", w)
        object.__setattr__(self, "n_seq", _check_integer("n_seq", self.n_seq, 1, n_len))


@dataclass(frozen=True, eq=False)
class DpssBasis:
    """K orthonormal sequences of length N with concentration eigenvalues in (0, 1).

    Rows of ``sequences`` are sign-fixed so the first nonzero entry is positive,
    and ``eigenvalues`` are strictly decreasing. Where the concentrations reach 1
    the stored eigenvalues are tie-broken, not computed: ``_enforce_decreasing``
    clamps them below 1 and steps each one ulp below the last, so the built-in
    basis stores 1 - (k + 1) 2**-53 for k = 0..9. Where the quotients are lost in
    rounding, far past the Shannon number 2NW, they start at the smallest normal
    float and halve from there. ``basis_id`` names N, K and the shortest
    round-trip form of W, so two bases with different W never share an id.
    Instances compare by identity: field-wise equality would compare the arrays
    elementwise.
    """

    params: DpssParams
    sequences: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray

    @property
    def basis_id(self) -> str:
        p = self.params
        return f"dpss-n{p.n_len}-w{p.half_bandwidth!r}-k{p.n_seq}"


def _kernel_column(n_len: int, half_bandwidth: float) -> np.ndarray:
    col = np.empty(n_len)
    col[0] = 2.0 * half_bandwidth
    m = np.arange(1, n_len)
    col[1:] = np.sin(2.0 * np.pi * half_bandwidth * m) / (np.pi * m)
    return col


def _negative_rows(vectors: np.ndarray) -> np.ndarray:
    """Mask of the rows whose first entry above 1e-13 of the row's largest magnitude is < 0."""
    mag = np.abs(vectors)
    first = np.argmax(mag > 1e-13 * mag.max(axis=1, keepdims=True), axis=1)
    return vectors[np.arange(len(vectors)), first] < 0


def _fix_signs(vectors: np.ndarray) -> None:
    """Flip, in place, the ``_negative_rows``, so each first nonzero entry is positive."""
    vectors[_negative_rows(vectors)] *= -1.0


def _check_conventions(seqs: np.ndarray, eig: np.ndarray) -> None:
    """Raise DomainError at the first sequence convention a K x N basis breaks.

    Orthogonality is not checked: its Gram matrix is a K x K x N product.
    """
    if not (np.isfinite(seqs).all() and np.isfinite(eig).all()):
        raise DomainError("sequences and eigenvalues must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is inf and fails the check
        norms = np.linalg.norm(seqs, axis=1)
    if np.abs(norms - 1.0).max() > 1e-9:
        raise DomainError("sequences must have unit norm")
    if _negative_rows(seqs).any():
        raise DomainError("each sequence's first nonzero entry must be positive")
    if not (0.0 < eig[-1] and eig[0] < 1.0 and (np.diff(eig) < 0.0).all()):
        raise DomainError("eigenvalues must decrease strictly within (0, 1)")


def _enforce_decreasing(lam: np.ndarray) -> np.ndarray:
    """Clamp Rayleigh quotients into (0, 1) and break float ties downward.

    For large N*W the true eigenvalues differ by less than one ulp of 1.0, so the
    quotients collapse onto 1.0; the concentration ORDER is still certain (it is
    the order delivered by the commuting tridiagonal solver), so ties are resolved
    by nudging each value at most a few ulps below its predecessor.
    """
    out = np.minimum(lam, np.nextafter(1.0, -np.inf))  # also caps what follows a NaN
    tiny = np.finfo(float).tiny
    for k in range(len(out)):
        prev = out[k - 1] if k else 1.0
        out[k] = max(min(out[k], np.nextafter(prev, -np.inf)), tiny)
        if out[k] >= prev:  # predecessor already at the positive floor
            out[k] = prev / 2.0
    return out


# sequences per FFT in compute_dpss; bounds its complex spectra to 8 x N x 16 B
_FFT_BLOCK = 8


def compute_dpss(params: DpssParams) -> DpssBasis:
    """Compute the first K sequences and their concentration eigenvalues.

    Eigenvectors come from the commuting symmetric tridiagonal matrix with
    diagonal ((N-1-2t)/2)^2 cos(2piW) and off-diagonal t(N-t)/2; eigenvalues are
    Rayleigh quotients v^T A v against the sinc kernel A. The product A v embeds
    A in a circulant of length 2N-1 and is taken with numpy FFTs, eight
    sequences at a time, so only one (N, K) product array is held.
    """
    # imported here so the moment, invariant and reconstruction paths never load scipy
    from scipy.linalg import eigh_tridiagonal

    n, w, k = params.n_len, params.half_bandwidth, params.n_seq
    t = np.arange(n)
    diag = ((n - 1 - 2 * t) / 2.0) ** 2 * np.cos(2.0 * np.pi * w)
    off = np.arange(1, n) * np.arange(n - 1, 0, -1) / 2.0
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(n - k, n - 1))
    seqs = np.ascontiguousarray(vecs[:, ::-1].T)
    del vecs
    seqs /= np.linalg.norm(seqs, axis=1, keepdims=True)
    _fix_signs(seqs)

    col = _kernel_column(n, w)
    p = 2 * n - 1
    spec = np.fft.rfft(np.concatenate((col, col[:0:-1])))[:, None]
    av = np.empty((n, k))
    for j in range(0, k, _FFT_BLOCK):
        blk = np.fft.rfft(seqs[j:j + _FFT_BLOCK].T, n=p, axis=0)
        # spectrum first: the complex product is not bit-symmetric in its
        # operands, and the recorded basis bytes were made in this order
        np.multiply(spec, blk, out=blk)
        av[:, j:j + _FFT_BLOCK] = np.fft.irfft(blk, n=p, axis=0)[:n]
    # one einsum over all K columns; per-block sums can differ in the last bit
    lam = np.einsum("kn,nk->k", seqs, av)
    return DpssBasis(params=params, sequences=seqs, eigenvalues=_enforce_decreasing(lam))


def _catmull_rom(samples: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Catmull-Rom interpolation of each row of K x N uniformly spaced samples,
    queried at x: a K x ``x.shape`` array.

    x is in sample-index units; end tangents use ghost points made by odd reflection,
    2 s_0 - s_1 and 2 s_{N-1} - s_{N-2}. A single sample is held constant.
    All K rows are interpolated at once, with each query's interval i and offset t
    computed once; every value is the same IEEE expression as for one row alone.
    """
    k, n = samples.shape
    if n == 1:
        return np.repeat(samples, x.size, axis=1).reshape(k, *x.shape)
    padded = np.pad(samples, ((0, 0), (1, 1)), mode="reflect", reflect_type="odd")
    i = np.clip(np.floor(x).astype(int), 0, n - 2)
    t = x - i
    p0, p1, p2, p3 = padded[:, i], padded[:, i + 1], padded[:, i + 2], padded[:, i + 3]
    return 0.5 * (
        2.0 * p1
        + (-p0 + p2) * t
        + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * t**2
        + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * t**3
    )


def radial_basis(basis: DpssBasis, r_grid) -> np.ndarray:
    """Resample every sequence onto radii in [0, 1]; returns a K x R matrix.

    The native sample m sits at radius m/(N-1) (index axis rescaled to the unit
    interval); off-node radii are filled by Catmull-Rom interpolation. Each
    sequence contributes the grid as one 2-D block of rows (a scalar grid as one
    column), stacked in sequence order.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.size and (r.min() < 0.0 or r.max() > 1.0):
        raise DomainError("radial grid values must lie in [0, 1]")
    x = r * (basis.params.n_len - 1)
    return np.vstack(_catmull_rom(basis.sequences, x))


# --- serialization -----------------------------------------------------------


def _json_chunks(doc: dict) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=1)``, one array row at a time.

    ``doc`` is a non-empty dict of JSON scalars and non-empty float64 arrays, each
    array standing for its ``tolist()``. ``indent`` sends ``json.dumps`` to the
    pure-Python encoder, which holds the whole document as small strings (about
    30 MB for an 80 x 4096 basis). Here each row goes through the C encoder
    instead. It spells every number the same way (``float.__repr__``, ``NaN``,
    ``Infinity``), and its ", " separator, which no number contains, is replaced
    by the indented one.
    """
    sep = "{\n "
    for key, value in doc.items():
        yield f"{sep}{json.dumps(key)}: "
        sep = ",\n "
        if isinstance(value, np.ndarray):
            yield from _array_chunks(value, 1)
        else:
            yield json.dumps(value)
    yield "\n}"


def _array_chunks(arr: np.ndarray, depth: int) -> Iterator[str]:
    """The indented JSON of an array whose closing bracket is indented by ``depth``."""
    inner = "\n" + " " * (depth + 1)
    if arr.ndim == 1:
        yield "[" + inner + json.dumps(arr.tolist())[1:-1].replace(", ", "," + inner)
    else:
        sep = "[" + inner
        for row in arr:
            yield sep
            sep = "," + inner
            yield from _array_chunks(row, depth + 1)
    yield "\n" + " " * depth + "]"


def basis_to_json(basis: DpssBasis) -> Iterator[str]:
    """The basis file text as chunks, written as they are produced: see ``_json_chunks``."""
    p = basis.params
    return _json_chunks({"n": p.n_len, "w": p.half_bandwidth, "k": p.n_seq,
                         "eigenvalues": basis.eigenvalues, "sequences": basis.sequences})


def _holds_bool(value, depth: int) -> bool:
    """Whether ``depth`` levels of nested lists hold a bool."""
    if depth == 0:
        return type(value) is bool
    if depth == 1:
        return bool in set(map(type, value))  # one set per innermost list keeps the scan in C
    return any(_holds_bool(row, depth - 1) for row in value)


def _number_array(doc: dict, name: str) -> np.ndarray:
    """The field as a float array; it must hold numbers in equal-length lists."""
    value = doc[name]
    try:
        arr = np.asarray(value)  # no dtype, so strings, nulls and all-bool lists are not cast
    except ValueError:  # ragged lists
        arr = None
    # np.asarray casts a bool beside numbers to a number, so the lists are scanned too
    if arr is None or arr.dtype.kind not in "iuf" or _holds_bool(value, arr.ndim):
        raise FormatError(f"{name} must be an array of numbers")
    return arr.astype(float, copy=False)


def basis_from_json(text: str | bytes) -> DpssBasis:
    """Parse ``basis_to_json`` output and check it against every sequence convention.

    ``text`` may be given as bytes, which are decoded as strict UTF-8 (not as
    ``json.loads`` would, which also takes UTF-16, UTF-32 and a UTF-8 BOM). A
    malformed document or a broken convention raises ``FormatError``; text that
    is not UTF-8 or not JSON raises its decoder's own ``ValueError``.
    """
    # rebinding drops the bytes before json.loads builds its objects
    text = text.decode() if isinstance(text, bytes) else text
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise FormatError("basis document must hold a JSON object")
    try:
        n, w, k = doc["n"], doc["w"], doc["k"]
        seqs = _number_array(doc, "sequences")
        eig = _number_array(doc, "eigenvalues")
    except KeyError as exc:
        raise FormatError(f"basis document is missing field {exc}")
    if type(n) is not int or type(k) is not int:
        raise FormatError(f"n and k must be integers, got {n!r}, {k!r}")
    if type(w) not in (int, float):
        raise FormatError(f"w must be a number, got {w!r}")
    try:
        params = DpssParams(n_len=n, half_bandwidth=float(w), n_seq=k)
        if seqs.shape != (k, n) or eig.shape != (k,):
            raise FormatError("basis document has inconsistent array shapes")
        _check_conventions(seqs, eig)
    except (ParameterError, OverflowError, DomainError) as exc:
        raise FormatError(str(exc))
    return DpssBasis(params=params, sequences=seqs, eigenvalues=eig)
