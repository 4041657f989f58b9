"""Reference computations the tests check the package against.

The dense sinc kernel, the DPSS spectra and their concentration ratios serve as
oracles for ``compute_dpss`` (criterion 1 and ``test_dpss.py``).
``toeplitz_concentrations`` recomputes its eigenvalues through scipy's FFT
Toeplitz product, which the blocked numpy route must match bit for bit.
``moment_value`` reads one moment by its (m, n) order.
``reference_train_classifier`` and ``reference_sweep`` fit one classifier per
split, one 2-D training loop at a time, as the stacked trainer of
``classification_sweep`` must do bit for bit.
``reference_shape_class_image`` renders one shape-class image from scratch,
coordinates included, as ``synthetic_images`` must do bit for bit from layers
it builds once per class. ``reference_fix_signs`` flips one row at a time, as
the whole-array ``_fix_signs`` must do bit for bit.
"""

import numpy as np

from slepmoments import DpssBasis, LinearModel, MomentSet, ParameterError
from slepmoments.dpss import _enforce_decreasing, _kernel_column
from slepmoments.harness import _plain_split, _stratified_split


def sinc_kernel(n_len: int, half_bandwidth: float) -> np.ndarray:
    """Dense N x N bandlimiting kernel sin(2piW(n-m))/(pi(n-m)), diagonal 2W."""
    if n_len < 1:
        raise ParameterError(f"n_len must be a positive integer, got {n_len}")
    if not (0.0 < half_bandwidth < 0.5):
        raise ParameterError(
            f"half_bandwidth must lie in (0, 0.5), got {half_bandwidth}"
        )
    col = _kernel_column(n_len, half_bandwidth)
    idx = np.abs(np.arange(n_len)[:, None] - np.arange(n_len)[None, :])
    return col[idx]


def dpss_spectrum(basis: DpssBasis, k: int, u_grid) -> np.ndarray:
    """Evaluate f_k(u) = eps_k * sum_m v_m exp(-i pi (N-1-2m) u) on a frequency grid.

    Returns one complex value per grid frequency. eps_k is 1 for even k and the
    imaginary unit for odd k, which keeps the inverse relation
    v_m = (1/eps_k) integral of f_k exp(+i pi (N-1-2m) u) du valid for every k.
    """
    if not (0 <= k < basis.params.n_seq):
        raise IndexError(f"sequence index {k} out of range [0, {basis.params.n_seq})")
    u = np.asarray(u_grid, dtype=float)
    n = basis.params.n_len
    eps_k = 1.0 if k % 2 == 0 else 1.0j
    phase = np.exp(-1j * np.pi * np.outer(u, n - 1 - 2 * np.arange(n)))
    return eps_k * (phase @ basis.sequences[k])


def simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule over an odd number of samples spaced h apart."""
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def concentration_ratio(basis: DpssBasis, k: int, quad_points: int) -> float:
    """Energy of f_k inside [-W, W] over its energy on [-1/2, 1/2], by quadrature.

    Composite Simpson on both intervals; the result reproduces the eigenvalue
    lambda_k up to quadrature error.
    """
    if quad_points < 3:
        raise ParameterError(f"quad_points must be >= 3, got {quad_points}")
    npts = quad_points + (quad_points + 1) % 2  # odd point count

    def energy(half_width: float) -> float:
        u = np.linspace(-half_width, half_width, npts)
        power = np.abs(dpss_spectrum(basis, k, u)) ** 2
        return simpson(power, 2.0 * half_width / (npts - 1))

    ratio = float(energy(basis.params.half_bandwidth) / energy(0.5))
    return min(max(ratio, np.finfo(float).tiny), np.nextafter(1.0, 0.0))


def toeplitz_concentrations(basis: DpssBasis) -> np.ndarray:
    """The basis's Rayleigh quotients from ``scipy.linalg.matmul_toeplitz`` and one einsum.

    This is the whole-array route that ``compute_dpss`` took before its product
    was blocked over numpy FFTs.
    """
    from scipy.linalg import matmul_toeplitz

    seqs = basis.sequences
    col = _kernel_column(basis.params.n_len, basis.params.half_bandwidth)
    av = matmul_toeplitz((col, col), seqs.T)
    return _enforce_decreasing(np.einsum("kn,nk->k", seqs, av))


def moment_value(ms: MomentSet, m: int, n: int) -> complex:
    """S[m][n] of a moment set, for 0 <= m < M and -L <= n <= L."""
    if not (0 <= m < ms.max_radial and -ms.max_angular <= n <= ms.max_angular):
        raise IndexError(f"moment order ({m}, {n}) outside stored range")
    return complex(ms.values[m, ms.max_angular + n])


def reference_train_classifier(x, y, reg=1e-3, epochs=300) -> LinearModel:
    """One-vs-rest hinge-loss fit of one training set, one 2-D epoch loop."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0.0] = 1.0
    z = (x - mu) / sd

    n, dim = z.shape
    classes = np.unique(y)
    targets = np.where(y[:, None] == classes[None, :], 1.0, -1.0)  # n x C
    w = np.zeros((classes.size, dim))
    b = np.zeros(classes.size)
    for epoch in range(1, epochs + 1):
        margins = targets * (z @ w.T + b)  # n x C
        viol = (margins < 1.0) * targets  # n x C, +-1 on violators
        grad_w = reg * w - (viol.T @ z) / n
        grad_b = -viol.mean(axis=0)
        eta = 1.0 / (reg * epoch + 10.0)
        w -= eta * grad_w
        b -= eta * grad_b

    return LinearModel(classes=classes, weights=w / sd, biases=b - (w * (mu / sd)).sum(axis=1))


def reference_sweep(ds, fractions, repeats, seed, stratified, reg=1e-3, epochs=300):
    """Mean and std accuracy per fraction, fitting every split on its own."""
    x, y = ds.features, ds.labels
    means, stds = [], []
    for fi, p in enumerate(fractions):
        accs = []
        for rep in range(repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(fi, rep))
            )
            if stratified:
                tr, te = _stratified_split(y, p, rng, ds.class_names)
            else:
                tr, te = _plain_split(y, p, rng, ds.class_names)
            model = reference_train_classifier(x[tr], y[tr], reg=reg, epochs=epochs)
            accs.append(float((model.predict(x[te]) == y[te]).mean()))
        means.append(float(np.mean(accs)))
        stds.append(float(np.std(accs)))
    return np.array(means), np.array(stds)


def reference_fix_signs(vectors: np.ndarray) -> None:
    """Flip, in place, each row whose first entry above 1e-13 of its largest magnitude is < 0."""
    for v in vectors:
        nz = np.nonzero(np.abs(v) > 1e-13 * np.abs(v).max())[0]
        if v[nz[0]] < 0:
            np.negative(v, out=v)


def reference_shape_class_image(
    class_id: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """One shape-class image, every layer computed for this image alone."""
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    c = (size - 1) / 2.0
    rho = size / 2.0 - 0.5
    r = np.hypot(xs - c, ys - c) / rho
    theta = np.arctan2(-(ys - c), xs - c)
    rr = np.clip(r, 0.0, 1.0)
    n1 = 1 + (class_id % 5)
    n2 = 1 + ((class_id + 2) % 7)
    r1 = 0.30 + 0.06 * (class_id % 6)
    r2 = 0.62 - 0.04 * (class_id % 6)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    a1 = 0.22 * (1.0 + 0.1 * rng.standard_normal())
    a2 = 0.18 * (1.0 + 0.1 * rng.standard_normal())
    img = 0.40 * np.ones((size, size))
    img += a1 * np.exp(-(((rr - r1) / 0.10) ** 2)) * np.cos(n1 * theta + n1 * phase)
    img += a2 * np.exp(-(((rr - r2) / 0.08) ** 2)) * np.cos(n2 * theta + n2 * phase + 0.7)
    img += 0.12 * np.exp(-(((rr - 0.45) / 0.35) ** 2))
    img = np.clip(img, 0.0, 1.0)
    power = float(np.mean(img**2))
    return np.clip(img + rng.normal(0.0, np.sqrt(power / 1e4), img.shape), 0.0, 1.0)
