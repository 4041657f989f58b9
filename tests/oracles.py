"""Reference computations the tests check the package against.

The dense sinc kernel, the DPSS spectra and their concentration ratios, one
sequence at a time or all K at once, serve as oracles for ``compute_dpss``
(criterion 1 and ``test_dpss.py``).
``toeplitz_concentrations`` recomputes its eigenvalues through scipy's FFT
Toeplitz product, which the blocked numpy route must match bit for bit.
``moment_value`` reads one moment by its (m, n) order.
``bandlimited_extension`` evaluates each sequence at non-integer index by
Slepian's exact extension, which ``radial_basis``'s Catmull-Rom interpolant
approximates. ``ring_radial_gram`` and ``continuous_radial_gram`` give the Gram
matrix 2pi integral psi_m psi_k r dr of the radial functions, by a direct sum
over the rings and by exact quadrature of the piecewise-cubic interpolants;
``radial_gram_defect`` measures how far a ring Gram matrix is from a fine one.
``reference_train_classifier`` and ``reference_sweep`` fit one classifier per
split, one 2-D training loop at a time, as the stacked trainer of
``classification_sweep`` must do bit for bit; ``reference_sweep`` draws each
stratified split from the rule's definition, not through the harness.
``hinge_objective`` gives the per-class training objective a fitted model
reaches, and ``hinge_optimum`` the least value that objective can take, from
its SVM dual.
``reference_shape_class_image`` renders one shape-class image from scratch,
coordinates included, as ``synthetic_images`` must do bit for bit from layers
it builds once per class. ``reference_fix_signs`` flips one row at a time, as
the whole-array ``_fix_signs`` must do bit for bit.
``reference_pgm_header`` scans a PGM header one byte at a time, the reference
for ``read_pgm``'s one-pattern tokenizer.
"""

import math

import numpy as np
from scipy.optimize import minimize

from slepmoments import DpssBasis, LinearModel, MomentSet, ParameterError, radial_basis
from slepmoments.dpss import _enforce_decreasing, _kernel_column


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


def simpson(y: np.ndarray, h: float):
    """Composite Simpson rule over an odd number of samples spaced h apart, along
    the first axis."""
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum(axis=0) + 2.0 * y[2:-1:2].sum(axis=0))


def _odd_points(quad_points: int) -> int:
    """The odd Simpson point count of at least ``quad_points``, which must be >= 3."""
    if quad_points < 3:
        raise ParameterError(f"quad_points must be >= 3, got {quad_points}")
    return quad_points + (quad_points + 1) % 2


def concentration_ratio(basis: DpssBasis, k: int, quad_points: int) -> float:
    """Energy of f_k inside [-W, W] over its energy on [-1/2, 1/2], by quadrature.

    Composite Simpson on both intervals; the result reproduces the eigenvalue
    lambda_k up to quadrature error.
    """
    npts = _odd_points(quad_points)

    def energy(half_width: float) -> float:
        u = np.linspace(-half_width, half_width, npts)
        power = np.abs(dpss_spectrum(basis, k, u)) ** 2
        return simpson(power, 2.0 * half_width / (npts - 1))

    ratio = float(energy(basis.params.half_bandwidth) / energy(0.5))
    return min(max(ratio, np.finfo(float).tiny), np.nextafter(1.0, 0.0))


def concentration_ratios(basis: DpssBasis, quad_points: int) -> np.ndarray:
    """``concentration_ratio`` of every sequence, a length-K array.

    Each interval's phase matrix is built once and all K spectra are taken in one
    product; the factor eps_k of ``dpss_spectrum`` has modulus 1, so it is left out
    of the energies.
    """
    npts = _odd_points(quad_points)
    n = basis.params.n_len

    def energy(half_width: float) -> np.ndarray:
        u = np.linspace(-half_width, half_width, npts)
        phase = np.exp(-1j * np.pi * np.outer(u, n - 1 - 2 * np.arange(n)))
        power = np.abs(phase @ basis.sequences.T) ** 2
        return simpson(power, 2.0 * half_width / (npts - 1))

    ratios = energy(basis.params.half_bandwidth) / energy(0.5)
    return np.clip(ratios, np.finfo(float).tiny, np.nextafter(1.0, 0.0))


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


def bandlimited_extension(basis: DpssBasis, x) -> np.ndarray:
    """Slepian's band-limited extension of every sequence to the real indices x, K x len(x).

    v_m(x) = (1/lambda_m) sum_k v_m[k] 2W sinc(2W(x - k)) (Slepian, BSTJ 1978, the
    discrete case), one K x N by N x len(x) product. It equals v_m[k] at x = k.
    """
    x = np.asarray(x, dtype=float)
    n_len, w = basis.params.n_len, basis.params.half_bandwidth
    kernel = 2.0 * w * np.sinc(2.0 * w * (np.arange(n_len)[:, None] - x[None, :]))
    return basis.sequences @ kernel / basis.eigenvalues[:, None]


def ring_radial_gram(basis: DpssBasis, max_radial: int, n_rings: int) -> np.ndarray:
    """2pi sum_i psi_m(r_i) psi_k(r_i) r_i/R over the rings r_i = (i + 0.5)/R, one
    correctly rounded sum per (m, k)."""
    r = (np.arange(n_rings) + 0.5) / n_rings
    psi = radial_basis(basis, r)[:max_radial]
    return np.array([[2.0 * np.pi * math.fsum(psi[m] * psi[k] * r / n_rings)
                      for k in range(max_radial)] for m in range(max_radial)])


# the ring count that stands for the integral, and the rings summed at a time
_REFERENCE_RINGS, _RING_BLOCK = 8192, 512


def radial_gram_defect(psi, max_radial: int, n_rings: int) -> float:
    """How far the ring Gram matrix 2pi sum_i psi_m(r_i) psi_k(r_i) r_i/R on
    ``n_rings`` midpoint rings is from the integral it samples, for the radial
    functions ``psi(r)``, a K x len(r) array of which the first ``max_radial`` rows
    are used.

    The integral is the same sum on 8192 rings; the figure is the largest absolute
    difference over the reference's largest diagonal entry. Each Gram matrix is
    summed 512 rings at a time, so a band-limited extension's N x rings sinc kernel
    stays small.
    """
    def gram(rings: int) -> np.ndarray:
        total = np.zeros((max_radial, max_radial))
        for start in range(0, rings, _RING_BLOCK):
            r = (np.arange(start, min(start + _RING_BLOCK, rings)) + 0.5) / rings
            values = psi(r)[:max_radial]
            total += (values * r / rings) @ values.T
        return 2.0 * np.pi * total

    reference = gram(_REFERENCE_RINGS)
    return float(np.abs(gram(n_rings) - reference).max() / np.diag(reference).max())


def continuous_radial_gram(basis: DpssBasis, max_radial: int) -> np.ndarray:
    """2pi integral_0^1 psi_m(r) psi_k(r) r dr of the Catmull-Rom radial functions.

    In x = r(N-1) each psi_m is a cubic on every segment [j, j+1], so the integrand
    psi_m psi_k x / (N-1)^2 is a polynomial of degree 7 there, which six-node
    Gauss-Legendre integrates exactly.
    """
    n_len = basis.params.n_len
    nodes, weights = np.polynomial.legendre.leggauss(6)
    x = (np.arange(n_len - 1)[:, None] + (nodes[None, :] + 1.0) / 2.0).ravel()
    w = np.tile(weights / 2.0, n_len - 1) * x / (n_len - 1) ** 2
    psi = radial_basis(basis, x / (n_len - 1))[:max_radial]
    return 2.0 * np.pi * (psi * w) @ psi.T


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


def hinge_objective(model, x, y, reg) -> np.ndarray:
    """Each class's one-vs-rest objective reg/2 |w|^2 + mean hinge, as ``model`` was
    fitted on (x, y): w are its weights on the standardized features, its raw-scale
    weights times the feature stds, and the hinge is taken of its raw scores."""
    sd = x.std(axis=0)
    sd[sd == 0.0] = 1.0
    targets = np.where(y[:, None] == model.classes, 1.0, -1.0)  # n x C
    hinge = np.maximum(0.0, 1.0 - targets * model.decision_function(x)).mean(axis=0)
    return reg / 2.0 * ((model.weights * sd) ** 2).sum(axis=1) + hinge


def hinge_optimum(x, y, label, reg) -> tuple[float, float]:
    """The least value of class ``label``'s one-vs-rest objective of ``hinge_objective``
    on (x, y), in standardized features z with a free bias, as (primal, dual).

    The dual is the SVM's: maximise sum(a) - |sum a_i t_i z_i|^2 / (2 reg) subject to
    0 <= a_i <= 1/n and sum a_i t_i = 0, with targets t_i = +-1. scipy's SLSQP solves
    it in u = a / reg, where its Hessian is the Gram matrix of the t_i z_i. The
    variables SLSQP leaves strictly inside their bounds are then solved for exactly,
    by the KKT system of the same problem with the others held, and kept if they stay
    inside. Any feasible a gives a dual no larger than the objective of any model
    (weak duality). The primal is the objective at w = sum a_i t_i z_i / reg and its
    best bias, which lies at a kink of the mean hinge; the two meet at the optimum.
    """
    sd = x.std(axis=0)
    sd[sd == 0.0] = 1.0
    t = np.where(y == label, 1.0, -1.0)
    g = t[:, None] * (x - x.mean(axis=0)) / sd  # rows t_i z_i
    gram, top = g @ g.T, 1.0 / (t.size * reg)
    u = minimize(lambda u: u @ gram @ u / 2.0 - u.sum(), np.zeros(t.size),
                 jac=lambda u: gram @ u - 1.0, bounds=[(0.0, top)] * t.size, method="SLSQP",
                 constraints={"type": "eq", "fun": lambda u: u @ t, "jac": lambda u: t},
                 options={"ftol": 1e-14, "maxiter": 1000}).x
    # SLSQP leaves the variables it holds at a bound within about 1e-12 of it
    free = (u > 1e-9 * top) & (u < (1.0 - 1e-9) * top)
    held = np.where(~free & (u > top / 2.0), top, 0.0)
    kkt = np.block([[gram[np.ix_(free, free)], t[free, None]], [t[None, free], np.zeros((1, 1))]])
    exact = np.linalg.solve(kkt, np.append(1.0 - gram[free] @ held, -t @ held))[:-1]
    if np.all((exact >= 0.0) & (exact <= top)):
        u[free] = exact
    a = u * reg
    w = g.T @ a / reg
    dual = a.sum() - reg / 2.0 * w @ w
    margins = g @ w  # t_i (w . z_i); the hinge's kinks lie at the biases t_i - w . z_i
    hinge = np.maximum(0.0, 1.0 - margins[:, None] - np.outer(t, t - t * margins)).mean(axis=0)
    return float(reg / 2.0 * w @ w + hinge.min()), float(dual)


def reference_sweep(ds, fractions, repeats, seed, reg=1e-3, epochs=300):
    """Mean and std accuracy per fraction, fitting every split on its own. Each split
    is drawn by the stratified rule's definition: for each label in sorted order, a
    permutation of that label's indices sends its first floor(p * size) to training
    and the rest to testing."""
    x, y = ds.features, ds.labels
    means, stds = [], []
    for fi, p in enumerate(fractions):
        accs = []
        for rep in range(repeats):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(fi, rep))
            )
            tr, te = [], []
            for label in sorted(set(y.tolist())):
                idx = rng.permutation(np.flatnonzero(y == label))
                count = math.floor(p * idx.size)
                tr.extend(idx[:count])
                te.extend(idx[count:])
            tr, te = np.array(tr), np.array(te)
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


def reference_pgm_header(data: bytes) -> tuple[bytes, ...]:
    """The first four tokens of a PGM header (magic, width, height, maxval), each
    found by skipping whitespace bytes and '#' comments up to a newline, byte by byte."""
    tokens, pos = [], 0
    while len(tokens) < 4:
        while pos < len(data) and (data[pos:pos + 1].isspace() or data[pos:pos + 1] == b"#"):
            if data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    return tuple(tokens)
