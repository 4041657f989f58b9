import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slepmoments import DpssParams, ParameterError, compute_dpss, default_basis, radial_basis
from slepmoments.cli import _basis_json, _load_basis
from slepmoments.dpss import _fix_signs
from slepmoments.errors import DomainError

from oracles import (
    concentration_ratio,
    dpss_spectrum,
    simpson,
    sinc_kernel,
    toeplitz_concentrations,
)


def test_kernel_single_point():
    assert np.allclose(sinc_kernel(1, 0.25), [[0.5]])


def test_kernel_two_points():
    expected = np.array([[0.5, 1.0 / np.pi], [1.0 / np.pi, 0.5]])
    assert np.allclose(sinc_kernel(2, 0.25), expected, atol=1e-15)


def test_kernel_symmetric_constant_diagonal():
    a = sinc_kernel(3, 0.1)
    assert np.allclose(a, a.T)
    assert np.allclose(np.diag(a), 0.2)


def test_kernel_rejects_bad_bandwidth():
    with pytest.raises(ParameterError):
        sinc_kernel(4, 0.5)
    with pytest.raises(ParameterError):
        sinc_kernel(4, -0.1)


def test_params_validation():
    with pytest.raises(ParameterError):
        DpssParams(n_len=4, half_bandwidth=0.2, n_seq=5)  # K > N
    with pytest.raises(ParameterError):
        DpssParams(n_len=4, half_bandwidth=0.6, n_seq=2)
    with pytest.raises(ParameterError):
        DpssParams(n_len=0, half_bandwidth=0.2, n_seq=1)


def test_single_point_basis():
    basis = compute_dpss(DpssParams(1, 0.25, 1))
    assert np.allclose(basis.sequences, [[1.0]])
    assert np.allclose(basis.eigenvalues, [0.5])


def test_two_point_basis_closed_form():
    # 2x2 kernel [[0.5, 1/pi], [1/pi, 0.5]] has eigenpairs (0.5 +- 1/pi)
    basis = compute_dpss(DpssParams(2, 0.25, 2))
    assert np.allclose(basis.eigenvalues, [0.5 + 1 / np.pi, 0.5 - 1 / np.pi], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(basis.sequences[0], [s, s], atol=1e-12)
    assert np.allclose(basis.sequences[1], [s, -s], atol=1e-12)


def test_orthonormal_and_ordered():
    basis = compute_dpss(DpssParams(64, 0.1, 8))
    gram = basis.sequences @ basis.sequences.T
    assert np.abs(gram - np.eye(8)).max() < 1e-10
    assert np.all(np.diff(basis.eigenvalues) < 0)
    assert np.all((basis.eigenvalues > 0) & (basis.eigenvalues < 1))


def test_eigen_residual_against_dense_kernel():
    for n, w in [(16, 0.1), (48, 0.25), (64, 0.2)]:
        basis = compute_dpss(DpssParams(n, w, min(8, n)))
        a = sinc_kernel(n, w)
        res = a @ basis.sequences.T - basis.sequences.T * basis.eigenvalues
        norm = np.linalg.norm(res, axis=0)
        assert norm.max() < 1e-8


def test_leading_eigenvalue_grows_with_bandwidth():
    # N small enough that the three leading eigenvalues stay distinguishable
    # from 1.0 in double precision
    lams = [
        compute_dpss(DpssParams(16, w, 3)).eigenvalues[0] for w in (0.1, 0.2, 0.3)
    ]
    assert lams[0] < lams[1] < lams[2]


def test_sign_convention_first_nonzero_positive():
    basis = compute_dpss(DpssParams(48, 0.15, 6))
    for row in basis.sequences:
        nz = np.nonzero(np.abs(row) > 1e-13 * np.abs(row).max())[0]
        assert row[nz[0]] > 0


def test_index_reversal_symmetry():
    basis = compute_dpss(DpssParams(40, 0.2, 6))
    for k, row in enumerate(basis.sequences):
        sign = 1.0 if k % 2 == 0 else -1.0
        assert np.abs(row - sign * row[::-1]).max() < 1e-10


def test_spectrum_at_zero_frequency_even_k():
    basis = compute_dpss(DpssParams(24, 0.2, 4))
    for k in (0, 2):
        value = dpss_spectrum(basis, k, [0.0])[0]
        assert value == pytest.approx(basis.sequences[k].sum(), abs=1e-12)


def test_spectrum_two_point_value():
    basis = compute_dpss(DpssParams(2, 0.25, 1))
    value = dpss_spectrum(basis, 0, [0.0])[0]
    assert value == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_spectrum_inversion_round_trip():
    # trapezoid quadrature of f_k(u) exp(+i pi (N-1-2m) u) over [-1/2, 1/2]
    n = 16
    basis = compute_dpss(DpssParams(n, 0.2, 3))
    u = np.linspace(-0.5, 0.5, 4097)
    vals = dpss_spectrum(basis, 0, u)
    rec = np.empty(n)
    for m in range(n):
        integrand = vals * np.exp(1j * np.pi * (n - 1 - 2 * m) * u)
        rec[m] = np.trapezoid(integrand, u).real
    assert np.abs(rec - basis.sequences[0]).max() < 1e-6


def test_spectrum_index_error():
    basis = compute_dpss(DpssParams(16, 0.2, 2))
    with pytest.raises(IndexError):
        dpss_spectrum(basis, 2, [0.0])
    with pytest.raises(IndexError):
        concentration_ratio(basis, 5, 512)


def test_concentration_single_point():
    basis = compute_dpss(DpssParams(1, 0.25, 1))
    assert concentration_ratio(basis, 0, 501) == pytest.approx(0.5, abs=1e-9)


def test_concentration_matches_eigenvalue():
    for n, w, n_seq, tol in [(32, 0.2, 4, 1e-6), (64, 0.1, 6, 1e-5), (64, 0.25, 6, 1e-5)]:
        basis = compute_dpss(DpssParams(n, w, n_seq))
        for k in range(n_seq):
            ratio = concentration_ratio(basis, k, 8192)
            assert abs(ratio - basis.eigenvalues[k]) < tol


@pytest.mark.parametrize("npts", [3, 5, 101, 8193])
def test_simpson_matches_scipy(npts):
    scipy_simpson = pytest.importorskip("scipy.integrate").simpson
    basis = compute_dpss(DpssParams(24, 0.15, 3))
    for k, half_width in ((0, 0.15), (1, 0.5), (2, 0.5)):
        u = np.linspace(-half_width, half_width, npts)
        power = np.abs(dpss_spectrum(basis, k, u)) ** 2
        assert simpson(power, 2.0 * half_width / (npts - 1)) == pytest.approx(
            scipy_simpson(power, x=u), rel=1e-12)


@pytest.mark.parametrize("n, w, k", [
    (16, 0.1, 4), (64, 0.2, 10), (257, 0.05, 12), (1024, 0.05, 30), (4096, 0.01, 80),
])
def test_dpss_matches_scipy_oracle(n, w, k):
    # an independent implementation; its dpss raises IndexError at N=2, so sizes start at 16
    from scipy.signal.windows import dpss

    sequences, ratios = dpss(n, n * w, Kmax=k, return_ratios=True, norm=2)
    basis = compute_dpss(DpssParams(n, w, k))
    _fix_signs(sequences)
    assert np.abs(sequences - basis.sequences).max() < 1e-12
    assert np.abs(ratios - basis.eigenvalues).max() < 1e-12


@pytest.mark.parametrize("n, w, k", [
    (1, 0.25, 1), (2, 0.25, 2), (64, 0.2, 1), (64, 0.2, 17), (1000, 0.1, 37),
    (12, 0.3, 12), (4096, 0.01, 80),
], ids=["n1", "n2", "k1", "k17", "n1000", "k_eq_n", "batch"])
def test_eigenvalues_match_the_toeplitz_oracle_bit_for_bit(n, w, k):
    # K=17 leaves one sequence in the last FFT block; K=N=12 ends on a part block
    basis = compute_dpss(DpssParams(n, w, k))
    assert basis.eigenvalues.tobytes() == toeplitz_concentrations(basis).tobytes()


def test_compute_dpss_holds_no_whole_array_fft_transient():
    # the blocked product peaks at about 6.5 MB here (sequences, the N x K product
    # and one block); an FFT of all 80 sequences at once peaks near 20 MB
    # imported before tracing starts, so the import's own allocations are not counted
    from scipy.linalg import eigh_tridiagonal  # noqa: F401

    tracemalloc.start()
    try:
        compute_dpss(DpssParams(4096, 0.01, 80))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_stored_default_basis_matches_a_fresh_solve():
    stored = default_basis()
    fresh = compute_dpss(DpssParams(64, 0.2, 10))
    assert stored.params == fresh.params
    assert stored.sequences.shape == (10, 64) and stored.eigenvalues.shape == (10,)
    assert np.abs(stored.sequences - fresh.sequences).max() <= 1e-14
    assert np.abs(stored.eigenvalues - fresh.eigenvalues).max() <= 1e-14


def test_stored_default_basis_passes_the_basis_file_checks(tmp_path):
    path = tmp_path / "default.json"
    path.write_text("".join(_basis_json(default_basis())))
    loaded = _load_basis(str(path))
    assert loaded.basis_id == "dpss-n64-w0.2-k10"
    assert loaded.sequences.tobytes() == default_basis().sequences.tobytes()


def test_default_basis_is_a_fresh_object_per_call():
    a, b = default_basis(), default_basis()
    assert a is not b and a.sequences is not b.sequences
    assert a.sequences.tobytes() == b.sequences.tobytes()


def test_concentration_decreases_with_order():
    basis = compute_dpss(DpssParams(24, 0.1, 5))
    assert concentration_ratio(basis, 4, 4096) < concentration_ratio(basis, 0, 4096)


def test_radial_basis_exact_at_native_nodes():
    basis = compute_dpss(DpssParams(32, 0.2, 5))
    nodes = np.arange(32) / 31.0
    rows = radial_basis(basis, nodes)
    assert np.abs(rows - basis.sequences).max() < 1e-12


def test_radial_basis_row0_shape():
    basis = compute_dpss(DpssParams(64, 0.1, 4))
    r = (np.arange(256) + 0.5) / 256
    row0 = radial_basis(basis, r)[0]
    assert row0.min() > 0  # leading sequence stays positive
    assert np.abs(row0 - row0[::-1]).max() < 1e-8  # symmetric about r = 0.5
    peaks = np.nonzero(np.diff(np.sign(np.diff(row0))) < 0)[0]
    assert len(peaks) == 1  # unimodal


def test_radial_basis_total():
    basis = compute_dpss(DpssParams(16, 0.3, 3))
    rows = radial_basis(basis, np.linspace(0, 1, 97))
    assert np.all(np.isfinite(rows))


def test_radial_basis_domain_error():
    basis = compute_dpss(DpssParams(16, 0.3, 2))
    with pytest.raises(DomainError):
        radial_basis(basis, [0.0, 1.2])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=48),
    w=st.floats(min_value=0.05, max_value=0.45),
    data=st.data(),
)
def test_property_orthonormal_decreasing_residual(n, w, data):
    k = data.draw(st.integers(min_value=1, max_value=min(n, 6)))
    basis = compute_dpss(DpssParams(n, w, k))
    gram = basis.sequences @ basis.sequences.T
    assert np.abs(gram - np.eye(k)).max() < 1e-10
    assert np.all((basis.eigenvalues > 0) & (basis.eigenvalues < 1))
    assert np.all(np.diff(basis.eigenvalues) < 0)
    a = sinc_kernel(n, w)
    res = a @ basis.sequences.T - basis.sequences.T * basis.eigenvalues
    assert np.linalg.norm(res, axis=0).max() < 1e-8
