import hashlib
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import slepmoments
from slepmoments import (
    DpssBasis,
    DpssParams,
    FormatError,
    ParameterError,
    basis_from_json,
    basis_to_json,
    compute_dpss,
    default_basis,
    radial_basis,
)
from slepmoments.dpss import _check_conventions, _enforce_decreasing, _fix_signs, _json_chunks
from slepmoments.errors import DomainError
from slepmoments.imaging import _polar_grid

from oracles import (
    bandlimited_extension,
    concentration_ratio,
    concentration_ratios,
    dpss_spectrum,
    radial_gram_defect,
    reference_fix_signs,
    simpson,
    sinc_kernel,
    toeplitz_concentrations,
)

_DEFAULT_BASIS_FILE = Path(slepmoments.__file__).with_name("default_basis.json")


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


@pytest.mark.parametrize("n_len, n_seq, field", [
    (64.5, 10, "n_len"), (64, 10.0, "n_seq"), (True, True, "n_len"), (64, np.bool_(1), "n_seq"),
], ids=["fractional-n", "float-k", "bool-n", "numpy-bool-k"])
def test_params_refuse_non_integer_sizes(n_len, n_seq, field):
    with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
        DpssParams(n_len, 0.2, n_seq)


def test_params_accept_numpy_integers():
    params = DpssParams(np.int64(16), 0.2, np.int32(3))
    assert compute_dpss(params).sequences.shape == (3, 16)
    # the sizes are stored as the ints of dpss._check_integer, which json can write
    plain = "".join(basis_to_json(compute_dpss(DpssParams(8, 0.2, 2))))
    for kind in (np.int64, np.int32, np.uint8):
        params = DpssParams(kind(8), 0.2, kind(2))
        assert (type(params.n_len), type(params.n_seq)) == (int, int)
        assert "".join(basis_to_json(compute_dpss(params))) == plain


@pytest.mark.parametrize("w", [True, "0.2", None], ids=["bool", "str", "none"])
def test_params_refuse_a_half_bandwidth_that_is_not_a_real_number(w):
    with pytest.raises(ParameterError) as exc:
        DpssParams(8, w, 2)
    assert str(exc.value) == f"half_bandwidth must be a real number, got {w!r}"


def test_params_store_a_numpy_half_bandwidth_as_a_float():
    # json could not write a numpy float into the basis file
    params = DpssParams(8, np.float32(0.25), 2)
    assert type(params.half_bandwidth) is float
    plain = "".join(basis_to_json(compute_dpss(DpssParams(8, 0.25, 2))))
    assert "".join(basis_to_json(compute_dpss(params))) == plain


@pytest.mark.parametrize("n_len, n_seq, message", [
    (0, 1, "n_len must be >= 1, got 0"), (4097, 1, "n_len must be <= 4096, got 4097"),
    (8, 0, "n_seq must be >= 1, got 0"), (8, 9, "n_seq must be <= 8, got 9"),
], ids=["no-samples", "too-long", "no-sequences", "more-sequences-than-samples"])
def test_params_refuse_sizes_out_of_range(n_len, n_seq, message):
    with pytest.raises(ParameterError) as exc:
        DpssParams(n_len, 0.2, n_seq)
    assert str(exc.value) == message


def test_single_point_basis():
    basis = compute_dpss(DpssParams(1, 0.25, 1))
    assert np.allclose(basis.sequences, [[1.0]])
    assert np.allclose(basis.eigenvalues, [0.5])


@pytest.mark.parametrize("w, digest", [
    (0.01, "9834c723a2f75caa"), (0.2, "a0e1a04a29706f15"), (0.49, "3099eafb2b71e822"),
])
def test_single_point_basis_files_are_pinned(w, digest):
    # N = 1 takes the general path, bit for bit: the tridiagonal solver's eigenvector
    # of a 1 x 1 matrix is [[1.]], and the kernel column has no off-diagonal entries
    text = "".join(basis_to_json(compute_dpss(DpssParams(1, w, 1))))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


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


_SIGN_EDGES = st.sampled_from([0.0, -0.0, 1e-14, -1e-14, -1e-13, -5e-324, 1.0, -1.0])


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(min_value=-1.0, max_value=1.0) | _SIGN_EDGES))
@example(np.array([[-1e-14, 1.0], [-1e-13, 1.0], [0.0, -1.0], [-0.0, 1.0]]))
def test_fix_signs_matches_the_row_loop_bitwise(vectors):
    # entries below 1e-13 of a row's largest magnitude do not count as its first nonzero
    assume((np.abs(vectors).max(axis=1) > 0).all())  # the loop needs a nonzero per row
    want, got = vectors.copy(), vectors.copy()
    reference_fix_signs(want)
    _fix_signs(got)
    assert got.tobytes() == want.tobytes()


_GOOD_ROWS = [[0.6, 0.8], [0.0, 1.0]]


@pytest.mark.parametrize("seqs, eig, rule", [
    ([[np.nan, 0.8], [0.0, 2.0]], [0.5, 0.9], "finite"),
    ([[-0.6, 0.8], [0.0, 2.0]], [0.5, 0.9], "unit norm"),
    ([[0.6, 0.8], [0.0, -1.0]], [0.5, 0.9], "first nonzero entry must be positive"),
    (_GOOD_ROWS, [0.5, 0.9], "eigenvalues must decrease"),
    (_GOOD_ROWS, [1.0, 0.5], "eigenvalues must decrease"),
], ids=["finite-first", "norm-before-sign", "sign-before-eigenvalues", "eig-rising",
        "eig-one"])
def test_check_conventions_names_the_first_rule_broken(seqs, eig, rule):
    # the first three cases break every rule after the one they name too
    with pytest.raises(DomainError, match=rule):
        _check_conventions(np.array(seqs), np.array(eig))


def test_check_conventions_accepts_a_computed_basis():
    basis = compute_dpss(DpssParams(48, 0.15, 6))
    _check_conventions(basis.sequences, basis.eigenvalues)


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


def test_concentration_ratios_match_one_sequence_at_a_time():
    # the batched oracle criterion 1 times is the per-sequence one, to rounding
    for n, w in ((16, 0.1), (256, 0.25)):
        basis = compute_dpss(DpssParams(n, w, 10))
        single = [concentration_ratio(basis, k, 1025) for k in range(10)]
        assert np.abs(concentration_ratios(basis, 1025) - single).max() < 1e-15
    with pytest.raises(ParameterError):
        concentration_ratios(basis, 2)


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


def test_stored_default_basis_file_is_what_basis_to_json_writes():
    # default_basis() reads the file through basis_from_json, so its checks ran
    assert default_basis().basis_id == "dpss-n64-w0.2-k10"
    assert _DEFAULT_BASIS_FILE.read_text() == "".join(basis_to_json(default_basis()))


def test_the_built_in_basis_stores_tie_broken_eigenvalues(monkeypatch):
    # a record, not a bound: the Rayleigh quotients of the built-in basis lie within
    # 7e-16 of 1, and _enforce_decreasing moves 9 of the 10 to keep them strictly
    # decreasing below 1, so the stored value k is 1 - (k + 1) 2**-53, not computed
    quotients = []

    def record(lam):
        quotients.append(lam.copy())
        return _enforce_decreasing(lam)
    monkeypatch.setattr(slepmoments.dpss, "_enforce_decreasing", record)
    stored = compute_dpss(DpssParams(64, 0.2, 10)).eigenvalues
    assert stored.tobytes() == default_basis().eigenvalues.tobytes()
    assert int((stored != quotients[0]).sum()) == 9
    assert stored.tolist() == [1.0 - (k + 1) * 2.0**-53 for k in range(10)]


def test_package_build_ships_the_default_basis_file(tmp_path):
    # a build from a copy, so the build leaves no egg-info in the source tree
    root = Path(__file__).resolve().parents[1]
    shutil.copy(root / "pyproject.toml", tmp_path)
    shutil.copytree(root / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    subprocess.run([sys.executable, "-c", "from setuptools import setup; setup()", "-q",
                    "build_py", "-d", str(tmp_path / "build")],
                   cwd=tmp_path, check=True, capture_output=True)
    shipped = tmp_path / "build" / "slepmoments" / "default_basis.json"
    source = root / "src" / "slepmoments" / "default_basis.json"
    assert shipped.read_bytes() == source.read_bytes()


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


# (basis params or None for the built-in basis, orders M, rings R, defect bound);
# the defects measured were 4.97e-3, 5.4e-5, 1.5e-5 and 1.9e-7
_EXTENSION_CASES = [
    (None, 10, 64, 6e-3),
    ((256, 0.05, 20), 10, 32, 7e-5),
    ((1024, 0.05, 30), 20, 64, 2e-5),
    ((4096, 0.01, 80), 20, 128, 2.5e-7),
]
_EXTENSION_IDS = ["builtin", "n256", "n1024", "n4096"]


@pytest.fixture(scope="module", params=_EXTENSION_CASES, ids=_EXTENSION_IDS)
def extension_case(request):
    params, *rest = request.param
    return (default_basis() if params is None else compute_dpss(DpssParams(*params)), *rest)


def test_bandlimited_extension_reproduces_the_samples_at_integer_index(extension_case):
    basis = extension_case[0]
    x = np.arange(0, basis.params.n_len, basis.params.n_len // 64)  # 64 nodes, no N x N kernel
    assert np.abs(bandlimited_extension(basis, x) - basis.sequences[:, x]).max() < 1e-13


def test_radial_basis_stays_near_the_bandlimited_extension(extension_case):
    # radial_basis interpolates the samples by Catmull-Rom at x = r(N-1); the
    # exact extension is the smooth function they sample
    basis, orders, rings, bound = extension_case
    r, _ = _polar_grid(rings, 1)
    exact = bandlimited_extension(basis, r * (basis.params.n_len - 1))[:orders]
    defect = np.abs(radial_basis(basis, r)[:orders] - exact).max(axis=1)
    assert (defect / np.abs(exact).max(axis=1)).max() < bound


# (basis params or None for the built-in basis, orders M, rings R, then the radial
# Gram defect of Catmull-Rom and of the band-limited extension, None where the
# extension reaches rounding), as measured; the evidence of ROADMAP items 2 and 22
_GRAM_DEFECTS = [
    (None, 10, 16, 0.3858, 0.3948),
    (None, 10, 32, 1.538e-3, None),
    (None, 10, 64, 1.653e-3, None),
    (None, 10, 128, 6.950e-5, None),
    ((1024, 0.05, 30), 20, 32, 0.4319, 0.4319),
    ((1024, 0.05, 30), 20, 64, 1.337e-6, 4.873e-8),
    ((1024, 0.05, 30), 20, 128, 1.386e-6, None),
]


def test_the_radial_gram_defect_table_holds():
    # a record: Catmull-Rom plateaus near 1e-3 on the built-in basis, where the
    # band-limited extension falls to rounding once the rings resolve the basis
    bases = {None: default_basis(), (1024, 0.05, 30): compute_dpss(DpssParams(1024, 0.05, 30))}
    for params, orders, rings, catmull_rom, extension in _GRAM_DEFECTS:
        basis = bases[params]
        scale = basis.params.n_len - 1
        found = (radial_gram_defect(lambda r: radial_basis(basis, r), orders, rings),
                 radial_gram_defect(lambda r: bandlimited_extension(basis, r * scale),
                                    orders, rings))
        case = (params, orders, rings, found)
        assert found[0] == pytest.approx(catmull_rom, rel=0.05), case
        if extension is None:
            assert found[1] < 1e-10, case
        else:
            assert found[1] == pytest.approx(extension, rel=0.05), case


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


def test_radial_basis_of_one_sample_is_constant():
    # N = 1 leaves Catmull-Rom no neighbour: psi_0 is the one sample at every radius
    basis = compute_dpss(DpssParams(1, 0.2, 1))
    assert basis.sequences.tolist() == [[1.0]]
    assert radial_basis(basis, [0.0, 0.25, 1.0]).tolist() == [[1.0, 1.0, 1.0]]


# SHA-256 prefixes of radial_basis's bytes, pinned when it interpolated one sequence
# at a time: by basis length N (K seeded normal rows), then grid. Each grid comes
# with the 2-D block each of the K sequences stacks into the output.
_RADIAL_GRIDS = {"scalar": (0.37, (1, 1)), "0-d": (np.array(0.61), (1, 1)),
                 "17": (np.linspace(0.0, 1.0, 17), (1, 17)),
                 "64-rings": ((np.arange(64) + 0.5) / 64, (1, 64)),
                 "3x4": (np.linspace(0.0, 1.0, 12).reshape(3, 4), (3, 4)),
                 "empty": (np.array([]), (1, 0))}
_RADIAL_PINS = {
    (64, 10): ["309d73047e80da28", "12e382d558cc2376", "1e1013cc3d5a4f6e",
               "0208dc5ba87b9d46", "a20734cd9b8c816a", "e3b0c44298fc1c14"],
    (1, 1): ["099ecce6ffb8c36e", "099ecce6ffb8c36e", "95cb181592e57f3e",
             "0c012345fb8b109e", "49e4febc7e42a487", "e3b0c44298fc1c14"],
    (2, 2): ["a80621902ba04c71", "178bc05dfe26be68", "2c391d3d589064c6",
             "6c41e878f0d3e788", "d80ca72f06f73e85", "e3b0c44298fc1c14"],
    (300, 12): ["4ccd41657c70afff", "f1985fdd8f73e5d1", "2ac44949a7be6a7c",
                "88aa3f651dac31ed", "a7de49ec89f282cb", "e3b0c44298fc1c14"],
}


@pytest.mark.parametrize("grid, index", [(name, i) for i, name in enumerate(_RADIAL_GRIDS)])
@pytest.mark.parametrize("n, k", _RADIAL_PINS, ids=[f"n{n}" for n, _ in _RADIAL_PINS])
def test_radial_basis_keeps_its_shapes_and_bytes(n, k, grid, index):
    seqs = np.random.default_rng(n).standard_normal((k, n))
    basis = DpssBasis(DpssParams(n, 0.2, k), seqs, np.linspace(0.9, 0.1, k))
    r, (rows, cols) = _RADIAL_GRIDS[grid]
    out = radial_basis(basis, r)
    assert out.dtype == np.float64 and out.shape == (k * rows, cols)
    assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == _RADIAL_PINS[n, k][index]


def test_enforce_decreasing_halves_below_the_positive_floor():
    # a quotient that would tie its predecessor at the smallest normal float is halved
    tiny = np.finfo(float).tiny
    out = _enforce_decreasing(np.array([1.0, 0.5, 0.0, -1.0, 0.0]))
    assert out.tolist() == [np.nextafter(1.0, 0.0), 0.5, tiny, tiny / 2, tiny / 4]
    # a value that follows a NaN is still capped below 1
    out = _enforce_decreasing(np.array([np.nan, 2.0]))
    assert np.isnan(out[0]) and out[1] == np.nextafter(1.0, 0.0)


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


@st.composite
def _valid_bases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n))
    w = draw(st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True))
    entries = st.floats(min_value=-1.0, max_value=1.0) | st.sampled_from([0.0, -0.0])
    seqs = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=k, max_size=k)))
    norms = np.linalg.norm(seqs, axis=1)
    assume(norms.min() > 1e-3)
    eig = draw(st.lists(st.floats(min_value=0.0, max_value=1.0,
                                  exclude_min=True, exclude_max=True),
                        min_size=k, max_size=k, unique=True))
    seqs /= norms[:, None]
    _fix_signs(seqs)  # valid sequences keep the package's sign rule too
    return DpssBasis(params=DpssParams(n, w, k), sequences=seqs,
                     eigenvalues=np.array(sorted(eig, reverse=True)))


@settings(max_examples=60, deadline=None)
@given(basis=_valid_bases())
def test_basis_json_round_trip_is_exact(basis):
    loaded = basis_from_json("".join(basis_to_json(basis)))
    assert loaded.params == basis.params
    assert loaded.sequences.tobytes() == basis.sequences.tobytes()
    assert loaded.eigenvalues.tobytes() == basis.eigenvalues.tobytes()


@pytest.mark.parametrize("field, value", [
    ("sequences", [[True, 0], [0, 1]]), ("sequences", [[1.0, 0.0], [False, 1.0]]),
    ("eigenvalues", [0.5, False]),
])
def test_basis_reader_refuses_a_bool_beside_numbers(field, value):
    # np.asarray alone would cast the bool to a number
    doc = {"n": 2, "w": 0.25, "k": 2, "eigenvalues": [0.5, 0.25],
           "sequences": [[1.0, 0.0], [0.0, 1.0]]}
    doc[field] = value
    with pytest.raises(FormatError, match=f"^{field} must be an array of numbers$"):
        basis_from_json(json.dumps(doc))


_SPECIAL_FLOATS = [-0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan, 1e-5, 1e16]


@settings(max_examples=150, deadline=None)
@given(arr=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=5),
                  elements=st.floats() | st.sampled_from(_SPECIAL_FLOATS)),
       scalar=st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4))
@example(arr=np.array([-0.0]), scalar=0)
@example(arr=np.array([[5e-324]]), scalar=1e308)
@example(arr=np.array(_SPECIAL_FLOATS), scalar=np.nan)
@example(arr=np.array([_SPECIAL_FLOATS, _SPECIAL_FLOATS[::-1]]), scalar=-np.inf)
def test_json_chunks_spell_indented_json_dumps(arr, scalar):
    doc = {"n": 3, "x": scalar, "rows": arr, "flat": arr.ravel()}
    expected = json.dumps({key: value.tolist() if isinstance(value, np.ndarray) else value
                           for key, value in doc.items()}, indent=1)
    assert "".join(_json_chunks(doc)) == expected


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(["n", "w", "k", "eigenvalues", "sequences"]),
       value=_JSON_VALUES)
@example(field="w", value=10**400)
@example(field="sequences", value=[[1e300] * 8] * 2)
def test_basis_loader_refuses_any_field_value_cleanly(field, value):
    # replacing one field of a valid document gives a basis or a FormatError, never
    # another exception or a numpy warning; test_cli.py::test_invalid_basis_exits_one
    # checks that the CLI line names the file
    doc = json.loads("".join(basis_to_json(compute_dpss(DpssParams(8, 0.2, 2)))))
    doc[field] = value
    try:
        basis_from_json(json.dumps(doc))
    except FormatError:
        pass
