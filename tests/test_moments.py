import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slepmoments import (
    AliasingError,
    Featurizer,
    FormatError,
    MomentSet,
    ParameterError,
    RasterImage,
    compute_moments,
    default_basis,
    invariants,
    invariants_to_csv,
    moments_from_json,
    moments_to_json,
    reconstruct,
    rotate_image,
    rotation_stability,
    smooth_test_image,
    to_polar,
)
from slepmoments.dpss import basis_from_json, basis_to_json, radial_basis
from slepmoments.imaging import _polar_plans
from slepmoments.moments import _radial, _raster_moments, feature_vector

from oracles import continuous_radial_gram, moment_value, ring_radial_gram
from test_dpss import _JSON_VALUES
from test_imaging import MiB, traced_bytes


def brute_force_moments(samples, basis, max_radial, max_angular):
    """Direct O(R*T*M*L) double sum; oracle for the FFT path."""
    n_r, n_t = samples.shape
    r = (np.arange(n_r) + 0.5) / n_r
    theta = 2.0 * np.pi * np.arange(n_t) / n_t
    psi = radial_basis(basis, r)
    out = np.zeros((max_radial, 2 * max_angular + 1), dtype=complex)
    f = np.conj(samples)
    for m in range(max_radial):
        for n in range(-max_angular, max_angular + 1):
            acc = 0.0 + 0.0j
            for i in range(n_r):
                ring = 0.0 + 0.0j
                for j in range(n_t):
                    ring += np.exp(-1j * n * theta[j]) * f[i, j]
                acc += psi[m, i] * r[i] * ring
            out[m, max_angular + n] = acc * (1.0 / n_r) * (2.0 * np.pi / n_t)
    return out


def test_zero_image_gives_zero_moments(basis32):
    ms = compute_moments(np.zeros((8, 8)), basis32, 4, 3)
    assert np.all(ms.values == 0)


def test_complex_exponential_hits_single_order(basis32):
    n_r, n_t = 8, 16
    theta = 2.0 * np.pi * np.arange(n_t) / n_t
    samples = np.tile(np.exp(-1j * theta), (n_r, 1))
    ms = compute_moments(samples, basis32, 4, 3)
    r = (np.arange(n_r) + 0.5) / n_r
    psi = radial_basis(basis32, r)
    for m in range(4):
        for n in range(-3, 4):
            if n == 1:
                expected = 2.0 * np.pi / n_r * np.sum(psi[m] * r)
                assert moment_value(ms, m, 1) == pytest.approx(expected, abs=1e-12)
            else:
                assert abs(moment_value(ms, m, n)) < 1e-13


def test_fft_path_equals_brute_force(basis32, rng):
    samples = rng.random((8, 8)) + 1j * rng.random((8, 8))
    ms = compute_moments(samples, basis32, 4, 3)
    oracle = brute_force_moments(samples, basis32, 4, 3)
    assert np.abs(ms.values - oracle).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    n_r=st.integers(min_value=1, max_value=16),
    n_t=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fft_direct_equivalence_property(basis32, n_r, n_t, seed):
    gen = np.random.default_rng(seed)
    samples = gen.random((n_r, n_t))
    max_angular = min(5, (n_t - 1) // 2)
    max_radial = min(5, basis32.params.n_seq)
    ms = compute_moments(samples, basis32, max_radial, max_angular)
    oracle = brute_force_moments(samples, basis32, max_radial, max_angular)
    assert np.abs(ms.values - oracle).max() < 1e-10


def test_fft_direct_equivalence_all_small_grids(basis32):
    # every grid with R, T <= 16; direct evaluation is a vectorized double sum
    gen = np.random.default_rng(99)
    worst = 0.0
    for n_r in range(1, 17):
        for n_t in range(1, 17):
            samples = gen.random((n_r, n_t))
            max_angular = min(5, (n_t - 1) // 2)
            ms = compute_moments(samples, basis32, 5, max_angular)
            r = (np.arange(n_r) + 0.5) / n_r
            theta = 2.0 * np.pi * np.arange(n_t) / n_t
            psi = radial_basis(basis32, r)[:5]
            kernel = np.exp(-1j * np.outer(np.arange(-max_angular, max_angular + 1), theta))
            direct = (psi * (r / n_r)) @ (np.conj(samples) @ kernel.T) * (2 * np.pi / n_t)
            worst = max(worst, float(np.abs(ms.values - direct).max()))
    assert worst < 1e-10


def test_conjugate_symmetry_for_real_images(basis32, rng):
    ms = compute_moments(rng.random((10, 12)), basis32, 4, 5)
    for m in range(4):
        for n in range(1, 6):
            assert moment_value(ms, m, -n) == pytest.approx(
                np.conj(moment_value(ms, m, n)), abs=1e-10)


def test_conjugate_linearity(basis32, rng):
    f = rng.random((8, 12)) + 1j * rng.random((8, 12))
    g = rng.random((8, 12)) + 1j * rng.random((8, 12))
    a, b = 0.7 - 0.2j, -0.4 + 1.1j
    lhs = compute_moments(a * f + b * g, basis32, 3, 4).values
    rhs = (
        np.conj(a) * compute_moments(f, basis32, 3, 4).values
        + np.conj(b) * compute_moments(g, basis32, 3, 4).values
    )
    assert np.abs(lhs - rhs).max() < 1e-12


def test_precondition_errors(basis32, rng):
    samples = rng.random((8, 8))
    with pytest.raises(ParameterError):
        compute_moments(samples, basis32, basis32.params.n_seq + 1, 2)
    with pytest.raises(AliasingError):
        compute_moments(samples, basis32, 2, 4)  # 2L+1 = 9 > T = 8
    for bad in (samples[0], samples[:0], samples[None], np.full((8, 8), np.nan)):
        with pytest.raises(ParameterError):
            compute_moments(bad, basis32, 2, 3)


def test_invariants_are_moduli():
    values = np.zeros((1, 3), dtype=complex)
    values[0, 2] = 3.0 + 4.0j  # (m, n) = (0, 1)
    ms = MomentSet(max_radial=1, max_angular=1, values=values, grid=(4, 8), basis_id="x")
    vec = invariants(ms)
    assert vec[0, 1] == pytest.approx(5.0)
    assert vec.shape == (1, 2)


@pytest.mark.parametrize("parse, text, dump", [
    (basis_from_json, "".join(basis_to_json(default_basis())),
     lambda basis: "".join(basis_to_json(basis))),
    (moments_from_json, '{"metadata": {"grid": [4, 8], "basis_id": "b"}, '
                        '"moments": [{"m": 0, "n": 0, "re": 1.5, "im": -0.0}]}',
     moments_to_json),
], ids=["basis", "moments"])
def test_json_documents_are_read_from_strict_utf8_bytes(parse, text, dump):
    # the files reach the parsers as bytes; json.loads of bytes would also take
    # UTF-16, UTF-32 and a UTF-8 BOM, which a read as text never took
    assert dump(parse(text.encode())) == dump(parse(text))
    for data in (text.encode("utf-16"), text.encode("utf-32"), b"\xef\xbb\xbf" + text.encode(),
                 text.encode()[:-1] + b"\xff"):
        with pytest.raises(ValueError):
            parse(data)


@pytest.mark.parametrize("values, message", [
    (np.zeros((2, 3)), "moment array shape (2, 3), expected (1, 3)"),
    (np.array([[0.0, np.nan, 1.0]]), "moment values must be finite"),
    (np.array([[0.0, complex(1.0, np.inf), 1.0]]), "moment values must be finite"),
], ids=["shape", "nan", "inf"])
def test_moment_set_refuses_a_wrong_shape_or_non_finite_values(values, message):
    with pytest.raises(ParameterError) as exc:
        MomentSet(max_radial=1, max_angular=1, values=values, grid=(4, 8), basis_id="x")
    assert str(exc.value) == message


def test_zero_moments_zero_invariants():
    ms = MomentSet(
        max_radial=2, max_angular=2, values=np.zeros((2, 5), complex),
        grid=(4, 8), basis_id="x",
    )
    assert np.all(invariants(ms) == 0)


def test_cyclic_shift_leaves_invariants_unchanged(basis32, rng):
    samples = rng.random((8, 16))
    base = invariants(compute_moments(samples, basis32, 4, 5))
    for shift in (1, 3, 7, 11):
        shifted = np.roll(samples, shift, axis=1)
        vec = invariants(compute_moments(shifted, basis32, 4, 5))
        assert np.abs(vec - base).max() < 1e-9


# What the invariants cannot see: the moduli drop each moment's phase, so images whose
# moments differ in phase alone share their invariants. Both records use the built-in
# basis on a 64 x 128 polar grid with M = 10 and L = 9.
_BLIND_GRID = (64, 128)


def _invariant_gap(f, g):
    """The largest gap between the invariants of samples f and g, relative to f's largest."""
    basis = default_basis()
    phi_f, phi_g = (invariants(compute_moments(x, basis, 10, 9)) for x in (f, g))
    return np.abs(phi_f - phi_g).max() / phi_f.max()


def test_invariants_do_not_see_a_mirror_image(rng):
    # a record: the mirror f(r, -theta) of a real image has the conjugate moments,
    # S'[m, n] = conj(S[m, n]), so its invariants are f's to rounding, though the two
    # images lie 0.70 apart in relative L2
    f = rng.random(_BLIND_GRID)
    mirror = f[:, -np.arange(_BLIND_GRID[1]) % _BLIND_GRID[1]]
    assert np.linalg.norm(mirror - f) / np.linalg.norm(f) == pytest.approx(0.70, rel=0.05)
    assert _invariant_gap(f, mirror) < 1e-15


def test_invariants_do_not_see_a_relative_phase():
    # a record: f2 turns its order-1 term by 0.7 rad against f1 and keeps its order-3
    # term. No rotation undoes that: at the best cyclic shift the two still lie 0.46
    # apart, and the rotation invariant S[2, 3] conj(S[5, 1])^3 has phase 0 for f1 and
    # -3 x 0.7 for f2. Their moduli, the invariants, agree to rounding all the same.
    n_r, n_t = _BLIND_GRID
    basis = default_basis()
    psi = radial_basis(basis, (np.arange(n_r) + 0.5) / n_r)[:, :, None]
    theta = 2.0 * np.pi * np.arange(n_t) / n_t
    f1, f2 = (psi[2] * np.cos(3 * theta) + psi[5] * np.cos(theta + phase)
              for phase in (0.0, 0.7))
    nearest = min(np.linalg.norm(np.roll(f2, shift, axis=1) - f1) for shift in range(n_t))
    assert nearest / np.linalg.norm(f1) == pytest.approx(0.46, rel=0.05)
    phases = []
    for f in (f1, f2):
        ms = compute_moments(f, basis, 10, 9)
        phases.append(np.angle(moment_value(ms, 2, 3) * np.conj(moment_value(ms, 5, 1)) ** 3))
    assert phases == pytest.approx([0.0, -2.1], abs=1e-12)
    assert _invariant_gap(f1, f2) < 1e-14


def test_reconstruct_zero_moments(basis32):
    ms = MomentSet(
        max_radial=2, max_angular=1, values=np.zeros((2, 3), complex),
        grid=(4, 8), basis_id="x",
    )
    samples, residual = reconstruct(ms, basis32, (4, 8))
    assert np.all(samples == 0)
    assert residual == 0


def test_reconstruct_single_moment_gives_radial_row(basis32):
    values = np.zeros((1, 1), dtype=complex)
    values[0, 0] = 1.0
    ms = MomentSet(max_radial=1, max_angular=0, values=values, grid=(16, 8), basis_id="x")
    samples, _ = reconstruct(ms, basis32, (16, 8))
    r = (np.arange(16) + 0.5) / 16
    expected = radial_basis(basis32, r)[0]
    assert np.abs(samples - expected[:, None]).max() < 1e-12


def test_reconstruct_requires_matching_or_finer_grid(basis32):
    ms = MomentSet(
        max_radial=1, max_angular=0, values=np.zeros((1, 1), complex),
        grid=(16, 8), basis_id="x",
    )
    with pytest.raises(ParameterError):
        reconstruct(ms, basis32, (8, 8))
    with pytest.raises(ParameterError):
        reconstruct(ms, basis32, (0, 0))


def test_reconstruct_refuses_more_radial_orders_than_the_basis_has(basis32):
    # basis32 holds 5 sequences, so a sixth radial order has no psi_m to weight it
    ms = MomentSet(6, 1, np.ones((6, 3)), (16, 32), basis32.basis_id)
    with pytest.raises(ParameterError, match="max_radial 6 exceeds basis n_seq 5"):
        reconstruct(ms, basis32, (16, 32))


def test_reconstruct_refuses_a_coarse_grid_before_its_orders(basis32):
    # at (8, 16) both the sixth radial order and the 17 angular orders fail too
    ms = MomentSet(6, 8, np.ones((6, 17)), (16, 32), "x")
    with pytest.raises(ParameterError) as exc:
        reconstruct(ms, basis32, (8, 16))
    assert type(exc.value) is ParameterError
    assert str(exc.value) == "target grid (8, 16) must match or refine the moment grid (16, 32)"


_ORDER_USES = {
    "compute_moments": lambda basis, m, l, grid: compute_moments(np.ones(grid), basis, m, l),
    "Featurizer": lambda basis, m, l, grid: Featurizer(basis, m, l, grid),
    # a moment set applies the same range rule when it is made
    "reconstruct": lambda basis, m, l, grid: reconstruct(
        MomentSet(m, l, np.ones((int(m), 2 * l + 1)), grid, "x"), basis, grid),
}


@pytest.mark.parametrize("orders, grid, error, message", [
    ((6, 1), (16, 32), ParameterError, "max_radial 6 exceeds basis n_seq 5"),
    ((2, 5), (16, 8), AliasingError,
     "angular orders [-5, 5] need at least 11 angular samples, grid has 8"),
    ((True, 1), (16, 32), ParameterError, "max_radial must be an integer, got True"),
], ids=["above-n_seq", "aliased", "bool"])
@pytest.mark.parametrize("use", _ORDER_USES.values(), ids=_ORDER_USES.keys())
def test_bad_orders_raise_the_one_order_error(basis32, use, orders, grid, error, message):
    # projection, featurizing and synthesis take their order checks from one rule
    with pytest.raises(error) as exc:
        use(basis32, *orders, grid)
    assert type(exc.value) is error
    assert str(exc.value) == message


def _ring_gram(basis, max_radial, n_rings):
    psi, weights, _, _ = _radial(basis, max_radial, 0, (n_rings, 1))
    return 2.0 * np.pi * (psi * weights) @ psi.T


def test_ring_gram_is_the_direct_double_sum():
    basis = default_basis()
    gram = _ring_gram(basis, 10, 64)
    assert np.abs(gram - ring_radial_gram(basis, 10, 64)).max() <= 1e-15 * np.abs(gram).max()


def test_ring_gram_converges_to_the_continuous_gram():
    # measured for the built-in basis at M = 10: 1.65e-3 at 64 rings, 4.0e-6 at 512
    # and 5.2e-10 at 8192, so the 8192-ring bound leaves about 4x headroom
    basis = default_basis()
    exact = continuous_radial_gram(basis, 10)
    defect = [np.abs(_ring_gram(basis, 10, rings) - exact).max() / np.diag(exact).max()
              for rings in (64, 512, 8192)]
    assert defect[0] > defect[1] > defect[2]
    assert defect[2] < 2e-9


@pytest.mark.parametrize("grid, message", [
    ((0, 8), "n_radial must be >= 1, got 0"), ((8, 0), "n_angular must be >= 1, got 0"),
], ids=["no-rings", "no-spokes"])
@pytest.mark.parametrize("use", [
    lambda basis, grid: to_polar(smooth_test_image(16), *grid),
    lambda basis, grid: Featurizer(basis, 2, 1, grid),
    lambda basis, grid: reconstruct(MomentSet(1, 0, np.ones((1, 1)), (1, 1), "x"), basis, grid),
], ids=["to_polar", "Featurizer", "reconstruct"])
def test_zero_grid_dimension_raises_the_one_grid_error(basis32, use, grid, message):
    # sampling, featurizing and synthesis share one polar grid and so one check
    with pytest.raises(ParameterError) as exc:
        use(basis32, grid)
    assert type(exc.value) is ParameterError
    assert str(exc.value) == message


_GRID_USES = {  # each returns its output's bytes
    "to_polar": lambda basis, grid: to_polar(smooth_test_image(16), *grid).tobytes(),
    "Featurizer": lambda basis, grid: Featurizer(basis, 2, 1, grid)(
        smooth_test_image(16)).tobytes(),
    "reconstruct": lambda basis, grid: reconstruct(
        MomentSet(1, 0, np.ones((1, 1)), (1, 1), "x"), basis, grid)[0].tobytes(),
    "rotation_stability": lambda basis, grid: rotation_stability(
        smooth_test_image(16), (0.0,), ((1, 1),), basis, grid).to_json(),
    "_raster_moments": lambda basis, grid: moments_to_json(  # the route of moments compute
        _raster_moments(smooth_test_image(16), basis, 2, 1, grid)),
}


@pytest.mark.parametrize("grid, message", [
    ((True, 8), "n_radial must be an integer, got True"),
    ((4, 8.5), "n_angular must be an integer, got 8.5"),
    ((4, 8.0), "n_angular must be an integer, got 8.0"),
], ids=["bool", "fraction", "integral-float"])
@pytest.mark.parametrize("use", _GRID_USES.values(), ids=_GRID_USES.keys())
def test_non_integer_grid_size_raises_a_parameter_error_naming_it(basis32, use, grid, message):
    # 8.5 spokes would not close the circle, and True would be taken as one ring
    with pytest.raises(ParameterError) as exc:
        use(basis32, grid)
    assert str(exc.value) == message


@pytest.mark.parametrize("use", _GRID_USES.values(), ids=_GRID_USES.keys())
def test_numpy_integer_grid_sizes_are_accepted(basis32, use):
    for kind in (np.int64, np.int32, np.uint8):
        assert use(basis32, (kind(4), kind(8))) == use(basis32, (4, 8))


@pytest.mark.parametrize("grid", [
    (0, 0), (4, -8), (4.5, True), (True, 8), (4, 8.0), (4,), (4, 8, 2), 5, "ab",
])
def test_moment_set_grid_must_be_two_positive_ints(grid):
    with pytest.raises(ParameterError, match="grid"):
        MomentSet(1, 0, np.ones((1, 1)), grid, "x")


@pytest.mark.parametrize("grid, message", [
    ((0, 8), "moment grid n_radial must be >= 1, got 0"),
    ((4, True), "moment grid n_angular must be an integer, got True"),
    ((4,), "moment grid must be a tuple of two positive integers, got (4,)"),
], ids=["zero", "bool", "one-size"])
def test_moment_set_grid_refusals_name_the_moment_grid(grid, message):
    # moments_from_json hands these on, so a moment file's refusal names its grid
    with pytest.raises(ParameterError) as exc:
        MomentSet(1, 0, np.ones((1, 1)), grid, "x")
    assert str(exc.value) == message


def test_reconstruction_error_decreases_with_terms(basis64):
    # six-term series with distinct angular orders; direct synthesis oracle
    n_r, n_t = 32, 64
    r = (np.arange(n_r) + 0.5) / n_r
    theta = 2.0 * np.pi * np.arange(n_t) / n_t
    psi = radial_basis(basis64, r)
    coeff = [0.9, 0.75, 0.6, 0.45, 0.3, 0.2]
    ang = [0, 1, 2, 3, 1, 2]
    target = np.zeros((n_r, n_t))
    for m in range(6):
        target += coeff[m] * np.outer(psi[m], np.cos(ang[m] * theta + 0.3 * m))
    max_angular = 3
    full = np.zeros((6, 2 * max_angular + 1), dtype=complex)
    for m in range(6):
        c = 0.5 * coeff[m] * np.exp(-1j * 0.3 * m)
        full[m, max_angular + ang[m]] += c
        full[m, max_angular - ang[m]] += np.conj(c)
    norm = np.linalg.norm(target)
    errors = []
    for max_radial in range(2, 7):
        ms = MomentSet(
            max_radial=max_radial, max_angular=max_angular,
            values=full[:max_radial], grid=(n_r, n_t), basis_id=basis64.basis_id,
        )
        samples, _ = reconstruct(ms, basis64, (n_r, n_t))
        errors.append(np.linalg.norm(samples - target) / norm)
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.05


def test_feature_vector_length_and_zero(basis64):
    img = smooth_test_image(64)
    vec = Featurizer(basis64, grid=(32, 64))(img)
    assert vec.shape == (100,)
    zero = Featurizer(basis64, grid=(8, 32))(RasterImage(np.zeros((8, 8))))
    assert np.all(zero == 0)


def test_feature_vector_rejects_more_orders_than_sequences(basis32):
    with pytest.raises(ParameterError):
        Featurizer(basis32, max_radial=6, grid=(16, 32))(smooth_test_image(32))


def test_feature_vector_rotation_stability(basis64, test_image):
    featurize = Featurizer(basis64, grid=(64, 128))
    a = featurize(test_image)
    b = featurize(rotate_image(test_image, 90.0))
    assert np.allclose(a, b, rtol=0.15, atol=1e-5)


# a (100, 200) grid is projected 40 rings at a time, the last block partial
@pytest.mark.parametrize("size, m, l, grid", [
    (64, 10, 9, (64, 128)), (37, 3, 2, (8, 16)), (53, 5, 7, (33, 15)), (2, 1, 0, (1, 4)),
    (97, 5, 5, (100, 200)),
])
def test_featurizer_matches_pipeline_bitwise(basis64, size, m, l, grid):
    img = smooth_test_image(size)
    pipeline = compute_moments(to_polar(img, *grid), basis64, m, l)
    chain = invariants(pipeline).ravel()
    assert Featurizer(basis64, m, l, grid)(img).tobytes() == chain.tobytes()
    assert feature_vector(img, basis64, m, l, grid).tobytes() == chain.tobytes()
    # moments compute's route, which never holds the R x T samples
    streamed = _raster_moments(img, basis64, m, l, grid)
    assert streamed.values.tobytes() == pipeline.values.tobytes()
    assert type(streamed.grid) is tuple and all(type(size) is int for size in streamed.grid)


def test_featurizer_call_works_in_blocks(basis64):
    # a warm call holds the bordered raster and one block of rings, never R x T
    img = smooth_test_image(256)
    featurize = Featurizer(basis64, 5, 5, (256, 512))
    featurize(img)
    _, peak = traced_bytes(lambda: featurize(img))
    assert peak <= 1.5 * MiB


def test_featurizer_holds_the_plans_of_one_raster_shape(basis64):
    # a 256 x 512 grid's plans take 5 MiB whatever the raster shape; a Featurizer keeps
    # those of the last shape it saw and drops them before it plans another shape
    images = [smooth_test_image(size) for size in (32, 33, 34, 35, 36, 37)]
    one_shape, _ = traced_bytes(lambda: list(_polar_plans((32, 32), 256, 512)))

    def featurize_all():
        featurize = Featurizer(basis64, 5, 5, (256, 512))
        for img in images:
            featurize(img)
        return featurize

    held, peak = traced_bytes(featurize_all)
    assert held <= 1.25 * one_shape
    assert peak <= 1.5 * one_shape


def test_featurizer_reused_across_raster_shapes(basis64, test_image):
    images = [test_image, smooth_test_image(37), rotate_image(test_image, 35.0),
              smooth_test_image(37), smooth_test_image(50)]
    shared = Featurizer(basis64, 4, 5, (32, 64))
    for img in images:
        fresh = Featurizer(basis64, 4, 5, (32, 64))(img)
        assert shared(img).tobytes() == fresh.tobytes()


@pytest.mark.parametrize("orders, field", [
    (dict(max_radial=2.5), "max_radial"), (dict(max_angular=1.5), "max_angular"),
    (dict(max_radial=True), "max_radial"), (dict(max_angular=np.bool_(0)), "max_angular"),
], ids=["fractional-m", "fractional-l", "bool-m", "numpy-bool-l"])
def test_orders_must_be_integers(basis32, orders, field):
    orders = {"max_radial": 3, "max_angular": 2, **orders}
    samples = to_polar(smooth_test_image(32), 8, 16)
    with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
        Featurizer(basis32, grid=(8, 16), **orders)
    with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
        compute_moments(samples, basis32, orders["max_radial"], orders["max_angular"])


def test_reconstruct_refuses_a_bool_order(basis32):
    # a bool would pass MomentSet's shape check, (True, 5) == (1, 5), so no moment
    # set with one reaches reconstruct
    ms = compute_moments(to_polar(smooth_test_image(32), 8, 16), basis32, 1, 2)
    with pytest.raises(ParameterError, match="^max_radial must be an integer, got True"):
        reconstruct(MomentSet(True, 2, ms.values, ms.grid, ms.basis_id), basis32, (8, 16))


@pytest.mark.parametrize("max_radial, max_angular, field", [
    (True, 2, "max_radial"),
    (1.0, 2, "max_radial"),
    (1, np.True_, "max_angular"),
    (1, 2.0, "max_angular"),
], ids=["bool-m", "float-m", "numpy-bool-l", "float-l"])
def test_moment_set_refuses_non_integer_orders(max_radial, max_angular, field):
    # invariants would slice with True as 1, and the shape check compares 1.0 == 1
    with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
        MomentSet(max_radial, max_angular, np.ones((1, 5)), (4, 8), "x")


def test_moment_set_refuses_orders_that_no_basis_could_compute():
    # with no radial order, moments_to_json would write a document moments_from_json refuses
    with pytest.raises(ParameterError, match="^max_radial must be >= 1, got 0$"):
        MomentSet(0, 1, np.zeros((0, 3)), (4, 8), "x")
    with pytest.raises(ParameterError, match="^max_angular must be >= 0, got -1$"):
        MomentSet(1, -1, np.zeros((1, 0)), (4, 8), "x")


def test_moment_set_accepts_numpy_integer_orders():
    ms = MomentSet(np.int64(1), np.int32(2), np.ones((1, 5)), (4, 8), "x")
    assert invariants(ms).shape == (1, 3)


def test_moment_set_stores_its_grid_and_orders_as_ints():
    ms = MomentSet(np.int64(1), np.uint8(2), np.ones((1, 5)), (np.int32(4), np.uint8(8)), "x")
    assert (ms.max_radial, ms.max_angular, ms.grid) == (1, 2, (4, 8))
    assert list(map(type, (ms.max_radial, ms.max_angular, *ms.grid))) == [int] * 4
    plain = MomentSet(1, 2, np.ones((1, 5)), (4, 8), "x")
    assert moments_to_json(ms) == moments_to_json(plain)


def test_orders_accept_numpy_integers(basis32):
    img = smooth_test_image(32)
    got = Featurizer(basis32, np.int64(3), np.int32(2), (8, 16))(img)
    assert got.tobytes() == Featurizer(basis32, 3, 2, (8, 16))(img).tobytes()
    # -np.uint8(2) would wrap to 254; the orders go on as the ints of their check
    assert Featurizer(basis32, np.uint8(3), np.uint8(2), (8, 16))(img).tobytes() == got.tobytes()
    plain = moments_to_json(_raster_moments(img, basis32, 3, 2, (8, 16)))
    assert moments_to_json(_raster_moments(img, basis32, np.uint8(3), np.uint8(2), (8, 16))) == plain


def test_featurizer_checks_orders_and_grid_when_built(basis32):
    with pytest.raises(ParameterError):
        Featurizer(basis32, max_radial=6)
    with pytest.raises(ParameterError):
        Featurizer(basis32, max_radial=0)
    with pytest.raises(AliasingError):
        Featurizer(basis32, max_radial=5, max_angular=9, grid=(16, 18))
    with pytest.raises(ParameterError):
        Featurizer(basis32, max_radial=5, grid=(0, 128))


def test_moment_json_round_trip(basis32, rng):
    ms = compute_moments(rng.random((6, 10)), basis32, 3, 2)
    back = moments_from_json(moments_to_json(ms))
    assert back.max_radial == ms.max_radial
    assert back.max_angular == ms.max_angular
    assert back.grid == ms.grid
    assert back.basis_id == ms.basis_id
    assert np.abs(back.values - ms.values).max() < 1e-15


_finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=2**31),
    st.text(max_size=12),
    st.data(),
)
def test_moment_json_round_trip_is_exact(max_radial, max_angular, n_r, basis_id, data):
    # a moment grid holds at least 2L+1 angular samples
    grid = (n_r, data.draw(st.integers(min_value=2 * max_angular + 1, max_value=2**31)))
    count = max_radial * (2 * max_angular + 1)
    parts = data.draw(st.lists(_finite_floats, min_size=2 * count, max_size=2 * count))
    values = np.empty((max_radial, 2 * max_angular + 1), dtype=complex)
    values.real = np.reshape(parts[::2], values.shape)
    values.imag = np.reshape(parts[1::2], values.shape)
    ms = MomentSet(max_radial, max_angular, values, grid, basis_id)
    back = moments_from_json(moments_to_json(ms))
    assert back.values.tobytes() == ms.values.tobytes()
    assert (back.max_radial, back.max_angular) == (max_radial, max_angular)
    assert back.grid == grid and back.basis_id == basis_id


def _moment_doc():
    ms = MomentSet(2, 1, np.arange(6).reshape(2, 3) + 0.5j, (4, 8), "b")
    return json.loads(moments_to_json(ms))


def _set_order(entry, key, value):
    entry[key] = value


@pytest.mark.parametrize("corrupt", [
    lambda d: _set_order(d["moments"][0], "n", -3),
    lambda d: _set_order(d["moments"][0], "m", -1),
    lambda d: d["moments"].append(dict(d["moments"][1])),
    lambda d: d["moments"].pop(2),
    lambda d: _set_order(d["moments"][0], "n", -1.0),
    lambda d: _set_order(d["moments"][0], "m", True),
    lambda d: d["moments"][0].pop("re"),
    lambda d: d.pop("metadata"),
    lambda d: d.update(moments=[]),
    lambda d: d["metadata"].update(grid=[4]),
    lambda d: d["metadata"].update(grid="ab"),
    lambda d: d["metadata"].update(grid=[0, 0]),
    lambda d: d["metadata"].update(grid=[-5, 8]),
    lambda d: d["metadata"].update(grid=[4.0, 8]),
    lambda d: d["metadata"].update(grid=[True, 8]),
    lambda d: _set_order(d["moments"][0], "re", 10**400),
    lambda d: d["moments"][0].update(re=True, im=False),
    lambda d: d["metadata"].update(basis_id=[1, 2]),
    lambda d: d["metadata"].update(grid=[4, 2]),
], ids=["n-beyond-max", "negative-m", "duplicate", "missing", "float-order",
        "bool-order", "missing-re", "missing-metadata", "no-moments", "grid-one-size",
        "grid-string", "grid-zero", "grid-negative", "grid-float", "grid-bool",
        "re-overflow", "bool-parts", "basis-id-list", "grid-aliases"])
def test_moment_json_rejects_malformed_documents(corrupt):
    doc = _moment_doc()
    corrupt(doc)
    with pytest.raises(FormatError):
        moments_from_json(json.dumps(doc))


_MOMENT_FIELDS = [("metadata",), ("moments",), ("metadata", "grid"),
                  ("metadata", "basis_id"), ("moments", 0), ("moments", 0, "m"),
                  ("moments", 1, "n"), ("moments", 2, "re"), ("moments", 3, "im")]


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(_MOMENT_FIELDS), value=_JSON_VALUES)
@example(field=("moments", 2, "re"), value=10**400)
@example(field=("moments", 3, "im"), value=True)
def test_moment_loader_refuses_any_field_value_cleanly(field, value):
    # replacing one field of a valid document gives a MomentSet or a FormatError or
    # ParameterError, never another exception or a numpy warning
    doc = _moment_doc()
    parent = doc
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    try:
        ms = moments_from_json(json.dumps(doc))
    except (FormatError, ParameterError):
        return
    assert isinstance(ms, MomentSet)


def test_invariants_csv_layout():
    phi = np.array([[1.0, 2.0], [3.0, 4.5]])
    lines = invariants_to_csv(phi).strip().split("\n")
    assert lines[0] == "phi_0_0,phi_0_1,phi_1_0,phi_1_1"
    assert lines[1] == "1.0,2.0,3.0,4.5"
