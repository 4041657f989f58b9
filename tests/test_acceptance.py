"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line with its measured figures. Tolerances are pinned here, not configurable."""

import time

import numpy as np
import pytest

from slepmoments import (
    DpssParams,
    MomentSet,
    NoiseSpec,
    compute_dpss,
    compute_moments,
    invariants,
    load_labeled_directory,
    reconstruct,
    rotation_stability,
    classification_sweep,
    smooth_test_image,
    write_pgm,
)
from slepmoments.cli import run
from slepmoments.dpss import radial_basis
from slepmoments.harness import DEFAULT_SEED, PROTOCOL_ANGLES_DEG, PROTOCOL_ORDERS

from oracles import concentration_ratios, sinc_kernel
from test_moments import brute_force_moments


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def test_criterion_1_dpss_correctness():
    t0 = time.perf_counter()
    worst = {"res": 0.0, "orth": 0.0, "conc": 0.0}
    ordered = True
    for n in (16, 64, 256):
        for w in (0.1, 0.25):
            basis = compute_dpss(DpssParams(n, w, 10))
            a = sinc_kernel(n, w)
            res = np.linalg.norm(
                a @ basis.sequences.T - basis.sequences.T * basis.eigenvalues, axis=0
            ).max()
            orth = np.abs(
                basis.sequences @ basis.sequences.T - np.eye(10)
            ).max()
            eig = basis.eigenvalues
            ordered &= bool(np.all(np.diff(eig) < 0) and np.all((eig > 0) & (eig < 1)))
            conc = np.abs(concentration_ratios(basis, 4096) - eig).max()
            worst["res"] = max(worst["res"], res)
            worst["orth"] = max(worst["orth"], orth)
            worst["conc"] = max(worst["conc"], conc)
    elapsed = time.perf_counter() - t0
    ok = (
        worst["res"] < 1e-8
        and worst["orth"] < 1e-10
        and ordered
        and worst["conc"] < 1e-5
        and elapsed < 5.0
    )
    line = _report(
        1,
        ok,
        f"residual {worst['res']:.1e} (<1e-8), orthonormality {worst['orth']:.1e} "
        f"(<1e-10), strictly decreasing in (0,1): {ordered}, concentration "
        f"{worst['conc']:.1e} (<1e-5), runtime {elapsed:.2f}s (<5s)",
    )
    assert ok, line


def test_criterion_2_fft_direct_equivalence(basis32):
    t0 = time.perf_counter()
    gen = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n_t = int(gen.integers(1, 17))
        n_r = int(gen.integers(1, 17))
        max_angular = min(5, (n_t - 1) // 2)
        max_radial = int(gen.integers(1, 6))
        samples = gen.random((n_r, n_t)) + 1j * gen.random((n_r, n_t))
        ms = compute_moments(samples, basis32, max_radial, max_angular)
        oracle = brute_force_moments(samples, basis32, max_radial, max_angular)
        worst = max(worst, float(np.abs(ms.values - oracle).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    line = _report(
        2, ok, f"max |fft - direct| {worst:.2e} (<1e-10) over 100 random grids, "
        f"runtime {elapsed:.2f}s (<10s)"
    )
    assert ok, line


def test_criterion_3_angular_fft_scaling(basis64):
    gen = np.random.default_rng(7)
    sizes = (512, 1024)
    samples = {n_t: gen.random((128, n_t)) for n_t in sizes}
    for n_t in sizes:
        compute_moments(samples[n_t], basis64, 10, 9)  # warm up
    # each round times both sizes back to back, so a slow stretch of a shared
    # machine lands on both sides of the ratio instead of on one size's samples
    times = {n_t: [] for n_t in sizes}
    for _ in range(20):
        for n_t in sizes:
            t0 = time.perf_counter()
            compute_moments(samples[n_t], basis64, 10, 9)
            times[n_t].append(time.perf_counter() - t0)
    t512, t1024 = (float(np.median(times[n_t])) for n_t in sizes)
    ratio = t1024 / t512
    ok = ratio <= 2.5
    line = _report(
        3, ok, f"median time T=1024 / T=512 = {ratio:.2f} (<=2.5; "
        f"{t512*1e3:.2f}ms vs {t1024*1e3:.2f}ms)"
    )
    assert ok, line


def test_criterion_4_cyclic_shift_invariance(basis32):
    gen = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        samples = gen.random((12, 24))
        base = invariants(compute_moments(samples, basis32, 5, 5))
        for shift in range(1, 24):
            shifted = np.roll(samples, shift, axis=1)
            vec = invariants(compute_moments(shifted, basis32, 5, 5))
            worst = max(worst, float(np.abs(vec - base).max()))
    ok = worst < 1e-9
    line = _report(
        4, ok, f"max invariant deviation over all cyclic shifts {worst:.2e} (<1e-9)"
    )
    assert ok, line


@pytest.fixture(scope="module")
def stability_pair(basis64):
    image = smooth_test_image(128)
    grid = (128, 256)
    t0 = time.perf_counter()
    clean = rotation_stability(image, PROTOCOL_ANGLES_DEG, PROTOCOL_ORDERS, basis64, grid)
    clean_elapsed = time.perf_counter() - t0
    noisy = rotation_stability(
        image, PROTOCOL_ANGLES_DEG, PROTOCOL_ORDERS, basis64, grid,
        noise=NoiseSpec(30.0, DEFAULT_SEED),
    )
    return clean, noisy, clean_elapsed


def test_criterion_5_raster_rotation_stability(stability_pair):
    clean, _, elapsed = stability_pair
    ratios = clean.std_row / clean.mean_row
    ok = bool(np.all(ratios <= 0.10)) and elapsed < 30.0
    line = _report(
        5, ok, f"clean std/mean max {ratios.max():.4f} (<=0.10) over the 8-angle, "
        f"10-column protocol, runtime {elapsed:.1f}s (<30s)"
    )
    assert ok, line


def test_criterion_6_noise_robustness(stability_pair):
    clean, noisy, _ = stability_pair
    increase = (noisy.std_row - clean.std_row) / clean.std_row
    ratios = noisy.std_row / noisy.mean_row
    ok = bool(np.all(increase <= 3.0)) and bool(np.all(ratios <= 0.15))
    line = _report(
        6, ok, f"30dB noise raises column std by at most {increase.max():.2f}x its "
        f"clean value (<=3x), noisy std/mean max {ratios.max():.4f} (<=0.15)"
    )
    assert ok, line


def test_criterion_7_reconstruction_self_consistency(basis64):
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
    full = compute_moments(target, basis64, 6, max_angular).values
    norm = np.linalg.norm(target)
    errors = []
    for max_radial in range(2, 7):
        ms = MomentSet(
            max_radial=max_radial, max_angular=max_angular,
            values=full[:max_radial], grid=(n_r, n_t), basis_id=basis64.basis_id,
        )
        samples, _ = reconstruct(ms, basis64, (n_r, n_t))
        errors.append(float(np.linalg.norm(samples - target) / norm))
    monotone = all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    ok = monotone and errors[-1] < 0.05
    line = _report(
        7, ok, f"six-term series: relative L2 error by radial order "
        f"{[f'{e:.3f}' for e in errors]} monotone={monotone}, "
        f"final {errors[-1]:.2e} (<0.05)"
    )
    assert ok, line


def test_criterion_8_classification_trend(basis64, tmp_path):
    # the synthetic experiment as a user runs it: synth writes the images, and
    # classify --data-dir reads them back
    t0 = time.perf_counter()
    assert run(["synth", "--classes", "6", "--per-class", "8", "--seed", str(DEFAULT_SEED),
                "--out-dir", str(tmp_path)]) == 0
    ds = load_labeled_directory(tmp_path, basis=basis64)
    report = classification_sweep(
        ds, fractions=(0.2, 0.3, 0.4, 0.5), repeats=10, seed=DEFAULT_SEED
    )
    elapsed = time.perf_counter() - t0
    means = report.mean_accuracy
    nondecreasing = bool(np.all(np.diff(means) >= -0.02))
    ok = means[-1] >= 0.85 and nondecreasing and elapsed < 60.0
    line = _report(
        8, ok, f"mean accuracy {[f'{m:.3f}' for m in means]} at fractions "
        f"{report.train_fractions}; 50% figure {means[-1]:.3f} (>=0.85), "
        f"non-decreasing within 0.02: {nondecreasing}, runtime {elapsed:.1f}s (<60s)"
    )
    assert ok, line


def test_criterion_9_cli_determinism(tmp_path):
    image_path = tmp_path / "img.pgm"
    image_path.write_bytes(write_pgm(smooth_test_image(64)))
    data = tmp_path / "data"
    assert run(["synth", "--classes", "2", "--per-class", "4", "--seed", "9",
                "--out-dir", str(data)]) == 0
    invocations = [
        ["dpss", "gen", "--n", "48", "--w", "0.15", "--k", "6"],
        ["noise-test", "--image", str(image_path), "--angles", "0,45,90",
         "--radial", "32", "--angular", "64", "--seed", "21"],
        ["classify", "--data-dir", str(data), "--repeats", "2",
         "--fractions", "0.5", "--radial", "32", "--angular", "64",
         "--epochs", "60", "--seed", "9"],
    ]
    identical = True
    for idx, cmd in enumerate(invocations):
        a = tmp_path / f"out{idx}a"
        b = tmp_path / f"out{idx}b"
        assert run(cmd + ["--out", str(a)]) == 0
        assert run(cmd + ["--out", str(b)]) == 0
        identical &= a.read_bytes() == b.read_bytes()
    # synth writes a directory tree; compare file by file
    for tree in ("ta", "tb"):
        assert run(["synth", "--classes", "2", "--per-class", "2", "--size", "32",
                    "--out-dir", str(tmp_path / tree)]) == 0
    files_a = sorted((tmp_path / "ta").rglob("*.pgm"))
    files_b = sorted((tmp_path / "tb").rglob("*.pgm"))
    identical &= [p.relative_to(tmp_path / "ta") for p in files_a] == [
        p.relative_to(tmp_path / "tb") for p in files_b
    ]
    identical &= all(
        pa.read_bytes() == pb.read_bytes() for pa, pb in zip(files_a, files_b)
    )
    line = _report(
        9, identical, "repeated CLI invocations with fixed seeds produce "
        "byte-identical outputs (dpss gen, noise-test, classify, synth)"
    )
    assert identical, line
