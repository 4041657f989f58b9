"""Deterministic synthetic imagery: a bundled stability test image and
shape-class generators for desk-scale classification experiments."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .dpss import _check_integer
from .imaging import RasterImage, _disk, _noisy, _rng

__all__ = ["smooth_test_image"]

# Ring placements for the bundled test image. Radii sit where the radial basis
# functions paired with each angular order have large curvature, so the
# rotation-resampling jitter is spread over all the low-order invariants.
_RINGS = (
    # (angular order, radius, amplitude, radial sigma in pixels, phase)
    (1, 0.596, 0.17, 3.0, 0.5),
    (2, 0.528, 0.17, 3.0, 1.7),
    (3, 0.398, 0.11, 2.6, 2.9),
    (3, 0.602, 0.11, 2.6, 2.9),
    (4, 0.367, -0.11, 2.6, 4.1),
    (4, 0.633, 0.11, 2.6, 4.1),
    (5, 0.430, 0.11, 2.6, 0.9),
    (5, 0.570, 0.11, 2.6, 0.9),
)
_BUMP_LAYOUT_SEED = 77


def _disk_coords(size: int):
    size = _check_integer("image size", size, 2)  # the disk radius size/2 - 0.5 must be positive
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    c, _, rho = _disk(size, size)
    r = np.hypot(xs - c, ys - c) / rho
    theta = np.arctan2(-(ys - c), xs - c)
    return xs, ys, c, rho, r, theta


def smooth_test_image(size: int = 128) -> RasterImage:
    """Deterministic smooth test pattern with energy at angular orders 1..5.

    Content is a dark base plus narrow harmonic rings and a fixed layout of
    Gaussian bumps; every low-order invariant gets a solidly nonzero value.
    """
    xs, ys, c, rho, r, theta = _disk_coords(size)
    img = 0.26 * np.ones((size, size))
    for order, r0, amp, sig_px, phase in _RINGS:
        s = sig_px / rho
        img += amp * np.exp(-(((r - r0) / s) ** 2) / 2) * np.cos(order * theta + phase)
    rng = _rng(_BUMP_LAYOUT_SEED)
    for _ in range(20):
        rb = 0.8 * np.sqrt(rng.uniform(0.02, 1.0))
        tb = rng.uniform(0.0, 2.0 * np.pi)
        sb = rng.uniform(1.6, 2.6)
        ab = rng.uniform(0.12, 0.2) * rng.choice([-1.0, 1.0])
        xb = c + rb * rho * np.cos(tb)
        yb = c - rb * rho * np.sin(tb)
        img += ab * np.exp(-((xs - xb) ** 2 + (ys - yb) ** 2) / (2.0 * sb**2))
    return RasterImage(np.clip(img, 0.0, 1.0))


def _shape_class_renderer(
    class_id: int, size: int
) -> Callable[[np.random.Generator], RasterImage]:
    """One synthetic shape class as a function of the random state.

    An instance has two harmonic rings whose angular orders and radii are
    class-specific; the draw sets its orientation, mild coefficient jitter and
    light pixel noise. The layers that do not depend on the draw (the angle and
    the three radial envelopes) are computed here, once; each call only draws
    and sums. The coordinate grids are released on return, so the renderer
    holds four rasters.
    """
    _, _, _, _, r, theta = _disk_coords(size)
    rr = np.clip(r, 0.0, 1.0)
    n1 = 1 + (class_id % 5)
    n2 = 1 + ((class_id + 2) % 7)
    r1 = 0.30 + 0.06 * (class_id % 6)
    r2 = 0.62 - 0.04 * (class_id % 6)
    ring1 = np.exp(-(((rr - r1) / 0.10) ** 2))
    ring2 = np.exp(-(((rr - r2) / 0.08) ** 2))
    disk = 0.12 * np.exp(-(((rr - 0.45) / 0.35) ** 2))

    def render(rng: np.random.Generator) -> RasterImage:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        a1 = 0.22 * (1.0 + 0.1 * rng.standard_normal())
        a2 = 0.18 * (1.0 + 0.1 * rng.standard_normal())
        # the same sum, term by term, as rendering each image from scratch:
        # folding 0.40 and the disk into one base would reorder it
        img = 0.40 * np.ones((size, size))
        img += a1 * ring1 * np.cos(n1 * theta + n1 * phase)
        img += a2 * ring2 * np.cos(n2 * theta + n2 * phase + 0.7)
        img += disk
        # light noise at 40 dB, under add_gaussian_noise's model
        return RasterImage(_noisy(np.clip(img, 0.0, 1.0, out=img), 40.0, rng))

    return render
