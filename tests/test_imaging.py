import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slepmoments import (
    DomainError,
    FormatError,
    NoiseSpec,
    ParameterError,
    RasterImage,
    add_gaussian_noise,
    read_pgm,
    rotate_image,
    smooth_test_image,
    to_polar,
    write_pgm,
)
from slepmoments.harness import synthetic_images
from slepmoments.imaging import (
    _bilinear_plan,
    _plans,
    _polar_plans,
    _read_input,
    _resample,
)


@pytest.mark.parametrize("pixels", [
    np.zeros(4), np.zeros((0, 4)), np.zeros((2, 2, 2)), [[0.5, np.nan]], [[1.5]], [[-0.1]],
], ids=["1-d", "empty", "3-d", "nan", "above-one", "below-zero"])
def test_raster_image_checks_its_pixels(pixels):
    with pytest.raises(ParameterError):
        RasterImage(pixels)


# --- PGM ----------------------------------------------------------------


def test_read_pgm_scales_to_unit_interval():
    img = read_pgm(b"P5\n2 1\n255\n" + bytes([0, 255]))
    assert img.pixels.shape == (1, 2)
    assert np.allclose(img.pixels, [[0.0, 1.0]])


def test_read_pgm_midlevel():
    img = read_pgm(b"P5\n1 1\n255\n" + bytes([128]))
    assert img.pixels[0, 0] == pytest.approx(128 / 255)


def test_read_pgm_rejects_other_magic():
    with pytest.raises(FormatError):
        read_pgm(b"P6\n1 1\n255\n\x00\x00\x00")


@pytest.mark.parametrize("header, name, offset", [
    (b"P5 1_0 1 255\n", "width", 3), (b"P5 +10 1 255\n", "width", 3),
    (b"P5 1 -1 255\n", "height", 5), (b"P5 1 1 0x1f\n", "maxval", 7),
    (b"P5 1 1 \xd9\xa1\n", "maxval", 7),
], ids=["underscore", "plus", "minus", "hex", "non-ascii"])
def test_read_pgm_takes_only_decimal_digits_in_the_header(header, name, offset):
    # Netpbm header fields are ASCII decimal digits; int() alone takes the first two
    with pytest.raises(FormatError) as exc:
        read_pgm(header + bytes(10))
    assert exc.value.offset == offset
    assert str(exc.value).startswith(f"invalid {name} field ")


def test_read_pgm_truncated_payload_reports_offset():
    data = b"P5\n2 2\n255\n" + bytes([1, 2])
    with pytest.raises(FormatError) as exc:
        read_pgm(data)
    assert exc.value.offset == len(data)


@pytest.mark.parametrize("data, message", [
    (b"P5 2 1 255", "truncated payload: need 2 bytes, have 0 (byte offset 11)"),
    (b"P5 2 1 255\n", "truncated payload: need 2 bytes, have 0 (byte offset 11)"),
    (b"P5 2 1 65535\n\x00", "truncated payload: need 4 bytes, have 1 (byte offset 14)"),
    (b"P5 2 1 # no maxval\x0b\x0c\r\n\t# here", "unexpected end of header (byte offset 29)"),
    (b"P5 2 1", "unexpected end of header (byte offset 6)"),
], ids=["maxval-ends-the-data", "separator-ends-the-data", "one-of-four-bytes",
        "comment-ends-the-header", "height-ends-the-header"])
def test_read_pgm_names_where_short_data_ends(data, message):
    # the separator byte after maxval is skipped unread, so data that ends at the
    # maxval token places the missing payload one past its end
    with pytest.raises(FormatError) as exc:
        read_pgm(data)
    assert str(exc.value) == message


@pytest.mark.parametrize("header, payload, first", [
    (b"P5\n3 1\n10\n", bytes([10, 0xFF, 11]), 1),
    (b"P5\n3 1\n300\n", b"".join(v.to_bytes(2, "big") for v in (300, 301, 302)), 2),
], ids=["8-bit", "16-bit"])
def test_read_pgm_refuses_a_sample_above_maxval(header, payload, first):
    # the offset is that of the first sample above maxval, not of a later one
    with pytest.raises(FormatError, match="exceeds maxval") as exc:
        read_pgm(header + payload)
    assert exc.value.offset == len(header) + first


@pytest.mark.parametrize("header, message", [
    (b"P5\n0 1\n255\n", "image dimensions must be positive (byte offset 10)"),
    (b"P5\n1 0\n255\n", "image dimensions must be positive (byte offset 10)"),
    (b"P5\n1 1\n0\n", "maxval 0 out of range (0, 65535] (byte offset 8)"),
    (b"P5\n1 1\n65536\n", "maxval 65536 out of range (0, 65535] (byte offset 12)"),
], ids=["zero-width", "zero-height", "maxval-0", "maxval-65536"])
def test_read_pgm_refuses_an_empty_image_or_a_maxval_out_of_range(header, message):
    with pytest.raises(FormatError) as exc:
        read_pgm(header + bytes(4))
    assert str(exc.value) == message


def test_read_pgm_sixteen_bit():
    payload = (300).to_bytes(2, "big") + (60000).to_bytes(2, "big")
    img = read_pgm(b"P5\n2 1\n65535\n" + payload)
    assert img.pixels[0, 0] == pytest.approx(300 / 65535)
    assert img.pixels[0, 1] == pytest.approx(60000 / 65535)


def test_read_pgm_handles_comments():
    img = read_pgm(b"P5\n# a comment\n1 1\n# another\n255\n" + bytes([255]))
    assert img.pixels[0, 0] == 1.0


# --- the one reader of files ------------------------------------------------


def test_read_input_parses_a_regular_file_through_a_symlink(tmp_path):
    data = write_pgm(smooth_test_image(8))
    (tmp_path / "a.pgm").write_bytes(data)
    (tmp_path / "link.pgm").symlink_to("a.pgm")
    image = _read_input(tmp_path / "link.pgm", read_pgm, "image")
    assert np.array_equal(image.pixels, read_pgm(data).pixels)


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(), lambda path: os.mkfifo(path),
    lambda path: path.symlink_to("/dev/null"),
], ids=["directory", "fifo", "link-to-device"])
def test_read_input_refuses_what_is_not_a_regular_file_unopened(tmp_path, make):
    # it is stat'ed, never opened: opening a FIFO with no writer blocks, and a device
    # such as /dev/zero may never end
    path = tmp_path / "in"
    make(path)

    def parse(data):
        raise AssertionError("the file was read")
    with pytest.raises(FormatError) as exc:
        _read_input(path, parse, "image")
    assert str(exc.value) == f"image file {path}: not a regular file"


def test_read_input_names_the_file_in_a_refusal_of_its_parse(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)  # json raises RecursionError, not a ValueError
    with pytest.raises(FormatError) as exc:
        _read_input(path, json.loads, "moment")
    assert str(exc.value).startswith(f"moment file {path}: ")
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(FormatError) as exc:
        _read_input(path, read_pgm, "image")
    assert str(exc.value) == (
        f"image file {path}: unsupported magic b'P6', expected b'P5' (byte offset 0)")


def test_read_input_lets_an_os_error_name_the_path(tmp_path):
    path = tmp_path / "missing.pgm"
    with pytest.raises(FileNotFoundError) as exc:
        _read_input(path, read_pgm, "image")
    assert str(exc.value) == f"[Errno 2] No such file or directory: {str(path)!r}"


def test_write_pgm_one_pixel_white():
    img = RasterImage([[1.0]])
    assert write_pgm(img).endswith(bytes([255]))


def test_write_pgm_zeros():
    img = RasterImage(np.zeros((2, 2)))
    assert write_pgm(img).endswith(bytes([0, 0, 0, 0]))


@pytest.mark.parametrize("maxval", [True, 300.5, 255.0])
def test_write_pgm_refuses_a_non_integer_maxval(maxval):
    # read_pgm refuses the header each of these would write
    with pytest.raises(ParameterError, match="maxval must be an integer"):
        write_pgm(RasterImage([[0.5]]), maxval=maxval)


def test_write_pgm_takes_a_numpy_integer_maxval():
    img = RasterImage([[0.25, 1.0]])
    assert write_pgm(img, maxval=np.int64(255)) == write_pgm(img, maxval=255)
    for maxval in (np.int32(255), np.uint8(255), np.uint16(65535), np.int32(65535)):
        assert write_pgm(img, maxval=maxval) == write_pgm(img, maxval=int(maxval))


@pytest.mark.parametrize("maxval, message", [
    (0, "maxval must be >= 1, got 0"), (65536, "maxval must be <= 65535, got 65536"),
], ids=["zero", "above-16-bit"])
def test_write_pgm_refuses_a_maxval_out_of_range(maxval, message):
    with pytest.raises(ParameterError) as exc:
        write_pgm(RasterImage([[0.5]]), maxval=maxval)
    assert str(exc.value) == message


def test_pgm_round_trip_quantization(rng):
    img = RasterImage(rng.random((16, 16)))
    back = read_pgm(write_pgm(img))
    assert np.abs(back.pixels - img.pixels).max() <= 1 / 510 + 1e-12


def test_pgm_round_trip_sixteen_bit(rng):
    img = RasterImage(rng.random((8, 8)))
    back = read_pgm(write_pgm(img, maxval=65535))
    assert np.abs(back.pixels - img.pixels).max() <= 1 / (2 * 65535) + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_pgm_round_trip_property(w, h, seed):
    px = np.random.default_rng(seed).random((h, w))
    img = RasterImage(px)
    back = read_pgm(write_pgm(img))
    assert back.pixels.shape == (h, w)
    assert np.abs(back.pixels - px).max() <= 1 / 510 + 1e-12


# --- rotation -------------------------------------------------------------


def test_rotate_zero_is_identity(rng):
    img = RasterImage(rng.random((12, 15)))
    out = rotate_image(img, 0.0)
    assert np.allclose(out.pixels, img.pixels, atol=1e-12)


@pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_rotate_refuses_a_non_finite_angle(angle):
    # numpy would warn in the plan's cast, then the clipped frame fails as non-finite pixels
    with pytest.raises(ParameterError, match=f"^angle_deg must be finite, got {angle}$"):
        rotate_image(RasterImage(np.ones((5, 5))), angle)


_REAL_USES = {
    "angle_deg": lambda value: rotate_image(RasterImage(np.ones((5, 5))), value),
    "snr_db": lambda value: NoiseSpec(value, 3),
}


@pytest.mark.parametrize("value", [True, np.True_, "30", None],
                         ids=["bool", "numpy-bool", "str", "none"])
@pytest.mark.parametrize("name", _REAL_USES)
def test_real_parameters_refuse_bools_and_non_numbers(name, value):
    # np.deg2rad(True) is a float16 1 degree, and a True level reached the report's json
    with pytest.raises(ParameterError) as exc:
        _REAL_USES[name](value)
    assert str(exc.value) == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize("name", _REAL_USES)
def test_real_parameters_refuse_an_integer_past_the_float_range(name):
    # float() raises OverflowError, which no caller would see named
    with pytest.raises(ParameterError) as exc:
        _REAL_USES[name](10**400)
    assert str(exc.value) == f"{name} must lie within the float range, got {10**400!r}"


def test_real_parameters_are_used_as_floats():
    img = smooth_test_image(16)
    plain = rotate_image(img, 30.0).pixels.tobytes()
    for angle in (30, np.int64(30), np.float32(30.0)):
        assert rotate_image(img, angle).pixels.tobytes() == plain
    spec = NoiseSpec(np.float32(30.0), np.int64(3))
    assert (type(spec.snr_db), type(spec.seed)) == (float, int)
    assert spec == NoiseSpec(30.0, 3)


def test_rotate_quarter_turn_is_transpose_flip(rng):
    img = RasterImage(rng.random((9, 9)))
    out = rotate_image(img, 90.0)
    assert np.abs(out.pixels - img.pixels.T[::-1]).max() < 1e-12


def test_rotate_matches_pixelwise_oracle(rng):
    # independent per-pixel inverse mapping with its own bilinear code
    px = rng.random((32, 32))
    img = RasterImage(px)
    out = rotate_image(img, 35.0)
    a = np.deg2rad(35.0)
    c = (32 - 1) / 2.0
    expected = np.zeros((32, 32))
    for yy in range(32):
        for xx in range(32):
            sx = np.cos(a) * (xx - c) - np.sin(a) * (yy - c) + c
            sy = np.sin(a) * (xx - c) + np.cos(a) * (yy - c) + c
            x0, y0 = int(np.floor(sx)), int(np.floor(sy))
            tx, ty = sx - x0, sy - y0
            acc = 0.0
            for dy in (0, 1):
                for dx in (0, 1):
                    xi, yi = x0 + dx, y0 + dy
                    if 0 <= xi < 32 and 0 <= yi < 32:
                        wgt = (tx if dx else 1 - tx) * (ty if dy else 1 - ty)
                        acc += wgt * px[yi, xi]
            expected[yy, xx] = acc
    assert np.abs(out.pixels - expected).max() < 1e-12


def test_rotate_round_trip_central_disk(test_image):
    back = rotate_image(rotate_image(test_image, 35.0), -35.0)
    size = test_image.pixels.shape[1]
    c = (size - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size]
    mask = np.hypot(xs - c, ys - c) <= 0.35 * size
    mae = np.abs(back.pixels - test_image.pixels)[mask].mean()
    assert mae <= 0.02


# --- polar resampling -------------------------------------------------------


def test_polar_constant_image():
    img = RasterImage(np.full((20, 20), 0.37))
    samples = to_polar(img, 8, 16)
    assert np.abs(samples - 0.37).max() < 1e-12


def test_polar_center_pixel_four_fold():
    px = np.zeros((3, 3))
    px[1, 1] = 1.0
    vals = to_polar(RasterImage(px), 1, 4)[0]
    assert np.allclose(vals, vals[0], atol=1e-12)


def test_polar_radial_ramp():
    size = 64
    c = (size - 1) / 2.0
    rho = size / 2.0 - 0.5
    ys, xs = np.mgrid[0:size, 0:size]
    ramp = np.clip(np.hypot(xs - c, ys - c) / rho, 0.0, 1.0)
    samples = to_polar(RasterImage(ramp), 32, 64)
    r = (np.arange(32) + 0.5) / 32
    keep = r <= 0.9
    err = np.abs(samples[keep] - r[keep, None])
    assert err.max() < 0.02


def test_polar_linearity(rng):
    a, b = 0.3, 0.6
    x = rng.random((16, 16))
    y = rng.random((16, 16))
    combined = to_polar(RasterImage(np.clip(a * x + b * y, 0, 1)), 8, 16)
    separate = a * to_polar(RasterImage(x), 8, 16) + b * to_polar(RasterImage(y), 8, 16)
    assert np.abs(combined - separate).max() < 1e-12


def test_polar_of_rotation_is_cyclic_shift(test_image):
    t = 256
    polar0 = to_polar(test_image, 32, t)
    polar45 = to_polar(rotate_image(test_image, 45.0), 32, t)
    shift = int(round(45.0 * t / 360.0))
    assert np.abs(polar45 - np.roll(polar0, shift, axis=1)).mean() <= 0.03


# --- sampling against the masked reference ------------------------------------


def _bilinear_reference(pixels, xs, ys):
    """The masked per-corner bilinear sum the package used before its gather plans."""
    h, w = pixels.shape
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    tx = xs - x0
    ty = ys - y0
    out = np.zeros(xs.shape)
    for dy in (0, 1):
        wy = ty if dy else 1.0 - ty
        for dx in (0, 1):
            wx = tx if dx else 1.0 - tx
            xi = x0 + dx
            yi = y0 + dy
            ok = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            vals = np.zeros(xs.shape)
            vals[ok] = pixels[yi[ok], xi[ok]]
            out += wx * wy * vals
    return out


def _rotate_reference(image, angle_deg):
    a = np.deg2rad(angle_deg)
    h, w = image.pixels.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w]
    src_x = np.cos(a) * (xs - cx) - np.sin(a) * (ys - cy) + cx
    src_y = np.sin(a) * (xs - cx) + np.cos(a) * (ys - cy) + cy
    return np.clip(_bilinear_reference(image.pixels, src_x, src_y), 0.0, 1.0)


def _polar_reference(image, n_radial, n_angular):
    h, w = image.pixels.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    rho = min(w, h) / 2.0 - 0.5
    r = (np.arange(n_radial) + 0.5) / n_radial
    th = 2.0 * np.pi * np.arange(n_angular) / n_angular
    xs = cx + np.outer(r, np.cos(th)) * rho
    ys = cy - np.outer(r, np.sin(th)) * rho
    return _bilinear_reference(image.pixels, xs, ys)


def _signed_zero_raster(rng, h, w):
    # Samples inside the -0.0 block sum four -0.0 terms, which only the zeros
    # start turns into +0.0; the +0.0 row mixes signed zeros.
    px = rng.random((h, w))
    px[h // 4 : h // 4 + h // 3 + 2, w // 4 : w // 4 + w // 3 + 2] = -0.0
    px[-1, ::3] = 0.0
    return px


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (16, 16), (37, 53), (53, 37)])
def test_gather_plan_matches_reference_bitwise(rng, shape):
    h, w = shape
    px = _signed_zero_raster(rng, h, w)
    # 90 rows of 200 samples take several resampling blocks and end in a partial one
    xs = rng.uniform(-2.5, w + 1.5, size=(90, 200))
    ys = rng.uniform(-2.5, h + 1.5, size=(90, 200))
    # exact edges and half-pixel steps past every side of the raster
    xs[0, :6] = [w - 1, -0.5, -1.0, w - 0.5, w, 0.0]
    ys[0, :6] = [h - 1, h - 1, -0.5, h - 0.5, -1.0, h]
    xs[1, :4] = [-0.5, w - 1, w - 0.5, -1e-12]
    ys[1, :4] = [-0.5, -0.5, h - 1, h - 1 + 1e-12]
    # far outside on every side and at every corner, so the plan's clamp is exercised
    xs[2, :8] = [-1e3, w + 1e3, (w - 1) / 2, (w - 1) / 2, -1e3, w + 1e3, -1e3, w + 1e3]
    ys[2, :8] = [(h - 1) / 2, (h - 1) / 2, -1e3, h + 1e3, -1e3, -1e3, h + 1e3, h + 1e3]
    got = _resample(px, xs.shape, _plans(px.shape, xs.shape, lambda rows: (xs[rows], ys[rows])))
    assert got.tobytes() == _bilinear_reference(px, xs, ys).tobytes()


# 97 x 211 is rotated 38 rows at a time, the last block partial
@pytest.mark.parametrize("shape", [(9, 9), (37, 53), (53, 37), (97, 211)])
@pytest.mark.parametrize("angle", [0.0, 35.0, 90.0, -140.0, 325.0])
def test_rotate_matches_reference_bitwise(rng, shape, angle):
    img = RasterImage(_signed_zero_raster(rng, *shape))
    assert rotate_image(img, angle).pixels.tobytes() == _rotate_reference(img, angle).tobytes()


@pytest.mark.parametrize("shape", [(2, 2), (37, 53), (53, 37), (128, 128)])
@pytest.mark.parametrize("grid", [(1, 4), (8, 16), (256, 512)])
def test_polar_matches_reference_bitwise(rng, shape, grid):
    img = RasterImage(_signed_zero_raster(rng, *shape))
    got = to_polar(img, *grid)
    assert got.tobytes() == _polar_reference(img, *grid).tobytes()


# --- addressing and working set ----------------------------------------------

MiB = 2**20


def traced_bytes(call):
    """The bytes held once call() returns, its result included, and the peak bytes
    held during it, as tracemalloc sees them (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        result = call()  # noqa: F841  (held until measured)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(1, 1), (1, 512), (256, 1), (2, 3), (37, 53), (256, 512)])
def test_plan_reads_stay_inside_the_bordered_raster(shape):
    # every corner is read as flat[offset:][base] with offsets 0, 1, w + 4 and w + 5,
    # so base + w + 5 must stay inside the (h + 4) x (w + 4) bordered raster
    h, w = shape
    far = 1e6
    xs = np.array([-far, -3.0, -2.5, -2.0, -1.0, -0.5, 0.0, (w - 1) / 2, w - 1, w - 0.5,
                   w, w + 1.0, w + 2.0, w + far])
    ys = np.array([-far, -3.0, -2.5, -2.0, -1.0, -0.5, 0.0, (h - 1) / 2, h - 1, h - 0.5,
                   h, h + 1.0, h + 2.0, h + far])
    base, corners = _bilinear_plan(shape, *np.meshgrid(xs, ys))
    assert [offset for offset, _ in corners] == [0, 1, w + 4, w + 5]
    assert base.min() >= 0 and base.max() + w + 5 < (h + 4) * (w + 4)


def test_polar_plan_holds_five_arrays_and_is_built_in_blocks():
    # a base index and four weights per sample, 40 B: 5 MiB at 256 x 512
    held, peak = traced_bytes(lambda: list(_polar_plans((256, 256), 256, 512)))
    assert held <= 5.1 * MiB
    assert peak <= 7 * MiB


def test_to_polar_is_built_in_blocks():
    # the 1 MiB of samples, the bordered raster and one block's plan, never a whole-grid plan
    img = smooth_test_image(256)
    _, peak = traced_bytes(lambda: to_polar(img, 256, 512))
    assert peak <= 3 * MiB


def test_rotate_image_is_built_in_blocks():
    img = smooth_test_image(256)
    _, peak = traced_bytes(lambda: rotate_image(img, 35.0))
    assert peak <= 2.5 * MiB


@pytest.mark.parametrize("maxval", [255, 65535], ids=["8-bit", "16-bit"])
def test_read_pgm_peaks_near_its_result(rng, maxval):
    # the payload is viewed where it lies and divided into the one float64 array, so
    # the peak is that array and RasterImage's finiteness mask, a byte a pixel
    data = write_pgm(RasterImage(rng.random((512, 512))), maxval)
    _, peak = traced_bytes(lambda: read_pgm(data))
    assert peak <= 1.25 * 512 * 512 * 8


# --- noise ------------------------------------------------------------------


def test_noise_variance_matches_snr():
    img = RasterImage(np.full((128, 128), 0.5))
    noisy = add_gaussian_noise(img, NoiseSpec(snr_db=30.0, seed=99))
    delta = noisy.pixels - img.pixels
    target = 0.25 / 1000.0
    assert abs(delta.var() - target) / target < 0.05


def test_noise_is_deterministic(test_image):
    spec = NoiseSpec(snr_db=25.0, seed=4242)
    a = add_gaussian_noise(test_image, spec)
    b = add_gaussian_noise(test_image, spec)
    assert np.array_equal(a.pixels, b.pixels)


def test_noise_vanishes_at_high_snr(test_image):
    out = add_gaussian_noise(test_image, NoiseSpec(snr_db=300.0, seed=1))
    assert np.abs(out.pixels - test_image.pixels).max() < 1e-6


@pytest.mark.parametrize("snr_db", [-3000.0, -2999.0, 2999.0, 3000.0])
def test_noise_spec_takes_levels_within_the_caps(snr_db):
    assert NoiseSpec(snr_db, 0).snr_db == snr_db


@pytest.mark.parametrize("snr_db", [-3001.0, 3001.0, np.inf, -np.inf, np.nan])
def test_noise_spec_refuses_levels_beyond_the_caps(snr_db):
    # 10 ** (snr_db / 10) overflows at 4000 dB and is 0 at -4000 dB
    with pytest.raises(ParameterError, match="snr_db"):
        NoiseSpec(snr_db, 0)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
def test_noise_spec_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # refused when the spec is made, before any noise is drawn
    with pytest.raises(ParameterError, match="seed"):
        NoiseSpec(30.0, seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(7)])
def test_noise_spec_takes_a_non_negative_integer_seed(seed):
    assert NoiseSpec(30.0, seed).seed == seed


def test_noise_rejects_zero_image():
    with pytest.raises(DomainError):
        add_gaussian_noise(RasterImage(np.zeros((4, 4))), NoiseSpec(30.0, 0))


def test_smooth_test_image_is_valid():
    img = smooth_test_image(128)
    assert img.pixels.shape == (128, 128)
    assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0
    again = smooth_test_image(128)
    assert np.array_equal(img.pixels, again.pixels)


def test_synthetic_images_reject_size_below_two():
    with pytest.raises(ParameterError, match="size"):
        smooth_test_image(1)
    with pytest.raises(ParameterError, match="size"):
        next(synthetic_images(2, 1, 1, seed=0, image_size=1))
    assert smooth_test_image(2).pixels.shape == (2, 2)
