"""Binary PGM reader/writer round trips and header handling."""

import numpy as np
import pytest

from mvlci.pgm import clamp01, read_pgm, write_pgm
from mvlci.rng import u64_stream


def _random_image(seed, h, w):
    raw = u64_stream(seed, h * w)
    return ((raw >> np.uint64(11)).astype(np.float64) * 2.0**-53).reshape(h, w)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("maxval", [255, 65535])
def test_write_read_write_is_byte_identical(tmp_path, maxval):
    img = _random_image(1, 13, 21)
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    write_pgm(first, img, maxval=maxval)
    write_pgm(second, read_pgm(first), maxval=maxval)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("maxval", [255, 65535])
def test_quantization_error_is_at_most_half_a_level(tmp_path, maxval):
    img = _random_image(2, 9, 9)
    path = tmp_path / "q.pgm"
    write_pgm(path, img, maxval=maxval)
    back = read_pgm(path)
    assert float(np.abs(back - img).max()) <= 0.5 / maxval + 1e-12


def test_extreme_values_survive(tmp_path):
    img = np.array([[0.0, 1.0], [1.0, 0.0]])
    path = tmp_path / "e.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


# ---------------------------------------------------------------------------
# header parsing
# ---------------------------------------------------------------------------

def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([0, 128, 255, 64])
    path.write_bytes(b"P5\n# a comment line\n2 # trailing\n2\n255\n" + payload)
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert abs(img[0, 1] - 128 / 255) < 1e-12


def test_sixteen_bit_samples_are_big_endian(tmp_path):
    path = tmp_path / "be.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n" + (0x0102).to_bytes(2, "big"))
    assert abs(read_pgm(path)[0, 0] - 0x0102 / 65535) < 1e-12


# ---------------------------------------------------------------------------
# rejection paths
# ---------------------------------------------------------------------------

def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match="P5"):
        read_pgm(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(path)


def test_rejects_unsupported_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n1 1\n1023\n\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(path)


@pytest.mark.parametrize("field, header", [
    ("width", b"P5\nabc 1\n255\n"),
    ("height", b"P5\n1 1.0\n255\n"),
    ("maxval", b"P5\n1 1\n25x\n"),
])
def test_rejects_a_non_numeric_header_field_by_name(tmp_path, field, header):
    path = tmp_path / "n.pgm"
    path.write_bytes(header + b"\x00")
    with pytest.raises(ValueError, match=f"^non-numeric PGM {field} b'"):
        read_pgm(path)


def test_write_rejects_out_of_range_image(tmp_path):
    with pytest.raises(ValueError, match="clamp"):
        write_pgm(tmp_path / "x.pgm", np.array([[1.5]]))


def test_write_rejects_non_finite_image(tmp_path):
    """NaN or an infinity anywhere, beside values in range or out of it."""
    for row in ([np.nan], [0.5, np.inf], [-np.inf, 0.5], [0.2, np.nan, 0.9],
                [2.0, np.nan], [np.nan, -1.0]):
        with pytest.raises(ValueError, match="^image contains non-finite values$"):
            write_pgm(tmp_path / "x.pgm", np.array([row]))
    assert not (tmp_path / "x.pgm").exists()


@pytest.mark.parametrize("maxval", [255, 65535])
def test_write_pgm_of_a_strided_or_transposed_view_writes_its_values(tmp_path, maxval):
    base = _random_image(3, 12, 10)
    for name, view in (("strided", base[::2, 1::3]), ("transposed", base.T)):
        path = tmp_path / f"{name}.pgm"
        write_pgm(path, view, maxval=maxval)
        assert path.read_bytes() == reference_pgm_bytes(np.ascontiguousarray(view), maxval)


def test_clamp01_clips_overshoot():
    out = clamp01(np.array([-0.25, 0.5, 1.75]))
    assert np.array_equal(out, [0.0, 0.5, 1.0])


def reference_pgm_bytes(img, maxval):
    """The file write_pgm keeps byte for byte: round to a uint32 level,
    then cast to the on-disk sample type."""
    h, w = img.shape
    quant = np.rint(img * maxval).astype(np.uint32)
    payload = quant.astype(">u2" if maxval == 65535 else "u1").tobytes()
    return f"P5\n{w} {h}\n{maxval}\n".encode("ascii") + payload


@pytest.mark.parametrize("maxval", [255, 65535])
def test_write_pgm_is_bytewise_the_reference_quantizer(tmp_path, maxval):
    """Exact half-step values (x * maxval == k + 0.5, which rint sends to
    the even level), their float neighbours, both ends and random values."""
    k = np.arange(maxval, dtype=np.float64)
    half = (k + 0.5) / maxval
    half = half[half * maxval == k + 0.5]
    assert half.size > maxval // 2
    values = np.concatenate([half, np.nextafter(half, 0.0), np.nextafter(half, 1.0),
                             [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0)],
                             _random_image(4, 1, 1000).ravel()])
    width = 64
    img = np.resize(values, (-(-values.size // width), width))
    path = tmp_path / "h.pgm"
    write_pgm(path, img, maxval=maxval)
    assert path.read_bytes() == reference_pgm_bytes(img, maxval)
