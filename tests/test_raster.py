"""Binary netpbm codec round-trips and header validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from larvaekit.errors import MaxvalNot255, TruncatedPayload, UnsupportedFormat
from larvaekit.raster import RasterImage, decode_raster, encode_raster


class TestRasterImage:
    def test_buffer_length_checked(self):
        with pytest.raises(TruncatedPayload):
            RasterImage(2, 2, 1, b"\x00" * 3)

    def test_channels_checked(self):
        with pytest.raises(UnsupportedFormat):
            RasterImage(2, 2, 2, b"\x00" * 8)

    def test_dimensions_checked(self):
        with pytest.raises(UnsupportedFormat):
            RasterImage(0, 2, 1, b"")

    @pytest.mark.parametrize("arr, message", [
        (np.zeros((2, 2), dtype=np.uint16), "expected uint8 samples, got uint16"),
        (np.zeros((2, 2, 2), dtype=np.uint8), r"bad array shape \(2, 2, 2\)"),
        (np.zeros(4, dtype=np.uint8), r"bad array shape \(4,\)"),
    ], ids=["uint16", "two-channels", "flat"])
    def test_from_array_refuses_other_samples_and_shapes(self, arr, message):
        with pytest.raises(UnsupportedFormat, match=f"^{message}$"):
            RasterImage.from_array(arr)

    def test_array_round_trip_gray(self):
        img = RasterImage(3, 2, 1, bytes(range(6)))
        arr = img.to_array()
        assert arr.shape == (2, 3, 1)
        assert RasterImage.from_array(arr) == img

    def test_array_round_trip_rgb(self):
        img = RasterImage(2, 2, 3, bytes(range(12)))
        arr = img.to_array()
        assert arr.shape == (2, 2, 3)
        assert RasterImage.from_array(arr) == img


class TestDecode:
    def test_two_pixel_rgb(self):
        data = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255])
        img = decode_raster(data)
        assert (img.width, img.height, img.channels) == (2, 1, 3)
        assert img.pixels == bytes([255, 0, 0, 0, 0, 255])

    def test_grayscale(self):
        img = decode_raster(b"P5\n3 2\n255\n" + bytes(6))
        assert (img.width, img.height, img.channels) == (3, 2, 1)

    def test_comments_and_mixed_whitespace(self):
        data = b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\n" + bytes(6)
        img = decode_raster(data)
        assert (img.width, img.height) == (3, 2)

    def test_wrong_magic(self):
        with pytest.raises(UnsupportedFormat):
            decode_raster(b"P3\n2 2\n255\n" + bytes(12))

    @pytest.mark.parametrize("data, message", [
        (b"P5\n0 2\n255\n", "bad dimensions 0x2"),
        (b"P5\n2 0\n255\n", "bad dimensions 2x0"),
        (b"P5\n1 1\n255", "missing separator between header and payload"),
    ], ids=["zero-width", "zero-height", "no-separator"])
    def test_bad_header_is_refused(self, data, message):
        with pytest.raises(UnsupportedFormat, match=f"^{message}$"):
            decode_raster(data)

    def test_maxval_must_be_255(self):
        with pytest.raises(MaxvalNot255):
            decode_raster(b"P5\n2 2\n65535\n" + bytes(8))

    def test_short_payload(self):
        with pytest.raises(TruncatedPayload):
            decode_raster(b"P6\n10 10\n255\n" + bytes(15))

    def test_long_payload(self):
        with pytest.raises(TruncatedPayload):
            decode_raster(b"P5\n2 2\n255\n" + bytes(5))


class TestEncode:
    def test_canonical_header(self):
        img = RasterImage(2, 1, 3, bytes(6))
        assert encode_raster(img) == b"P6\n2 1\n255\n" + bytes(6)

    def test_gray_magic(self):
        assert encode_raster(RasterImage(1, 1, 1, b"\x80")).startswith(b"P5\n")

    def test_decode_encode_identity_on_canonical_files(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            w = int(rng.integers(1, 12))
            h = int(rng.integers(1, 12))
            ch = int(rng.choice([1, 3]))
            payload = rng.integers(0, 256, size=w * h * ch, dtype=np.uint8).tobytes()
            magic = b"P5" if ch == 1 else b"P6"
            data = magic + b"\n%d %d\n255\n" % (w, h) + payload
            assert encode_raster(decode_raster(data)) == data

    def test_encode_decode_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            w = int(rng.integers(1, 12))
            h = int(rng.integers(1, 12))
            ch = int(rng.choice([1, 3]))
            img = RasterImage(w, h, ch, rng.integers(0, 256, size=w * h * ch, dtype=np.uint8).tobytes())
            assert decode_raster(encode_raster(img)) == img


def images(max_side: int = 64):
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side), st.sampled_from([1, 3])
    ).flatmap(
        lambda whc: st.binary(
            min_size=whc[0] * whc[1] * whc[2], max_size=whc[0] * whc[1] * whc[2]
        ).map(lambda px: RasterImage(whc[0], whc[1], whc[2], px))
    )


WHITESPACE = st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c"])
# A comment runs from '#' to the next CR or LF, which also ends the field.
COMMENT = st.tuples(
    st.binary(max_size=12).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b"")),
    st.sampled_from([b"\r", b"\n"]),
).map(lambda parts: b"#" + parts[0] + parts[1])
# Between header fields: a whitespace byte, then any mix of whitespace and comments.
SEPARATOR = st.tuples(WHITESPACE, st.lists(WHITESPACE | COMMENT, max_size=4)).map(
    lambda parts: parts[0] + b"".join(parts[1])
)


class TestCodecProperties:
    @given(images())
    def test_round_trip(self, img):
        assert decode_raster(encode_raster(img)) == img

    @given(images(max_side=16), st.lists(SEPARATOR, min_size=3, max_size=3), WHITESPACE)
    def test_commented_header_decodes_like_canonical(self, img, seps, last):
        magic = b"P5" if img.channels == 1 else b"P6"
        fields = [magic, b"%d" % img.width, b"%d" % img.height, b"255"]
        header = fields[0] + b"".join(sep + f for sep, f in zip(seps, fields[1:])) + last
        assert decode_raster(header + img.pixels) == decode_raster(encode_raster(img))
