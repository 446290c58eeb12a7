"""In-memory raster images and a binary netpbm (P5/P6) codec.

The camera exports and every intermediate artifact use 8-bit samples, so
the codec is deliberately strict: maxval must be 255 and the payload must
match the header exactly. The reader tolerates header comments and mixed
whitespace; the writer always emits the canonical
``magic\\nwidth height\\n255\\n`` form, which makes encoded bytes stable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LarvaekitError

_WHITESPACE = b" \t\r\n\x0b\x0c"


@dataclass(frozen=True)
class RasterImage:
    """Immutable 8-bit image, row-major, 1 (gray) or 3 (RGB) channels.

    ``pixels`` stays as given when it is ``bytes``. Any other read-only
    C-contiguous buffer is held, uncopied, as a read-only byte ``memoryview``;
    a writable or scattered one is copied to ``bytes``.
    """

    width: int
    height: int
    channels: int
    pixels: bytes | memoryview

    def __post_init__(self):
        if not isinstance(self.pixels, bytes):
            view = memoryview(self.pixels)
            view = view.cast("B") if view.readonly and view.c_contiguous else view.tobytes()
            object.__setattr__(self, "pixels", view)
        if self.width < 1 or self.height < 1:
            raise LarvaekitError(f"bad dimensions {self.width}x{self.height}")
        if self.channels not in (1, 3):
            raise LarvaekitError(f"unsupported channel count {self.channels}")
        expected = self.width * self.height * self.channels
        if len(self.pixels) != expected:
            raise LarvaekitError(f"expected {expected} payload bytes, got {len(self.pixels)}")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comments, netpbm style.
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in _WHITESPACE:
            pos += 1
        elif b == 0x23:  # '#'
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise LarvaekitError("header ended before all fields were read")
    return data[start:pos], pos


def decode_raster(data: bytes) -> RasterImage:
    """Decode a binary netpbm stream (P5 grayscale or P6 RGB, maxval 255)."""
    magic, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise LarvaekitError(f"unrecognized magic {magic!r}")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise LarvaekitError(f"{name} field {token!r} is not an integer") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise LarvaekitError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise LarvaekitError(f"maxval is {maxval}, this codec only handles 255")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise LarvaekitError("missing separator between header and payload")
    # RasterImage refuses a payload of any other length than the header's.
    return RasterImage(width, height, 1 if magic == b"P5" else 3, memoryview(data)[pos + 1 :])


def encode_raster(image: RasterImage) -> bytes:
    """Encode to the canonical binary netpbm form."""
    magic = "P5" if image.channels == 1 else "P6"
    header = f"{magic}\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels
