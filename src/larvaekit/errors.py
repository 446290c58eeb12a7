"""Exception types shared across the package.

Every error raised by library code derives from :class:`LarvaekitError` so
callers (and the CLI) can distinguish domain failures from programming bugs.
"""

from __future__ import annotations


class LarvaekitError(Exception):
    """Base class for all domain errors raised by this package."""


# --- annotation / manifest parsing ---


class MalformedLine(LarvaekitError):
    """A label-file line has the wrong field count or a non-numeric field."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class OutOfRange(LarvaekitError):
    """A parsed value violates its allowed range beyond tolerance."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class MissingColumn(LarvaekitError):
    """A manifest header lacks a required column."""


class DuplicateImageId(LarvaekitError):
    """Two manifest rows share the same image_id."""


class BadDensity(LarvaekitError):
    """A manifest density_group is not one of the stocking densities."""


class AnnotationLoadError(LarvaekitError):
    """An annotation or label file could not be read; carries the image id.

    ``path``, the label file, is added after the message unless the cause
    names a file itself, as an ``OSError`` does.
    """

    def __init__(self, image_id: str, cause: Exception, path=None):
        message = f"image '{image_id}': {cause}"
        if path is not None and getattr(cause, "filename", None) is None:
            message += f" ({path})"
        super().__init__(message)
        self.image_id = image_id
        self.cause = cause
        self.path = path


class InputFileError(LarvaekitError):
    """An input file could not be decoded or parsed; carries its path."""

    def __init__(self, path, cause: Exception):
        super().__init__(f"{path}: {cause}")
        self.path = path
        self.cause = cause


# --- raster codec / preprocessing ---


class UnsupportedFormat(LarvaekitError):
    """The byte stream is not a binary netpbm image this package reads."""


class MaxvalNot255(LarvaekitError):
    """The netpbm header declares a sample maxval other than 255."""


class TruncatedPayload(LarvaekitError):
    """The pixel payload does not match the size promised by the header."""


class TargetTooLarge(LarvaekitError):
    """A crop window exceeds the source image dimensions."""


class EmptyDataset(LarvaekitError):
    """An operation over a collection received no elements."""


class DegenerateBox(LarvaekitError):
    """A box has non-positive width or height."""


# --- evaluation / counting ---


class InconsistentCounts(LarvaekitError):
    """Confusion counts disagree with the stated ground-truth total."""


class NoGroundTruth(LarvaekitError):
    """A precision/recall curve was requested over zero ground-truth boxes."""


class MissingDensity(LarvaekitError):
    """A per-density summary received an image without a density group."""


# --- growth fitting ---


class InsufficientData(LarvaekitError):
    """Too few (or too degenerate) observations to fit the requested model."""


class SingularNormalEquations(LarvaekitError):
    """The damped normal equations could not be solved."""


class ZeroVariance(LarvaekitError):
    """All observed lengths are equal; R-squared is undefined."""


class NonFiniteResult(LarvaekitError):
    """A model evaluation overflowed or produced NaN."""
