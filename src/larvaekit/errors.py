"""Exception types shared across the package.

Every error raised by library code derives from :class:`LarvaekitError` so
callers (and the CLI) can distinguish domain failures from programming bugs.
A failure gets a class of its own only when an ``except`` in the package
names that class, or when the class carries data beyond its message; every
other failure raises :class:`LarvaekitError` itself.
"""

from __future__ import annotations


class LarvaekitError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedLine(LarvaekitError):
    """A line that does not parse: a label-file line with the wrong field
    count or a non-numeric field, a manifest row with an empty id, a
    non-integer width or height or a NUL in a path, or a CSV syntax error."""

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


class DegenerateBox(LarvaekitError):
    """A box has non-positive width or height, or no extent in float64 or
    at six decimals."""


class SingularNormalEquations(LarvaekitError):
    """The damped normal equations could not be solved."""


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
