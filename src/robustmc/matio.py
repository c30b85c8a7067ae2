"""On-disk formats: the matrix CSV dialect and 8-bit PGM images.

CSV: plain comma-separated numbers, no header by default; an empty field or
the literal token NA marks a missing entry.  Written floats use shortest
round-trip formatting, so write -> read is lossless.

PGM: 8-bit only; plain (P2) and binary (P5) are read, binary is written.
Pixels map to [0, 1] floats on read (value / maxval) and back to 0..255 with
round-to-nearest on write.

All writers go through a temp file in the target directory followed by an
atomic rename.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import DataValidationError
from .matcore import ObservationMask, Problem, as_matrix

MISSING_TOKEN = "NA"
_MISSING = ("", MISSING_TOKEN)


def _atomic_write(path, chunks):
    """Write the byte strings ``chunks`` in turn to a temp file beside
    ``path``, then rename it over ``path``."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    _atomic_write(path, (text.encode("utf-8"),))


def _bad_cell(path, r, fields):
    """The error for the first cell of row ``r`` (which has one) that is not
    a finite number."""
    for cidx, field in enumerate(fields):
        if field in _MISSING:
            continue
        try:
            v = float(field)
        except ValueError:
            return DataValidationError(
                f"{path}: row {r + 1}, column {cidx + 1}: cannot parse {field!r}"
            )
        if not np.isfinite(v):
            return DataValidationError(
                f"{path}: row {r + 1}, column {cidx + 1}: non-finite value {field!r}"
            )


def read_matrix_csv(path, header: bool = False) -> Problem:
    """Parse a matrix CSV into a Problem (empty/NA cells are unobserved)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise DataValidationError(
            f"{path}: not UTF-8 text: {exc.reason} at byte offset {exc.start}"
        ) from None
    if header and lines:
        lines = lines[1:]
    rows = [line for line in lines if line.strip() != ""]
    if not rows:
        raise DataValidationError(f"{path}: no data rows")
    values = []
    observed = []
    width = None
    for r, line in enumerate(rows):
        fields = [f.strip() for f in line.split(",")]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise DataValidationError(
                f"{path}: row {r + 1} has {len(fields)} fields, expected {width}"
            )
        try:
            values.append([0.0 if f in _MISSING else float(f) for f in fields])
        except ValueError:
            raise _bad_cell(path, r, fields) from None
        observed.append([f not in _MISSING for f in fields])
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        r = int(np.argmin(finite.all(axis=1)))
        raise _bad_cell(path, r, [f.strip() for f in rows[r].split(",")])
    return Problem(values, ObservationMask(np.asarray(observed, dtype=bool)))


def write_matrix_csv(path, m):
    """Write a matrix as CSV, streamed row by row."""
    m = as_matrix(m)
    _atomic_write(path, ((",".join(map(repr, row.tolist())) + "\n").encode("utf-8") for row in m))


def _pgm_header_tokens(data: bytes, count: int):
    """Yield `count` whitespace-separated tokens, honoring # comments, and
    return them with the offset just past the final token."""
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i:i + 1].isspace():
            i += 1
        if i < n and data[i:i + 1] == b"#":
            while i < n and data[i:i + 1] != b"\n":
                i += 1
            continue
        if i >= n:
            raise DataValidationError("truncated PGM header")
        start = i
        while i < n and not data[i:i + 1].isspace() and data[i:i + 1] != b"#":
            i += 1
        tokens.append(data[start:i])
    return tokens, i


def read_pgm(path) -> np.ndarray:
    """Read a P2/P5 PGM into floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, header_end = _pgm_header_tokens(data, 4)
    magic = tokens[0]
    if magic not in (b"P2", b"P5"):
        raise DataValidationError(f"{path}: not a P2/P5 PGM (magic {magic!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise DataValidationError(f"{path}: malformed PGM header {tokens!r}") from None
    if width < 1 or height < 1:
        raise DataValidationError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise DataValidationError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if not data[header_end:header_end + 1].isspace():  # a comment or EOF, not pixels
        raise DataValidationError(f"{path}: no whitespace byte after maxval")
    if magic == b"P5":
        raster = data[header_end + 1:]  # exactly one whitespace byte after maxval
        if len(raster) < width * height:
            raise DataValidationError(f"{path}: raster truncated")
        img = np.frombuffer(raster[: width * height], dtype=np.uint8).astype(float)
    else:
        fields = data[header_end:].split()
        if len(fields) < width * height:
            raise DataValidationError(f"{path}: raster truncated")
        try:
            img = np.asarray([int(f) for f in fields[: width * height]], dtype=float)
        except ValueError:
            raise DataValidationError(f"{path}: malformed P2 raster") from None
    if img.min() < 0 or img.max() > maxval:
        raise DataValidationError(f"{path}: pixel outside [0, {maxval}]")
    return (img / maxval).reshape(height, width)


def write_pgm(path, img):
    """Write floats in [0, 1] as an 8-bit binary (P5) PGM."""
    img = as_matrix(img, "image")
    pixels = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    _atomic_write(path, (header, pixels.tobytes()))
