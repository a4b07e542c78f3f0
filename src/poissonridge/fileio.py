"""File formats: binary PGM for counts, headered CSV for real grids.

All writers go through a temp file plus rename so readers never see a
partial artifact. CSV numbers use 17 significant digits, which round
trips float64 exactly.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from .radon import _ROTATION_MODES, Sinogram

__all__ = [
    "read_pgm",
    "write_pgm",
    "read_csv",
    "write_csv",
    "read_sinogram",
    "write_sinogram",
]

_WHITESPACE = b" \t\r\n\x0b\x0c"


def _atomic_write(path, data):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_pgm(path, counts):
    """Write a count grid as binary PGM (P5), 8- or 16-bit by range."""
    a = np.asarray(counts)
    if a.ndim != 2:
        raise ValueError("PGM output needs a 2-D array")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError("PGM output needs integer counts")
    if a.size == 0:
        raise ValueError("PGM output needs a nonempty array")
    if a.min() < 0:
        raise ValueError("PGM cannot store negative counts")
    maxval = max(int(a.max()), 1)
    if maxval > 65535:
        raise ValueError(f"count {maxval} overflows the 16-bit PGM range")
    raster = a.astype(">u2" if maxval > 255 else "u1").tobytes()
    header = f"P5\n{a.shape[1]} {a.shape[0]}\n{maxval}\n".encode("ascii")
    _atomic_write(path, header + raster)


def _next_token(buf, pos):
    while pos < len(buf):
        c = buf[pos:pos + 1]
        if c in _WHITESPACE:
            pos += 1
        elif c == b"#":
            while pos < len(buf) and buf[pos:pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(buf) and buf[pos:pos + 1] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise ValueError("truncated PGM header")
    return buf[start:pos], pos


def read_pgm(path):
    blob = Path(path).read_bytes()
    magic, pos = _next_token(blob, 0)
    if magic != b"P5":
        raise ValueError(f"not a binary PGM file (magic {magic!r})")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(blob, pos)
        if not tok.isdigit():
            raise ValueError(f"malformed PGM header token {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1 or not 0 < maxval <= 65535:
        raise ValueError("malformed PGM dimensions")
    raster = blob[pos + 1:]
    dtype = ">u2" if maxval > 255 else "u1"
    expect = width * height * (2 if maxval > 255 else 1)
    if len(raster) < expect:
        raise ValueError("PGM raster shorter than header promises")
    a = np.frombuffer(raster[:expect], dtype=dtype).reshape(height, width)
    return a.astype(np.int64)


def _reads_back(text):
    # read_csv splits lines and strips every header key and value
    return text == text.strip() and len(text.splitlines()) <= 1


def _format_meta(meta):
    """'# key = value' lines; ValueError for a key or value that
    read_csv would not return unchanged, and for the reserved 'shape'."""
    lines = []
    for key, value in meta.items():
        key, value = str(key), str(value)
        if key == "shape":
            raise ValueError("metadata key 'shape' is reserved for the array shape")
        if "=" in key or not _reads_back(key):
            raise ValueError(f"bad metadata key {key!r}")
        if not _reads_back(value):
            raise ValueError(f"bad metadata value for {key!r}: {value!r}")
        lines.append(f"# {key} = {value}\n")
    return lines


def write_csv(path, array, meta=None):
    """Write a 1- or 2-D real array with '# key = value' header lines.

    Every metadata key and value (as str) must read back unchanged: no
    'shape' key, no '=' in a key, and no line break or leading or
    trailing whitespace in either.
    """
    a = np.atleast_2d(np.asarray(array, dtype=float))
    if a.ndim != 2:
        raise ValueError("CSV output needs a 1- or 2-D array")
    lines = [f"# shape = {a.shape[0]},{a.shape[1]}\n"]
    lines += _format_meta(meta or {})
    for row in a:
        lines.append(",".join(f"{v:.17g}" for v in row) + "\n")
    _atomic_write(path, "".join(lines).encode("ascii"))


def read_csv(path):
    """Read a headered CSV; returns (array, metadata dict of strings)."""
    meta = {}
    rows = []
    shape = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" not in body:
                raise ValueError(f"line {lineno}: malformed header line")
            key, _, value = body.partition("=")
            key, value = key.strip(), value.strip()
            if key == "shape":
                shape = tuple(int(t) for t in value.split(","))
            else:
                meta[key] = value
            continue
        try:
            rows.append([float(t) for t in line.split(",")])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed number") from None
    if shape is None:
        raise ValueError("missing shape header")
    a = np.array(rows, dtype=float) if rows else np.empty(shape)
    if a.shape != shape:
        raise ValueError(f"data shape {a.shape} does not match header {shape}")
    return a, meta


def write_sinogram(path, sino):
    """Persist a Sinogram with enough geometry to rebuild it."""
    meta = {
        "kind": "sinogram",
        "variant": sino.variant,
        "image_shape": f"{sino.image_shape[0]},{sino.image_shape[1]}",
        "offset_min": sino.offset_min,
        "gdb_size": sino.gdb_size,
    }
    if sino.variant == "rotation":
        meta["interp"] = sino.interp
        meta["angles"] = ";".join(f"{v:.17g}" for v in sino.angles)
    write_csv(path, sino.data, meta)


def read_sinogram(path):
    """Read a sinogram CSV written by write_sinogram.

    The offset range and gdb grid edge follow from the data's row count;
    a header whose offset_min or gdb_size disagrees raises ValueError,
    and so do a rotation header whose angle count is not the column
    count, a missing header key, an unknown variant or rotation interp,
    and an image_shape that is not two positive sizes.
    """
    data, meta = read_csv(path)
    if meta.get("kind") != "sinogram":
        raise ValueError("file is not a sinogram CSV")

    def header(key):
        if key not in meta:
            raise ValueError(f"sinogram header has no {key!r} key")
        return meta[key]

    variant = header("variant")
    if variant not in ("rotation", "gdb"):
        raise ValueError(f"unknown sinogram variant {variant!r}")
    image_shape = tuple(int(t) for t in header("image_shape").split(","))
    if len(image_shape) != 2 or min(image_shape) < 1:
        raise ValueError(f"header image_shape must be two positive sizes, "
                         f"got {header('image_shape')!r}")
    angles = None
    interp = None
    if variant == "rotation":
        interp = header("interp")
        if interp not in _ROTATION_MODES:
            raise ValueError(f"unknown rotation interp {interp!r}")
        angles = np.array([float(t) for t in header("angles").split(";")])
        if angles.size != data.shape[1]:
            raise ValueError(
                f"header has {angles.size} angles for {data.shape[1]} columns")
    sino = Sinogram(
        variant=variant,
        data=data,
        image_shape=image_shape,
        angles=angles,
        interp=interp,
    )
    for key in ("offset_min", "gdb_size"):
        if int(header(key)) != getattr(sino, key):
            raise ValueError(
                f"header {key} = {meta[key]} does not match {data.shape[0]} "
                f"offset rows (expected {getattr(sino, key)})")
    return sino
