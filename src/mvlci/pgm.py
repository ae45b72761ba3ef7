"""Binary PGM (P5) image input/output.

Images are exchanged with the rest of the package as float64 arrays of
shape (height, width) with values in [0, 1].  On disk they are stored as
8-bit (maxval 255) or 16-bit (maxval 65535) binary PGM; 16-bit samples use
big-endian byte order per the PGM convention.  The integer <-> float map is
linear: v = round(x * maxval) on write, x = v / maxval on read, so writing
and re-reading a file reproduces it byte for byte.
"""

from __future__ import annotations

import numpy as np


def write_pgm(path, image: np.ndarray, maxval: int = 65535) -> None:
    """Write a [0, 1] float image as a binary PGM file."""
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    # NaN and +-inf each reach the minimum or the maximum
    lo, hi = float(img.min()), float(img.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("image contains non-finite values")
    if lo < 0.0 or hi > 1.0:
        raise ValueError("image values must lie in [0, 1]; clamp before export")
    h, w = img.shape
    scaled = img * maxval
    payload = np.rint(scaled, out=scaled).astype(">u2" if maxval == 65535 else "u1",
                                                  order="C")
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM file into a float64 array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise ValueError(f"not a binary PGM (P5) file: magic {magic!r}")
    w_tok, pos = _next_token(data, pos)
    h_tok, pos = _next_token(data, pos)
    max_tok, pos = _next_token(data, pos)
    w, h, maxval = (_header_int("width", w_tok), _header_int("height", h_tok),
                    _header_int("maxval", max_tok))
    if w <= 0 or h <= 0:
        raise ValueError(f"bad PGM dimensions {w}x{h}")
    if maxval not in (255, 65535):
        raise ValueError(f"unsupported PGM maxval {maxval}")
    # exactly one whitespace byte separates the header from the raster
    pos += 1
    dtype = ">u2" if maxval == 65535 else "u1"
    count = w * h
    if len(data) - pos < count * (2 if maxval == 65535 else 1):
        raise ValueError("PGM payload truncated")
    raw = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return raw.astype(np.float64).reshape(h, w) / maxval


def clamp01(image: np.ndarray) -> np.ndarray:
    """Clip an array into [0, 1] (reconstructions may overshoot slightly)."""
    return np.clip(image, 0.0, 1.0)


def _header_int(name: str, token: bytes) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"non-numeric PGM {name} {token!r}") from None


def _next_token(data: bytes, pos: int):
    """Scan the next whitespace-delimited header token, skipping comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated PGM header")
    return data[start:pos], pos
