"""Programmable-aperture sensing model and measurement file format.

The aperture displays rows of a binary matrix A with entries (h + 1) / 2
where h are entries of the order-N Sylvester Hadamard matrix, so every
aperture pattern is 0/1.  A measurement of an image x (flattened row-major
and zero-padded to length N) is

    z[i] = (H x)[rows[i]] / 2 + sum(x) / 2

which we evaluate with an in-place fast Walsh-Hadamard transform instead
of materializing H.  Because Sylvester H is symmetric, the adjoint is the
same transform applied to the measurement vector scattered onto its rows.
The transform packs each real pair into one complex128 after its first
stage and runs the rest in ping-pong (Stockham) order on those pairs; it
must stay bit-identical to the natural-order butterfly: the solver's stop
rule turns a last-ulp difference into a different stopping iteration.

Measurement sets are serialized in a small self-describing container
("MVM1"): a text header followed by little-endian binary payload, exact
enough to reproduce a run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import GAMMA, MASK64, normal_stream, u64_stream


def fwht(x: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform in Sylvester (natural) order.

    x is a 1-D float64 array, possibly strided, of power-of-two length n;
    fwht(fwht(x)) == n * x.  Stage 0 turns each pair (x[2k], x[2k+1]) into
    (a + b, a - b), element k of a half-length complex128 buffer, so index
    bit 0 lives in the real/imaginary lane.  The other stages run in
    ping-pong (Stockham) order between that buffer and x viewed as
    complex128: the sums of even and odd elements go to the first half,
    their differences to the second.  Complex add and subtract act lane by
    lane, so each stage forms the same a + b and a - b over the same pairs
    as the natural-order butterfly, bit for bit, signed zeros included.
    Keep it bit-identical: the solver's stop rule is sensitive to last-ulp
    changes in the transform.
    """
    n = x.size
    if x.dtype != np.float64 or x.ndim != 1 or n == 0 or n & (n - 1):
        raise ValueError("fwht needs a 1-D float64 array of power-of-two length")
    if n == 1:
        return x
    half, quarter = n // 2, n // 4
    w = np.ascontiguousarray(x)  # x itself unless x is a strided view
    buf = np.empty(half, dtype=np.complex128)
    np.add(x[0::2], x[1::2], out=buf.real)
    np.subtract(x[0::2], x[1::2], out=buf.imag)
    src, dst = buf, w.view(np.complex128)
    for _ in range(half.bit_length() - 1):
        a, b = src[0::2], src[1::2]
        np.add(a, b, out=dst[:quarter])
        np.subtract(a, b, out=dst[quarter:])
        src, dst = dst, src
    if src is buf or w is not x:
        x[...] = src.view(np.float64)
    return x


@dataclass
class SensingSpec:
    """Which Hadamard rows the aperture cycles through for one acquisition."""

    order: int
    rows: np.ndarray
    seed: int
    pixel_count: int

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        n = self.order
        if n < 1 or n & (n - 1):
            raise ValueError("order must be a power of two")
        if not 1 <= self.pixel_count <= n:
            raise ValueError("pixel_count must lie in [1, order]")
        if self.rows.ndim != 1 or self.rows.size == 0:
            raise ValueError("rows must be a non-empty 1-D index array")
        if self.rows[0] != 0:
            raise ValueError("rows[0] must be 0 (the all-ones pattern)")
        if self.rows.min() < 0 or self.rows.max() >= n:
            raise ValueError("row indices must lie in [0, order)")
        ordered = np.sort(self.rows)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("row indices must be distinct")

    @property
    def count(self) -> int:
        return int(self.rows.size)


def order_for_pixels(pixel_count: int) -> int:
    """Smallest power-of-two Hadamard order that covers pixel_count."""
    if pixel_count < 1:
        raise ValueError("pixel_count must be positive")
    return 1 << max(0, (pixel_count - 1).bit_length())


def select_rows(order: int, rate: float, seed: int) -> np.ndarray:
    """Choose ceil(rate * order) distinct Hadamard rows, row 0 always first.

    The remaining rows are drawn uniformly without replacement from
    [1, order) by a splitmix64-seeded partial Fisher-Yates shuffle over a
    lazily indexed range, so the selection depends only on (order, rate,
    seed mod 2**64).  Draw i swaps position i with j_i = i +
    SplitMix64.below(m), m = order - 1 - i, on the virtual array whose
    position p holds p + 1 until a swap moves another value there.  All
    offsets come from one vectorized u64_stream call; below()'s rejection
    rule is applied exactly, and a rejected draw moves every later draw
    one stream value on.

    The swaps are resolved in whole-array passes.  Draw i outputs the value
    at position j_i at time i: j_i + 1 if no earlier draw wrote there,
    else the value carried by the latest earlier writer k there, which is
    the value at k at time k, defined the same way.  A stable sort by j_i
    (no combined key that could overflow) finds both writers; each comes
    before its reader, so pointer doubling resolves the chains without
    cycles.  This is the sequential loop's recurrence, so the rows equal
    its rows bit for bit.  No array has one entry per order.
    """
    if order < 1 or order & (order - 1):
        raise ValueError("order must be a power of two")
    if order > 1 << 63:
        raise ValueError("order must not exceed 2**63: rows are int64")
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    count = math.ceil(rate * order)
    if count < 1:
        raise ValueError("rate too small: no rows selected")
    draws = count - 1
    m = np.arange(order - 1, order - 1 - draws, -1, dtype=np.uint64)
    # below(m) rejects r >= 2**64 - (2**64 mod m), i.e. r > MASK64 - rem
    rem = (np.uint64(MASK64) % m + np.uint64(1)) % m
    limit = np.uint64(MASK64) - rem
    r = np.empty(draws, dtype=np.uint64)
    done = used = 0  # draws settled, stream values consumed by them
    while True:
        r[done:] = u64_stream(int(seed) + used * GAMMA, draws - done)
        rejected = np.flatnonzero(r[done:] > limit[done:])
        if rejected.size == 0:
            break
        k = int(rejected[0])
        done += k
        used += k + 1
    js = (r % m).astype(np.int64)
    at = np.arange(draws, dtype=np.int64)
    js += at
    by = np.argsort(js, kind="stable")  # draws by (j, draw index)
    sj = js[by]
    same = sj[1:] == sj[:-1]
    prev = np.full(draws, -1, dtype=np.int64)  # latest earlier writer at j_i
    prev[by[1:][same]] = by[:-1][same]
    # root[i]: the last writer at position i, or i if none; it precedes i
    # or is i swapping with itself, a value that no draw reads
    last = np.searchsorted(sj, at, side="right") - 1
    root = np.where(sj[last] == at, by[last], at)
    hop = root[root]
    while not np.array_equal(hop, root):
        root, hop = hop, hop[hop]
    rows = np.zeros(count, dtype=np.int64)
    rows[1:] = np.where(prev < 0, js, root[prev]) + 1
    return rows


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def measure(image: np.ndarray, spec: SensingSpec) -> np.ndarray:
    """Apply the 0/1 aperture patterns to an image: z = A x."""
    x = np.asarray(image, dtype=np.float64).ravel()
    if x.size != spec.pixel_count:
        raise ValueError(
            f"image has {x.size} pixels but spec expects {spec.pixel_count}"
        )
    work = np.zeros(spec.order)
    work[: x.size] = x
    total = x.sum()
    z = fwht(work)[spec.rows]
    return np.multiply(np.add(z, total, out=z), 0.5, out=z)


def measure_adjoint(values: np.ndarray, spec: SensingSpec) -> np.ndarray:
    """Apply the transpose of the measurement map: x = A^T v (flattened)."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size != spec.count:
        raise ValueError(
            f"got {v.size} values but spec selects {spec.count} rows"
        )
    work = np.zeros(spec.order)
    work[spec.rows] = v
    total = v.sum()
    out = fwht(work)[: spec.pixel_count]
    return np.multiply(np.add(out, total, out=out), 0.5, out=out)


def add_noise(z: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Add iid Gaussian noise with std sigma * mean(|z|), per-seed exact."""
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"noise level must be finite and >= 0, got {sigma}")
    z = np.asarray(z, dtype=np.float64)
    if sigma == 0.0:
        return z.copy()
    with np.errstate(over="ignore"):
        z = z + sigma * np.mean(np.abs(z)) * normal_stream(seed, z.size)
    if not np.isfinite(z).all():
        raise ValueError(f"noise level {sigma} overflows the measurements")
    return z


@dataclass
class MeasurementSet:
    """Per-sensor measurement vectors acquired with one shared row set."""

    spec: SensingSpec
    values: list = field(default_factory=list)  # one float64 vector per sensor
    width: int = 0
    height: int = 0
    rate: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        self.values = [np.asarray(v, dtype=np.float64) for v in self.values]
        self.rate = float(self.rate)
        self.noise_sigma = float(self.noise_sigma)
        if not self.values:
            raise ValueError("measurement set needs at least one sensor")
        for v in self.values:
            if v.shape != (self.spec.count,):
                raise ValueError("each sensor vector must match the row count")
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be >= 1")
        if self.width * self.height != self.spec.pixel_count:
            raise ValueError("width*height must equal spec.pixel_count")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must lie in (0, 1]")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and >= 0")

    @property
    def sensor_count(self) -> int:
        return len(self.values)


def acquire(views, rate: float, seed: int, noise_sigma: float = 0.0) -> MeasurementSet:
    """Measure equal-shape view images through one shared row selection.

    Rows are select_rows(order, rate, seed) at the smallest order covering
    a view; with noise_sigma > 0, sensor k (1-based) gets
    add_noise(z_k, noise_sigma, seed + k).
    """
    height, width = views[0].shape
    if any(v.shape != (height, width) for v in views):
        raise ValueError("all views must have identical dimensions")
    pixels = width * height
    order = order_for_pixels(pixels)
    spec = SensingSpec(order=order, rows=select_rows(order, rate, seed),
                       seed=seed, pixel_count=pixels)
    values = []
    for k, view in enumerate(views, start=1):
        z = measure(view, spec)
        if noise_sigma > 0.0:
            z = add_noise(z, noise_sigma, seed + k)
        values.append(z)
    return MeasurementSet(spec=spec, values=values, width=width, height=height,
                          rate=rate, noise_sigma=noise_sigma)


# ---------------------------------------------------------------------------
# MVM1 container
# ---------------------------------------------------------------------------

_MVM_MAGIC = "MVM1"
_MVM_INT_KEYS = ("order", "rows", "sensors", "width", "height", "seed")
_MVM_FLOAT_KEYS = ("rate", "noise_sigma")


def write_mvm(path, ms: MeasurementSet) -> None:
    """Serialize a measurement set: text header, then row indices as
    little-endian u32 and per-sensor values as little-endian f64.  A row
    index u32 cannot hold (order above 2**32) raises ValueError before the
    file is opened."""
    if ms.spec.rows.max() >= 1 << 32:
        raise ValueError(
            f"row {ms.spec.rows.max()} exceeds the u32 row indices of MVM1")
    header = (
        f"{_MVM_MAGIC}\n"
        f"order={ms.spec.order}\n"
        f"rate={ms.rate!r}\n"
        f"seed={ms.spec.seed}\n"
        f"rows={ms.spec.count}\n"
        f"sensors={ms.sensor_count}\n"
        f"width={ms.width}\n"
        f"height={ms.height}\n"
        f"noise_sigma={ms.noise_sigma!r}\n"
        "\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(ms.spec.rows.astype("<u4").tobytes())
        for v in ms.values:
            fh.write(v.astype("<f8").tobytes())


def read_mvm(path) -> MeasurementSet:
    """Read a measurement set written by write_mvm."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n\n")
    if end < 0:
        raise ValueError("missing MVM1 header terminator")
    lines = data[:end].decode("ascii").split("\n")
    if lines[0] != _MVM_MAGIC:
        raise ValueError(f"not an MVM1 file (magic {lines[0]!r})")
    fields = {}
    for line in lines[1:]:
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed MVM1 header line {line!r}")
        fields[key] = value
    missing = [k for k in _MVM_INT_KEYS + _MVM_FLOAT_KEYS if k not in fields]
    if missing:
        raise ValueError(f"MVM1 header lacks {', '.join(missing)}")
    try:
        ints = {k: int(fields[k]) for k in _MVM_INT_KEYS}
        floats = {k: float(fields[k]) for k in _MVM_FLOAT_KEYS}
    except ValueError as exc:
        raise ValueError(f"non-numeric MVM1 header value ({exc})") from None
    count, sensors = ints["rows"], ints["sensors"]
    width, height = ints["width"], ints["height"]
    if min(count, sensors, width, height) < 1:
        raise ValueError("MVM1 rows, sensors, width and height must be positive")
    pos = end + 2
    size = count * (4 + 8 * sensors)
    if len(data) - pos < size:
        raise ValueError("MVM1 payload truncated")
    if len(data) - pos > size:
        raise ValueError(f"MVM1 file has {len(data) - pos - size} bytes after the payload")
    rows = np.frombuffer(data, dtype="<u4", count=count, offset=pos).astype(np.int64)
    pos += 4 * count
    values = []
    for _ in range(sensors):
        values.append(np.frombuffer(data, dtype="<f8", count=count, offset=pos).copy())
        pos += 8 * count
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError("MVM1 measurement values must be finite")
    spec = SensingSpec(order=ints["order"], rows=rows, seed=ints["seed"],
                       pixel_count=width * height)
    return MeasurementSet(spec=spec, values=values, width=width, height=height,
                          **floats)
