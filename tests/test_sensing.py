"""Hadamard sensing: transform, row selection, measurement and MVM1 files."""

import math
import tracemalloc

import numpy as np
import pytest

from mvlci import sensing
from mvlci.geometry import apply_shift, build_region_masks, build_shift
from mvlci.rng import GAMMA, MASK64, SplitMix64, u64_stream
from mvlci.scene import make_test_scene
from mvlci.sensing import (
    Aperture,
    MeasurementSet,
    SensingSpec,
    acquire,
    add_noise,
    fwht,
    measure,
    measure_adjoint,
    order_for_pixels,
    read_mvm,
    select_rows,
    write_mvm,
)
from mvlci.solver import SolverConfig, reconstruct_joint


def dense_hadamard(n):
    """Sylvester construction, the slow reference for fwht."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def dense_aperture(spec):
    """The 0/1 pattern matrix A = (H + 1) / 2 restricted to the selected
    rows and the leading pixel_count columns."""
    h = dense_hadamard(spec.order)
    return (h[spec.rows, : spec.pixel_count] + 1.0) / 2.0


def make_spec(order, rate, seed, pixel_count=None):
    rows = select_rows(order, rate, seed)
    return SensingSpec(order=order, rows=rows, seed=seed,
                       pixel_count=pixel_count or order)


# ---------------------------------------------------------------------------
# fast Walsh-Hadamard transform
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 64])
def test_fwht_matches_dense_hadamard(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    expected = dense_hadamard(n) @ x
    assert np.allclose(fwht(x.copy()), expected, atol=1e-10)


@pytest.mark.parametrize("n", [1, 4, 32, 256])
def test_fwht_applied_twice_scales_by_length(n):
    rng = np.random.default_rng(n + 1)
    x = rng.standard_normal(n)
    assert np.allclose(fwht(fwht(x.copy())), n * x, atol=1e-9)


@pytest.mark.parametrize("n", [0, 3, 6, 100])
def test_fwht_rejects_bad_lengths(n):
    with pytest.raises(ValueError):
        fwht(np.zeros(n))


def butterfly_fwht(x):
    """The natural-order in-place butterfly: the reference fwht must match
    bit for bit."""
    n = x.shape[0]
    h = 1
    while h < n:
        y = x.reshape(-1, 2 * h)
        a = y[:, :h]
        b = y[:, h:]
        t = a - b
        a += b
        b[...] = t
        h *= 2
    return x


@pytest.mark.parametrize("log2n", range(19))
def test_fwht_is_bit_identical_to_the_butterfly(log2n):
    # odd log2n (e.g. 8192, 131072) ends in the half-length buffer and takes
    # the copy-back path; the second input is all exact +0.0 and -0.0, so
    # every sum and difference is a zero whose sign the bit patterns keep
    n = 1 << log2n
    rng = np.random.default_rng(log2n)
    spread = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    zeros = rng.choice([0.0, -0.0], n)
    for x in (spread, zeros):
        expected = butterfly_fwht(x.copy())
        out = fwht(x)
        assert out is x
        assert np.array_equal(x.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("x, expected", [
    ([3.5], [3.5]),
    ([-0.0], [-0.0]),
    ([3.0, -0.5], [2.5, 3.5]),
    ([-0.0, -0.0], [-0.0, 0.0]),
    ([1.0, 2.0, 3.0, 4.0], [10.0, -2.0, -4.0, 0.0]),
    ([-0.0, -0.0, -0.0, -0.0], [-0.0, 0.0, 0.0, 0.0]),
])
def test_fwht_smallest_orders(x, expected):
    """n = 1 has no stage, n = 2 only the pair-packing stage 0, n = 4 one
    complex stage; each result is exact, signed zeros included."""
    x = np.array(x)
    assert fwht(x) is x
    assert np.array_equal(x.view(np.int64), np.array(expected).view(np.int64))


@pytest.mark.parametrize("view", [np.s_[::2], np.s_[1::2], np.s_[::-1]])
def test_fwht_transforms_a_strided_view_in_place(view):
    rng = np.random.default_rng(5)
    base = rng.standard_normal(2 * 256)
    before = base.copy()
    x = base[view][:256]
    expected = butterfly_fwht(x.copy())
    assert fwht(x) is x
    assert np.array_equal(base[view][:256], expected)
    untouched = np.ones(base.size, dtype=bool)
    untouched[np.arange(base.size)[view][:256]] = False
    assert np.array_equal(base[untouched], before[untouched])


@pytest.mark.parametrize("x", [
    np.ones(8, dtype=np.float32),
    np.ones(8, dtype=np.int64),
    np.ones(8, dtype=np.complex128),
    np.ones(8, dtype=">f8"),
    np.ones((2, 4)),
])
def test_fwht_rejects_anything_but_1d_float64(x):
    before = x.copy()
    with pytest.raises(ValueError, match="float64"):
        fwht(x)
    assert np.array_equal(x, before)


@pytest.mark.parametrize("n", [1 << 12, 1 << 13, 1 << 16])
def test_fwht_allocates_one_order_length_buffer(n):
    """One call allocates at most the half-length complex128 buffer, 8 n
    bytes, as the real ping-pong buffer it replaced did."""
    x = np.random.default_rng(n).standard_normal(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fwht(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 4096


def aperture_stages(n):
    """The work line of an order-n Aperture and its fwht stages."""
    aperture = Aperture(SensingSpec(order=n, rows=[0], seed=0, pixel_count=n))
    return aperture.line, aperture.stages


@pytest.mark.parametrize("log2n", range(17))
def test_fwht_with_stages_is_bytewise_a_one_off_call(log2n):
    """One line and its stages, reused over fresh contents (spread values,
    all exact signed zeros, spread values again), give every call the bytes
    of a one-off fwht of the same contents."""
    n = 1 << log2n
    rng = np.random.default_rng(100 + log2n)
    line, stages = aperture_stages(n)
    for x in (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n),
              rng.choice([0.0, -0.0], n),
              rng.standard_normal(n)):
        line[...] = x
        assert fwht(line, stages) is line
        assert np.array_equal(line.view(np.int64), fwht(x.copy()).view(np.int64))


@pytest.mark.parametrize("n", [1 << 12, 1 << 13, 1 << 16])
def test_fwht_with_stages_allocates_no_buffer(n):
    """The stages hold the pair buffer and every view, so a call on their
    line allocates nothing order-sized."""
    line, stages = aperture_stages(n)
    line[...] = np.random.default_rng(n).standard_normal(n)
    fwht(line, stages)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fwht(line, stages)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1024


def test_fwht_stages_fit_only_their_line():
    line, stages = aperture_stages(16)
    for other in (np.zeros(16), line.copy(), line[:], line[::-1]):
        before = other.copy()
        with pytest.raises(ValueError, match="another array"):
            fwht(other, stages)
        assert np.array_equal(other, before)


@pytest.mark.parametrize("pixels", [64, 60])
def test_aperture_reused_over_both_directions_matches_one_off_calls(pixels):
    """An Aperture used for adjoints and forwards in turn gives the bytes
    of one-off measure / measure_adjoint calls; at 60 of 64 pixels the
    forward must zero the padding that each adjoint leaves behind."""
    spec = make_spec(64, 0.5, 3, pixel_count=pixels)
    aperture = Aperture(spec)
    rng = np.random.default_rng(pixels)
    for _ in range(3):
        v = rng.standard_normal(spec.count)
        x = rng.standard_normal(pixels)
        got = aperture.adjoint(v)
        assert got is aperture.image
        assert got.tobytes() == measure_adjoint(v, spec).tobytes()
        aperture.image[...] = x
        assert aperture.forward().tobytes() == measure(x, spec).tobytes()


@pytest.mark.parametrize("pixels", [64, 60])
def test_aperture_forward_into_out_is_the_new_vector_and_allocates_nothing(pixels):
    """forward(out) writes the bytes of forward() over a NaN-filled out
    and returns it; at order 65536 it allocates nothing (np.take with
    mode="raise" would stage the gather through a copy of out)."""
    spec = make_spec(64, 0.5, 3, pixel_count=pixels)
    aperture = Aperture(spec)
    x = np.random.default_rng(pixels).standard_normal(pixels)
    aperture.image[...] = x
    want = aperture.forward().tobytes()
    out = np.full(spec.count, np.nan)
    aperture.image[...] = x    # each call transforms the line in place
    assert aperture.forward(out) is out
    assert out.tobytes() == want
    big = Aperture(make_spec(1 << 16, 0.25, 5))
    out = np.empty(big.spec.count)
    big.forward(out)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        big.forward(out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1024


def test_joint_solve_is_bit_identical_with_the_butterfly(monkeypatch):
    """The stop rule turns a last-ulp change in the transform into a
    different stopping iteration, so a solve that crosses the penalty
    doubling at iteration 50 must not move at all.  Both solves count their
    sensing.fwht calls and their operator applications, one call each, so
    a transform that goes around sensing.fwht cannot pass unseen."""
    size = 64
    masks = build_region_masks(3.5, 0.0, size, size)
    shift = build_shift(3.5, 0.0, size, size)
    v1 = make_test_scene("blocks", size, size, 7).base
    v2 = apply_shift(shift, v1) + np.where(masks.disjoint[1], 0.6, 0.0)
    spec = make_spec(4096, 0.125, 42)
    z1, z2 = measure(v1, spec), measure(v2, spec)
    calls, applications = [], []
    for name in ("forward", "adjoint"):
        def counted_apply(self, *args, apply=getattr(Aperture, name)):
            applications[-1] += 1
            return apply(self, *args)

        monkeypatch.setattr(Aperture, name, counted_apply)

    def solve(transform):
        calls.append(0)
        applications.append(0)

        def counted(x, stages=None):
            calls[-1] += 1
            return transform(x, stages)

        monkeypatch.setattr(sensing, "fwht", counted)
        return reconstruct_joint(z1, z2, spec, size, size, shift, masks,
                                 SolverConfig(sigma=1.0))

    fast = solve(sensing.fwht)
    ref = solve(lambda x, stages: butterfly_fwht(x))
    assert calls == applications and calls[0] == calls[1] > 0
    assert fast.iterations == ref.iterations > 50
    assert fast.converged == ref.converged
    for name in ("common", "disjoint1", "disjoint2", "view1", "view2",
                 "objective_history", "residual_history"):
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), name


# ---------------------------------------------------------------------------
# row selection
# ---------------------------------------------------------------------------

def test_select_rows_count_and_invariants():
    rows = select_rows(4096, 0.125, 42)
    assert rows.shape == (512,)
    assert rows[0] == 0
    assert rows.min() >= 0 and rows.max() < 4096
    assert np.unique(rows).size == rows.size


def test_select_rows_is_deterministic_and_seed_sensitive():
    a = select_rows(1024, 0.3, 7)
    b = select_rows(1024, 0.3, 7)
    c = select_rows(1024, 0.3, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_select_rows_full_rate_is_a_permutation():
    rows = select_rows(256, 1.0, 3)
    assert rows[0] == 0
    assert np.array_equal(np.sort(rows), np.arange(256))


def test_select_rows_count_is_ceiling():
    # 0.3 * 64 = 19.2 -> 20 rows
    assert select_rows(64, 0.3, 0).shape == (20,)


def sequential_select_rows(order, count, stream):
    """The one-draw-at-a-time partial Fisher-Yates, the reference that
    select_rows must match.  `stream` is a SplitMix64 (or a stand-in with
    its below()); draw i is i + stream.below(order - 1 - i)."""
    rows = np.empty(count, dtype=np.int64)
    rows[0] = 0
    state = {}
    n = order - 1
    for i in range(count - 1):
        j = i + stream.below(n - i)
        vi = state.get(i, i + 1)
        rows[i + 1] = state.get(j, j + 1)
        state[j] = vi
    return rows


ORACLE_RATES = ("1/order", 0.05, 0.125, 0.25, 0.5, 1.0)


@pytest.mark.parametrize("seed", [0, 42, -1, -5, 2**63, 2**64 + 3])
@pytest.mark.parametrize("log2_order", range(19))
def test_select_rows_is_bit_identical_to_the_sequential_loop(log2_order, seed):
    order = 1 << log2_order
    # the loop's first k draws do not depend on how many follow, so one
    # full-rate run holds the reference for every rate as a prefix
    full = sequential_select_rows(order, order, SplitMix64(seed))
    for rate in ORACLE_RATES:
        rate = 1.0 / order if rate == "1/order" else rate
        rows = select_rows(order, rate, seed)
        count = math.ceil(rate * order)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, full[:count]), (order, rate, seed)


class InjectedStream:
    """The splitmix64 stream of `seed` with some positions overwritten.

    It serves the same values to both paths: sequentially through next_u64
    (and so SplitMix64.below) to the reference loop, and in blocks through
    u64_stream(seed + start*GAMMA, count) to select_rows, recording each
    block's start position."""

    _GAMMA_INV = pow(GAMMA, -1, 1 << 64)

    def __init__(self, seed, overrides):
        self.seed = seed
        self.overrides = overrides
        self.starts = []
        self.sequential = _Sequential(self)

    def block(self, start, count):
        out = u64_stream(self.seed + start * GAMMA, count)
        for pos, value in self.overrides.items():
            if start <= pos < start + count:
                out[pos - start] = value
        return out

    def u64_stream(self, seed, count):
        start = ((seed - self.seed) * self._GAMMA_INV) & MASK64
        self.starts.append(start)
        return self.block(start, count)


class _Sequential(SplitMix64):
    def __init__(self, stream):
        super().__init__(stream.seed)
        self.stream = stream
        self.position = 0

    def next_u64(self):
        value = int(self.stream.block(self.position, 1)[0])
        self.position += 1
        return value


@pytest.mark.parametrize("seed", [0, -5, 2**64 + 3])
def test_select_rows_rejection_advances_the_stream(monkeypatch, seed):
    # 2**64 mod 3 == 1, so below(3) rejects exactly r == MASK64
    stream = InjectedStream(seed, {0: MASK64})
    monkeypatch.setattr(sensing, "u64_stream", stream.u64_stream)
    rows = select_rows(4, 1.0, seed)
    assert np.array_equal(rows, sequential_select_rows(4, 4, stream.sequential))
    assert stream.sequential.position == 4  # three draws and one rejection
    assert stream.starts == [0, 1]
    monkeypatch.undo()
    # the draws are those of the stream one value on
    assert np.array_equal(rows, select_rows(4, 1.0, seed + GAMMA))


def test_select_rows_accepts_the_largest_unbiased_value(monkeypatch):
    stream = InjectedStream(7, {0: MASK64 - 1})
    monkeypatch.setattr(sensing, "u64_stream", stream.u64_stream)
    rows = select_rows(4, 1.0, 7)
    assert np.array_equal(rows, sequential_select_rows(4, 4, stream.sequential))
    assert stream.sequential.position == 3
    assert stream.starts == [0]
    # (MASK64 - 1) % 3 == 2: the first draw swaps in the last value
    assert rows[1] == 3


def test_select_rows_runs_of_rejections_mid_selection(monkeypatch):
    # draw 5 (m = 58, 2**64 mod 58 == 24) rejects MASK64 three times over;
    # draw 31 then reads position 34 and has m = 32, which divides 2**64,
    # so there MASK64 is accepted
    stream = InjectedStream(42, {5: MASK64, 6: MASK64, 7: MASK64, 34: MASK64})
    monkeypatch.setattr(sensing, "u64_stream", stream.u64_stream)
    rows = select_rows(64, 1.0, 42)
    assert np.array_equal(rows, sequential_select_rows(64, 64, stream.sequential))
    assert stream.sequential.position == 63 + 3
    assert stream.starts == [0, 6, 7, 8]


def adversarial_offsets(order, count, pattern):
    """Stream values that force draw i's offset below(m), m = order - 1 - i:
    all 0 (every draw swaps with itself), all 1 (each draw writes the next
    draw's position, one chain through every draw), m - 1 (every draw
    writes the last position), or a mix of the three with the stream's
    own values, which puts far-away and low positions in one sort."""
    values = {}
    for i in range(count - 1):
        m = order - 1 - i
        forced = {"self": 0, "chain": 1, "last": m - 1,
                  "mixed": (1, m - 1, None)[i % 3]}[pattern]
        if forced is not None:
            values[i] = forced
    return values


@pytest.mark.parametrize("pattern", ["self", "chain", "last", "mixed"])
@pytest.mark.parametrize("order,count", [(2, 2), (64, 64), (4096, 1024)])
def test_select_rows_walks_adversarial_offsets(monkeypatch, order, count, pattern):
    stream = InjectedStream(11, adversarial_offsets(order, count, pattern))
    monkeypatch.setattr(sensing, "u64_stream", stream.u64_stream)
    rows = select_rows(order, count / order, 11)
    assert np.array_equal(rows, sequential_select_rows(order, count, stream.sequential))


@pytest.mark.parametrize("pattern", [None, "chain", "mixed"])
@pytest.mark.parametrize("log2_order", [40, 60])
def test_select_rows_at_huge_orders_allocates_per_draw(monkeypatch, log2_order, pattern):
    """A thousand rows from an order of 2**40 or 2**60: the result equals
    the sequential loop's, and the peak traced allocation stays far below
    one order-sized array.  The mixed offsets put positions near 2**60 and
    below 1000 into one sort, where a sort key of j * draws + i overflows."""
    order, count = 1 << log2_order, 1000
    stream = InjectedStream(3, adversarial_offsets(order, count, pattern)
                            if pattern else {})
    monkeypatch.setattr(sensing, "u64_stream", stream.u64_stream)
    tracemalloc.start()
    try:
        rows = select_rows(order, count / order, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, sequential_select_rows(order, count, stream.sequential))
    assert peak < 1 << 20


class ForcedOffsets:
    """A stand-in stream whose draw i is exactly offsets[i]: below(m)
    returns the next offset, and u64_stream returns them all at once, each
    a value that below()'s rejection rule accepts."""

    def __init__(self, offsets):
        self.offsets = np.asarray(offsets, dtype=np.uint64)
        self.rest = iter(offsets.tolist())

    def below(self, m):
        value = next(self.rest)
        assert 0 <= value < m
        return value

    def u64_stream(self, seed, count):
        assert count == self.offsets.size  # one call: nothing is rejected
        return self.offsets.copy()


def test_select_rows_tie_heavy_offsets_at_order_65536(monkeypatch):
    """A quarter of order 65536 where almost every draw shares its j:
    draws i = 0 mod 3 go to the next multiple of 64 (positions later draws
    read, so chains of writers), draws i = 1 mod 3 to one of the top five
    positions (ties thousands deep), and the rest swap with themselves."""
    order, count = 65536, 16384
    i = np.arange(count - 1)
    offsets = np.select([i % 3 == 0, i % 3 == 1],
                        [-i % 64, order - 2 - i - i % 5], 0)
    js = i + offsets
    assert np.unique(js[i % 3 != 2]).size < 300
    stream = ForcedOffsets(offsets)
    monkeypatch.setattr(sensing, "u64_stream", stream.u64_stream)
    rows = select_rows(order, count / order, 0)
    assert np.array_equal(rows, sequential_select_rows(order, count, stream))


def test_select_rows_rejects_orders_beyond_int64():
    assert select_rows(1 << 63, 1.0 / (1 << 62), 0).max() < 1 << 63
    with pytest.raises(ValueError, match="2\\*\\*63"):
        select_rows(1 << 64, 1.0 / (1 << 62), 0)


@pytest.mark.parametrize("order,rate", [(63, 0.5), (0, 0.5), (64, 0.0),
                                        (64, 1.5), (64, -0.1)])
def test_select_rows_validates_arguments(order, rate):
    with pytest.raises(ValueError):
        select_rows(order, rate, 0)


def test_order_for_pixels():
    assert order_for_pixels(1) == 1
    assert order_for_pixels(2) == 2
    assert order_for_pixels(3) == 4
    assert order_for_pixels(64) == 64
    assert order_for_pixels(65) == 128
    assert order_for_pixels(4096) == 4096
    assert order_for_pixels(302 * 217) == 65536
    with pytest.raises(ValueError):
        order_for_pixels(0)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_order():
    with pytest.raises(ValueError, match="power of two"):
        SensingSpec(order=48, rows=[0], seed=0, pixel_count=4)


def test_spec_rejects_bad_pixel_count():
    with pytest.raises(ValueError, match="pixel_count"):
        SensingSpec(order=16, rows=[0], seed=0, pixel_count=17)


def test_spec_requires_all_ones_row_first():
    with pytest.raises(ValueError, match="rows\\[0\\]"):
        SensingSpec(order=16, rows=[1, 0], seed=0, pixel_count=16)


def test_spec_rejects_out_of_range_rows():
    with pytest.raises(ValueError, match="row indices"):
        SensingSpec(order=16, rows=[0, 16], seed=0, pixel_count=16)


def test_spec_rejects_duplicate_rows():
    with pytest.raises(ValueError, match="distinct"):
        SensingSpec(order=16, rows=[0, 5, 5], seed=0, pixel_count=16)


def test_spec_rejects_duplicate_rows_apart_and_unsorted():
    with pytest.raises(ValueError, match="distinct"):
        SensingSpec(order=16, rows=[0, 9, 3, 12, 9], seed=0, pixel_count=16)
    SensingSpec(order=16, rows=[0, 9, 3, 12, 15], seed=0, pixel_count=16)


# ---------------------------------------------------------------------------
# measurement operator vs dense oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order,pixels,rate,seed", [
    (8, 8, 1.0, 0),
    (16, 12, 0.5, 1),
    (64, 50, 0.25, 2),
    (256, 200, 0.125, 3),
])
def test_measure_matches_dense_aperture(order, pixels, rate, seed):
    spec = make_spec(order, rate, seed, pixel_count=pixels)
    a = dense_aperture(spec)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(pixels)
    assert np.allclose(measure(x, spec), a @ x, atol=1e-10)


@pytest.mark.parametrize("order,pixels,rate,seed", [
    (16, 12, 0.5, 1),
    (256, 200, 0.125, 3),
])
def test_adjoint_matches_dense_transpose(order, pixels, rate, seed):
    spec = make_spec(order, rate, seed, pixel_count=pixels)
    a = dense_aperture(spec)
    rng = np.random.default_rng(seed + 10)
    v = rng.standard_normal(spec.count)
    assert np.allclose(measure_adjoint(v, spec), a.T @ v, atol=1e-10)


def test_adjoint_identity_holds():
    spec = make_spec(128, 0.4, 9, pixel_count=100)
    rng = np.random.default_rng(17)
    x = rng.standard_normal(100)
    v = rng.standard_normal(spec.count)
    lhs = np.dot(measure(x, spec), v)
    rhs = np.dot(x, measure_adjoint(v, spec))
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_first_measurement_is_the_image_sum():
    spec = make_spec(64, 0.5, 4, pixel_count=60)
    rng = np.random.default_rng(4)
    x = rng.uniform(size=60)
    z = measure(x, spec)
    assert abs(z[0] - x.sum()) < 1e-10


def test_measure_accepts_2d_images():
    spec = make_spec(64, 0.5, 4, pixel_count=48)
    img = np.arange(48.0).reshape(6, 8) / 48.0
    assert np.allclose(measure(img, spec), measure(img.ravel(), spec))


def test_measure_validates_pixel_count():
    spec = make_spec(16, 0.5, 0, pixel_count=10)
    with pytest.raises(ValueError, match="pixels"):
        measure(np.zeros(11), spec)
    with pytest.raises(ValueError, match="values"):
        measure_adjoint(np.zeros(spec.count + 1), spec)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_add_noise_zero_sigma_is_an_exact_copy():
    z = np.linspace(-1.0, 3.0, 50)
    out = add_noise(z, 0.0, 5)
    assert np.array_equal(out, z)
    assert out is not z


def test_add_noise_is_deterministic_and_scaled():
    z = np.full(20000, 2.0)
    a = add_noise(z, 0.05, 11)
    b = add_noise(z, 0.05, 11)
    assert np.array_equal(a, b)
    # std of the added noise should be close to sigma * mean|z| = 0.1
    assert abs(np.std(a - z) - 0.1) < 0.005


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_add_noise_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="finite"):
        add_noise(np.ones(4), sigma, 0)


@pytest.mark.parametrize("sigma", [1e308, 1e200])
def test_add_noise_rejects_a_scale_that_overflows(sigma):
    """sigma * mean|z| overflows at 1e308; at 1e200 the scale is finite but
    the scaled draws overflow.  Either would hand non-finite measurements
    to write_mvm, which read_mvm refuses."""
    z = np.full(16, 1e120)
    with pytest.raises(ValueError, match="overflows"):
        add_noise(z, sigma, 0)


def test_add_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        add_noise(np.ones(4), -0.1, 0)


# ---------------------------------------------------------------------------
# acquisition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sensors", [1, 3])
@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_acquire_is_measure_then_add_noise_per_sensor(sensors, noise):
    views = [make_test_scene("blocks", 24, 16, 3 + k).base for k in range(sensors)]
    ms = acquire(views, 0.25, 17, noise)
    spec = make_spec(512, 0.25, 17, pixel_count=24 * 16)
    assert ms.spec.order == spec.order and ms.spec.seed == 17
    assert np.array_equal(ms.spec.rows, spec.rows)
    assert (ms.width, ms.height, ms.rate, ms.noise_sigma) == (24, 16, 0.25, noise)
    assert ms.sensor_count == sensors
    for k, (view, z) in enumerate(zip(views, ms.values), start=1):
        assert np.array_equal(z, add_noise(measure(view, spec), noise, 17 + k))


def test_acquire_rejects_views_of_different_shapes():
    with pytest.raises(ValueError, match="identical dimensions"):
        acquire([np.zeros((32, 64)), np.zeros((64, 32))], 0.25, 1)


def test_acquire_rejects_an_empty_view_list():
    with pytest.raises(ValueError, match="at least one view"):
        acquire([], 0.25, 1)


# ---------------------------------------------------------------------------
# measurement sets and the MVM1 container
# ---------------------------------------------------------------------------

def sample_measurement_set(sensors=2, noise_sigma=0.0):
    spec = make_spec(64, 0.25, 21, pixel_count=48)
    rng = np.random.default_rng(21)
    values = [measure(rng.uniform(size=48), spec) for _ in range(sensors)]
    return MeasurementSet(spec=spec, values=values, width=8, height=6,
                          rate=0.25, noise_sigma=noise_sigma)


def test_measurement_set_validation():
    spec = make_spec(64, 0.25, 21, pixel_count=48)
    good = np.zeros(spec.count)
    with pytest.raises(ValueError, match="at least one sensor"):
        MeasurementSet(spec=spec, values=[], width=8, height=6, rate=0.25)
    with pytest.raises(ValueError, match="row count"):
        MeasurementSet(spec=spec, values=[good[:-1]], width=8, height=6, rate=0.25)
    with pytest.raises(ValueError, match="pixel_count"):
        MeasurementSet(spec=spec, values=[good], width=8, height=8, rate=0.25)
    with pytest.raises(ValueError, match="rate"):
        MeasurementSet(spec=spec, values=[good], width=8, height=6, rate=0.0)
    with pytest.raises(ValueError, match="noise_sigma"):
        MeasurementSet(spec=spec, values=[good], width=8, height=6, rate=0.25,
                       noise_sigma=-1.0)


def test_measurement_set_rejects_non_positive_dimensions():
    """Negative dimensions whose product is pixel_count would otherwise
    reach write_mvm and give a file that read_mvm rejects."""
    spec = make_spec(64, 0.25, 21, pixel_count=16)
    good = np.zeros(spec.count)
    for width, height in ((-4, -4), (-2, -8), (-16, -1)):
        with pytest.raises(ValueError, match="width and height must be >= 1"):
            MeasurementSet(spec=spec, values=[good], width=width,
                           height=height, rate=0.25)


def test_mvm_round_trip_preserves_everything(tmp_path):
    ms = sample_measurement_set(sensors=2, noise_sigma=0.03)
    path = tmp_path / "m.mvm"
    write_mvm(path, ms)
    back = read_mvm(path)
    assert back.spec.order == ms.spec.order
    assert back.spec.seed == ms.spec.seed
    assert back.spec.pixel_count == ms.spec.pixel_count
    assert np.array_equal(back.spec.rows, ms.spec.rows)
    assert back.width == ms.width and back.height == ms.height
    assert back.rate == ms.rate and back.noise_sigma == ms.noise_sigma
    assert back.sensor_count == 2
    for u, v in zip(back.values, ms.values):
        assert np.array_equal(u, v)


@pytest.mark.parametrize("order", [2**33, 2**63])
def test_write_mvm_refuses_rows_beyond_u32(tmp_path, order):
    """Rows are stored as u32: row 2**32 + 5 would read back as 5, so the
    write is refused before any file exists."""
    spec = SensingSpec(order=order, rows=[0, 2**32 + 5], seed=0, pixel_count=4)
    ms = MeasurementSet(spec=spec, values=[np.ones(2)], width=2, height=2,
                        rate=2.0 / order)
    path = tmp_path / "big.mvm"
    with pytest.raises(ValueError, match="u32"):
        write_mvm(path, ms)
    assert not path.exists()


@pytest.mark.parametrize("order", [2**32, 2**33])
def test_write_mvm_keeps_the_largest_u32_row(tmp_path, order):
    spec = SensingSpec(order=order, rows=[0, 2**32 - 1], seed=0, pixel_count=4)
    ms = MeasurementSet(spec=spec, values=[np.ones(2)], width=2, height=2,
                        rate=2.0 / order)
    write_mvm(tmp_path / "m.mvm", ms)
    back = read_mvm(tmp_path / "m.mvm")
    assert back.spec.order == order
    assert np.array_equal(back.spec.rows, [0, 2**32 - 1])


def test_mvm_rewrite_is_byte_identical(tmp_path):
    ms = sample_measurement_set()
    p1, p2 = tmp_path / "a.mvm", tmp_path / "b.mvm"
    write_mvm(p1, ms)
    write_mvm(p2, read_mvm(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_mvm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.mvm"
    path.write_bytes(b"MVM9\norder=4\n\n")
    with pytest.raises(ValueError, match="magic"):
        read_mvm(path)


def test_mvm_rejects_missing_terminator(tmp_path):
    path = tmp_path / "bad.mvm"
    path.write_bytes(b"MVM1\norder=4\n")
    with pytest.raises(ValueError, match="terminator"):
        read_mvm(path)


def test_mvm_rejects_truncated_payload(tmp_path):
    ms = sample_measurement_set()
    path = tmp_path / "m.mvm"
    write_mvm(path, ms)
    clipped = path.read_bytes()[:-4]
    path.write_bytes(clipped)
    with pytest.raises(ValueError, match="truncated"):
        read_mvm(path)


@pytest.mark.parametrize("extra,message", [
    (b"width=8", "repeated MVM1 header key 'width'"),
    (b"bogus=1", "unknown MVM1 header key 'bogus'"),
    (b"width=8\nbogus=1", "repeated MVM1 header key 'width'"),
])
def test_mvm_rejects_repeated_and_unknown_header_keys(tmp_path, extra, message):
    ms = sample_measurement_set()
    path = tmp_path / "m.mvm"
    write_mvm(path, ms)
    header, _, payload = path.read_bytes().partition(b"\n\n")
    path.write_bytes(header + b"\n" + extra + b"\n\n" + payload)
    with pytest.raises(ValueError, match=message):
        read_mvm(path)


def test_mvm_rejects_malformed_header_line(tmp_path):
    path = tmp_path / "bad.mvm"
    path.write_bytes(b"MVM1\norder\n\n")
    with pytest.raises(ValueError, match="malformed"):
        read_mvm(path)
