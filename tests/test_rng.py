"""Determinism and sampling properties of the splitmix64 streams."""

import numpy as np
import pytest

from mvlci.rng import SplitMix64, normal_stream, u64_stream


# ---------------------------------------------------------------------------
# raw stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1,
                                  -1, -5, 2**64 + 3, -(2**70)])
def test_vectorized_stream_matches_sequential(seed):
    rng = SplitMix64(seed)
    sequential = [rng.next_u64() for _ in range(257)]
    vectorized = u64_stream(seed, 257)
    assert vectorized.dtype == np.uint64
    assert [int(v) for v in vectorized] == sequential


def test_stream_is_reproducible_and_seed_sensitive():
    a = u64_stream(1234, 100)
    b = u64_stream(1234, 100)
    c = u64_stream(1235, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_rejects_negative_count():
    with pytest.raises(ValueError):
        u64_stream(7, -1)


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def test_uniform_stays_in_unit_interval():
    rng = SplitMix64(99)
    draws = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    # crude coverage check: both halves hit
    assert any(d < 0.5 for d in draws) and any(d >= 0.5 for d in draws)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
def test_below_produces_full_range(n):
    rng = SplitMix64(5)
    draws = {rng.below(n) for _ in range(40 * n)}
    assert min(draws) >= 0 and max(draws) < n
    if n <= 17:
        assert len(draws) == n  # every residue appears


def test_below_rejects_nonpositive():
    rng = SplitMix64(0)
    with pytest.raises(ValueError):
        rng.below(0)


def test_integers_covers_half_open_interval():
    rng = SplitMix64(3)
    draws = {rng.integers(5, 9) for _ in range(200)}
    assert draws == {5, 6, 7, 8}


# ---------------------------------------------------------------------------
# normal stream
# ---------------------------------------------------------------------------

def test_normal_stream_moments_and_determinism():
    x = normal_stream(2024, 200_000)
    assert x.shape == (200_000,)
    assert abs(float(x.mean())) < 0.01
    assert abs(float(x.std()) - 1.0) < 0.01
    assert np.array_equal(x, normal_stream(2024, 200_000))


def test_normal_stream_odd_count_prefix_of_even():
    odd = normal_stream(11, 7)
    even = normal_stream(11, 8)
    assert odd.shape == (7,)
    assert np.array_equal(odd, even[:7])


def test_normal_stream_all_finite():
    assert np.all(np.isfinite(normal_stream(0, 10_001)))
