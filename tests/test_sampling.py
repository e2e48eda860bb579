import itertools

import numpy as np
import pytest

from umtk import rng, triplets
from umtk.triplets import (
    DEFAULT_CHUNK,
    iter_triplet_chunks,
    sample_triplets,
    scan,
    triplet_count,
)

MASK = (1 << 64) - 1


def reference_splitmix(seed: int, count: int) -> list[int]:
    """Scalar reference generator: advance state by the golden gamma, mix."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4B7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_stream_matches_scalar_reference():
    for seed in (0, 1, 42, 2**63 + 5, MASK):
        expected = reference_splitmix(seed, 20)
        got = rng.stream(seed, 0, 20)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == expected


def test_stream_is_position_addressable():
    seed = 987654321
    full = rng.stream(seed, 0, 50)
    np.testing.assert_array_equal(full[10:35], rng.stream(seed, 10, 25))
    for pos in (0, 7, 49):
        assert rng.value_at(seed, pos) == int(full[pos])


def test_stream_rejects_negative_count():
    with pytest.raises(ValueError):
        rng.stream(0, 0, -1)


def test_uniform01_range_and_extremes():
    vals = rng.uniform01(rng.stream(3, 0, 1000))
    assert np.all(vals >= 0.0)
    assert np.all(vals < 1.0)
    assert rng.uniform01(np.array([0], dtype=np.uint64))[0] == 0.0
    top = rng.uniform01(np.array([MASK], dtype=np.uint64))[0]
    assert top == (2**53 - 1) / 2**53


def test_triplet_count_values():
    assert [triplet_count(n) for n in (0, 1, 2, 3, 4, 5)] == [0, 0, 0, 1, 4, 10]
    assert triplet_count(30) == 4060
    with pytest.raises(ValueError):
        triplet_count(-1)


@pytest.mark.parametrize("n", [3, 4, 7, 12])
@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_chunks_cover_combinations_in_order(n, chunk):
    expected = list(itertools.combinations(range(n), 3))
    got = []
    for ii, jj, kk in iter_triplet_chunks(n, chunk_size=chunk):
        assert ii.shape[0] <= chunk
        got.extend(zip(ii.tolist(), jj.tolist(), kk.tolist()))
    assert got == expected


def test_chunks_empty_for_tiny_n():
    assert list(iter_triplet_chunks(2)) == []
    with pytest.raises(ValueError):
        list(iter_triplet_chunks(5, chunk_size=0))


def test_sample_triplets_deterministic_and_splittable():
    a = sample_triplets(40, 100, seed=7)
    b = sample_triplets(40, 100, seed=7)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)

    # draws are independent of how the scan is windowed
    tail = sample_triplets(40, 60, seed=7, start=40)
    for full_col, tail_col in zip(a, tail):
        np.testing.assert_array_equal(full_col[40:], tail_col)

    other = sample_triplets(40, 100, seed=8)
    assert any(
        not np.array_equal(x, y) for x, y in zip(a, other)
    )


def test_sample_triplets_are_valid():
    ii, jj, kk = sample_triplets(9, 500, seed=11)
    assert np.all((0 <= ii) & (ii < jj) & (jj < kk) & (kk < 9))


def test_sample_triplets_minimal_space():
    ii, jj, kk = sample_triplets(3, 20, seed=5)
    assert np.all(ii == 0) and np.all(jj == 1) and np.all(kk == 2)


def test_sample_triplets_edge_arguments():
    ii, jj, kk = sample_triplets(10, 0, seed=1)
    assert ii.size == jj.size == kk.size == 0
    with pytest.raises(ValueError):
        sample_triplets(2, 5, seed=1)
    with pytest.raises(ValueError):
        sample_triplets(10, -1, seed=1)


def test_sample_triplets_roughly_uniform():
    # n = 5 has 10 triples; 5000 draws put ~500 on each
    ii, jj, kk = sample_triplets(5, 5000, seed=123)
    counts = {}
    for t in zip(ii.tolist(), jj.tolist(), kk.tolist()):
        counts[t] = counts.get(t, 0) + 1
    assert len(counts) == 10
    assert min(counts.values()) > 350
    assert max(counts.values()) < 650


def _stacked(chunks):
    return np.concatenate([np.stack(c) for c in chunks], axis=1)


def test_scan_exhaustive_is_chunk_enumeration_in_order():
    # n = 110 gives two chunks of DEFAULT_CHUNK or fewer
    n = 110
    got = scan(n, lambda ii, jj, kk: (ii, jj, kk))
    assert len(got) == 2 and got[0][0].size == DEFAULT_CHUNK
    np.testing.assert_array_equal(_stacked(got), _stacked(iter_triplet_chunks(n)))


def test_exhaustive_scan_reads_default_chunk_at_call_time(monkeypatch):
    # C(8, 3) = 56 triples in chunks of the patched size, in the same order
    monkeypatch.setattr(triplets, "DEFAULT_CHUNK", 7)
    got = scan(8, lambda ii, jj, kk: (ii, jj, kk))
    assert [c[0].size for c in got] == [7] * 8
    np.testing.assert_array_equal(_stacked(got), _stacked(iter_triplet_chunks(8, 56)))


def test_scan_sampled_is_seeded_draws_in_order():
    sample = DEFAULT_CHUNK + 1234
    got = scan(30, lambda ii, jj, kk: (ii, jj, kk), sample=sample, seed=9)
    assert [c[0].size for c in got] == [DEFAULT_CHUNK, 1234]
    np.testing.assert_array_equal(
        _stacked(got), np.stack(sample_triplets(30, sample, seed=9))
    )


@pytest.mark.parametrize("sample, seed", [(None, None), (DEFAULT_CHUNK * 2 + 5, 4)])
def test_scan_threaded_equals_serial(sample, seed):
    def kernel(ii, jj, kk):
        return int(ii.sum()), int((jj * kk).sum()), ii.size

    serial = scan(110, kernel, sample, seed, workers=1)
    assert len(serial) >= 2
    assert scan(110, kernel, sample, seed, workers=4) == serial


@pytest.mark.parametrize("sample, seed, match", [(0, 1, "positive"), (5, None, "seed")])
def test_scan_rejects_bad_sampling_before_any_kernel_call(sample, seed, match):
    calls = []
    with pytest.raises(ValueError, match=match):
        scan(10, lambda *chunk: calls.append(chunk), sample=sample, seed=seed)
    assert calls == []
