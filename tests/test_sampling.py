import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umtk import rng, triplets
from umtk.consensus import DEFAULT_TIE_TOLERANCE, _matched_rows, _pair_nodes
from umtk.hierarchy import cophenetic, linkage
from umtk.matrices import DissimilarityMatrix
from umtk.triplets import (
    DEFAULT_CHUNK,
    iter_scan,
    sample_triplets,
    sort3,
    triplet_count,
    triplet_windows,
)
from umtk.ultrametricity import _angles_from_sides, _classify_angles

from .oracles import (
    classify_angles_argsort,
    iter_triplet_chunks_buffered,
    signature_arrays_argsort,
    sorted_pair_values,
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
def test_chunks_cover_combinations_in_order(monkeypatch, n, chunk):
    monkeypatch.setattr(triplets, "DEFAULT_CHUNK", chunk)
    expected = list(itertools.combinations(range(n), 3))
    got = []
    for ii, jj, kk in iter_scan(n, lambda *triples: triples):
        assert ii.shape[0] <= chunk
        got.extend(zip(ii.tolist(), jj.tolist(), kk.tolist()))
    assert got == expected


def test_chunks_empty_for_tiny_n():
    calls = []
    for n in (0, 1, 2):
        assert list(iter_scan(n, lambda *triples: calls.append(triples))) == []
        assert triplet_windows(n)[0] == 0
    assert calls == []


def _assert_same_int64(got, want):
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and w.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), data=st.data())
def test_windows_match_the_buffered_generator(n, data):
    count, window = triplet_windows(n)
    assert count == triplet_count(n)
    chunk = data.draw(
        st.one_of(
            st.just(1),
            st.sampled_from([2, 3, 7, 13, 101, 997, 4099]),
            st.integers(count + 1, 2 * count + 2),
        ),
        label="chunk",
    )
    got = [window(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    want = list(iter_triplet_chunks_buffered(n, chunk))
    assert [c[0].size for c in got] == [c[0].size for c in want]
    assert {a.dtype for c in got + want for a in c} <= {np.dtype(np.int64)}
    if count == 0:
        assert got == want == []
        return
    np.testing.assert_array_equal(_stacked(got), _stacked(want))
    full = _stacked(iter_triplet_chunks_buffered(n))
    for _ in range(5):
        lo = data.draw(st.integers(0, count - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, count), label="hi")
        _assert_same_int64(window(lo, hi), tuple(full[:, lo:hi]))


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
    # ceil(C(n, 3) / DEFAULT_CHUNK) windows, every one full but the last
    n = 110
    got = list(iter_scan(n, lambda ii, jj, kk: (ii, jj, kk)))
    windows = -(-triplet_count(n) // DEFAULT_CHUNK)
    assert windows >= 2 and len(got) == windows
    assert [c[0].size for c in got[:-1]] == [DEFAULT_CHUNK] * (windows - 1)
    assert 0 < got[-1][0].size <= DEFAULT_CHUNK
    np.testing.assert_array_equal(_stacked(got), _stacked(iter_triplet_chunks_buffered(n)))


def test_exhaustive_scan_reads_default_chunk_at_call_time(monkeypatch):
    # C(8, 3) = 56 triples in chunks of the patched size, in the same order
    monkeypatch.setattr(triplets, "DEFAULT_CHUNK", 7)
    got = list(iter_scan(8, lambda ii, jj, kk: (ii, jj, kk)))
    assert [c[0].size for c in got] == [7] * 8
    np.testing.assert_array_equal(_stacked(got), _stacked(iter_triplet_chunks_buffered(8, 56)))


def test_scan_sampled_is_seeded_draws_in_order():
    sample = DEFAULT_CHUNK + 1234
    got = list(iter_scan(30, lambda ii, jj, kk: (ii, jj, kk), sample=sample, seed=9))
    assert [c[0].size for c in got] == [DEFAULT_CHUNK, 1234]
    np.testing.assert_array_equal(
        _stacked(got), np.stack(sample_triplets(30, sample, seed=9))
    )


@pytest.mark.parametrize("sample, seed, match", [(0, 1, "positive"), (5, None, "seed")])
def test_scan_rejects_bad_sampling_before_any_kernel_call(sample, seed, match):
    calls = []
    with pytest.raises(ValueError, match=match):  # checked on the call, before iteration
        iter_scan(10, lambda *chunk: calls.append(chunk), sample=sample, seed=seed)
    assert calls == []


@pytest.mark.parametrize("n, sample, match", [
    (2, 5, "at least 3"),
    (0, 1, "at least 3"),
])
def test_iter_scan_checks_every_argument_before_building_a_window(monkeypatch, n, sample, match):
    built = []
    monkeypatch.setattr(triplets, "sample_triplets", lambda *a, **k: built.append(a))
    monkeypatch.setattr(triplets, "triplet_windows", lambda *a: built.append(a))
    with pytest.raises(ValueError, match=match):
        iter_scan(n, lambda *chunk: chunk, sample=sample, seed=1)
    assert built == []


def _tie_heavy(gen: np.random.Generator, kind: str, shape: tuple[int, ...]) -> np.ndarray:
    """Values of one kind, drawn so that exact and near ties are common."""
    if kind == "integers":
        return gen.integers(0, 4, size=shape).astype(float)
    if kind == "two-values":
        return gen.choice([1.5, 2.5], size=shape)
    if kind == "near-ties":
        # relative offsets of 0 or 4e-10 lie inside DEFAULT_TIE_TOLERANCE, 3e-9 outside
        offsets = gen.choice([0.0, 4e-10, -4e-10, 3e-9], size=shape)
        return gen.choice([1.0, 2.0], size=shape) * (1.0 + offsets)
    if kind == "signed-zeros":
        return gen.choice([-0.0, 0.0, 1.0], size=shape)
    # duplicate points on a small integer grid: zero sides and exact isosceles ties
    n = shape[-1]
    pts = gen.integers(0, 3, size=(n, 2)).astype(float)
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    """Equal values and equal sign bits (so -0.0 and 0.0 differ)."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["integers", "two-values", "near-ties", "signed-zeros", "duplicates"]),
    n=st.integers(3, 40),
)
def test_sort3_kernels_match_the_sort_oracles(seed, kind, n):
    gen = np.random.default_rng(seed)
    values = _tie_heavy(gen, kind, (n, n))
    # n = 40 gives 9880 triplets, well past numpy's SIMD block sizes
    ii, jj, kk = _stacked(iter_scan(n, lambda *triples: triples))
    pairs = values[ii, jj], values[ii, kk], values[jj, kk]
    for got, want in zip(sort3(*pairs), sorted_pair_values(values, ii, jj, kk)):
        _assert_same(got, want)
    stacked = np.stack(pairs)
    stable = np.take_along_axis(stacked, np.argsort(stacked, axis=0, kind="stable"), axis=0)
    for got, want in zip(sort3(*pairs), stable):
        _assert_same(got, want)

    # the node-id kernel on two trees of the tied values, against their cophenetic floats
    upper = np.abs(np.triu(values, 1))
    trees = [linkage(DissimilarityMatrix(upper + upper.T), crit) for crit in ("single", "complete")]
    sides = [_pair_nodes(h, DEFAULT_TIE_TOLERANCE) for h in trees]
    (iso1, _, apex1), (iso2, _, apex2) = (
        signature_arrays_argsort(cophenetic(h).values, ii, jj, kk, DEFAULT_TIE_TOLERANCE)
        for h in trees
    )
    matched = iso1 & iso2 & (apex1 == apex2)
    rows = _matched_rows(sides, ii, jj, kk)
    assert rows.dtype == np.int64
    np.testing.assert_array_equal(rows[:, :3], np.column_stack([ii, jj, kk])[matched])
    np.testing.assert_array_equal(rows[:, 5], apex1[matched])
    # the base is the other two ids, in ascending order
    np.testing.assert_array_equal(np.sort(rows[:, 3:], axis=1), rows[:, :3])
    assert (rows[:, 3] < rows[:, 4]).all()

    epsilon = 0.5
    verts = (ii, jj, kk)
    # the duplicates kind draws a matrix, so its pair values stand in for angles
    angles = pairs if kind == "duplicates" else tuple(_tie_heavy(gen, kind, (3, ii.size)))
    got = _classify_angles(angles, verts, epsilon)
    want = classify_angles_argsort(np.stack(angles), np.stack(verts), epsilon)
    for g, w in zip(got, want):
        _assert_same(g, w)

    # angles of real triangles: NaN angles of degenerate ones may differ under the mask
    *tri_angles, mask = _angles_from_sides(values[jj, kk], values[ii, kk], values[ii, jj])
    apex, diff, ultra = _classify_angles(tri_angles, verts, epsilon)
    w_apex, w_diff, w_ultra = classify_angles_argsort(
        np.stack(tri_angles), np.stack(verts), epsilon
    )
    assert np.array_equal(ultra & ~mask, w_ultra & ~mask)
    _assert_same(apex[~mask], w_apex[~mask])
    _assert_same(diff[~mask], w_diff[~mask])


def test_iter_scan_yields_each_window_as_the_caller_pulls(monkeypatch):
    monkeypatch.setattr(triplets, "DEFAULT_CHUNK", 7)
    ran = []
    results = iter_scan(8, lambda ii, jj, kk: ran.append(ii.size) or ii.size)
    assert ran == []
    assert next(results) == 7
    assert ran == [7]  # no window is built ahead of the caller
    assert list(results) == [7] * 7 and ran == [7] * 8
