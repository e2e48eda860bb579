"""Enumeration and seeded sampling of index triples {i, j, k}, i < j < k.

Exhaustive scans over all n-choose-3 triples are produced in ascending
(i, j, k) order as flat index arrays, chunked so that downstream geometry
can stay vectorized without ever materializing the full enumeration for
large n. Sampling is counter-based: draw t depends only on (seed, t), so
a sampled scan is reproducible no matter how it is split across workers.

scan is the one driver for triplet scans: it picks the chunk source
(exhaustive or sampled), applies a per-chunk kernel, and optionally
spreads the chunks over threads. Kernels return integer or
elementwise-independent results, so serial and threaded scans agree
exactly.

sort3 orders the three values of every triplet (pair values, angles,
or a draw's ids), and first_smallest reads the apex off the smallest.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, TypeVar

import numpy as np

from . import rng

DEFAULT_CHUNK = 200_000

_MAX_REJECTION_ROUNDS = 10_000

T = TypeVar("T")


def triplet_count(n: int) -> int:
    """Number of unordered triples over n items: n(n-1)(n-2)/6."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n * (n - 1) * (n - 2) // 6


def iter_triplet_chunks(
    n: int, chunk_size: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (ii, jj, kk) index arrays covering all triples i < j < k.

    Concatenating the chunks gives the full enumeration in ascending
    lexicographic order. Each chunk holds at most chunk_size triples
    (None: DEFAULT_CHUNK as it is at call time).
    """
    chunk_size = DEFAULT_CHUNK if chunk_size is None else chunk_size
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    buf_i: list[np.ndarray] = []
    buf_j: list[np.ndarray] = []
    buf_k: list[np.ndarray] = []
    buffered = 0
    for i in range(n - 2):
        # all pairs i < j < k for this i
        jj, kk = np.triu_indices(n - i - 1, k=1)
        jj = jj + i + 1
        kk = kk + i + 1
        buf_i.append(np.full(jj.shape[0], i, dtype=np.int64))
        buf_j.append(jj.astype(np.int64))
        buf_k.append(kk.astype(np.int64))
        buffered += jj.shape[0]
        if buffered >= chunk_size:
            ii = np.concatenate(buf_i)
            jj_all = np.concatenate(buf_j)
            kk_all = np.concatenate(buf_k)
            for lo in range(0, buffered - chunk_size + 1, chunk_size):
                yield (
                    ii[lo : lo + chunk_size],
                    jj_all[lo : lo + chunk_size],
                    kk_all[lo : lo + chunk_size],
                )
            rem = buffered % chunk_size
            if rem:
                buf_i = [ii[-rem:]]
                buf_j = [jj_all[-rem:]]
                buf_k = [kk_all[-rem:]]
            else:
                buf_i, buf_j, buf_k = [], [], []
            buffered = rem
    if buffered:
        yield np.concatenate(buf_i), np.concatenate(buf_j), np.concatenate(buf_k)


def sample_triplets(
    n: int, count: int, seed: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw `count` distinct-index triples uniformly, with replacement.

    Draw number t (counting from `start`) is a pure function of
    (seed, t): each draw gets its own substream and rejects any attempt
    whose three indices are not pairwise distinct. Returned triples are
    sorted ascending within each draw.
    """
    if n < 3:
        raise ValueError("need at least 3 items to form a triplet")
    if count < 0:
        raise ValueError("count must be nonnegative")
    sub_seeds = rng.stream(seed, start, count)
    out = np.empty((3, count), dtype=np.int64)
    pending = np.arange(count)
    for attempt in range(_MAX_REJECTION_ROUNDS):
        if pending.size == 0:
            break
        seeds = sub_seeds[pending]
        cols = []
        for m in range(3):
            with np.errstate(over="ignore"):
                states = seeds + np.uint64(((3 * attempt + m + 1) * rng._GAMMA) & rng._MASK)
            vals = rng.uniform01(rng._mix64_array(states))
            cols.append(np.minimum((vals * n).astype(np.int64), n - 1))
        i, j, k = cols
        ok = (i != j) & (j != k) & (i != k)
        sel = pending[ok]
        out[0, sel] = i[ok]
        out[1, sel] = j[ok]
        out[2, sel] = k[ok]
        pending = pending[~ok]
    else:
        raise RuntimeError("triplet sampling failed to converge")
    return sort3(*out)


def scan(
    n: int,
    kernel: Callable[[np.ndarray, np.ndarray, np.ndarray], T],
    sample: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> list[T]:
    """Apply kernel(ii, jj, kk) to every chunk of a triplet scan.

    With sample None the chunks are the exhaustive iter_triplet_chunks
    enumeration; otherwise they are consecutive DEFAULT_CHUNK windows of
    the seeded draws sample_triplets(n, sample, seed). workers > 1 maps
    the kernel over a thread pool. Results come back in chunk order.
    """
    if sample is None:
        chunks = iter_triplet_chunks(n)
    else:
        if sample < 1:
            raise ValueError("sample count must be positive")
        if seed is None:
            raise ValueError("sampled scans require a seed")
        chunks = (
            sample_triplets(n, min(DEFAULT_CHUNK, sample - start), seed, start=start)
            for start in range(0, sample, DEFAULT_CHUNK)
        )
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda chunk: kernel(*chunk), chunks))
    return [kernel(ii, jj, kk) for ii, jj, kk in chunks]


def sort3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Elementwise (lo, mid, hi) of three arrays, equal values in input order.

    Three neighbour compare-exchanges, (a, b), (b, c), (a, b), each written
    np.minimum(y, x), np.maximum(x, y): numpy returns the second operand
    on ties, so equal values (-0.0 beside 0.0 included) are never swapped
    and the result is a stable sort's, bit for bit. NaN propagates.
    """
    lo, hi = np.minimum(b, a), np.maximum(a, b)
    mid, hi = np.minimum(c, hi), np.maximum(hi, c)
    lo, mid = np.minimum(mid, lo), np.maximum(lo, mid)
    return lo, mid, hi


def first_smallest(lo: np.ndarray, values: tuple, ids: tuple) -> np.ndarray:
    """The apex rule: ids entry of the first of the three values equal to lo.

    Signatures pass the pair values (ij, ik, jk) with the opposite vertices
    (k, j, i); verdicts pass the angles at ascending vertex ids, so the
    lowest id among the smallest angles is the apex.
    """
    return np.where(values[0] == lo, ids[0], np.where(values[1] == lo, ids[1], ids[2]))
