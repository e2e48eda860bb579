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
    out.sort(axis=0)
    return out[0], out[1], out[2]


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


def sorted_pair_values(
    values: np.ndarray, ii: np.ndarray, jj: np.ndarray, kk: np.ndarray
) -> np.ndarray:
    """(3, m) array of each triple's pair values (ij, ik, jk) sorted ascending."""
    stacked = np.stack([values[ii, jj], values[ii, kk], values[jj, kk]])
    stacked.sort(axis=0)
    return stacked
