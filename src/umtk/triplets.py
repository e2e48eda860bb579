"""Enumeration and seeded sampling of index triples {i, j, k}, i < j < k.

A triplet scan is a sequence of fixed windows of DEFAULT_CHUNK ranks.
32,768 ranks make an int64 id column 256 KB, so a scan that hands each
window's results on holds one small window of them even at n=100 (161,700
triples); much smaller windows would cost time in per-window Python.
Exhaustive scans rank the n-choose-3 triples in ascending (i, j, k)
order; triplet_windows builds any window's index arrays from one pair
table, so the full enumeration never exists at once. Sampling is
counter-based: draw t depends only on (seed, t). iter_scan is the one
driver: it yields a per-window kernel's results over either source in
window order, building each window only when the caller pulls it.
Kernels hold no shared state: they return their results and the caller
combines them in window order.

sort3 orders the three values of every triplet (pair values, angles,
or a draw's ids), and first_smallest reads the apex off the smallest.
"""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

import numpy as np

from . import rng

DEFAULT_CHUNK = 32_768

_MAX_REJECTION_ROUNDS = 10_000

T = TypeVar("T")
Triples = tuple[np.ndarray, np.ndarray, np.ndarray]


def triplet_count(n: int) -> int:
    """Number of unordered triples over n items: n(n-1)(n-2)/6."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n * (n - 1) * (n - 2) // 6


def triplet_windows(n: int) -> tuple[int, Callable[[int, int], Triples]]:
    """(count, window): window(lo, hi) is the int64 (ii, jj, kk) of ranks lo..hi-1.

    Ranks count the triples i < j < k in ascending lexicographic order.
    The triples with first id i pair it with the pairs above i, a suffix
    of the row-major pair table np.triu_indices(n, 1), so a window needs
    no other window: it repeats its first ids and gathers from the table.
    """
    pair_j, pair_k = (a.astype(np.int64, copy=False) for a in np.triu_indices(n, 1))
    ids = np.arange(max(n - 2, 0), dtype=np.int64)
    per_id = (n - 1 - ids) * (n - 2 - ids) // 2
    first = np.concatenate([[0], np.cumsum(per_id)])
    # rank r with first id i is pair r + shift[i]
    shift = pair_j.size - per_id - first[:-1]

    def window(lo: int, hi: int) -> Triples:
        a = int(np.searchsorted(first, lo, side="right")) - 1
        b = int(np.searchsorted(first, hi, side="left"))
        sizes = np.diff(np.clip(first[a : b + 1], lo, hi))
        pos = np.repeat(shift[a:b], sizes)
        pos += np.arange(lo, hi, dtype=np.int64)
        return np.repeat(ids[a:b], sizes), pair_j[pos], pair_k[pos]

    return triplet_count(n), window


def sample_triplets(n: int, count: int, seed: int, start: int = 0) -> Triples:
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
        for row, col in zip(out, cols):
            row[sel] = col[ok]
        pending = pending[~ok]
    else:
        raise RuntimeError("triplet sampling failed to converge")
    return sort3(*out)


def iter_scan(
    n: int,
    kernel: Callable[[np.ndarray, np.ndarray, np.ndarray], T],
    sample: int | None = None,
    seed: int | None = None,
) -> Iterator[T]:
    """Yield kernel(ii, jj, kk) for every DEFAULT_CHUNK window of a triplet scan.

    The windows are triplet_windows(n)'s ranks, or with a sample the
    seeded draws sample_triplets(n, sample, seed); the arguments are
    checked on the call, before any window is built. Results come in
    window order, and each window is built only when the caller pulls it.
    """
    if sample is None:
        count, window = triplet_windows(n)
    elif sample < 1:
        raise ValueError("sample count must be positive")
    elif seed is None:
        raise ValueError("sampled scans require a seed")
    elif n < 3:
        raise ValueError("need at least 3 items to form a triplet")
    else:
        count, window = sample, lambda lo, hi: sample_triplets(n, hi - lo, seed, start=lo)
    chunk = DEFAULT_CHUNK
    starts = range(0, count, chunk)

    def run(lo: int) -> T:
        return kernel(*window(lo, min(lo + chunk, count)))

    return map(run, starts)


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
