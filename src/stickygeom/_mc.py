"""Deterministic, parallelism-independent Monte Carlo resampling.

Each resample of size n is one multinomial draw over the m atoms, so a batch
of trials costs O(trials * m) time and memory whatever n is.  Trials are
processed in fixed-size chunks; chunk c draws from an independent Philox
stream `Philox(key=seed).jumped(c)`.  The chunk layout never depends on the
worker count, so results are a pure function of (inputs, seed), and chunk
outputs are combined in chunk order regardless of scheduling.
`count_windows` hands the same rows out a few chunks at a time, so a caller
that reduces each window holds O(threads * CHUNK * m) counts whatever the
number of trials.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK = 4096


def _chunk_counts(w: np.ndarray, n: int, seed: int, chunk_index: int,
                  rows: int) -> np.ndarray:
    # the last atom gets the remainder 1 - sum(w[:-1]), so weights whose
    # float sum is a little below 1 lose no draws
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(chunk_index))
    return rng.multinomial(n, w, size=rows)


def resample_counts(weights, n: int, trials: int, seed: int,
                    threads: int = 1, first_chunk: int = 0) -> np.ndarray:
    """(trials, len(weights)) matrix of multinomial draw counts for i.i.d.
    samples of size n; its rows start at chunk first_chunk of the seed's
    stream."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if n <= 0:
        raise ValueError("sample size must be positive")
    w = np.asarray(weights, dtype=float)
    jobs = []
    start = 0
    chunk_index = first_chunk
    while start < trials:
        rows = min(CHUNK, trials - start)
        jobs.append((chunk_index, rows))
        start += rows
        chunk_index += 1
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                lambda job: _chunk_counts(w, n, seed, job[0], job[1]), jobs))
    else:
        parts = [_chunk_counts(w, n, seed, c, rows) for c, rows in jobs]
    return np.concatenate(parts, axis=0)


def count_windows(weights, n: int, trials: int, seed: int, threads: int = 1):
    """The rows of resample_counts(weights, n, trials, seed), handed out in
    order as windows of `threads` chunks (the last one shorter)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if n <= 0:
        raise ValueError("sample size must be positive")
    window = max(threads, 1) * CHUNK
    return (resample_counts(weights, n, min(window, trials - start), seed, threads,
                            first_chunk=start // CHUNK)
            for start in range(0, trials, window))
