"""Deterministic, parallelism-independent Monte Carlo resampling.

Each resample of size n is one multinomial draw over the m atoms, so a batch
of trials costs O(trials * m) time and memory whatever n is.  Trials are
processed in fixed-size chunks; chunk c draws from an independent Philox
stream `Philox(key=seed).jumped(c)`.  The chunk layout never depends on the
worker count, so results are a pure function of (inputs, seed).
`map_chunks` is the one chunk loop: the worker that draws a chunk also
reduces it, and the results come back in chunk order whatever the
scheduling, so a caller holds O(threads * CHUNK * m) counts at a time
whatever the number of trials.
"""
from __future__ import annotations

import numpy as np

CHUNK = 4096


def map_chunks(weights, n: int, trials: int, seed: int, threads: int, reduce) -> list:
    """[reduce(counts) for each chunk of the (trials, len(weights)) matrix of
    multinomial draw counts for i.i.d. samples of size n], in chunk order.
    With threads > 1, each of w = min(threads, chunks) workers draws and
    reduces every w-th chunk, so it holds one chunk of counts at a time."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if n <= 0:
        raise ValueError("sample size must be positive")
    w = np.asarray(weights, dtype=float)
    chunks = -(-trials // CHUNK)

    def run(c: int):
        # the last atom gets the remainder 1 - sum(w[:-1]), so weights whose
        # float sum is a little below 1 lose no draws
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(c))
        return reduce(rng.multinomial(n, w, size=min(CHUNK, trials - c * CHUNK)))

    workers = min(threads, chunks)
    if workers <= 1:
        return [run(c) for c in range(chunks)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(
            lambda k: [run(c) for c in range(k, chunks, workers)], range(workers)))
    return [parts[c % workers][c // workers] for c in range(chunks)]


def resample_counts(weights, n: int, trials: int, seed: int,
                    threads: int = 1) -> np.ndarray:
    """(trials, len(weights)) matrix of multinomial draw counts for i.i.d.
    samples of size n."""
    return np.concatenate(map_chunks(weights, n, trials, seed, threads, lambda c: c))
