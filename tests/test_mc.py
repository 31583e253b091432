import numpy as np
import pytest

from stickygeom._mc import CHUNK, map_chunks, resample_counts
from stickygeom.directions import ROW_BLOCK


def test_resample_counts_large_n():
    # rows x n uniforms would take 256 MB here; multinomial draws take none
    w = [0.5, 0.3, 0.2]
    counts = resample_counts(w, 10**6, 8, seed=3)
    assert counts.shape == (8, 3)
    assert (counts.sum(axis=1) == 10**6).all()
    assert np.array_equal(counts, resample_counts(w, 10**6, 8, seed=3, threads=2))


def test_resample_counts_chunks_thread_independent():
    w = [0.1, 0.2, 0.3, 0.4]
    one = resample_counts(w, 7, CHUNK + 3, seed=11)
    assert one.shape == (CHUNK + 3, 4)
    assert (one.sum(axis=1) == 7).all()
    assert not np.array_equal(one[:3], one[CHUNK:])
    assert np.array_equal(one, resample_counts(w, 7, CHUNK + 3, seed=11, threads=2))


@pytest.mark.parametrize("trials, threads", [(3 * CHUNK + 5, 1), (3 * CHUNK + 5, 2),
                                            (3 * CHUNK + 5, 3), (CHUNK - 1, 4)],
                         ids=["four_chunks-1", "four_chunks-2", "four_chunks-3",
                              "one_chunk-4"])
def test_map_chunks_reduces_each_chunk_in_order(trials, threads):
    w = [0.1, 0.2, 0.3, 0.4]
    rows = map_chunks(w, 9, trials, 4, threads, len)
    assert rows == [CHUNK] * (trials // CHUNK) + [trials % CHUNK]
    chunks = map_chunks(w, 9, trials, 4, threads, lambda c: c)
    assert np.array_equal(np.concatenate(chunks), resample_counts(w, 9, trials, seed=4))


def test_map_chunks_validates_trials_and_n():
    w = [0.5, 0.5]
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be positive"):
            map_chunks(w, 5, trials, 1, 1, len)
    for n in (0, -3):
        with pytest.raises(ValueError, match="sample size must be positive"):
            map_chunks(w, n, 10, 1, 2, len)


def test_chunks_are_whole_row_blocks():
    """A chunk-streamed batch minimization cuts its rows into the same
    ROW_BLOCK blocks as one whole-matrix call, so both give the same bits."""
    assert CHUNK % ROW_BLOCK == 0
