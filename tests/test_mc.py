import numpy as np

from stickygeom._mc import CHUNK, count_windows, resample_counts
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


def test_count_windows_split_resample_counts():
    w = [0.1, 0.2, 0.3, 0.4]
    trials = 3 * CHUNK + 5
    whole = resample_counts(w, 9, trials, seed=4)
    for threads in (1, 2):
        windows = list(count_windows(w, 9, trials, seed=4, threads=threads))
        assert [len(c) for c in windows[:-1]] == [threads * CHUNK] * (len(windows) - 1)
        assert np.array_equal(np.concatenate(windows), whole)


def test_chunks_are_whole_row_blocks():
    """A chunk-streamed batch minimization cuts its rows into the same
    ROW_BLOCK blocks as one whole-matrix call, so both give the same bits."""
    assert CHUNK % ROW_BLOCK == 0
