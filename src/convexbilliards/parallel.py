"""Deterministic fan-out of replica chunks across a worker pool.

Work is always partitioned into the same fixed-size chunks (see rng.CHUNK)
with one counter-based stream per chunk, so the results are identical for
any worker count; the pool only changes who computes which chunk.
``multiprocessing`` is imported only when a pool is forked.
"""

from __future__ import annotations


def map_jobs(fn, jobs, workers: int = 1):
    """Map fn over jobs, preserving order; fork a pool when workers > 1."""
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(workers, len(jobs))) as pool:
        return pool.map(fn, jobs)
