"""Deterministic chunked parallelism, and the one block size.

Work is split into ordered chunks; results are assembled by chunk index,
so outputs are identical for any worker count.  Every pass over many grid
or interpolation nodes runs block by block, each block of at most
BLOCK_BYTES // node_bytes nodes (at least one), node_bytes the working set
of one node in that pass: a stack of matrices, a slab of grid arrays or a
run of text rows.  Each node's result depends on that node alone, so the
outputs do not depend on the block size either, and peak memory is what a
caller holds plus one block per worker.
"""

from __future__ import annotations

import os

from .errors import ContractError

BLOCK_BYTES = 1 << 21


def worker_count(threads: int | None = None) -> int:
    """threads, else CLIFFORDSPEC_THREADS, else every CPU; at least 1."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("CLIFFORDSPEC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ContractError(f"CLIFFORDSPEC_THREADS is {env!r}, not an integer") from None
    return max(1, os.cpu_count() or 1)


def ordered_chunk_map(fn, chunks: list, threads: int | None = None) -> list:
    """Apply fn to each chunk, preserving chunk order in the result list."""
    workers = worker_count(threads)
    if workers == 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    # imported on first use: a process that never maps in threads, such as
    # one of point queries, does not load the thread-pool modules (~0.5 MB)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def blocks(count: int, node_bytes: int) -> list:
    """range(count) as consecutive slices of at most BLOCK_BYTES //
    node_bytes nodes, and at least one."""
    step = max(1, BLOCK_BYTES // node_bytes)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]
