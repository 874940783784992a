"""Retired chunked evaluation.

The package no longer calls run_chunks and no longer reads AFFGEO_THREADS:
scoring is straight-line numpy over the whole array. The name stays only
because the benchmark's tracer (bench/tracing.py) patches it.
"""

from __future__ import annotations

from typing import Callable


def run_chunks(task: Callable[[int, int], None], n: int, threads: int | None = None) -> None:
    """Invoke task(0, n); threads is ignored."""
    task(0, n)
