"""Parallel execution of independent simulation sweep points.

Every experiment sweep in this repo is embarrassingly parallel: each
(network size, protocol, parameter) point builds its own machine from a
fixed seed and shares nothing with its neighbours.  The
:class:`SweepExecutor` fans such points across ``multiprocessing``
workers while keeping the results **deterministic**: results come back
in submission order, and each point's simulation is bit-identical to a
serial run because all randomness is derived from the point's own seed.

Usage::

    executor = SweepExecutor(jobs=4)          # or jobs=None -> REPRO_JOBS
    rows = executor.map(_point_fn, points)    # order == points order

Worker functions must be module-level (picklable) and take exactly one
argument (pack tuples/dataclasses as needed).  With ``jobs <= 1`` the
executor degrades to a plain serial loop with zero multiprocessing
overhead, which is also the fallback wherever a pool cannot be created
(e.g. sandboxed interpreters without ``fork``/semaphores).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import UsageError

#: Environment variable selecting the default worker count.
JOBS_ENV = "REPRO_JOBS"

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``: absent/empty -> 1, below 1 -> 1.

    Raises :class:`~repro.errors.UsageError` when it is not an integer.
    """
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise UsageError(
            f"{JOBS_ENV} must be an integer, got {raw!r}"
        ) from None
    return max(1, jobs)


class SweepExecutor:
    """Maps a function over independent sweep points, possibly in parallel.

    Args:
        jobs: Worker process count.  ``None`` reads ``REPRO_JOBS`` (and
            defaults to 1 — serial — when unset); values below 2 mean
            serial execution in-process.
    """

    def __init__(self, jobs: int | None = None) -> None:
        requested = default_jobs() if jobs is None else max(1, int(jobs))
        available = os.cpu_count() or 1
        if requested > 1 and requested > available:
            # More workers than CPUs never helps these CPU-bound sweeps
            # (forked workers just time-slice); say so once instead of
            # silently over- or under-delivering.
            self._notice(
                f"requested {requested} jobs but only {available} CPU(s) "
                f"available; running {min(requested, available)}"
            )
            requested = available
        self.jobs = requested

    def __repr__(self) -> str:
        return f"SweepExecutor(jobs={self.jobs})"

    @staticmethod
    def _notice(message: str) -> None:
        print(f"[sweep] {message}", file=sys.stderr)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """``[fn(item) for item in items]``, fanned across workers.

        Result order always matches ``items`` order, so parallel output
        is byte-identical to serial output for deterministic ``fn``.
        """
        points: Sequence[T] = list(items)
        workers = min(self.jobs, len(points))
        if workers <= 1:
            return [fn(item) for item in points]
        try:
            ctx = self._context()
            with ctx.Pool(processes=workers) as pool:
                return pool.map(fn, points)
        except (OSError, PermissionError) as exc:
            # No usable multiprocessing primitives in this environment;
            # degrade to the serial path rather than failing the sweep —
            # but never silently (the jobs-N-slower-than-serial footgun).
            self._notice(
                f"multiprocessing unavailable ({exc.__class__.__name__}); "
                f"running {len(points)} point(s) serially"
            )
            return [fn(item) for item in points]

    @staticmethod
    def _context() -> Any:
        """Prefer fork (cheap, inherits the warmed interpreter)."""
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()
