"""Discrete time points, clopen intervals, and endpoint-grid splitting.

Time points are natural numbers plus a single unbounded value ``INF``
(``math.inf``, so it compares above every natural number natively).
A clopen interval ``[s, e)`` stands for the set of consecutive time points
``{s, s+1, ..., e-1}``; ``e`` may be ``INF``, in which case the set is
unbounded.  ``INF`` is only ever a right endpoint: it is rejected as an
interval start and as a standalone time value everywhere else.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import lt
from typing import Iterable, NamedTuple, Union

INF = math.inf

TimePoint = Union[int, float]  # a natural number, or INF as a right endpoint


class _Span(NamedTuple):
    start: int
    end: TimePoint


class ClopenInterval(_Span):
    """Half-open span ``[start, end)`` of consecutive time points.

    An interval is a ``(start, end)`` tuple, so it hashes, compares and
    orders in C: by ``(start, end)``, finite ends before ``INF``.  It is
    validated wherever it is made: by ``copy``, ``pickle``, ``_make`` and
    ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: TimePoint) -> "ClopenInterval":
        if not isinstance(start, int) or isinstance(start, bool):
            raise ValueError(f"interval start must be a natural number, got {start!r}")
        if start < 0:
            raise ValueError(f"interval start must be non-negative, got {start}")
        if isinstance(end, int) and not isinstance(end, bool):
            if end <= start:
                raise ValueError(f"interval [{start},{end}) is empty")
        elif end != INF:
            raise ValueError(f"interval end must be a natural number or INF, got {end!r}")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(cls, iterable: Iterable) -> "ClopenInterval":
        return cls(*iterable)

    def __str__(self) -> str:
        return f"[{self.start},{self.end})"


def interval_contains(iv: ClopenInterval, t: int) -> bool:
    """Return True iff the finite time point ``t`` lies in ``iv``."""
    if not isinstance(t, int) or isinstance(t, bool):
        raise ValueError(f"membership is defined for finite time points only, got {t!r}")
    return iv.start <= t < iv.end


def interval_points(iv: ClopenInterval, horizon: int) -> range:
    """Time points of ``iv`` strictly below ``horizon`` (truncates unbounded ends)."""
    return range(iv.start, min(iv.end, horizon))


def build_grid(intervals: Iterable[ClopenInterval]) -> list[int]:
    """Sorted, duplicate-free list of every finite endpoint occurring in the input."""
    points = {p for iv in intervals for p in (iv.start, iv.end)}
    points.discard(INF)
    return sorted(points)


def split_interval(iv: ClopenInterval, grid: Iterable[int]) -> list[ClopenInterval]:
    """Cut ``iv`` at every grid point strictly inside it.

    Returns consecutive subintervals whose point sets partition the point set
    of ``iv``; none of them contains an interior grid point.  The grid must be
    sorted and duplicate-free (checked); grid points outside ``iv`` are
    skipped by ``bisect``.  ``normalize_instance`` passes only the points in
    ``iv``, its start first, so the check costs no more than the cuts.
    """
    grid = list(grid)
    if not all(map(lt, grid, grid[1:])):
        raise ValueError("grid must be sorted and duplicate-free")
    bounds = [iv.start, *grid[bisect_right(grid, iv.start):bisect_left(grid, iv.end)], iv.end]
    return [ClopenInterval(s, e) for s, e in zip(bounds, bounds[1:])]
