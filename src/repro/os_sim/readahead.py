"""On-demand readahead: the heuristic the paper's ML model tunes.

This mirrors the structure of Linux's ``ondemand_readahead``: per-file
stream state, a window that ramps up (doubling) while accesses stay
sequential, and an *async mark* partway into the current window -- when
the stream crosses it, the next window is prefetched asynchronously so
the device works ahead of the reader.

Deliberate deviation (see DESIGN.md section 2): for a *non-sequential*
miss, stock Linux clamps the initial window to ~4 pages regardless of
the readahead setting, but the phenomenon the paper studies is that the
setting matters for random-dominated RocksDB workloads (their Table 2
shows up to 2.3x).  RocksDB issues multi-page buffered reads whose
effective waste scales with the knob, so our model reads
``max(1, ra_pages // RANDOM_WINDOW_DIVISOR)`` pages on a random miss.
Large ``ra_pages`` therefore wastes bandwidth and pollutes the cache on
random access, and helps sequential access -- the trade-off the KML
readahead model learns to navigate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

__all__ = [
    "ReadaheadState",
    "ReadaheadPlan",
    "plan_miss",
    "plan_hit",
    "RANDOM_WINDOW_DIVISOR",
    "INITIAL_SEQ_WINDOW",
]

#: Random-miss window = ra_pages // this (>= 1 page).
RANDOM_WINDOW_DIVISOR = 8

#: Sequential streams start from this window before doubling.
INITIAL_SEQ_WINDOW = 4


@dataclass
class ReadaheadState:
    """Per-open-file stream state (lives on the File object)."""

    next_expected: int = -1  # page index that would continue the stream
    window: int = 0          # size of the most recent window
    window_end: int = 0      # first page *after* the covered region
    async_mark: int = -1     # crossing this page triggers async prefetch

    def reset(self) -> None:
        self.next_expected = -1
        self.window = 0
        self.window_end = 0
        self.async_mark = -1


class ReadaheadPlan(NamedTuple):
    """What the page cache should read around one access.

    An immutable value; a named tuple, since one is built per window and
    a frozen dataclass costs about twice as much to build.
    """

    start: int       # first page of the window
    count: int       # pages in the window (>= 1)
    is_async: bool   # True: prefetch without blocking the reader


def _clamp_window(count: int, start: int, file_pages: int) -> int:
    """Never plan past EOF; always cover at least the accessed page."""
    if 0 < file_pages < start + count:
        count = file_pages - start
    return count if count > 1 else 1


def plan_miss(
    state: ReadaheadState, page: int, ra_pages: int, file_pages: int
) -> ReadaheadPlan:
    """Decide the synchronous window for a cache miss at ``page``.

    Mutates ``state`` to reflect the access.  ``ra_pages <= 0`` disables
    readahead entirely (the FADV_RANDOM contract).
    """
    if ra_pages <= 0:
        state.reset()
        state.next_expected = page + 1
        return ReadaheadPlan(page, _clamp_window(1, page, file_pages), False)

    if page == state.next_expected and state.next_expected >= 0:
        window = min(ra_pages, max(INITIAL_SEQ_WINDOW, state.window * 2))
    else:
        window = max(1, ra_pages // RANDOM_WINDOW_DIVISOR)

    window = _clamp_window(window, page, file_pages)
    state.window = window
    state.window_end = page + window
    # Trigger the next async window once the reader is halfway through.
    state.async_mark = page + window // 2 if window > 1 else -1
    state.next_expected = page + 1
    return ReadaheadPlan(page, window, False)


def plan_hit(
    state: ReadaheadState, page: int, ra_pages: int, file_pages: int
) -> Optional[ReadaheadPlan]:
    """On a cache hit, possibly schedule the next asynchronous window.

    Returns a plan only when ``page`` crosses the async mark of an
    active sequential stream; otherwise just updates stream state.
    """
    sequential = page == state.next_expected and state.next_expected >= 0
    state.next_expected = page + 1
    if not sequential:
        state.async_mark = -1
        return None
    if ra_pages <= 0 or state.async_mark < 0 or page < state.async_mark:
        return None
    start = state.window_end
    if file_pages > 0 and start >= file_pages:
        state.async_mark = -1
        return None
    window = min(ra_pages, max(INITIAL_SEQ_WINDOW, state.window * 2))
    window = _clamp_window(window, start, file_pages)
    state.window = window
    state.window_end = start + window
    state.async_mark = page + max(1, window // 2)
    return ReadaheadPlan(start, window, True)
