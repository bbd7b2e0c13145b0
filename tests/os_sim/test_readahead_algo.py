"""Tests for the on-demand readahead planning algorithm."""

import pytest

from repro.os_sim.readahead import (
    INITIAL_SEQ_WINDOW,
    RANDOM_WINDOW_DIVISOR,
    ReadaheadState,
    plan_hit,
    plan_miss,
)

FILE_PAGES = 10_000


class TestMissPlanning:
    def test_random_miss_window_scales_with_ra(self):
        for ra in (8, 64, 512):
            state = ReadaheadState()
            plan = plan_miss(state, 100, ra, FILE_PAGES)
            assert plan.start == 100
            # Classified random: the small window, which the state keeps.
            assert plan.count == max(1, ra // RANDOM_WINDOW_DIVISOR)
            assert state.window == plan.count
            assert not plan.is_async

    def test_ra_zero_disables_readahead(self):
        state = ReadaheadState()
        plan = plan_miss(state, 5, 0, FILE_PAGES)
        assert plan.count == 1

    def test_sequential_miss_doubles_window(self):
        state = ReadaheadState()
        plan_miss(state, 0, 64, FILE_PAGES)     # random start
        first_window = state.window
        plan = plan_miss(state, 1, 64, FILE_PAGES)  # continues the stream
        # Classified sequential: the window doubles, and the state keeps it.
        assert plan.count == min(64, max(INITIAL_SEQ_WINDOW, first_window * 2))
        assert state.window == plan.count

    def test_window_capped_at_ra(self):
        state = ReadaheadState()
        state.window = 64
        state.next_expected = 10
        plan = plan_miss(state, 10, 32, FILE_PAGES)
        assert plan.count == 32

    def test_window_clamped_at_eof(self):
        state = ReadaheadState()
        plan = plan_miss(state, FILE_PAGES - 2, 512, FILE_PAGES)
        assert plan.start + plan.count <= FILE_PAGES
        assert plan.count >= 1

    def test_stream_state_updated(self):
        state = ReadaheadState()
        plan_miss(state, 7, 64, FILE_PAGES)
        assert state.next_expected == 8
        assert state.window_end == 7 + state.window


class TestHitPlanning:
    def _warm_sequential_state(self, ra=64):
        state = ReadaheadState()
        plan_miss(state, 0, ra, FILE_PAGES)
        return state

    def test_non_sequential_hit_returns_none(self):
        state = self._warm_sequential_state()
        assert plan_hit(state, 500, 64, FILE_PAGES) is None
        assert state.async_mark == -1  # the stream is broken

    def test_sequential_hits_before_mark_return_none(self):
        state = self._warm_sequential_state()
        page = 1
        while page < state.async_mark:
            assert plan_hit(state, page, 64, FILE_PAGES) is None
            page += 1

    def test_crossing_async_mark_triggers_prefetch(self):
        state = self._warm_sequential_state(ra=64)
        mark = state.async_mark
        old_end = state.window_end
        for page in range(1, mark):
            plan_hit(state, page, 64, FILE_PAGES)
        plan = plan_hit(state, mark, 64, FILE_PAGES)
        assert plan is not None
        assert plan.is_async
        assert plan.start == old_end
        assert state.window_end == old_end + plan.count

    def test_async_window_doubles_up_to_ra(self):
        state = self._warm_sequential_state(ra=64)
        window = state.window
        mark = state.async_mark
        for page in range(1, mark):
            plan_hit(state, page, 64, FILE_PAGES)
        plan = plan_hit(state, mark, 64, FILE_PAGES)
        assert plan.count == min(64, max(INITIAL_SEQ_WINDOW, window * 2))

    def test_no_prefetch_past_eof(self):
        state = ReadaheadState()
        plan_miss(state, FILE_PAGES - 8, 64, FILE_PAGES)
        state.async_mark = FILE_PAGES - 7
        plan = plan_hit(state, FILE_PAGES - 7, 64, FILE_PAGES)
        if plan is not None:
            assert plan.start + plan.count <= FILE_PAGES

    def test_ra_zero_never_prefetches(self):
        state = self._warm_sequential_state()
        state.async_mark = 1
        assert plan_hit(state, 1, 0, FILE_PAGES) is None


class TestStateReset:
    def test_reset_clears_everything(self):
        state = ReadaheadState()
        plan_miss(state, 10, 64, FILE_PAGES)
        state.reset()
        assert state.next_expected == -1
        assert state.window == 0
        assert state.async_mark == -1
