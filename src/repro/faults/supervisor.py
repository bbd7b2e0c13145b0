"""Trainer supervision: restart-with-backoff, then degrade gracefully.

The paper runs training on one asynchronous kernel thread; a kernel
thread that dies silently takes the whole learning loop with it.  The
:class:`TrainerSupervisor` pairs with ``AsyncTrainer.on_error`` (which
fires from the dying thread the moment the exception is caught) to make
crashes *supervised*:

- each crash is observed immediately, not at ``stop()``;
- the trainer is restarted with exponential backoff, capped at
  ``BACKOFF_CAP_S``;
- after ``max_restarts`` *consecutive* failures the supervisor gives
  up, switches the trainer to :class:`~repro.runtime.Mode.DEGRADED`,
  and stays there -- inference callers (the readahead agent) observe
  the mode and fall back to the default heuristic;
- a restart that stays healthy for ``min_healthy_s`` resets the
  consecutive-failure counter, so a long-lived trainer is not
  penalised for crashes that happened hours apart.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ..runtime.training_thread import AsyncTrainer, Mode

__all__ = ["TrainerSupervisor"]

#: The longest wait between two restarts, seconds.
BACKOFF_CAP_S = 1.0


class TrainerSupervisor:
    """Watches one :class:`AsyncTrainer`, restarting it after crashes.

    Parameters
    ----------
    trainer:
        The trainer to supervise.  Its ``on_error`` callback is chained
        (a previously installed callback still runs).
    max_restarts:
        Give up after this many *consecutive* failures (the first crash
        counts; ``max_restarts=3`` allows three restart attempts).
    backoff_s:
        Capped exponential restart backoff: the k-th consecutive
        restart waits ``min(backoff_s * 2**(k-1), BACKOFF_CAP_S)``.
    min_healthy_s:
        Uptime after which a restarted trainer is considered recovered
        and the consecutive-failure counter resets.

    When the supervisor gives up, :attr:`degraded` turns True and
    :attr:`last_error` holds the final exception.
    """

    def __init__(
        self,
        trainer: AsyncTrainer,
        max_restarts: int = 3,
        backoff_s: float = 0.01,
        min_healthy_s: float = 1.0,
    ):
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff must be >= 0")
        self.trainer = trainer
        self.max_restarts = max_restarts
        self.backoff_s = backoff_s
        self.min_healthy_s = min_healthy_s
        self.restarts = 0
        self.crashes = 0
        self.consecutive_failures = 0
        self.last_error: Optional[BaseException] = None
        self._degraded = False
        self._crash_event = threading.Event()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._prev_on_error = trainer.on_error
        trainer.on_error = self._on_trainer_error

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once the supervisor has given up restarting."""
        return self._degraded

    def healthy(self) -> bool:
        """Convenience predicate for inference callers (agent wiring)."""
        return not self._degraded

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------

    def _on_trainer_error(self, exc: BaseException) -> None:
        # Runs on the dying trainer thread: record and wake the monitor.
        self.last_error = exc
        self._crash_event.set()
        prev = self._prev_on_error
        if prev is not None:
            try:
                prev(exc)
            except Exception:
                pass  # a broken chained callback must not mask the crash

    def start(self) -> "TrainerSupervisor":
        """Start the trainer (if needed) and the monitor thread."""
        if self.running:
            raise RuntimeError("supervisor already running")
        self._stop_event.clear()
        self._crash_event.clear()
        self._degraded = False
        if not self.trainer.running:
            self.trainer.start()
        self._thread = threading.Thread(
            target=self._monitor, name="kml-trainer-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def _monitor(self) -> None:
        started_at = time.monotonic()
        while True:
            self._crash_event.wait()
            self._crash_event.clear()
            if self._stop_event.is_set():
                return
            self.crashes += 1
            # The trainer thread is dying but may still be executing its
            # last instructions: join before start() to avoid the race.
            self.trainer.join()
            if time.monotonic() - started_at >= self.min_healthy_s:
                self.consecutive_failures = 0
            self.consecutive_failures += 1
            if self.consecutive_failures > self.max_restarts:
                self._degraded = True
                self.trainer.set_mode(Mode.DEGRADED)
                return
            delay = min(
                self.backoff_s * (2 ** (self.consecutive_failures - 1)),
                BACKOFF_CAP_S,
            )
            if self._stop_event.wait(delay):
                return  # interruptible backoff sleep
            self.trainer.start()
            self.restarts += 1
            started_at = time.monotonic()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop supervising, then stop the trainer (without re-raising:
        every crash was already surfaced through this supervisor)."""
        if self._thread is not None:
            self._stop_event.set()
            self._crash_event.set()  # wake the monitor if it is waiting
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("supervisor thread failed to stop in time")
            self._thread = None
        self.trainer.stop(timeout=timeout, reraise=False)
        self.trainer.on_error = self._prev_on_error

    def __enter__(self) -> "TrainerSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
