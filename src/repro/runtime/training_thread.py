"""Asynchronous training thread: normalization + training off the I/O path.

Data normalization is computation-heavy and needs the FPU, so KML
offloads it -- together with training -- to one asynchronous kernel
thread created at model-initialization time; the only thing users
supply is a pointer to the model's training function (section 3.2),
which receives each drained batch as it was pushed.
The prototype supports exactly one trainer thread because chain graphs
are processed serially.

:class:`AsyncTrainer` is that thread.  It drains the circular buffer,
runs the user's ``train_fn`` on each batch, and can be switched between
TRAINING and INFERENCE modes at runtime ("users can configure when KML
switches between training and inferencing").
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Any, Callable, List, Optional

from .circular_buffer import CircularBuffer

__all__ = ["Mode", "AsyncTrainer"]


class Mode(enum.Enum):
    """Operating mode of the KML engine.

    DEGRADED is the fault-containment state: the trainer crashed too
    many times in a row, the supervisor gave up restarting it, and
    inference callers must fall back to the default heuristic (see
    ``repro.faults.supervisor.TrainerSupervisor``).
    """

    TRAINING = "training"
    INFERENCE = "inference"
    DEGRADED = "degraded"


class AsyncTrainer:
    """One background thread consuming samples and invoking ``train_fn``.

    Parameters
    ----------
    buffer:
        The SPSC ring the data-collection hooks push into.
    train_fn:
        Called with a list of samples (the drained batch) while in
        TRAINING mode.  Exceptions are captured (visible immediately
        via :attr:`failed` / :attr:`error` and the ``on_error``
        callback) and re-raised on :meth:`stop` so silent failures
        cannot occur.
    poll_interval:
        Sleep between empty polls, seconds.

    ``on_error``, when set, is called *from the dying trainer thread*
    with the captured exception, so a crash is observable the moment it
    happens rather than only at :meth:`stop` -- the hook the trainer
    supervisor installs to restart with backoff.
    """

    HOOK_SLOTS = {"trainer.batch": "_batch_hook"}

    def __init__(
        self,
        buffer: CircularBuffer,
        train_fn: Callable[[List[Any]], None],
        poll_interval: float = 0.001,
        batch_size: int = 64,
    ):
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.buffer = buffer
        self.train_fn = train_fn
        self.poll_interval = poll_interval
        self.batch_size = batch_size
        self.on_error: Optional[Callable[[BaseException], None]] = None
        self._mode = Mode.TRAINING
        self._mode_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self.batches_trained = 0
        self.samples_seen = 0
        # The trainer.batch hook (see repro.hooks): times batches
        # and/or provokes training-thread crashes.
        self._batch_hook = None

    # ------------------------------------------------------------------

    @property
    def mode(self) -> Mode:
        return self._mode

    def set_mode(self, mode: Mode) -> None:
        """Switch between training and inference at runtime."""
        with self._mode_lock:
            self._mode = mode

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def failed(self) -> bool:
        """True the moment the trainer thread has died on an exception."""
        return self._error is not None

    @property
    def error(self) -> Optional[BaseException]:
        """The exception that killed the trainer thread, if any."""
        return self._error

    # ------------------------------------------------------------------

    def start(self) -> "AsyncTrainer":
        if self.running:
            raise RuntimeError("trainer thread already running")
        self._stop_event.clear()
        self._error = None
        self._thread = threading.Thread(
            target=self._run, name="kml-trainer", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        try:
            while not self._stop_event.is_set():
                batch = self.buffer.drain(self.batch_size)
                if not batch:
                    time.sleep(self.poll_interval)
                    continue
                self._process(batch)
            # Final drain so no accepted sample is silently discarded.
            while True:
                batch = self.buffer.drain(self.batch_size)
                if not batch:
                    break
                self._process(batch)
        except BaseException as exc:  # surfaced immediately + on stop()
            self._error = exc
            callback = self.on_error
            if callback is not None:
                try:
                    callback(exc)
                except Exception:
                    pass  # a broken callback must not mask the crash

    def _process(self, batch: List[Any]) -> None:
        hook = self._batch_hook
        t0 = 0.0
        if hook is not None:
            hook.calls = n = hook.calls + 1
            if not n & hook.mask:
                t0 = time.perf_counter()
        self.samples_seen += len(batch)
        if self._mode is Mode.TRAINING:
            if hook is not None and hook.rules:
                hook.fire()  # may raise an injected fault
            self.train_fn(batch)
            self.batches_trained += 1
        if t0:
            hook.hist.observe(time.perf_counter() - t0)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the thread to exit without shutdown semantics.

        Used by the supervisor after a crash: the thread is already
        dying, but :meth:`start` must not race its last instructions.
        """
        thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def stop(self, timeout: float = 5.0, reraise: bool = True) -> None:
        """Signal shutdown, join, and (by default) re-raise any error.

        ``reraise=False`` is for callers that already consumed the
        failure through ``on_error`` -- the supervisor's shutdown path.
        """
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("trainer thread failed to stop in time")
        self._thread = None
        if self._error is not None:
            error, self._error = self._error, None
            if reraise:
                raise error

    def __enter__(self) -> "AsyncTrainer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
