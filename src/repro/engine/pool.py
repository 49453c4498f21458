"""The one owner of a process pool of solver workers.

:class:`SolverPool` creates the ``ProcessPoolExecutor``, replaces it
once per break, and shuts it down.  An :class:`AllocationEngine` makes
its own for one parallel solve; the allocation service makes one for
its whole lifetime and hands it to every engine it builds.
"""

from __future__ import annotations

import signal
import threading
from concurrent.futures import ProcessPoolExecutor

from ..obs import counter, set_trace_enabled
from ..solver import load_solver_stack


#: the signals the allocation service handles on its event loop
_SERVICE_SIGNALS = {signal.SIGTERM, signal.SIGINT}


def _init_worker() -> None:
    """Undo the parent's asyncio signal state in a forked worker.

    A worker forked after the service installed its SIGTERM/SIGINT
    handlers shares the loop's wakeup fd, so a signal sent to the
    worker (the pool ``terminate()``s its workers when it breaks) woke
    the server's handler and drained it, while the worker ran asyncio's
    no-op handler and lived on.  The worker is forked with both signals
    blocked (:meth:`SolverPool._spawn`), so one sent before this runs
    waits, and then kills it.

    It also turns off the global tracing a traced parent passes on: a
    worker's phases go back in each allocation's run report, and a
    global trace here would keep a copy of every solve's spans that
    nothing ever reads.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _SERVICE_SIGNALS)
    set_trace_enabled(False)


class SolverPool:
    """A process pool of ``workers`` solver processes.

    :attr:`executor` is None when the environment refuses the pool (no
    semaphores, no fork); callers then solve in their own process.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._lock = threading.Lock()
        self.executor = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor | None:
        # Workers share the parent's pages copy-on-write: load numpy
        # and HiGHS once here rather than in each worker on its first
        # task.
        load_solver_stack()
        # The first submit forks every worker (fork start method): do
        # it now, with the service's signals blocked until each
        # worker's initializer has reset their handling.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _SERVICE_SIGNALS)
        executor = None
        try:
            executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker
            )
            executor.submit(int)
            return executor
        except (OSError, ValueError):
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            return None
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def replace(
        self, broken: ProcessPoolExecutor
    ) -> ProcessPoolExecutor | None:
        """The pool to use after ``broken`` failed.

        The first caller that reports a pool replaces it (counted as
        ``resilience.pool_respawns``); a caller reporting a pool that
        was already replaced gets the current one.
        """
        with self._lock:
            if self.executor is broken:
                broken.shutdown(wait=False, cancel_futures=True)
                self.executor = self._spawn()
                if self.executor is not None:
                    counter("resilience.pool_respawns").incr()
            return self.executor

    def shutdown(self) -> None:
        with self._lock:
            if self.executor is not None:
                self.executor.shutdown(wait=False, cancel_futures=True)
                self.executor = None
