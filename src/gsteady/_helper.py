"""The helper thread: work whose inputs are ready and whose result the caller
needs only later runs on a second core while the caller goes on.

Numpy leaves the interpreter lock free inside its large loops, so a helper
that draws random numbers or evaluates a law on a block of rows runs beside
the caller's own numpy work.  At most one helper runs at a time in a
process: starting one first waits for the one before, and so does a fork.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading

# Work on fewer elements runs inline: starting and joining a thread costs
# about 50 us, more than the overlap saves on a small draw.
MIN_SIZE = 1 << 15

_current: Helper | None = None


class Helper:
    """Run tasks (zero-argument callables) in order on one new thread.

    The tasks run in a copy of the caller's context, so numpy's error state
    (`np.errstate`) is the caller's.  An exception a task raises ends the
    thread and is raised again by `wait` for that task or a later one.
    """

    def __init__(self, name: str, *tasks):
        global _current
        join()
        self._done = [threading.Event() for _ in tasks]
        self._failed = len(tasks)  # index of the task that raised
        self._error = None
        # Non-daemon, so interpreter exit never stops it inside numpy.
        self._thread = threading.Thread(
            target=self._run, args=(contextvars.copy_context(), tasks),
            name=name)
        self._thread.start()
        _current = self

    def _run(self, context, tasks) -> None:
        for index, task in enumerate(tasks):
            try:
                context.run(task)
            except BaseException as exc:  # raised again in the waiting caller
                self._error = exc
                self._failed = index
                for done in self._done[index:]:
                    done.set()
                return
            self._done[index].set()

    def wait(self, task: int = -1) -> None:
        """Wait until tasks[task] (by default the last) is done."""
        task %= len(self._done)
        self._done[task].wait()
        if self._failed <= task:
            raise self._error


def join() -> None:
    """Wait until the helper thread, if one was started, has ended."""
    if _current is not None:
        _current._thread.join()


# A fork while a helper runs would leave the child half-filled buffers and
# no thread to finish them; joined first, they are valid in both processes.
os.register_at_fork(before=join)


def run_inline() -> None:
    """Pool-worker initializer: no work is large enough for the helper, so a
    worker never competes with the other workers for their cores."""
    global MIN_SIZE
    MIN_SIZE = math.inf
