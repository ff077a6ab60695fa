"""The helper thread: work whose inputs are ready and whose result the caller
needs only later runs on a second core while the caller goes on.

It has one job, a run's next bath kick (`dsmc._Run.move`).  Numpy leaves
the interpreter lock free inside its large loops, so a task that draws
random numbers runs beside the caller's own numpy work.  A process has one
long-lived helper thread, the worker of a one-thread executor that the
first `submit` starts; it runs the tasks one at a time, in the order they
were submitted.  A fork first waits for every queued task, and the child
starts its own helper thread.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import Future, ThreadPoolExecutor

# Work on fewer elements runs inline: handing a task to the running helper
# and taking its result costs 40-50 us on a 2-core x86_64 host (starting and
# joining a new thread cost 100-145 us), more than the overlap saves on a
# small draw.
MIN_SIZE = 1 << 15

_pool: ThreadPoolExecutor | None = None


def submit(fn, *args) -> Future:
    """Queue fn(*args) on the helper thread; the future's `result()` waits
    for it and raises what it raised.  The task runs in a copy of the
    caller's context, so numpy's error state (`np.errstate`) is the
    caller's."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(1, thread_name_prefix="gsteady-helper")
    return _pool.submit(contextvars.copy_context().run, fn, *args)


def join() -> None:
    """Wait until every task submitted so far has run."""
    if _pool is not None:
        _pool.submit(lambda: None).result()


def _forget_pool() -> None:
    global _pool
    _pool = None


# A fork while a task runs would leave the child half-filled buffers and no
# thread to finish them; joined first, they are valid in both processes.  The
# child has no helper thread, so its first submit starts a pool of its own.
os.register_at_fork(before=join, after_in_child=_forget_pool)


def run_inline() -> None:
    """Pool-worker initializer: no work is large enough for the helper, so a
    worker never competes with the other workers for their cores."""
    global MIN_SIZE
    MIN_SIZE = math.inf
