"""The first failing sample of a stream, its samples shared out over the CPUs
the process may use.

A stream is a function of no arguments that returns a fresh iterator of
evaluators, the same ones in the same order on every call; an evaluator is
a function of no arguments that returns None when its sample holds, else a
counterexample.  A stream of at most _ALONE samples is evaluated in the
calling process alone, which forks nothing.  A longer one is shared out:
with W shares, share s evaluates the samples whose index is s mod W, share 0
in the calling process and every other share in a worker forked for the
call.  Every share draws the whole stream, since each sample may be drawn
from the draws before it (the head that decided to share it is drawn once,
before the fork), and evaluates only its own.  The first sample,
over all shares, that does not hold is then taken from the stream again and
evaluated in the calling process, so the result, or the exception that
evaluation raises, is that of one process.
"""

from __future__ import annotations

import mmap
import os
import signal
import sys
import threading
from itertools import chain, islice

# The most samples of a stream evaluated alone.  A worker costs a stream about
# 2.5 ms (fork, copy-on-write faults and wait, on a 2-core x86-64 host), as
# much as sharing out some 100 samples of the suite saves: sharing every
# check of 80 to 320 samples made the whole suite of that size 40 % slower.
_ALONE = 100

# The most shares.  Every share draws the whole stream, the part that does
# not shrink as shares are added, and sharing was measured on 2 CPUs only.
_MOST_SHARES = 2


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_count() -> int:
    """One share per usable CPU, up to _MOST_SHARES; one alone where the process
    cannot fork, or runs more than one thread, since a fork copies only the
    calling thread (and Python 3.12 warns of it)."""
    if not hasattr(os, "fork"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    return 1 if threads > 1 else min(_usable_cpus(), _MOST_SHARES)


def first_failing(stream, shares: int) -> tuple[int, str | None]:
    """(samples, counterexample): the samples up to and including the first
    that does not hold and its counterexample, else all the samples and None.
    """
    drawn = enumerate(stream())
    if shares > 1:
        head = list(islice(drawn, _ALONE + 1))
        if len(head) > _ALONE:
            return _shared(stream, chain(head, drawn), shares)
        drawn = iter(head)
    index = -1
    for index, evaluate in drawn:
        if (counterexample := evaluate()) is not None:
            return index + 1, counterexample
    return index + 1, None


def _shared(stream, drawn, shares: int) -> tuple[int, str | None]:
    """first_failing of a stream, drawn being its (index, evaluator) pairs,
    shared out over shares.

    A share whose worker could not start or ended without a record is
    evaluated here.  A failing sample that holds when evaluated here failed
    for its worker alone (say, out of memory), and the whole stream is then
    evaluated here.  Every worker is reaped before this returns or raises,
    and killed first if this raises.
    """
    bound = memoryview(mmap.mmap(-1, 8)).cast("q")  # shared with the workers
    bound[0] = sys.maxsize
    workers = {}  # share -> (pid, read end of its pipe)
    try:
        for share in range(1, shares):
            if worker := _fork(drawn, share, shares, bound):
                workers[share] = worker
        outcomes = [_scan(drawn, 0, shares, bound)]
        for share in range(1, shares):
            record = os.read(workers[share][1], 64) if share in workers else b""
            if record:
                samples, passed = map(int, record.split())
                outcomes.append((samples, bool(passed)))
            else:
                outcomes.append(_scan(enumerate(stream()), share, shares, bound))
        failing = [samples for samples, passed in outcomes if not passed]
        if not failing:
            return outcomes[0][0], None
        samples = min(failing)
        counterexample = next(islice(stream(), samples - 1, None))()
        if counterexample is None:
            return first_failing(stream, 1)
        return samples, counterexample
    except BaseException:
        for pid, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in workers.values():
            os.close(read)
            os.waitpid(pid, 0)


def _scan(pairs, share: int, shares: int, bound) -> tuple[int, bool]:
    """(samples, passed) of one share of the (index, evaluator) pairs: the
    samples it drew, up to and including its first that fails or raises.  A
    raise counts as a failure here, and the caller raises it again when it
    evaluates that sample anew.  bound[0], shared by all shares, is the lowest
    index of a sample found failing so far: a share stops drawing past it, as
    no later sample can change the result."""
    index = -1
    for index, evaluate in pairs:
        if index > bound[0]:
            return index, True
        if index % shares == share:
            try:
                holds = evaluate() is None
            except Exception:
                holds = False
            if not holds:
                bound[0] = min(bound[0], index)
                return index + 1, False
    return index + 1, True


def _fork(pairs, share: int, shares: int, bound) -> tuple[int, int] | None:
    """Start a worker on one share: (its pid, the read end of its pipe), or
    None when no pipe can be opened or no process forked.

    The worker writes back its (samples, passed) record in one write and
    leaves by os._exit, so it flushes none of the caller's buffers and runs
    none of its exit handlers.
    """
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        try:
            os.write(write, b"%d %d" % _scan(pairs, share, shares, bound))
        finally:
            os._exit(0)
    os.close(write)
    return pid, read
