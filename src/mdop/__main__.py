"""The process entry of `python -m mdop` and of the `mdop` console script.

`run` is for a process that makes one call and exits.  After the call it
freezes the heap (`gc.freeze`), so the collections of interpreter shutdown
skip every object the call and the imports made; the interpreter still
flushes its streams and runs its atexit handlers.  `cli.main` leaves the
collector alone, for callers that go on running.
"""

import gc
import os
import sys

from .cli import main


def run() -> int:
    """Run one CLI call on sys.argv and return its exit code.

    A closed stdout is not a failed check: the call exits 141 (128 + SIGPIPE)
    and writes nothing to stderr.
    """
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # What is still buffered goes to the null device, so the shutdown flush is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 141
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
