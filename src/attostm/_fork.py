"""Two calls of one function at the same time, the second in a forked child.

Both net-current pairs run through run_pair, each a call under a
waveform and under its negation (LaserConfig.flipped): the TDSE runs
(experiments._wall_charges) and the strong-field weights
(experiments.delay_scan_strongfield). The child is made by POSIX fork, so
these need a platform with os.fork.
"""

import ctypes
import os
import pickle
import signal
import sys
import warnings


class LostRunError(RuntimeError):
    """A run in a forked child ended without a result (a signal, such as
    an out-of-memory kill, or a nonzero exit)."""


def run_pair(fn, ours, theirs, *, theirs_name, lost):
    """[fn(ours), fn(theirs)]: fn(theirs) runs in a forked child while this
    process runs fn(ours).

    The child pipes back its result, or the exception it raised, and the
    warnings it raised, which are re-emitted here in order before that
    exception is re-raised. A child that dies without a result raises
    lost("<theirs_name> ended without a result: <how>"), how naming the
    signal or the exit status. If this process's call fails or is
    interrupted, the child is killed; it is reaped before return.
    """
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # never return into the caller's stack, and leave the parent's
        # buffered std streams and exit handlers alone
        status = 1
        try:
            os.close(read_fd)
            _exit_with_parent(parent)
            _run_in_child(write_fd, fn, theirs)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            mine = fn(ours)
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not data:
        how = (f"killed by signal {-status} ({signal.strsignal(-status)})"
               if status < 0 else f"exit status {status}")
        raise lost(f"{theirs_name} ended without a result: {how}")
    (result, exc), raised = pickle.loads(data)
    for message, category, filename, lineno in raised:
        warnings.warn_explicit(message, category, filename, lineno)
    if exc is not None:
        raise exc
    return [mine, result]


def _exit_with_parent(parent):
    """Have the kernel kill this forked child when its parent dies (Linux),
    so that a parent killed outright leaves no run behind."""
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def _run_in_child(fd, fn, arg):
    """Write pickle((fn(arg), None) or (None, exception), warnings) to fd,
    each warning as (message, category, filename, lineno)."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = (fn(arg), None)
        except BaseException as exc:
            outcome = (None, exc)
    raised = [(str(w.message), w.category, w.filename, w.lineno)
              for w in caught]
    with os.fdopen(fd, "wb") as pipe:
        pipe.write(pickle.dumps((outcome, raised)))
