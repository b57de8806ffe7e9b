"""Child processes of the benchmark: every one is reaped before exit, and
its peak resident set size is read from the kernel's accounting
(``wait4``) of that one child."""

from __future__ import annotations

import os
import signal
import subprocess
import time
from typing import Optional


def reap(proc: subprocess.Popen, timeout: float) -> Optional[float]:
    """Wait up to ``timeout`` s for ``proc`` to exit; returns its peak RSS
    in MB, or None if it is still running."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            return None
        time.sleep(0.01)


def kill_group(pgid: int, timeout: float = 5.0) -> None:
    """SIGKILL what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + timeout
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.02)
    except ProcessLookupError:
        pass


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> Optional[float]:
    """Interrupt a process started with ``start_new_session=True``
    (SIGINT: a graceful shutdown), reap it (SIGKILL after ``timeout``),
    then clear its process group.  Returns its peak RSS in MB."""
    try:
        os.kill(proc.pid, signal.SIGINT)
    except ProcessLookupError:
        pass
    rss = reap(proc, timeout)
    if rss is None:
        kill_group(proc.pid)
        rss = reap(proc, timeout)
    kill_group(proc.pid)
    return rss
