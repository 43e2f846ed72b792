"""Fork server that runs each gridlang CLI command in a fresh process.

Started once per benchmark run, it imports ``gridlang.cli`` (from
``PYTHONPATH``) and then reads one JSON request per line on stdin.  For each
it forks a child that changes to the request's directory, sends its stdout
and stderr to files, and times ``gridlang.cli.main(argv)``.  The parent
waits for the child and answers with one JSON line.  A fork starts from the
state a fresh interpreter has after the same imports, without paying the
import again, so the benchmark can afford many small shards; set-up time is
measured separately with real fresh interpreters.

Request keys: cwd, argv, trace (wrap gridlang in spans), timeout (seconds;
the child is killed by SIGALRM after it), result, stdout, stderr (file
paths).  The child writes the result file: exit status, seconds in
``main``, the peak RSS it added to the forked image and, when traced, the
spans.  The reply carries the reference-loop time (see
``reference.py``), taken here in the server before the fork and after the
child has ended, so no state of the command can reach it.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
import traceback

from reference import reference_seconds


def measure(request: dict, rss_at_fork_kib: int) -> int:
    """Run one CLI command in this (forked) process; returns its status."""
    import gridlang.cli

    tracer = None
    if request["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    error = None
    # flush earlier commands' writes, or their writeback stalls this one's
    # file operations by up to 2x
    os.sync()
    start = time.perf_counter()
    try:
        status = gridlang.cli.main(request["argv"])
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the benchmark counts it as a failed command
        traceback.print_exc()
        status, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start

    # ru_maxrss is in KiB on Linux; a forked child starts from the server's
    # resident size, so the difference is what the command itself added
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"status": status, "seconds": seconds,
              "rss_mb": (peak_kib - rss_at_fork_kib) / 1024.0,
              "error": error}
    if tracer is not None:
        tracer.uninstall()
        record["spans"] = tracer.export()
    with open(request["result"], "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return status


def _child(request: dict) -> None:
    rss_at_fork_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    os.chdir(request["cwd"])
    for fd, key in ((1, "stdout"), (2, "stderr")):
        target = os.open(request[key], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(target, fd)
        os.close(target)
    status = 1
    try:
        status = measure(request, rss_at_fork_kib)
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(status if isinstance(status, int) else 1)


def serve() -> None:
    import gridlang.cli  # noqa: F401 - the import every child inherits
    import spans  # noqa: F401

    # the reading after one command is the reading before the next
    reference = reference_seconds()
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.flush()
        before = reference
        pid = os.fork()
        if pid == 0:
            _child(request)
        _, wait_status = os.waitpid(pid, 0)
        reference = reference_seconds()
        reply = {"reference_s": (before + reference) / 2}
        if os.WIFSIGNALED(wait_status):
            reply["signal"] = os.WTERMSIG(wait_status)
        else:
            reply["exit"] = os.WEXITSTATUS(wait_status)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
