"""In-process job runner, started by run.py as a long-lived subprocess.

Runs each job through ``framekit.cli.main(argv)`` with stdout and stderr
captured and times it; this is the cost a library or notebook user sees,
without interpreter start-up.  In a traced run every job runs untraced and
then traced, back to back and in alternating order, so the two totals give
the tracing overhead.

Protocol: one JSON request per line on stdin, one JSON reply per line on
stdout.

* ``{"argv": [...]}`` runs a job; the reply has ``code``, ``stdout`` and
  ``seconds`` (or ``error`` when the job raised).
* ``{"argv": [...], "traced_argv": [...], "job": i}`` also runs the job
  traced (first when ``i`` is odd), and the reply carries the traced result
  under ``traced``.
* ``{"spans": path}`` writes the collected spans and ends the worker.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing job is a failed job, not a failed benchmark
            return {"code": None, "stdout": "", "seconds": None, "error": traceback.format_exc(limit=3)}
    return {"code": code, "stdout": out.getvalue(), "seconds": time.perf_counter() - start}


def run_traced(cli, tracer, request):
    tracer.job = request["job"]
    tracer.install()
    try:
        return run_job(cli, request["traced_argv"])
    finally:
        tracer.uninstall()


def main() -> int:
    import framekit.cli as cli
    from spans import Tracer

    tracer = Tracer()
    replies = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        if "spans" in request:
            tracer.write(request["spans"])
            break
        traced = None
        if "traced_argv" in request and request["job"] % 2 == 1:
            traced = run_traced(cli, tracer, request)
        reply = run_job(cli, request["argv"])
        if "traced_argv" in request:
            reply["traced"] = traced or run_traced(cli, tracer, request)
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
