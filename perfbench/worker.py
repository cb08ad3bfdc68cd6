"""Benchmark worker: runs one CLI invocation per request, in a closed loop.

Started by ``run.py`` as ``python3 perfbench/worker.py <src> <trace file>``.
Each stdin line is a JSON request ``{"op", "argv", "dir", "trace"}``; the
worker changes into ``dir``, calls ``cli.main(argv)`` with stdout and stderr
captured, and answers on stdout with the return code and the time the call
took, with its start and end on the system-wide ``perf_counter`` clock. Only
the call is timed. An empty request ends the loop; the worker then writes its
spans (when any were recorded) and answers with its peak resident memory and
the speed-probe samples taken while it worked (see probe.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    src, trace_file = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from greenberg_dynamics import analysis, cli, dynamics, emit

    from probe import SpeedProbe
    from tracing import Tracer

    modules = {"cli": cli, "analysis": analysis, "dynamics": dynamics, "emit": emit}
    tracer = Tracer(modules)
    channel = sys.stdout
    with SpeedProbe() as probe:
        for line in sys.stdin:
            request = json.loads(line)
            if not request:
                break
            os.chdir(Path(request["dir"]))
            out, err = io.StringIO(), io.StringIO()
            if request["trace"]:
                tracer.install(request["op"])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = cli.main(request["argv"])
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # reported as a failed operation
                    rc = f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
            tracer.uninstall()
            reply = {"rc": rc, "start": start, "end": end,
                     "stdout": out.getvalue(), "stderr": err.getvalue()}
            channel.write(json.dumps(reply) + "\n")
            channel.flush()
    if tracer.spans:
        tracer.dump(trace_file)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    channel.write(json.dumps({"peak_rss_mb": peak_kb / 1024, "samples": probe.samples}) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
