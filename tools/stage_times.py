"""Print in-process times of the stages of the default scan and curve and of small documents.

    PYTHONPATH=src python tools/stage_times.py [REPEAT]

Each row is the least of REPEAT runs (default 5), in milliseconds: the
scan's compute (`bifurcation_scan` with the `bifurcation` command's
defaults), its period search (the same `_period` calls the scan makes,
recorded once and replayed), its CSV and JSON documents, and each of its
two SVG plots. Then the default Lyapunov curve (`lyapunov_curve` with the
`lyapunov` command's defaults): its compute, its CSV, its JSON and its SVG
plot. Then the small documents of one chaotic orbit, as the
`orbit`, `cobweb` and `sensitivity` commands write them at v0 2.6, k0 0.3
and their default n of 300: the orbit's JSON, its cobweb SVG and the
sensitivity run's SVG. Every document is written to memory, so no row
counts the disk. These are the rows of ROADMAP's "Where the time is"
table; the script gates nothing.
"""

import functools
import io
import sys
import time

from greenberg_dynamics import analysis, dynamics, emit
from greenberg_dynamics.model import TrafficParams


def best_ms(repeat, run):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def default_scan():
    return analysis.bifurcation_scan(0.05, 2.7, 1000)


def default_curve():
    return analysis.lyapunov_curve(0.05, 2.7, 200)


def period_calls():
    """The argument tuples of every `_period` call one default scan makes."""
    calls = []
    period = analysis._period

    def record(*args):
        calls.append(args)
        return period(*args)

    analysis._period = record
    try:
        default_scan()
    finally:
        analysis._period = period
    return calls


def main(repeat=5):
    scan = default_scan()
    calls = period_calls()
    stages = [
        ("default scan, compute", default_scan),
        (f"its period search ({len(calls)} tails)", lambda: [analysis._period(*c) for c in calls]),
        ("scan CSV", lambda: emit.write_csv(scan, io.StringIO())),
        ("scan JSON", lambda: emit.write_json(scan, io.StringIO())),
    ]
    for field in "kv":
        write = functools.partial(emit.write_svg, emit.PlotSpec(y_field=field), scan)
        stages.append((f"{field} SVG", lambda write=write: write(io.StringIO())))
    curve = default_curve()
    stages += [
        ("default Lyapunov curve, compute", default_curve),
        ("curve CSV", lambda: emit.write_csv(curve, io.StringIO())),
        ("curve JSON", lambda: emit.write_json(curve, io.StringIO())),
        ("curve SVG", lambda: emit.write_svg(emit.PlotSpec(), curve, io.StringIO())),
    ]
    params = TrafficParams(v0=2.6)
    orbit = dynamics.iterate(0.3, params, dynamics.DEFAULT_ITERATIONS)
    result = dynamics.sensitivity_experiment(0.3, dynamics.DEFAULT_SENSITIVITY_DELTA, params)
    stages += [
        ("orbit JSON", lambda: emit.write_json(orbit, io.StringIO())),
        ("cobweb SVG", lambda: emit.write_svg(emit.PlotSpec(), orbit, io.StringIO())),
        ("sensitivity SVG", lambda: emit.write_svg(emit.PlotSpec(), result, io.StringIO())),
    ]
    print(f"stage (best of {repeat})" + " " * 12 + "ms")
    for name, run in stages:
        print(f"{name:<32}{best_ms(repeat, run):8.2f}")


if __name__ == "__main__":
    if len(sys.argv) > 2 or sys.argv[1:] and not (sys.argv[1].isdigit() and int(sys.argv[1])):
        sys.exit(__doc__)
    main(*map(int, sys.argv[1:]))
