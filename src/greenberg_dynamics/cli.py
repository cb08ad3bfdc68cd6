"""Command-line front end: every analysis as a subcommand with reference-run defaults.

Exit codes: 0 success (escapes only warn), 2 argv that does not parse, 3 a
value the library rejects, 4 I/O failure. The parser checks only that each
number is one; its range is checked once, by the library function that uses
it. All commands are deterministic; there is no seed anywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from . import analysis, emit
from .dynamics import (
    DEFAULT_ITERATIONS,
    DEFAULT_SENSITIVITY_DELTA,
    DEFAULT_SENSITIVITY_THRESHOLD,
    Orbit,
    iterate,
    sensitivity_experiment,
)
from .errors import ArgumentError, DomainError
from .model import TrafficParams, diagram_samples

PROG = "greenberg-dyn"

EXIT_OK = 0
EXIT_DOMAIN = 3
EXIT_IO = 4

# The reference experiments that `repro` writes: (name, subcommands, flags).
# Each subcommand runs through the parser and its handler, so every flag not
# given here takes its default. Orbit experiments share the output
# directory, so their files are named after the experiment.
REPRO_EXPERIMENTS = (
    ("free_flow_sink", ("orbit", "cobweb"), "--v0 0.25 --k0 0.25"),
    ("congested_sink", ("orbit", "cobweb"), "--v0 1.25 --k0 0.1"),
    ("damped_cycle", ("orbit", "cobweb"), "--v0 1.75 --k0 0.1"),
    ("two_cycle", ("orbit", "cobweb"), "--v0 2.25 --k0 0.35"),
    ("four_cycle", ("orbit", "cobweb"), "--v0 2.405 --k0 0.275"),
    ("eight_cycle", ("orbit", "cobweb"), "--v0 2.48 --k0 0.23"),
    ("chaotic_a", ("orbit", "cobweb"), "--v0 2.585 --k0 0.1"),
    ("chaotic_b", ("orbit", "cobweb"), "--v0 2.585 --k0 0.101"),
    ("sensitivity", ("sensitivity",), "--v0 2.585 --k0 0.1"),
    ("bifurcation_scan", ("bifurcation",), ""),
    ("lyapunov_curve", ("lyapunov",), ""),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every subcommand, built on the first call and shared after.

    ``main`` and ``repro`` parse with it, and each parse fills a fresh
    namespace, so calls in one process stay independent. Callers must not
    change the parser. Its handlers look up the library functions when they
    run, so replacing ``iterate`` or another binding here still takes effect.
    """
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Discrete dynamics of the normalized Greenberg traffic model: "
            "orbits, cobweb plots, stability reports, bifurcation scans and "
            "Lyapunov sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p, *formats):
        if len(formats) > 1:
            p.add_argument("--format", dest="fmt", choices=[*formats, "all"])
        p.add_argument("--out", default=".", help="output directory (created if absent)")
        # Not flags: "all" stands for these formats, and repro sets the prefix
        # that names its orbit files after the experiment.
        p.set_defaults(fmt="all", formats=formats, prefix="")

    def add_grid(p, steps):
        p.add_argument("--v0-min", type=float, default=0.05)
        p.add_argument("--v0-max", type=float, default=2.7)
        p.add_argument("--steps", type=int, default=steps)
        p.add_argument("--k0", type=float, default=analysis.DEFAULT_SCAN_K0)

    p = sub.add_parser("diagram", help="fundamental diagram profiles")
    p.set_defaults(handler=_cmd_diagram)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--kj", type=float, default=1.0)
    p.add_argument("--n", type=int, default=400, help="sample count")
    add_out(p, "csv", "json", "svg")

    for name, help_text, formats, handler in (
        ("orbit", "iterate the map and emit the orbit", ("csv", "json"), _cmd_orbit),
        ("cobweb", "orbit iteration drawn over the three diagrams", ("svg",), _cmd_cobweb),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--v0", type=float, required=True)
        p.add_argument("--k0", type=float, default=0.25)
        p.add_argument("--kj", type=float, default=1.0)
        p.add_argument("--n", type=int, default=DEFAULT_ITERATIONS)
        add_out(p, *formats)

    p = sub.add_parser("classify", help="fixed point, multiplier and stability")
    p.set_defaults(handler=_cmd_classify)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--kj", type=float, default=1.0)
    p.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")

    p = sub.add_parser("bifurcation", help="attractor samples over a v0 grid")
    p.set_defaults(handler=_cmd_bifurcation)
    add_grid(p, 1000)
    p.add_argument(
        "--n", dest="n_total", metavar="N", type=int,
        default=analysis.DEFAULT_SCAN_TOTAL, help="iterations per point",
    )
    p.add_argument(
        "--keep", dest="n_keep", metavar="KEEP", type=int,
        default=analysis.DEFAULT_SCAN_KEEP,
    )
    p.add_argument("--tolerance", type=float, default=analysis.DEFAULT_PERIOD_TOLERANCE)
    add_out(p, "csv", "json", "svg")

    p = sub.add_parser("lyapunov", help="Lyapunov exponent over a v0 grid")
    p.set_defaults(handler=_cmd_lyapunov)
    add_grid(p, 200)
    p.add_argument("--n", type=int, default=analysis.DEFAULT_LYAPUNOV_TERMS)
    p.add_argument(
        "--transient", dest="n_transient", metavar="TRANSIENT", type=int,
        default=analysis.DEFAULT_LYAPUNOV_TRANSIENT,
    )
    add_out(p, "csv", "json", "svg")

    p = sub.add_parser("sensitivity", help="two nearby orbits and their separation")
    p.set_defaults(handler=_cmd_sensitivity)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--k0", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=DEFAULT_SENSITIVITY_DELTA)
    p.add_argument("--kj", type=float, default=1.0)
    p.add_argument("--n", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument(
        "--tolerance",
        dest="threshold",
        metavar="TOLERANCE",
        type=float,
        default=DEFAULT_SENSITIVITY_THRESHOLD,
        help="separation threshold marking divergence",
    )
    add_out(p, "csv", "json", "svg")

    p = sub.add_parser("repro", help="run the full set of reference experiments")
    p.set_defaults(handler=_cmd_repro)
    p.add_argument("--out", default="greenberg-repro")

    return parser


def _write(args: argparse.Namespace, payload, svgs=()) -> list[str]:
    """Write the payload in the formats --format asks for, under --out.

    Files are named ``<prefix><command>.csv``, ``.json`` and, for each
    (suffix, PlotSpec) in ``svgs``, ``<prefix><command><suffix>.svg``.
    Returns the paths written, in order, and prints them once all are
    written. A path is listed once its writer returns, so if a writer
    raises, the documents before it are discarded too (``emit._discard``).
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats = args.formats if args.fmt == "all" else (args.fmt,)
    base = f"{args.prefix}{args.command}"
    written: list[Path] = []
    try:
        for fmt, writer in (("csv", emit.write_csv), ("json", emit.write_json)):
            if fmt in formats:
                writer(payload, path := out / f"{base}.{fmt}")
                written.append(path)
        if "svg" in formats:
            for suffix, spec in svgs:
                emit.write_svg(spec, payload, path := out / f"{base}{suffix}.svg")
                written.append(path)
    except BaseException:
        for path in written:
            emit._discard(path)
        raise
    for path in written:
        print(f"wrote {path}")
    return [str(path) for path in written]


def _warn_escape(orbit: Orbit) -> None:
    if orbit.escaped is not None:
        print(
            f"warning: orbit left (0, {orbit.params.kj}] at iterate {orbit.escaped}; "
            f"emitted {len(orbit.states)} states",
            file=sys.stderr,
        )


# Each handler returns the files it wrote and the settings it ran the
# library with; repro records both in its manifest. Every flag's dest is the
# library's parameter name, so the settings are read from the namespace.


def _settings(args: argparse.Namespace, *names: str) -> dict:
    return {name: getattr(args, name) for name in names}


def _cmd_diagram(args: argparse.Namespace) -> tuple[list[str], dict]:
    settings = _settings(args, "v0", "kj", "n")
    p = TrafficParams(v0=args.v0, kj=args.kj)
    payload = emit.DiagramPayload(params=p, samples=tuple(diagram_samples(p, args.n)))
    spec = emit.PlotSpec(title=f"Greenberg diagrams, v0={p.v0:g}")
    return _write(args, payload, [("", spec)]), settings


def _orbit(args: argparse.Namespace) -> tuple[Orbit, dict]:
    settings = _settings(args, "v0", "kj", "k0", "n")
    orbit = iterate(args.k0, TrafficParams(v0=args.v0, kj=args.kj), args.n)
    _warn_escape(orbit)
    return orbit, settings


def _cmd_orbit(args: argparse.Namespace) -> tuple[list[str], dict]:
    orbit, settings = _orbit(args)
    final = orbit.states[-1]
    print(
        f"final state: i={len(orbit.states) - 1} k={final.k:.6g} "
        f"q={final.q:.6g} v={final.v:.6g}"
    )
    return _write(args, orbit), settings


def _cmd_cobweb(args: argparse.Namespace) -> tuple[list[str], dict]:
    orbit, settings = _orbit(args)
    title = f"Iteration on the Greenberg diagrams, v0={args.v0:g}, k0={args.k0:g}"
    return _write(args, orbit, [("", emit.PlotSpec(title=title))]), settings


def _cmd_classify(args: argparse.Namespace) -> tuple[list[str], dict]:
    settings = _settings(args, "v0", "kj")
    report = analysis.classify_fixed_point(TrafficParams(**settings))
    if args.fmt == "json":
        doc = emit.envelope("fixed-point-report", settings, asdict(report))
        print(json.dumps(doc, indent=2))
    else:
        print(f"fixed point k*      = {report.k_star:.12g}")
        print(f"multiplier          = {report.multiplier:.12g}")
        print(f"classification      = {report.classification}")
        print(f"exponentially stable = {'yes' if report.exponentially_stable else 'no'}")
    return [], settings


def _cmd_bifurcation(args: argparse.Namespace) -> tuple[list[str], dict]:
    settings = _settings(
        args, "v0_min", "v0_max", "steps", "k0", "n_total", "n_keep", "tolerance"
    )
    scan = analysis.bifurcation_scan(**settings)
    escaped = sum(scan.escaped)
    if escaped:
        print(f"warning: {escaped} grid points escaped (0, 1]", file=sys.stderr)
    svgs = [
        (f"_{field}", emit.PlotSpec(title=f"{field} vs v0 bifurcation diagram", y_field=field))
        for field in ("k", "v")
    ]
    return _write(args, scan, svgs), settings


def _cmd_lyapunov(args: argparse.Namespace) -> tuple[list[str], dict]:
    settings = _settings(args, "v0_min", "v0_max", "steps", "k0", "n", "n_transient")
    curve = analysis.lyapunov_curve(**settings)
    missing = curve.lambdas.count(None)
    if missing:
        print(
            f"warning: {missing} grid points have no finite estimate "
            "(escaped or superstable orbit)",
            file=sys.stderr,
        )
    spec = emit.PlotSpec(title="Lyapunov exponent vs v0")
    return _write(args, curve, [("", spec)]), settings


def _cmd_sensitivity(args: argparse.Namespace) -> tuple[list[str], dict]:
    settings = _settings(args, "v0", "kj", "k0", "delta", "n", "threshold")
    p = TrafficParams(v0=args.v0, kj=args.kj)
    result = sensitivity_experiment(args.k0, args.delta, p, n=args.n, threshold=args.threshold)
    for orbit in (result.orbit_a, result.orbit_b):
        _warn_escape(orbit)
    if result.first_divergence_index is None:
        print(f"no divergence beyond {result.threshold:g} within {args.n} iterations")
    else:
        print(
            f"separation exceeded {result.threshold:g} at iterate "
            f"{result.first_divergence_index}"
        )
    title = f"Nearby orbits, v0={p.v0:g}, k0={args.k0:g}, delta={args.delta:g}"
    return _write(args, result, [("", emit.PlotSpec(title=title))]), settings


def _cmd_repro(args: argparse.Namespace) -> tuple[list[str], dict]:
    parser = build_parser()
    experiments = []
    for name, commands, flags in REPRO_EXPERIMENTS:
        files: list[str] = []
        for command in commands:
            run = parser.parse_args([command, *flags.split(), f"--out={args.out}"])
            if "orbit" in commands:
                run.prefix = f"{name}_"
            written, settings = run.handler(run)
            files += written
        experiments.append({"name": name, "settings": settings, "files": files})
    doc = {
        "schema_version": emit.SCHEMA_VERSION,
        "kind": "repro-manifest",
        "experiments": experiments,
    }
    path = Path(args.out) / "manifest.json"
    emit._write([json.dumps(doc, indent=2) + "\n"], path)
    print(f"wrote {path}")
    return [str(path)], {}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (DomainError, ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
