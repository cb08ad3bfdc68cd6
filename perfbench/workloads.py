"""Seeded command lines for the benchmark workloads.

The program only ever receives the argv lists built here. The seed changes
input values (initial density, grid start, orbit parameters), never sizes:
grid lengths, iteration counts and the number of invocations per repetition
are fixed per size table. ``FULL`` is what the benchmark measures; ``TINY``
keeps the self-test fast.

One repetition ("rep") is one run of the workload: a single invocation for
``repro``, ``lyapunov`` and ``bifurcation``, and one ``orbit``/``cobweb``/
``sensitivity``/``classify`` quartet at one seeded (v0, k0) for ``orbits``.
"""

from __future__ import annotations

import random
from typing import Iterator

WORKLOADS = ("repro", "lyapunov", "bifurcation", "orbits")

# The paper's grids and iteration counts (the CLI defaults).
FULL = {
    "lyapunov_steps": 200,
    "lyapunov_n": 10_000,
    "lyapunov_transient": 1_000,
    "scan_steps": 1000,
    "scan_n": 300,
    "scan_keep": 60,
    "orbit_n": 300,
}
TINY = {
    "lyapunov_steps": 4,
    "lyapunov_n": 1000,
    "lyapunov_transient": 10,
    "scan_steps": 12,
    "scan_n": 40,
    "scan_keep": 10,
    "orbit_n": 20,
}

V0_MAX = 2.7
OUT = "out"


def _grid_start(rng: random.Random) -> tuple[float, float]:
    """Seeded (v0_min, k0) for the sweeps: v0_min in [0.05, 0.10], k0 in [0.15, 0.35]."""
    return rng.uniform(0.05, 0.10), rng.uniform(0.15, 0.35)


def reps(workload: str, seed: int, sizes: dict = FULL) -> Iterator[list[list[str]]]:
    """Endless stream of repetitions, each a list of argv lists, fixed by the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "repro":
            yield [["repro", "--out", OUT]]
        elif workload == "lyapunov":
            v0_min, k0 = _grid_start(rng)
            yield [[
                "lyapunov", "--v0-min", repr(v0_min), "--v0-max", repr(V0_MAX),
                "--steps", str(sizes["lyapunov_steps"]), "--k0", repr(k0),
                "--n", str(sizes["lyapunov_n"]),
                "--transient", str(sizes["lyapunov_transient"]), "--out", OUT,
            ]]
        elif workload == "bifurcation":
            v0_min, k0 = _grid_start(rng)
            yield [[
                "bifurcation", "--v0-min", repr(v0_min), "--v0-max", repr(V0_MAX),
                "--steps", str(sizes["scan_steps"]), "--k0", repr(k0),
                "--n", str(sizes["scan_n"]), "--keep", str(sizes["scan_keep"]),
                "--out", OUT,
            ]]
        else:
            v0, k0 = repr(rng.uniform(0.2, V0_MAX)), repr(rng.uniform(0.05, 0.95))
            n = str(sizes["orbit_n"])
            yield [
                ["orbit", "--v0", v0, "--k0", k0, "--n", n, "--out", OUT],
                ["cobweb", "--v0", v0, "--k0", k0, "--n", n, "--out", OUT],
                ["sensitivity", "--v0", v0, "--k0", k0, "--n", n, "--out", OUT],
                ["classify", "--v0", v0, "--format", "json"],
            ]


def flag(argv: list[str], name: str) -> str | None:
    """The value following ``name`` in argv, or None when the flag is absent."""
    return argv[argv.index(name) + 1] if name in argv else None
