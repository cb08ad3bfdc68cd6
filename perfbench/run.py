"""greenberg-dyn benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--workload all`` runs every workload untraced, then every workload traced,
and prints each metric by name and unit. The last stdout line is one JSON
object; for a single workload it has the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Load is one client in a closed loop: one worker process with one thread runs
``cli.main(argv)`` for each generated argv, and the next invocation starts
only after the previous one has returned and its output has been checked
(``oracle.py``). Only the call itself is timed; checking stays outside.
The first repetition of a run warms the worker up and is checked but not
timed. With ``--trace 1`` traced and untraced repetitions alternate: the
traced ones give the per-layer metrics (``tracing.py``), the untraced ones
the baseline for ``trace.overhead_s``.

The end-to-end times (``wall_s``, ``op_ms_*``, ``setup_s``) are scaled to a
reference CPU speed measured while the work runs (``probe.py``): in the
worker for invocations, and in this process while it waits for each fresh
interpreter. The plain medians are printed as ``*_raw`` lines. The plain
``setup_s`` is steadier while the machine's load stays the same, but moved
by 40 % between a quiet and a loaded hour; scaled, it moved by about 10 %.
The benchmark pins itself, and so the worker and every interpreter it
starts, to one CPU, so that the probe samples the CPU the work runs on.
Per-layer times are not scaled, except ``trace.overhead_s``, the difference
of the scaled medians of traced and untraced repetitions.

``repro_sha256.json`` is the sha256 of every file that
``greenberg-dyn repro --out out`` writes, recorded at the commit that added
this benchmark; ``artifacts_changed`` counts the files that differ from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import probe
import workloads
from tracing import LAYER_METRICS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_DIR = ".perfbench-work"
THREADS_VAR = "GREENBERG_DYN_THREADS"
NPROC = len(os.sched_getaffinity(0))  # before measure() pins this process to one CPU

# Fresh interpreters started per untraced run to time `setup_s`, spread over the run.
SETUP_SPAWNS = 9
SETUP_CODE = "import greenberg_dynamics.cli as cli; cli.build_parser()"
MIN_TIMED_REPS = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(THREADS_VAR, None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/self/mountinfo."""
    best, fs = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fs
    target = str(path.resolve())
    for line in lines:
        fields = line.split()
        mount, sep = fields[4], fields.index("-")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fs = mount, fields[sep + 1]
    return fs


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(work: Path) -> dict:
    """What the numbers depend on, stamped onto every result."""
    threads = os.environ.get(THREADS_VAR)
    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
        "work_dir_fs": _fs_type(work),
        THREADS_VAR: "unset" if threads is None else f"removed (was {threads!r})",
    }


def _setup_once(work: Path, samples: list) -> tuple[float, float]:
    """Start and end of one fresh interpreter importing the CLI, probed from here."""
    with probe.SpeedProbe(signal.ITIMER_REAL) as speed:
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=work, check=True,
            timeout=60,
        )
        end = time.perf_counter()
    samples.extend(speed.samples)
    return start, end


class Worker:
    """The process that runs the program; see worker.py for the protocol."""

    def __init__(self, work: Path):
        self.spans_file = work / "spans.json"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC), str(self.spans_file)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=work,
            env=child_env(),
        )

    def call(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark worker exited unexpectedly")
        return json.loads(line)

    def close(self) -> dict:
        """Stop the worker; returns its peak resident memory in MB and probe samples."""
        try:
            final = self.call({})
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return final


def tail_percentile(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    A run of a long workload has fewer than forty invocations; there the
    rule asks for a quarter of the samples beyond it instead, so that the
    value is not the maximum of a handful.
    """
    xs = sorted(latencies)
    n = len(xs)
    beyond = max(1, min(10, n // 4)) if n > 1 else 0
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n


def _pin() -> int:
    """Pin this process, and so every process it starts, to one CPU; returns it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class _Tally:
    """Operations attempted and failed, and the most repro artifacts changed in one."""

    def __init__(self):
        self.attempted = self.failed = self.changed = 0

    def record(self, argv: list[str], op_dir: Path, reply: dict, rng: random.Random) -> None:
        if reply["rc"] == 0:
            problems, changed = oracle.check(argv, op_dir, reply["stdout"], reply["stderr"], rng)
        else:
            problems, changed = [f"exit status {reply['rc']}: {reply['stderr'][:300]}"], 0
        self.attempted += 1
        self.changed = max(self.changed, changed)
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(problems[:5])}", file=sys.stderr)


def measure(
    workload: str, seed: int, seconds: float, trace: bool, sizes: dict = workloads.FULL,
    log=print,
) -> dict:
    """One benchmark run; returns the result object plus an ``info`` dict."""
    work = ROOT / WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    info = {"env": {**environment(work), "pinned_cpu": _pin()}}
    reps = workloads.reps(workload, seed, sizes)
    check_rng = random.Random(f"check:{workload}:{seed}")
    tally = _Tally()
    samples: list[list[float]] = []  # probe samples taken here during set-up
    setups: list[tuple[float, float]] = []
    # Timed repetitions, traced or not: rep -> [(start, end) of each invocation].
    timed = {True: {}, False: {}}
    rep_of_op: dict[int, int] = {}
    if not trace:
        _setup_once(work, [])  # writes the bytecode cache a user's install would have
    worker = Worker(work)
    try:
        start = time.perf_counter()
        rep = 0
        while True:
            now = time.perf_counter()
            if not trace and len(setups) < SETUP_SPAWNS:
                if now >= start + len(setups) * seconds / SETUP_SPAWNS:
                    setups.append(_setup_once(work, samples))
                    continue
            if now >= start + seconds and len(timed[False]) + len(timed[True]) >= MIN_TIMED_REPS:
                break
            traced = trace and rep % 2 == 1
            spans = []
            for argv in next(reps):
                op = len(rep_of_op)
                rep_of_op[op] = rep
                op_dir = work / f"op{op}"
                op_dir.mkdir()
                reply = worker.call({"op": op, "argv": argv, "dir": str(op_dir), "trace": traced})
                spans.append((reply["start"], reply["end"]))
                tally.record(argv, op_dir, reply, check_rng)
                shutil.rmtree(op_dir)
            if rep > 0:
                timed[traced][rep] = spans
            rep += 1
    finally:
        final = worker.close()

    info.update(timed_reps=len(timed[False]), artifacts_changed=tally.changed,
                fail_rate=tally.failed / tally.attempted)
    intervals = [(ops[0][0], ops[-1][1]) for t in (True, False) for ops in timed[t].values()]
    scale = probe.factors(samples + final["samples"], intervals + setups)
    scales = {True: scale[:len(timed[True])], False: scale[len(timed[True]):len(intervals)]}
    if trace:
        spans = json.loads(worker.spans_file.read_text(encoding="utf-8"))
        shutil.move(worker.spans_file, work.parent / f"spans-{workload}-seed{seed}.json")
        values = _per_layer(spans, rep_of_op, timed, scales)
        values["repro.artifacts_changed"] = tally.changed
        units = LAYER_METRICS
        info["traced_reps"] = len(timed[True])
    else:
        setup_scale = scale[len(intervals):]
        values = _end_to_end(timed[False], scales[False], setups, setup_scale, final, info)
        units = END_TO_END
    shutil.rmtree(work)
    result = {
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report(workload, result, info, log)
    return {**result, "info": info}


def _wall(ops: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in ops)


def _per_layer(spans: list, rep_of_op: dict, timed: dict, scales: dict) -> dict:
    values = layer_metrics(spans, rep_of_op, {rep: _wall(ops) for rep, ops in timed[True].items()})
    scaled = {t: [_wall(ops) * f for ops, f in zip(timed[t].values(), scales[t])] for t in timed}
    values["trace.overhead_s"] = statistics.median(scaled[True]) - statistics.median(scaled[False])
    return values


def _end_to_end(timed: dict, scale: list, setups: list, setup_scale: list, final: dict,
                info: dict) -> dict:
    raw = [[end - start for start, end in ops] for ops in timed.values()]
    latencies = [x * f for rep, f in zip(raw, scale) for x in rep]
    raw_latencies = [x for rep in raw for x in rep]
    setup_raw = [end - start for start, end in setups]
    tail, pct = tail_percentile(latencies)
    info.update(
        invocations=len(latencies), op_ms_tail_percentile=pct,
        speed_factor=statistics.median(scale),
        raw={"wall_s": statistics.median(sum(rep) for rep in raw),
             "setup_s": statistics.median(setup_raw),
             "op_ms_p50": statistics.median(raw_latencies) * 1e3,
             "op_ms_tail": tail_percentile(raw_latencies)[0] * 1e3},
    )
    return {
        "wall_s": statistics.median(sum(rep) * f for rep, f in zip(raw, scale)),
        "setup_s": statistics.median(t * f for t, f in zip(setup_raw, setup_scale)),
        "peak_rss_mb": final["peak_rss_mb"],
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_tail": tail * 1e3,
    }


def report(workload: str, result: dict, info: dict, log=print) -> None:
    log(f"workload {workload}  env {json.dumps(info['env'])}")
    for name, metric in result["metrics"].items():
        log(f"  {name} {metric['value']:.6g} {metric['unit']}")
    if "raw" in info:
        for name, value in info["raw"].items():
            log(f"  {name}_raw {value:.6g} {END_TO_END[name]}")
        log(f"  speed_factor {info['speed_factor']:.4g} ratio (median over repetitions)")
        log(f"  op_ms_tail is p{info['op_ms_tail_percentile']:.4g} of "
            f"{info['invocations']} invocations in {info['timed_reps']} timed repetitions")
    log(f"  fail_rate {info['fail_rate']:.6g} ratio ({result['failed']}/{result['attempted']})")
    if workload == "repro":
        log(f"  artifacts_changed {info['artifacts_changed']} count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "greenberg_dynamics" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        del result["info"]
        print(json.dumps(result))
        return 0
    results = {}
    for trace in (False, True):
        for name in workloads.WORKLOADS:
            result = measure(name, args.seed, args.seconds, trace)
            results.setdefault(name, {})["traced" if trace else "untraced"] = result
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
