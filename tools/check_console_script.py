"""Run `repro` through a command and check its files and its peak memory.

    python tools/check_console_script.py SHA256_TABLE COMMAND...

COMMAND starts the program: `greenberg-dyn` for the installed entry point,
or `python -m greenberg_dynamics.cli` with the package on the path. From
the current directory, which should be empty, the script runs
`COMMAND classify --v0 1` and then `COMMAND repro --out out`. It exits
non-zero unless `out` holds exactly the files of SHA256_TABLE (such as
perfbench/repro_sha256.json, which it only reads) with those sha256
digests, and unless the peak RSS of `repro` rises at most 6.0 MB above that
of `classify`, which is the interpreter and the package.

manifest.json records the paths as given, so the run is `--out out`. On
CPython 3.11 the rise was 4.0 MB with the scan documents streamed a grid
point at a time, and 8.8 MB when the scan JSON built all its arrays first;
the bound is 1.5 times the 4.0 MB. Both runs come before any import but
these three, because a child's ru_maxrss also counts the RSS of the process
that started it.
"""

import resource
import subprocess
import sys


def peak_mb(command, *args):
    subprocess.run([*command, *args], check=True)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def main(table, *command):
    floor = peak_mb(command, "classify", "--v0", "1")
    peak = peak_mb(command, "repro", "--out", "out")
    print(f"peak RSS: classify {floor:.1f} MB, repro {peak:.1f} MB")
    import hashlib
    import json
    import pathlib

    recorded = json.loads(pathlib.Path(table).read_text())
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in pathlib.Path("out").iterdir()
    }
    changed = sorted(set(written.items()) ^ set(recorded.items()))
    if changed:
        sys.exit(f"artifacts differ from {table}: {changed}")
    if peak - floor > 6.0:
        sys.exit(f"repro peaks {peak - floor:.1f} MB above classify, more than 6.0 MB")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
