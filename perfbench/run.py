#!/usr/bin/env python3
"""Builds the engine and the benchmark program from source, then runs one workload.

    python3 perfbench/run.py --workload paths_large --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The build goes to .bench_build/ (or to
$CARGO_TARGET_DIR when set), the scratch database and trace files under it.
Build output goes to stderr; the last line of stdout is the program's JSON
result. Exits non-zero, printing no result, if the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paths_large", "mv_write_mix")


def build(out: Path) -> Path:
    cmake_dir = out / "cmake"
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (cmake_dir / "build.ninja").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(cmake_dir), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j", jobs],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return cmake_dir / "mood_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind so subprocess.run kills and reaps the child it runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    run_dir = out / "run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(run_dir)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, timeout=170)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
