"""One-command SLUGGER benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds on first use (see build.py), then runs
one measurement in a fresh JVM. The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1. Exits
non-zero if the build fails or any correctness check fails.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

RUN_TIMEOUT_S = 170


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    try:
        b = build.ensure_built()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        return 2

    tmp = build.OUT / f"tmp-{os.getpid()}"
    cmd = b.run_command(tmp) + ["--workload", a.workload, "--seed", str(a.seed),
                                "--seconds", str(a.seconds), "--trace", str(a.trace)]
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=build.child_env(tmp))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s, killed", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
