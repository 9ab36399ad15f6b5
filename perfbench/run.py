#!/usr/bin/env python3
"""Build the simulator and the perfbench binary from source, then run one
workload.

    python3 perfbench/run.py --workload fleet64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under that root;
build output goes to stderr, so the last line of stdout is the JSON result of
the perfbench binary. The exit code is that binary's: 0 only when every output
check passed.
--selftest builds and runs the benchmark's own tests instead.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configure once, then build `target`; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no simulator sources under", ROOT, file=sys.stderr)
        return None
    bdir = build_dir()
    try:
        if not (bdir / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(bdir), "--target", target,
                        "-j", "4"], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed:", err, file=sys.stderr)
        return None
    exe = bdir / target
    return exe if exe.is_file() else None


def main(argv):
    selftest = argv == ["--selftest"]
    exe = build("perfbench_selftest" if selftest else "perfbench")
    if exe is None:
        return 2
    sys.stdout.flush()
    try:
        proc = subprocess.run([str(exe)] + ([] if selftest else argv),
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded", RUN_TIMEOUT_S, "s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
