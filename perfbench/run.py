#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

Every argument is handed to the benchmark binary (see README.md in this
directory). The binary and the library sources under src/ are built with
CMake into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench); the build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. Exit code: the binary's, or 2 when the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def tree_hash() -> str:
    """Hash of every source the binary is built from, naming the counts file
    so that runs of the same code compare their deterministic counts."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build(out: Path) -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "etcs_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"build step failed: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def option(args: list, name: str, default: str) -> str:
    return args[args.index(name) + 1] if name in args[:-1] else default


def main() -> int:
    args = sys.argv[1:]
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        return 2

    workload = option(args, "--workload", "none")
    seed = option(args, "--seed", "0")
    state = out / "state"
    state.mkdir(parents=True, exist_ok=True)
    extra = []
    if "--counts" not in args:
        extra += ["--counts", str(state / f"counts-{workload}-seed{seed}-{tree_hash()}.txt")]
    if "--spans" not in args:
        extra += ["--spans", str(state / f"spans-{workload}-seed{seed}.json")]
    try:
        done = subprocess.run([str(out / "etcs_perfbench"), *args, *extra],
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"benchmark did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
