#!/usr/bin/env python3
"""Build and run one workload of the p4sonar end-to-end benchmark.

    python3 perfbench/run.py --workload fig9 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
the build directory: $CARGO_TARGET_DIR when set, else .bench_build. Later
calls rebuild only what changed. The perfbench binary then runs the workload;
its standard output is passed through unchanged, so the last line is the
result object {correct, attempted, failed, metrics}. A copy of the full
result (provenance, every metric, failed checks) is written to
<build dir>/results/<workload>-seed<n>-trace<t>.json.

Exit status: the binary's (0 = every output check passed), 2 for bad
arguments or a checkout without the p4sonar sources.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("fig9", "fabric16", "replay_mix", "archive_serve")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    configured = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return configured if configured.is_absolute() else ROOT / configured


def build(out):
    """Configure once, then build the binary (a no-op when up to date)."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)


def source_hash():
    """Digest of every file the benchmark is built from."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no p4sonar sources under {ROOT / 'src'}")

    out = build_dir()
    build(out)
    workdir = out / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ,
               PERFBENCH_GIT_COMMIT=git_commit(),
               PERFBENCH_SOURCE_HASH=source_hash())
    cmd = [str(out / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", args.trace,
           "--workdir", str(workdir),
           "--out", str(results /
                        f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        ".json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
