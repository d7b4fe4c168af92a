#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The engine and the harness are built from
source (CMake, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; a build that is up to date costs about a second.
Build output goes to stderr, so the last line of stdout is the harness's
JSON result. With --trace 1 the spans are written to
<build dir>/traces/<workload>.jsonl. Exits non-zero, without a result,
when the build fails.
"""

import os
import subprocess
import sys


def flag(args, name):
    """The value after `name` in `args`, or None."""
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(build_root), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            return 1
    compile_ = ["cmake", "--build", build, "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr, env=env).returncode != 0:
        return 1

    args = sys.argv[1:]
    if flag(args, "--trace") == "1":
        name = os.path.basename(flag(args, "--workload") or "run")
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(traces, name + ".jsonl")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
