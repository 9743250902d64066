#!/usr/bin/env python3
"""Builds and runs the SWARM-KV benchmark.

    python3 swarmbench/run.py --workload <ycsb_b_cached|ycsb_a_miss|chaos_churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (swarmbench/CMakeLists.txt, which compiles src/ directly) into
$CARGO_TARGET_DIR/swarmbench, or .bench_build/swarmbench when that variable is
unset; later runs only re-check the build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.

With --trace 1 the spans of the run are written to
<build dir>/traces/<workload>-seed<n>.jsonl.

Extra flags (--tiny, --inject ...) are passed through to the binary; the
benchmark's own tests use them. Exit code: the benchmark's (0 = correct,
1 = a correctness gate failed), or 2 when the sources are missing or the
build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "swarmbench")


def fail(msg):
    print("swarmbench: " + msg, file=sys.stderr)
    return 2


def build(out_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        return "the repository's src/ tree is missing; nothing to build"
    cmake = shutil.which("cmake")
    if cmake is None:
        return "cmake not found"
    configure = [cmake, "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, [cmake, "--build", out_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return "build failed: " + " ".join(cmd)
    return None


def main(argv):
    out_dir = build_dir()
    err = build(out_dir)
    if err is not None:
        return fail(err)
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"] and \
            "--trace-out" not in args:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        args += ["--trace-out",
                 os.path.join(out_dir, "traces", "%s-seed%s.jsonl" % (workload, seed))]
    # The binary reads no environment knobs; drop the repository's bench and
    # chaos knobs anyway so no stray variable reaches it.
    env = {k: v for k, v in os.environ.items()
           if not (k.startswith("SWARM_") or k.startswith("CHAOS_"))}
    sys.stdout.flush()
    try:
        proc = subprocess.run([os.path.join(out_dir, "swarmbench")] + args, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("the run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
