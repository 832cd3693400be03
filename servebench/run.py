#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a source tree.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --self-test

The first call configures and builds servebench/ (which compiles the
repository's src/ libraries) into $CARGO_TARGET_DIR/servebench, or
.bench_build/servebench when that variable is unset; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Traces of --trace 1 runs are
written to .bench_out/. --self-test builds and runs the benchmark's
unit tests. The exit code is the benchmark's (see servebench/src/main.cpp),
or 2 when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
JOBS = "4"


def log(*parts):
    print("servebench:", *parts, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def build(target):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "servebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return None
    if not run_quiet(["cmake", "--build", build_dir, "--target", target,
                      "-j", JOBS]):
        return None
    return os.path.join(build_dir, target)


def source_digest():
    """SHA-256 over the paths and bytes of every file under src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    """HEAD of the tree when it is itself a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv):
    if argv == ["--self-test"]:
        tests = build("servebench_tests")
        if tests is None or not os.path.isfile(tests):
            log("build of servebench_tests failed (is GTest installed?)")
            return 2
        return subprocess.call([tests])
    binary = build("servebench")
    if binary is None:
        log("build failed; the benchmark needs the repository's src/ tree")
        return 2
    cmd = [binary] + argv + ["--git-sha", git_sha(),
                             "--source-digest", source_digest()]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
