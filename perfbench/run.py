#!/usr/bin/env python3
"""Build and run the repository's host-time benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 15 --trace 0

It builds the benchmark (a Go module in this directory that uses the
repository's packages from source) into .bench_build, with the Go build
cache there too, then runs it with the given arguments from the
checkout root and exits with its status. The build fails, and so does
this script, when the repository's sources are not beside it.
"""
import os
import signal
import subprocess
import sys
import time


def stop(signum, frame):
    # Unwind through main's finally, which stops the benchmark process.
    sys.exit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    cmd = [binary, "-launch-ns", str(time.time_ns()),
           "-workdir", os.path.join(build, "perfbench")] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
