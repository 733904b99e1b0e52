#!/usr/bin/env python3
"""Build the benchmark and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program in this directory, a package of the repository's own
module, is built into .bench_build/ (with its Go build cache there too,
so nothing outside the checkout is written) and run with the arguments
given; its standard output, whose last line is the JSON result, passes
through unchanged. A failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    # The program is a package of the repository's module; without the
    # module's root here, go would look for one in the directories above.
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at " + ROOT, file=sys.stderr)
        return False
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # Go's telemetry counters live under the user config directory.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-buildvcs=false",
        "GOWORK": "off",
    })
    os.makedirs(BUILD, exist_ok=True)
    r = subprocess.run(["go", "build", "-o", BINARY, "./perfbench"], cwd=ROOT, env=env,
                       stdout=sys.stderr)
    return r.returncode == 0


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Go's flag package accepts --name as well as -name.
    return subprocess.run([BINARY] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
