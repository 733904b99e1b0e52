#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the root of the repository:

    python3 perfbench/selftest.py [workload ...]

For each workload (all four by default) it runs the benchmark for a
few operations, untraced and traced, and checks that the last line of
standard output is the result object, that every run is correct, and
that the metric names and units printed are exactly those BENCHMARK.json
declares. It then runs once with a corrupted reference, which must be
reported as incorrect with failed operations, so the output checks are
known to be able to fail. Finally it checks that the benchmark exits
non-zero without printing a result in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(args, cwd=ROOT):
    r = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                       cwd=cwd, capture_output=True, text=True)
    return r.returncode, r.stdout, r.stderr


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return out if isinstance(out, dict) else None


def main(names):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    wanted = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
              "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = names or [w["name"] for w in spec["workloads"]]
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    for name in names:
        for trace in ("0", "1"):
            code, out, err = run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace])
            res = result_of(out)
            what = f"{name} trace={trace}"
            if code != 0 or res is None:
                expect(False, f"{what}: exit {code}, stderr tail: {err[-500:]}")
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{what}: result keys")
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{what}: correct, {res['attempted']} attempted, {res['failed']} failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == wanted[trace], f"{what}: metric names and units match BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                   f"{what}: metric values are numbers")
        code, out, err = run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0",
                              "--corrupt-reference"])
        res = result_of(out)
        expect(code == 0 and res is not None and res["correct"] is False and res["failed"] > 0,
               f"{name}: a corrupted reference is caught")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"))
    code, out, _ = run(["--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result_of(out) is None, "without the repository's sources the benchmark fails without a result")

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
