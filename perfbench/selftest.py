#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py        # from the repository root

For every workload run.py knows, gated in BENCHMARK.json or not, it checks
that an untraced run emits every end-to-end metric of BENCHMARK.json and a
traced run every per-layer metric, each with its unit and a correct answer,
and that a run whose expected answers are deliberately wrong reports the
failures (failed > 0, correct false).
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, trace, wrong=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if wrong:
        cmd.append("--wrong-answer")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace")[-3000:])
        raise AssertionError(f"{workload} trace={trace} wrong={wrong}: exit {r.returncode}")
    return json.loads(r.stdout.decode().splitlines()[-1])


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{w} trace={trace}: emits exactly the {key} metrics with their units"
                   + ("" if got == want else f" (missing {sorted(set(want) - set(got))},"
                      f" extra {sorted(set(got) - set(want))})"))
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} trace={trace}: correct answers ({res['failed']}/{res['attempted']} failed)")
        bad = run(w, 0, wrong=True)
        expect(bad["failed"] > 0 and not bad["correct"],
               f"{w}: a wrong expected answer is counted ({bad['failed']}/{bad['attempted']} failed)")
    if failures:
        sys.exit(f"{len(failures)} self-test check(s) failed")
    print("self-test passed")


if __name__ == "__main__":
    main()
