#!/usr/bin/env python3
"""Repository benchmark: runs one workload of the simulated cluster and prints
its metrics, the last line being one JSON result object.

    python3 perfbench/run.py --workload join-dense --seed 1 --seconds 10 --trace 0

Run it from the repository root. It compiles the program and the harness
(perfbench/build.py) into .bench_build, then starts one JVM that sets up the
workload, measures it in a closed loop for --seconds and checks every answer.
--trace 1 reports the per-layer metrics instead and writes the run's spans to
.bench_build/out. METRICS.md describes every workload and metric.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("join-dense", "groupby-dup8", "tpch-power")
RUN_TIMEOUT_S = 170

# The JVM of one run. A fixed heap and collector keep GC behaviour the same
# from run to run; the module opens are the ones build.sbt gives Spark.
HEAP = "3g"
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, timeout=30)
    return r.stdout.decode().strip() or "unknown"


def jvm_command(root, classpath, digest, args):
    tmp = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [build._java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-Xmn512m", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}", "-Dfile.encoding=UTF-8",
           "-Dlog4j2.configurationFile=" + os.path.join(root, "perfbench", "log4j2.properties"),
           f"-Dperfbench.rev={git_rev(root)}", f"-Dperfbench.src={digest}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale]
    if args.wrong_answer:
        cmd.append("--wrong-answer")
    return cmd


def cpu_ticks():
    """Aggregate CPU ticks from /proc/stat (None where it does not exist)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to others during the run: the
    host noise that no setting of the benchmark controls."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else None


def parse_result(line):
    """The result object, or None when the line is not a well-formed one."""
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's input sizes")
    ap.add_argument("--wrong-answer", action="store_true",
                    help="corrupt the expected answers (self-test of the checks)")
    args = ap.parse_args()

    root = os.getcwd()
    try:
        classpath, digest = build.build(root)
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = jvm_command(root, classpath, digest, args)
    ticks = cpu_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.decode(errors="replace").splitlines()
    res = parse_result(lines[-1]) if lines else None
    if proc.returncode != 0 or res is None:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        print(f"perfbench: JVM exited {proc.returncode} without a result", file=sys.stderr)
        return 4
    steal = steal_share(ticks, cpu_ticks())
    if steal is not None:
        lines.insert(-1, f"report host_cpu_steal_share = {steal:.4f}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
