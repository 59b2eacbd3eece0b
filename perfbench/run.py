#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload adult-k100 --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark from source (build.py), then runs one
JVM with a fixed heap. The JVM prints a report; this script prints it and,
as its last line, the result object
{"correct", "attempted", "failed", "metrics"}. The full record of the run
and, with --trace 1, its spans are written under .bench_build/perfbench/out.
Exits non-zero without a result line when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

HEAP = "3g"
RUN_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    try:
        classpath = build.build()
    except build.BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        return 2

    out = build.OUT / "out"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-Xss8m", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={out / 'tmp'}",
           f"-Dlog4j.configurationFile={build.HERE / 'log4j2.properties'}", "-cp", classpath,
           "repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--out-dir", str(out)]
    # Spark's scratch space stays inside the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(out / "spark-local"))
    try:
        proc = subprocess.run(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = line[len("RESULT "):]
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        print(f"run: exit code {proc.returncode}, result {'missing' if result is None else 'dropped'}",
              file=sys.stderr)
        return proc.returncode or 5
    parsed = json.loads(result)
    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in parsed["metrics"].items()}
    if got != want:
        print(f"run: metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, units {sorted(k for k in want if k in got and got[k] != want[k])}",
              file=sys.stderr)
        return 6
    print(json.dumps(parsed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
