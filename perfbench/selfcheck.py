#!/usr/bin/env python3
"""Self-check of the benchmark: every workload once, tiny inputs.

    python3 perfbench/selfcheck.py

Run from the repository root. Validates BENCHMARK.json against the limits
the benchmark keeps, then runs each workload BENCHMARK.json declares with
--quick in both modes and checks that the result line has exactly the expected keys, that every
metric named in BENCHMARK.json for that mode is present with its unit and
nothing else is, and that the correctness gates passed. Exits 1 on the
first failure.
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition, message):
    if not condition:
        print(f"selfcheck: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60 and
          spec["run_seconds"] == int(spec["run_seconds"]), "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = set()
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {w}")
        check(len(w["why"]) <= 200 and "\n" not in w["why"],
              f"why of {w['name']}")
        check(NAME.match(w["name"]) and w["name"] not in names,
              f"workload name {w['name']}")
        names.add(w["name"])
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and m["name"] not in names,
              f"metric name {m['name']}")
        names.add(m["name"])
        check(UNIT.match(m["unit"]), f"unit of {m['name']}")
        check(m["better"] in ("higher", "lower"), f"better of {m['name']}")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"},
              f"end_to_end keys {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer keys {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must be in seconds, lower-better, with the largest bound")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_spec(spec)
    expected = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            run = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", trace,
                                   "--quick"],
                capture_output=True, text=True, timeout=600)
            what = f"{workload} --trace {trace}"
            check(run.returncode == 0,
                  f"{what} exited {run.returncode}:\n{run.stderr[-3000:]}")
            lines = run.stdout.strip().splitlines()
            check(lines, f"{what} printed nothing")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{what} result keys")
            check(result["correct"] is True, f"{what} failed a gate")
            check(result["failed"] == 0, f"{what} had failed operations")
            check(result["attempted"] >= 1, f"{what} attempted nothing")
            metrics = result["metrics"]
            names = {m["name"] for m in expected[trace]}
            check(set(metrics) == names,
                  f"{what} metrics: missing {sorted(names - set(metrics))}, "
                  f"extra {sorted(set(metrics) - names)}")
            for m in expected[trace]:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"],
                      f"{what} {m['name']} unit {got['unit']}")
                check(isinstance(got["value"], (int, float)),
                      f"{what} {m['name']} value")
            print(f"selfcheck: ok {what}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations")
    print("selfcheck: all workloads passed")


if __name__ == "__main__":
    main()
