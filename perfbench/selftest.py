#!/usr/bin/env python3
"""Self-test of the benchmark, on reduced-size (--smoke) inputs.

  python3 perfbench/selftest.py

Checks, for every workload:
  1. BENCHMARK.json keeps to its format, and each run prints every metric
     it names, with its unit: the end-to-end ones untraced, the per-layer
     ones traced.
  2. sim_cycles and every simulated count repeat exactly across two
     same-seed passes.
  3. Traced passes (plus::prof on), nocheck passes (invariant checker
     off) and passes under PLUS_ENGINE / PLUS_PROTOCOL / PLUS_PROF
     overrides simulate exactly what the plain pass does.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 12345
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    names = []
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, str(m))
        check(0 < m["bound"] <= 0.25, "bound of " + m["name"])
        names.append(m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, str(m))
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"]) and
              m["better"] in ("higher", "lower"), str(m))
    check(len(names) == len(set(names)), "metric names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and
          setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has unit s, lower is better and the largest bound")


def run_line(workload, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    check(p.returncode == 0, "%s trace=%d exit code" % (workload, trace))
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_emitted(spec, workload):
    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        line = run_line(workload, trace)
        what = "%s trace=%d" % (workload, trace)
        check(set(line) == {"correct", "attempted", "failed", "metrics"},
              what + ": result keys")
        check(line["correct"] and line["failed"] == 0 and
              line["attempted"] >= 1, what + ": correct, none failed")
        check(set(line["metrics"]) == {m["name"] for m in wanted},
              what + ": metric names")
        for m in wanted:
            got = line["metrics"][m["name"]]
            check(got["unit"] == m["unit"] and
                  isinstance(got["value"], (int, float)),
                  "%s: %s value and unit" % (what, m["name"]))
        if trace == 0:
            for m in wanted:
                check(line["metrics"][m["name"]]["value"] > 0,
                      "%s: %s is not 0" % (what, m["name"]))


def one_pass(workload, mode, env=None):
    p = subprocess.run(
        [run.PASS_BIN, "--workload", workload, "--seed", str(SEED),
         "--mode", mode, "--smoke"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, **(env or {})))
    check(p.returncode == 0, "%s %s exit code" % (workload, mode))
    rec = json.loads(p.stdout)
    check(rec["failed"] == 0, "%s %s: no failed run" % (workload, mode))
    return rec


def simulated(rec):
    return rec["digest"], rec["sim_cycles"], rec["sim"]


def check_repeatable(workload):
    plain = one_pass(workload, "plain")
    check(simulated(one_pass(workload, "plain")) == simulated(plain),
          workload + ": two same-seed passes simulate the same")
    for mode in ("traced", "nocheck"):
        check(simulated(one_pass(workload, mode)) == simulated(plain),
              "%s: %s pass simulates what the plain pass does"
              % (workload, mode))
    for env in ({"PLUS_ENGINE": "heap"}, {"PLUS_PROTOCOL": "invalidate"},
                {"PLUS_PROTOCOL": "update"}, {"PLUS_PROF": "1"}):
        rec = one_pass(workload, "plain", env)
        check(simulated(rec) == simulated(plain),
              "%s: %s does not change the plain pass" % (workload, env))
        check("prof" not in rec, "%s: %s leaves prof off" % (workload, env))


def main():
    spec = run.load_spec()
    check_spec(spec)
    run.build()
    for workload in run.WORKLOADS:
        check_emitted(spec, workload)
        check_repeatable(workload)
        print("ok: " + workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
