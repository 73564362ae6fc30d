#!/usr/bin/env python3
"""Benchmark of the PLUS simulator on four paper-derived workloads.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One measured run. Builds perfbench_pass (CMake, into .bench_build/)
      if needed, runs passes of the workload for S seconds and prints, as
      its last line, {"correct", "attempted", "failed", "metrics"}: the
      end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
      metrics with --trace 1.
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload, untraced then traced, as one table: each metric by
      name with its unit, plus fail_frac and paper_err.
  python3 perfbench/run.py --compare BASE.json NEW.json
      Compare two result records (or lists of them) written under
      .bench_build/perfbench/results/, record by record of the same
      workload, seed, --smoke and --trace. Gated only when the host
      fingerprints match; otherwise reported.

Add --smoke to any run for the reduced-size inputs the self-test uses.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PASS_BIN = os.path.join(BUILD, "perfbench_pass")
RESULTS = os.path.join(BUILD, "results")

# Default seed: the one bench/table_2_1.cpp and bench/figure_3_1.cpp use,
# so paper_err matches the printed Table 2-1. Claims made with the
# default seed must also hold on the held-out seed.
DEFAULT_SEED = 20260708
HELD_OUT_SEED = 7340033

WORKLOADS = {
    "table2-1": "write-update",
    "fig3-1": "write-update",
    "flood-256": "write-update",
    "sssp-inval-lossy": "write-invalidate",
}

# What every run measures, whatever PLUS_ENGINE / PLUS_PROTOCOL /
# PLUS_PROF say: perfbench_pass names each of these explicitly.
PINNED = {
    "engine": "wheel",
    "checker": "on (off only in the traced run's nocheck passes)",
    "observer": "off",
    "prof": "off (on only in the traced run's traced passes)",
}

# Host properties two result records must share for --compare to gate.
FINGERPRINT_GATED_KEYS = ("nproc", "cpu", "compiler", "compiler_version",
                          "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---- build ---------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; run from the root of a "
             "full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if p.returncode != 0:
                log(p.stdout[-8000:])
                fail("build failed: " + " ".join(cmd), 1)


def run_pass_bin(args):
    p = subprocess.run([PASS_BIN] + args, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if p.stderr:
        log(p.stderr.rstrip())
    if p.returncode != 0:
        fail("perfbench_pass %s exited %d" % (" ".join(args), p.returncode),
             1)
    return json.loads(p.stdout.strip().splitlines()[-1])


# ---- fingerprint ---------------------------------------------------------

def source_digest():
    """sha256 over the simulator and benchmark sources; it stands in for
    the git sha in an exported tree without .git."""
    h = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    if p.returncode != 0:
        return None
    return p.stdout.strip() or None


def fingerprint():
    fp = run_pass_bin(["--fingerprint"])
    fp["git_sha"] = git_sha()
    fp["source_digest"] = source_digest()
    return fp


# ---- passes --------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def run_passes(args, modes):
    """Run passes cycling through @p modes until args.seconds is used up
    (at least one pass of each mode). Returns {mode: [pass, ...]}."""
    out = {m: [] for m in modes}
    start = time.monotonic()
    last = 0.0
    i = 0
    while True:
        mode = modes[i % len(modes)]
        cmd = ["--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode]
        if args.smoke:
            cmd.append("--smoke")
        t0 = time.monotonic()
        rec = run_pass_bin(cmd)
        last = time.monotonic() - t0
        out[mode].append(rec)
        i += 1
        elapsed = time.monotonic() - start
        if i >= len(modes) and elapsed + last > args.seconds:
            break
    return out


def check_passes(passes):
    """Every pass correct and every pass of the seed on one digest."""
    recs = [r for rs in passes.values() for r in rs]
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    digests = {r["digest"] for r in recs}
    if len(digests) != 1:
        log("perfbench: simulated counts differ between passes of one "
            "seed: " + ", ".join(sorted(digests)))
    return failed == 0 and len(digests) == 1, attempted, failed


def end_to_end(plain):
    return {
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in plain]),
        "sim_cycles_per_s": median(
            [ratio(r["sim_cycles"], r["sim_s"]) for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "sim_cycles": median([r["sim_cycles"] for r in plain]),
    }


def per_layer(passes, probes):
    plain, traced, nocheck = (passes["plain"], passes["traced"],
                              passes["nocheck"])
    s = traced[0]["sim"]

    def c(name):
        return s.get(name, 0.0)

    def host(name, recs=plain):
        return median([r["host"].get(name, 0.0) for r in recs])

    def prof(phase):
        return median([r["prof"][phase] for r in traced])

    plain_sim_s = median([r["sim_s"] for r in plain])
    hits, misses = c("cache.hits"), c("cache.misses")
    pops, polls = c("workq.pops"), c("workq.emptyPolls")
    data, retx, acks = (c("net.link.dataFrames"), c("net.link.retransmits"),
                        c("net.link.acksSent"))
    return {
        "sim.events": c("sim.eventsExecuted"),
        "sim.ns_per_event": ratio(plain_sim_s * 1e9, c("sim.eventsExecuted")),
        "sim.wheel_cascades": c("sim.wheelCascades"),
        "sim.slab_high_water": c("sim.slabHighWater"),
        "sim.probe.wheel_ns": probes["sim.probe.wheel_ns"],
        "sim.probe.fiber_switch_ns": probes["sim.probe.fiber_switch_ns"],
        "proc.ctx_switches": c("proc.ctxSwitches"),
        "proc.stall.read": c("proc.stall.read"),
        "proc.stall.verify": c("proc.stall.verify"),
        "proc.stall.fence": c("proc.stall.fence"),
        "proc.stall.pending_full": c("proc.stall.pending-full"),
        "proc.utilization": ratio(c("report.busyUseful"),
                                  c("report.procCycles")),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "prof.proc_dispatch_frac": prof("proc.dispatch"),
        "proc.page_faults": c("proc.pageFaults"),
        "mem.page_copy_msgs": c("cm.sent.page-copy-data") +
                              c("cm.sent.page-copy-done"),
        "mem.replicate_s": host("replicate"),
        "mem.settle_s": host("settle"),
        "core.build_s": host("build"),
        "workq.pops": pops,
        "workq.empty_polls": polls,
        "workq.steals": c("workq.steals"),
        "workq.useful_ratio": ratio(pops, pops + polls),
        "cm.busy_cycles": c("cm.busyCycles"),
        "cm.remote_reads": c("cm.remoteReads"),
        "cm.remote_rmws": c("cm.remoteRmws"),
        "cm.update_msgs": c("cm.sent.update-req"),
        "cm.retries": c("cm.retries"),
        "proto.invalidations": c("proto.invalidations"),
        "proto.refetches": c("proto.refetches"),
        "proto.refetch_ratio": ratio(c("proto.refetches"),
                                     c("proto.invalidations")),
        "prof.proto_handle_frac": prof("proto.handle"),
        "net.packets": c("net.packets"),
        "net.hops_per_packet": ratio(c("net.totalHops"), c("net.packets")),
        "net.queueing.mean": ratio(c("net.queueing.mean_w"),
                                   c("net.queueing.count")),
        "net.queueing.p99": ratio(c("net.queueing.p99_w"),
                                  c("net.queueing.count")),
        "net.latency.p50": ratio(c("net.latency.p50_w"),
                                 c("net.latency.count")),
        "net.latency.p99": ratio(c("net.latency.p99_w"),
                                 c("net.latency.count")),
        "net.link.retransmits": retx,
        "net.link.acks": acks,
        "net.link.useful_ratio": ratio(data, data + retx + acks),
        "prof.net_deliver_frac": prof("net.deliver"),
        "check.host_frac": 1.0 - ratio(
            median([r["sim_s"] for r in nocheck]), plain_sim_s),
        "prof.unattributed_frac": prof("engine.run"),
        "prof.overhead_frac": ratio(
            median([r["wall_s"] for r in traced]),
            median([r["wall_s"] for r in plain])) - 1.0,
    }


def measure(args, spec):
    """One measured run: returns (result line, result record)."""
    build()
    fp = fingerprint()
    if args.trace:
        probe_cmd = ["--probe"] + (["--smoke"] if args.smoke else [])
        probes = run_pass_bin(probe_cmd)
        passes = run_passes(args, ["plain", "nocheck", "traced"])
        values = per_layer(passes, probes)
        wanted = spec["per_layer"]
    else:
        passes = run_passes(args, ["plain"])
        values = end_to_end(passes["plain"])
        wanted = spec["end_to_end"]
    correct, attempted, failed = check_passes(passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    plain = passes["plain"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": args.smoke,
        "fingerprint": fp,
        "pinned": dict(PINNED, protocol=WORKLOADS[args.workload]),
        "result": line,
        "fail_frac": ratio(failed, attempted),
        "paper_err": plain[0]["paper_err"] if plain[0]["paper_err"] >= 0
        else None,
        "passes": passes,
    }
    return line, record


def save(record):
    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (
        record["workload"], record["seed"], record["trace"],
        int(time.time() * 1000))
    path = os.path.join(RESULTS, name)
    with open(path, "w") as f:
        json.dump(record, f)
    return path


# ---- --all and --compare -------------------------------------------------

def run_all(args, spec):
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            a = argparse.Namespace(workload=workload, seed=args.seed,
                                   seconds=args.seconds, trace=trace,
                                   smoke=args.smoke)
            line, record = measure(a, spec)
            log("perfbench: %s trace=%d -> %s" % (workload, trace,
                                                  save(record)))
            for name, m in line["metrics"].items():
                rows.append((workload, name, m["value"], m["unit"]))
            if trace == 0:
                rows.append((workload, "fail_frac", record["fail_frac"],
                             "ratio"))
                if record["paper_err"] is not None:
                    rows.append((workload, "paper_err", record["paper_err"],
                                 "ratio"))
                rows.append((workload, "correct", line["correct"], ""))
    print("fingerprint: " + json.dumps(record["fingerprint"]))
    for workload, name, value, unit in rows:
        print("%-18s %-28s %-22s %s" % (workload, name, value, unit))
    ok = all(v for _, n, v, _ in rows if n == "correct")
    return 0 if ok else 1


def load_records(path):
    with open(path) as f:
        data = json.load(f)
    return data if isinstance(data, list) else [data]


def comparable_key(record):
    """Records are compared only with records of the same key."""
    return (record["workload"], record["seed"], bool(record["smoke"]),
            record["trace"])


def group(records):
    out = {}
    for r in records:
        out.setdefault(comparable_key(r), []).append(r)
    return out


def compare(base_path, new_path, spec):
    base = group(load_records(base_path))
    new = group(load_records(new_path))
    fps = {tuple(r["fingerprint"].get(k) for k in FINGERPRINT_GATED_KEYS)
           for rs in list(base.values()) + list(new.values()) for r in rs}
    gated = len(fps) == 1
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for key in sorted(set(base) ^ set(new)):
        print("skipped %s seed=%d smoke=%s trace=%d: only in %s" % (
            key + ("BASE" if key in base else "NEW",)))
    common = sorted(set(base) & set(new))
    if not common:
        log("perfbench: BASE and NEW share no (workload, seed, smoke, "
            "trace); nothing to compare")
        return 2
    worse = []
    for key in common:
        workload = "%s/%d%s%s" % (key[0], key[1], "/smoke" if key[2] else "",
                                  "/traced" if key[3] else "")
        for name, m in bounds.items():
            old = [r["result"]["metrics"][name]["value"] for r in base[key]
                   if name in r["result"]["metrics"]]
            cur = [r["result"]["metrics"][name]["value"] for r in new[key]
                   if name in r["result"]["metrics"]]
            if not old or not cur:
                continue
            o, c = median(old), median(cur)
            change = ratio(c - o, abs(o))
            if m["better"] == "higher":
                change = -change
            bound = m.get("bound")
            flag = ""
            if name == "sim_cycles" and c != o:
                flag = "simulated model changed"
            if bound is not None and change > bound:
                flag = "WORSE than bound %.2f" % bound
                worse.append((workload, name))
            print("%-28s %-28s %14.6g -> %-14.6g %+7.1f%% worse %s" % (
                workload, name, o, c, 100 * change, flag))
    if not gated:
        print("host fingerprints differ: reported, not gated")
        return 0
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size inputs (self-test)")
    ap.add_argument("--all", action="store_true",
                    help="every workload, untraced and traced")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.all:
        return run_all(args, spec)
    if args.workload is None:
        ap.error("--workload is required")
    line, record = measure(args, spec)
    path = save(record)
    print("fingerprint: " + json.dumps(record["fingerprint"]))
    print("pinned: " + json.dumps(record["pinned"]))
    print("record: " + os.path.relpath(path, ROOT))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
