#!/usr/bin/env python3
"""profshow — render plus::prof host-time profile JSON as tables.

The profiler (src/telemetry/prof.hpp, docs/OBSERVABILITY.md) writes one
JSON object per run via --prof-out. This script turns it into the table
people actually read: the per-thread phase breakdown — exclusive
milliseconds, call counts and percent of the run wall per phase
(engine.run, proc.dispatch, proto.handle, net.deliver, check.observe) —
plus the {work, other} rollup that says how much of the wall the
phases cover.

Usage:
    scripts/profshow.py prof.json [prof2.json ...]
    some_bench --prof-out=/dev/stdout | scripts/profshow.py -

Accepts either a bare prof object or a bench JSON embedding one under a
"prof" key (sim_harness --out).
"""

import json
import sys


def fmt(value, digits=1):
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    return f"{value:,}"


def table(rows, header):
    widths = [
        max(len(str(r[i])) for r in [header] + rows)
        for i in range(len(header))
    ]
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    out = [line(header), "-" * (sum(widths) + 2 * (len(widths) - 1))]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def show_prof(prof, label=""):
    if label:
        print(f"== {label} ==")
    wall_ms = prof.get("runWallNs", 0) / 1e6
    print(f"run wall: {fmt(wall_ms, 2)} ms")

    rows = []
    for t in prof.get("threads", []):
        first = True
        for phase, d in t.get("phases", {}).items():
            rows.append([
                t["label"] if first else "",
                phase,
                fmt(d["ns"] / 1e6, 2),
                fmt(d["count"]),
                fmt(d["pct"], 1),
            ])
            first = False
        r = t.get("rollup")
        if r:
            rows.append([
                t["label"] if first else "",
                "(rollup)",
                "-",
                "-",
                "work {} / other {}".format(
                    fmt(r["workPct"], 1), fmt(r["otherPct"], 1)),
            ])
    if rows:
        print()
        print(table(rows, ["thread", "phase", "ms", "count", "% wall"]))

    print()


def show_file(path):
    if path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path) as f:
            doc = json.load(f)
    if "threads" in doc and "runWallNs" in doc:
        show_prof(doc, label=path if path != "-" else "")
    elif "prof" in doc:
        show_prof(doc["prof"], label=doc.get("bench", path))
    else:
        sys.exit(f"{path}: no prof data (want a --prof-out file or a "
                 "bench JSON with a \"prof\" key)")


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if len(argv) >= 2 else 2
    for path in argv[1:]:
        show_file(path)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:  # e.g. piped into head/less
        sys.exit(0)
