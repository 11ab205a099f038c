#!/usr/bin/env python3
"""Merge several fresh BENCH runs of one tool into a committed baseline.

    python3 tools/bench_baseline.py OUT.json RUN1.json RUN2.json ...

A single run's microbenchmark minimum picks a host mode by chance:
on a shared VM some kernels run 1.5-2x apart from one run to the
next. The merged document takes every block from the run with the
median wall time. Each microbenchmark row is the row of the run with
the median minimum (so its mean/stddev/min stay one run's), plus
`slowest_min_seconds`, the largest minimum any run read. bench_diff
then judges that row one band beyond its slowest run, so a kernel
that swings between modes does not fail on its slow mode, while a
steady kernel keeps its full band. `host.runs` records the run count.
"""

import json
import sys


def load(path):
    with open(path) as f:
        text = f.read()
    doc = json.loads(text)
    doc["_text"] = text
    return doc


def median_run(runs, key):
    """The run whose key is the (lower) median."""
    ordered = sorted(runs, key=key)
    return ordered[(len(ordered) - 1) // 2]


def render(text, host, rows):
    """The chosen run's document text with its host line and its
    microbenchmark rows replaced (the writer puts each on one line),
    so every other block stays byte-identical to that run's file."""
    by_name = {row["name"]: row for row in rows}
    lines = []
    for line in text.splitlines():
        if line.startswith('  "host": '):
            line = '  "host": ' + json.dumps(host) + ","
        elif line.startswith('    {"name": '):
            name = json.loads(line.rstrip(","))["name"]
            comma = "," if line.endswith(",") else ""
            line = "    " + json.dumps(by_name[name]) + comma
        lines.append(line)
    return "\n".join(lines) + "\n"


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    runs = [load(path) for path in argv[2:]]
    tools = {run.get("tool") for run in runs}
    if len(tools) != 1:
        sys.stderr.write("bench_baseline: runs of different tools: %s\n"
                         % sorted(map(str, tools)))
        return 2

    chosen_run = median_run(runs, lambda r: r["wall_seconds"])
    host = dict(chosen_run["host"], runs=len(runs))
    rows = []
    for row in chosen_run.get("microbenchmarks", []):
        name = row["name"]
        candidates = []
        for run in runs:
            match = [r for r in run["microbenchmarks"] if r["name"] == name]
            if len(match) != 1:
                sys.stderr.write("bench_baseline: row %s missing in a run\n"
                                 % name)
                return 2
            candidates.append(match[0])
        chosen = dict(median_run(candidates, lambda r: r["min_seconds"]))
        chosen["slowest_min_seconds"] = max(
            r["min_seconds"] for r in candidates)
        rows.append(chosen)

    with open(argv[1], "w") as f:
        f.write(render(chosen_run["_text"], host, rows))
    for r in rows:
        median, slowest = r["min_seconds"], r["slowest_min_seconds"]
        print("%-18s median min %.6f s, slowest %.6f s (%.2fx)"
              % (r["name"], median, slowest, slowest / median))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
