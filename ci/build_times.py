#!/usr/bin/env python3
"""Per-translation-unit compile times of Ninja build trees.

Usage: ci/build_times.py <build-dir>...  [--against <parent-build-dir>...]

Reads each <build-dir>/.ninja_log (configure the tree with `cmake -G Ninja`).
With one build dir it prints one line per compiled object, slowest first,
with its compile time in seconds, then the TU count, the summed compile time
and the wall time of the last build run in the log.

With --against it compares the build dirs (the change) with the parent build
dirs: one line per object with its seconds on each side and the ratio
change/parent (`-` where a side has no such object), then the TU count,
summed CPU-s and wall time of each side with their ratios. Given several
dirs per side (say, alternating cold builds of parent and change), every
figure is the median over that side's dirs, and each pair of runs also gets
its own totals line.

When an object was built more than once, its latest entry counts. Measure a
cold build by building a fresh directory; after an incremental rebuild, the
"last run" line lists how many steps that rebuild took.
"""

import os
import signal
import statistics
import sys


def read_log(path):
    """Returns (latest entry per output, entries of the last build run).

    An entry is (start_ms, end_ms, output). Ninja appends entries in
    completion order with times relative to its own start, so a run begins
    wherever an end time drops below the previous one.
    """
    latest = {}
    runs = [[]]
    prev_end = -1
    with open(path, encoding="utf-8") as f:
        header = f.readline()
        if not header.startswith("# ninja log"):
            raise SystemExit(f"{path}: not a ninja log")
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if len(fields) < 4:
                continue
            start, end, output = int(fields[0]), int(fields[1]), fields[3]
            if end < prev_end:
                runs.append([])
            prev_end = end
            entry = (start, end, output)
            latest[output] = entry
            runs[-1].append(entry)
    return latest, runs[-1]


def summarize(build_dir):
    """Returns ({object: seconds}, last-run wall s, last-run steps, objects)."""
    log = os.path.join(build_dir, ".ninja_log")
    if not os.path.exists(log):
        raise SystemExit(f"{log} not found; configure the tree with -G Ninja")
    latest, last_run = read_log(log)
    tus = {out: (e - s) / 1000.0
           for s, e, out in latest.values() if out.endswith(".o")}
    wall = 0.0
    if last_run:
        wall = (max(e for _, e, _ in last_run) -
                min(s for s, _, _ in last_run)) / 1000.0
    objs = sum(1 for _, _, out in last_run if out.endswith(".o"))
    return tus, wall, len(last_run), objs


def ratio(new, old):
    return f"{new / old:.2f}" if old else "-"


def secs(v):
    return "-" if v is None else f"{v:.1f}"


def report(build_dir):
    tus, wall, steps, objs = summarize(build_dir)
    for out, s in sorted(tus.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{s:8.1f}  {out}")
    print(f"TUs: {len(tus)}")
    print(f"sum: {sum(tus.values()):.1f} s")
    if steps:
        print(f"last run: {steps} steps, {objs} objects, wall {wall:.1f} s")


def compare(changes, parents):
    new = [summarize(d) for d in changes]
    old = [summarize(d) for d in parents]

    def median_of(side, out):
        vals = [tus[out] for tus, *_ in side if out in tus]
        return statistics.median(vals) if vals else None

    outs = set().union(*(tus for tus, *_ in new + old))
    rows = [(median_of(old, o), median_of(new, o), o) for o in outs]
    rows.sort(key=lambda r: (-(r[1] or 0.0), -(r[0] or 0.0), r[2]))
    print(f"{'parent':>8}  {'change':>8}  {'ratio':>5}  object")
    for p, c, out in rows:
        r = ratio(c, p) if p is not None and c is not None else "-"
        print(f"{secs(p):>8}  {secs(c):>8}  {r:>5}  {out}")

    def totals(side):
        return ([len(tus) for tus, *_ in side],
                [sum(tus.values()) for tus, *_ in side],
                [wall for _, wall, *_ in side])

    (n_old, cpu_old, wall_old), (n_new, cpu_new, wall_new) = (
        totals(old), totals(new))
    for i in range(min(len(old), len(new))):
        print(f"run {i + 1}: TUs {n_old[i]} -> {n_new[i]}, "
              f"sum {cpu_old[i]:.1f} -> {cpu_new[i]:.1f} CPU-s "
              f"({ratio(cpu_new[i], cpu_old[i])}), "
              f"wall {wall_old[i]:.1f} -> {wall_new[i]:.1f} s "
              f"({ratio(wall_new[i], wall_old[i])})")
    med = statistics.median
    label = "median" if max(len(old), len(new)) > 1 else "total"
    print(f"{label}: TUs {med(n_old):g} -> {med(n_new):g}, "
          f"sum {med(cpu_old):.1f} -> {med(cpu_new):.1f} CPU-s "
          f"({ratio(med(cpu_new), med(cpu_old))}), "
          f"wall {med(wall_old):.1f} -> {med(wall_new):.1f} s "
          f"({ratio(med(wall_new), med(wall_old))})")


def main(argv):
    args = argv[1:]
    if "--against" in args:
        at = args.index("--against")
        changes, parents = args[:at], args[at + 1:]
        if not changes or not parents:
            print(__doc__.strip().splitlines()[2], file=sys.stderr)
            return 2
        compare(changes, parents)
        return 0
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    report(args[0])
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`
    sys.exit(main(sys.argv))
