#!/usr/bin/env python3
"""Per-translation-unit compile times of a Ninja build tree.

Usage: ci/build_times.py <build-dir>

Reads <build-dir>/.ninja_log (configure the tree with `cmake -G Ninja`) and
prints one line per compiled object, slowest first, with its compile time in
seconds, then the TU count, the summed compile time and the wall time of the
last build run in the log. When an object was built more than once, its
latest entry counts. Measure a cold build by building a fresh directory;
after an incremental rebuild, the "last run" line lists how many steps that
rebuild took.
"""

import os
import signal
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


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    log = os.path.join(argv[1], ".ninja_log")
    if not os.path.exists(log):
        print(f"{log} not found; configure the tree with -G Ninja",
              file=sys.stderr)
        return 2
    latest, last_run = read_log(log)
    tus = sorted(((e - s) / 1000.0, out)
                 for s, e, out in latest.values() if out.endswith(".o"))
    tus.reverse()
    for secs, out in tus:
        print(f"{secs:8.1f}  {out}")
    total = sum(secs for secs, _ in tus)
    print(f"TUs: {len(tus)}")
    print(f"sum: {total:.1f} s")
    if last_run:
        wall = (max(e for _, e, _ in last_run) -
                min(s for s, _, _ in last_run)) / 1000.0
        objs = sum(1 for _, _, out in last_run if out.endswith(".o"))
        print(f"last run: {len(last_run)} steps, {objs} objects, "
              f"wall {wall:.1f} s")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`
    sys.exit(main(sys.argv))
