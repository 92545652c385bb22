#!/usr/bin/env python3
"""Byte-identity check between two build trees of this repository.

Usage: ci/compare_outputs.py <build-a> <build-b>

Runs every fig*/ablation_* bench and the quickstart, logistic_regression,
lda_topics and reduce_scatter_playground examples from both build trees,
each run in its own scratch directory. Binaries whose source declares
--trace-out to the command-line parser (a `{"--trace-out", ...}` entry in
its bench::Cli table, see bench_util/cli.hpp) run with
`--trace-out trace.json`.
For every run it compares the exit status, stdout, stderr and every file the
run left behind: BENCH_*.json reports with the host-speed fields
(events_per_sec, sim_wall_s, wall_per_sim_sec) removed, everything else
(traces included) byte for byte. Exits 1 on any difference, 0 otherwise.

Typical use is a refactor that must not change behaviour: build the parent
commit into one tree and the change into another (same build type), then
compare them. Each pair of runs executes concurrently, so expect roughly the
wall time of one full bench-suite pass.
"""

import concurrent.futures
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = ["quickstart", "logistic_regression", "lda_topics",
            "reduce_scatter_playground"]
SPEED_FIELDS = {"events_per_sec", "sim_wall_s", "wall_per_sim_sec"}
TRACE_FILE = "trace.json"
# The bench::Cli declaration of the flag in a binary's source.
TRACE_DECL = re.compile(r'\{\s*"--trace-out",')
TIMEOUT_S = 1800


def programs(build):
    """(relative binary path, takes --trace-out) for every compared run."""
    bench_dir = os.path.join(build, "bench")
    names = sorted(n for n in os.listdir(bench_dir)
                   if n.startswith(("fig", "ablation_"))
                   and os.access(os.path.join(bench_dir, n), os.X_OK)
                   and not os.path.isdir(os.path.join(bench_dir, n)))
    out = [("bench/" + n, takes_trace_out("bench", n)) for n in names]
    out += [("examples/" + n, takes_trace_out("examples", n))
            for n in EXAMPLES]
    return out


def takes_trace_out(kind, name):
    src = os.path.join(REPO, kind, name + ".cpp")
    try:
        with open(src, encoding="utf-8") as f:
            return TRACE_DECL.search(f.read()) is not None
    except OSError:
        return False


def run(build, prog, trace, workdir):
    cmd = [os.path.join(os.path.abspath(build), prog)]
    if trace:
        cmd += ["--trace-out", TRACE_FILE]
    p = subprocess.run(cmd, cwd=workdir, capture_output=True,
                       timeout=TIMEOUT_S)
    files = {}
    for root, _, names in os.walk(workdir):
        for n in names:
            path = os.path.join(root, n)
            with open(path, "rb") as f:
                files[os.path.relpath(path, workdir)] = f.read()
    return {"exit": p.returncode, "stdout": p.stdout, "stderr": p.stderr,
            "files": files}


def strip_speed(obj):
    if isinstance(obj, dict):
        return {k: strip_speed(v) for k, v in obj.items()
                if k not in SPEED_FIELDS}
    if isinstance(obj, list):
        return [strip_speed(v) for v in obj]
    return obj


def normalize(name, data):
    base = os.path.basename(name)
    if base.startswith("BENCH_") and base.endswith(".json"):
        try:
            doc = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return data
        return json.dumps(strip_speed(doc), indent=1,
                          sort_keys=True).encode("utf-8")
    return data


def describe(label, a, b):
    """A short unified diff of two byte strings (text) or a size note."""
    try:
        la = a.decode("utf-8").splitlines()
        lb = b.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return f"  {label}: binary contents differ ({len(a)} vs {len(b)} B)"
    diff = list(difflib.unified_diff(la, lb, "a/" + label, "b/" + label,
                                     lineterm="", n=1))
    shown = diff[:24]
    if len(diff) > len(shown):
        shown.append(f"  ... {len(diff) - len(shown)} more diff lines")
    return "\n".join("  " + line for line in shown)


def compare(ra, rb):
    problems = []
    if ra["exit"] != rb["exit"]:
        problems.append(f"  exit status {ra['exit']} vs {rb['exit']}")
    for stream in ("stdout", "stderr"):
        if ra[stream] != rb[stream]:
            problems.append(describe(stream, ra[stream], rb[stream]))
    for name in sorted(set(ra["files"]) | set(rb["files"])):
        if name not in ra["files"] or name not in rb["files"]:
            side = "a" if name in ra["files"] else "b"
            problems.append(f"  {name}: only written by build {side}")
            continue
        a = normalize(name, ra["files"][name])
        b = normalize(name, rb["files"][name])
        if a != b:
            problems.append(describe(name, a, b))
    return problems


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    build_a, build_b = argv[1], argv[2]
    progs = programs(build_a)
    missing = [p for p, _ in progs
               for b in (build_a, build_b)
               if not os.access(os.path.join(b, p), os.X_OK)]
    if missing:
        print("missing binaries: " + ", ".join(sorted(set(missing))),
              file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as scratch:
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            for prog, trace in progs:
                dirs = []
                for side in ("a", "b"):
                    d = os.path.join(scratch, prog.replace("/", "_"), side)
                    os.makedirs(d)
                    dirs.append(d)
                fa = pool.submit(run, build_a, prog, trace, dirs[0])
                fb = pool.submit(run, build_b, prog, trace, dirs[1])
                ra, rb = fa.result(), fb.result()
                problems = compare(ra, rb)
                note = " (traced)" if trace else ""
                if ra["exit"] != 0 or rb["exit"] != 0:
                    problems.append(
                        f"  nonzero exit: {ra['exit']} / {rb['exit']}")
                if problems:
                    failed += 1
                    print(f"FAIL {prog}{note}")
                    print("\n".join(problems))
                else:
                    nfiles = len(ra["files"])
                    print(f"same {prog}{note}: stdout, stderr and "
                          f"{nfiles} file(s)")
                sys.stdout.flush()
    print(f"{len(progs) - failed}/{len(progs)} runs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
