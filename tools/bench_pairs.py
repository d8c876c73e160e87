"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<PR>.json
                                 --workload NAME:FIRST_SEED [--workload ...]
                                 [--trace-seed S] [--claim TEXT]

Each workload gets 10 pairs of runs.  A pair runs ``perfbench/run.py
--workload W --seed S --seconds 12 --trace 0`` once in each checkout, one run
at a time, at the same seed; which side runs first alternates from pair to
pair.  Pair i of a workload uses seed FIRST_SEED + i; pick seeds that were
not used while the change was written.  Every run has
PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX set to an empty
directory of its side's own, made fresh for the comparison, so no run
reads bytecode that an earlier run or a stale __pycache__ in a checkout
left behind: both sides compile what they import from source.
With --trace-seed, each side also makes one ``--trace 1`` run per workload
at that seed.  Any run that fails stops the comparison.

The output file holds, per workload and end-to-end metric, each side's
median, quartiles and sorted runs, the pairs the change won (ties count
for neither), the change of the median in percent and the parent's
interquartile range, plus one verdict line per workload and every run's
own result.  The parent and change fields record each checkout's git
revision, with "+changes" when its tracked files differ from it, and the
lines field each checkout's line counts of src/halfline/*.py, tests/*.py and
demos/*.py (as ``cat src/halfline/*.py | wc -l`` counts them).  The file
is written whole by this script; nothing in it is filled in by hand.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

import numpy as np

LOWER_IS_BETTER = {"setup_s": True, "op_ms_p50": True, "ops_per_s": False}
PAIRS = 10          # per workload
SECONDS = 12.0      # per run, the benchmark's run_seconds


def revision(root):
    """The checkout's short git revision, "+changes" if its tracked files differ."""
    def git(*args):
        return subprocess.run(("git", "-C", root) + args, capture_output=True,
                              text=True, check=False).stdout.strip()
    rev = git("rev-parse", "--short", "HEAD") or "unknown"
    return rev + ("+changes" if git("status", "--porcelain", "--untracked-files=no") else "")


def line_counts(root):
    """Newlines in src/halfline/*.py, tests/*.py and demos/*.py, as ``cat ... | wc -l``
    counts them."""
    return {part: sum(path.read_bytes().count(b"\n") for path in pathlib.Path(root).glob(part))
            for part in ("src/halfline/*.py", "tests/*.py", "demos/*.py")}


def run(root, workload, seed, seconds, trace, pycache):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=pycache)
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit("error: %s in %s exited with %d:\n%s"
                         % (" ".join(cmd), root, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": sorted(values)}


def compare(name, parent, change):
    """Summary of one metric over paired runs: parent[i] and change[i] share a seed."""
    lower = LOWER_IS_BETTER[name]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p, c = spread(parent), spread(change)
    return {"parent": p, "change": c,
            "change_wins": "%d/%d" % (wins, len(parent)),
            "change_vs_parent": "%+.1f%%" % (100.0 * (c["median"] / p["median"] - 1.0)),
            "parent_iqr": p["q3"] - p["q1"]}


def verdict(summary):
    parts = ["%s %.4g -> %.4g (%s, %s pairs, parent IQR %.3g)"
             % (name, s["parent"]["median"], s["change"]["median"],
                s["change_vs_parent"], s["change_wins"], s["parent_iqr"])
             for name, s in summary.items() if name in LOWER_IS_BETTER]
    failed = summary["failed"]
    return "; ".join(parts) + "; failed operations %d (parent) and %d (change)" % (
        failed["parent"], failed["change"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append", required=True, metavar="NAME:FIRST_SEED")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--claim", default="")
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    plan = []
    for item in args.workload:
        name, _, first = item.partition(":")
        if not first.isdigit():
            ap.error("--workload takes NAME:FIRST_SEED, got %r" % item)
        plan.append((name, int(first)))

    runs, trace_runs, summary = [], [], {}
    # each side's own empty bytecode cache, never written to (see run), and
    # removed when the comparison exits
    caches = {side: tempfile.TemporaryDirectory(prefix="pycache-%s-" % side)
              for side in sides}
    for name, first in plan:
        results = {"parent": [], "change": []}
        for i in range(PAIRS):
            seed = first + i
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run(sides[side], name, seed, SECONDS, 0, caches[side].name)
                results[side].append(result)
                runs.append({"side": side, "workload": name, "seed": seed,
                             "trace": 0, "result": result})
                print("%s %s seed %d: %s" % (name, side, seed, json.dumps(result["metrics"])),
                      file=sys.stderr, flush=True)
        summary[name] = {metric: compare(metric, *([r["metrics"][metric]["value"]
                                                    for r in results[side]]
                                                   for side in ("parent", "change")))
                         for metric in LOWER_IS_BETTER}
        for key in ("failed", "attempted"):
            summary[name][key] = {side: sum(r[key] for r in results[side]) for side in results}
        if args.trace_seed is not None:
            for side in ("parent", "change"):
                trace_runs.append({"side": side, "workload": name, "seed": args.trace_seed,
                                   "trace": 1, "result": run(sides[side], name,
                                                             args.trace_seed, SECONDS,
                                                             1, caches[side].name)})

    seeds = ", ".join("%s %d-%d" % (name, first, first + PAIRS - 1) for name, first in plan)
    out = {
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "parent": revision(sides["parent"]),
        "change": revision(sides["change"]),
        "lines": {side: line_counts(root) for side, root in sides.items()},
        "command": "PYTHONDONTWRITEBYTECODE=1 PYTHONPYCACHEPREFIX=<empty directory per side> "
                   "python3 perfbench/run.py --workload W --seed S --seconds %g --trace 0, "
                   "alternating which side runs first; seeds %s%s; one run at a time"
                   % (SECONDS, seeds, "" if args.trace_seed is None else
                      "; one --trace 1 run per side and workload at seed %d" % args.trace_seed),
        "claim": args.claim,
        "summary": summary,
        "verdict": {name: verdict(s) for name, s in summary.items()},
        "runs": runs,
        "trace_runs": trace_runs,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
