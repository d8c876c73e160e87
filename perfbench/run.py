"""halfline benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload presets|sweep|oracle --seed N
                             --seconds T --trace 0|1

Run from the root of a checkout; halfline is imported from ./src.  Each
worker is a fresh interpreter with BLAS threads pinned to 1, and runs one
caller in a closed loop over a fixed list of distinct cases.  Every time is
scaled to a reference speed of the host, measured by a fixed kernel run
between operations (see worker.py).  With --trace 0 three workers each set
up (import plus warm-up) and then measure T/3 seconds; set-up time is the
median of the three, and each case's time is the median of its runs in all
three.  With --trace 1 one worker measures T/2 seconds untraced, then
repeats the same rounds with per-layer spans.

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics named in BENCHMARK.json with their units.  The
lines before it give every metric with its direction, the reported but
unbounded end-to-end figures, and the run's facts (machine, versions,
revision, seed, operation counts, the workload's reason, layers never
entered).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUPS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
# end-to-end figures printed on every run but not bounded: a p90 needs 100
# operations, and the error figures are 0 or fixed by the inputs on some
# workloads.  The checks of every operation are what guard accuracy.
REPORTED = (("op_ms_p90", "ms"), ("fail_ratio", "ratio"),
            ("slope_err_max", "abs"), ("profile_err_max", "abs"))


def git_revision(root):
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, index, seconds, deadline, env):
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--index", str(index),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("error: no time left for another worker")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit("error: worker exceeded the %gs deadline" % DEADLINE_S)
    if proc.returncode != 0:
        raise SystemExit("error: worker exited with %d" % proc.returncode)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise SystemExit("error: worker printed no result")
    return json.loads(lines[-1])


def end_to_end(runs):
    """Set-up, latency and accuracy figures over the workers' runs."""
    def per_case(key):
        return [sum(ts, []) for ts in zip(*(r[key] for r in runs))]
    typical = [statistics.median(ts) for ts in per_case("times")]
    raw = [statistics.median(ts) for ts in per_case("raw_times")]
    every = sum(per_case("times"), [])
    checks = [r["checks"] for r in runs]
    attempted = sum(c["attempted"] for c in checks)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "op_ms_p50": 1e3 * statistics.median(typical),
        "ops_per_s": len(typical) / sum(typical),
        "op_ms_p90": (1e3 * statistics.quantiles(every, n=10)[-1]
                      if len(every) >= 100 else None),
        "fail_ratio": sum(c["flagged"] for c in checks) / attempted,
        "slope_err_max": max(c["slope_err_max"] for c in checks),
        "profile_err_max": max(c["profile_err_max"] for c in checks),
        "residual_max": max(c["residual_max"] for c in checks),
        "raw.setup_s": statistics.median(r["setup_raw_s"] for r in runs),
        "raw.op_ms_p50": 1e3 * statistics.median(raw),
        "raw.ops_per_s": len(raw) / sum(raw),
    }


def main(argv=None):
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "halfline", "__init__.py")):
        raise SystemExit("error: run from the root of a halfline checkout "
                         "(no src/halfline here)")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        ap.error("unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(whys)))

    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    if args.trace:
        runs = [run_worker(args, 0, args.seconds / 2, deadline, env)]
    else:
        runs = [run_worker(args, i, args.seconds / SETUPS, deadline, env)
                for i in range(SETUPS)]
    values = end_to_end(runs)
    if args.trace:
        values.update(runs[0]["layers"])
        values.update({"accuracy." + k: values[k] for k in (
            "fail_ratio", "slope_err_max", "profile_err_max", "residual_max")})
    attempted = sum(r["checks"]["attempted"] for r in runs)
    failed = sum(r["checks"]["failed"] for r in runs)

    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-34s %14.6g %-6s (%s is better)"
              % (m["name"], values[m["name"]], m["unit"], m["better"]))
    for name, unit in REPORTED:
        shown = "n/a" if values[name] is None else "%.6g" % values[name]
        print("%-34s %14s %-6s (lower is better; reported, not bounded)"
              % (name, shown, unit))
    for r in runs:
        for note in r["checks"]["notes"]:
            print("check failed: %s" % note)
    facts = dict(runs[-1]["facts"])
    facts.update(
        workload=args.workload, why=whys[args.workload], seed=args.seed,
        seconds=args.seconds, trace=args.trace, revision=git_revision(root),
        nproc=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        cases=len(runs[0]["times"]),
        operations=sum(len(t) for r in runs for t in r["times"]),
        rounds_each=[r["facts"]["rounds"] for r in runs],
        setup_s_each=[r["setup_s"] for r in runs],
        reference_ms_each=[r["facts"]["reference_ms_median"] for r in runs],
        loop="closed, one caller, one process",
        unreported={k: v for k, v in values.items() if k not in metrics})
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
