"""One fresh interpreter: import halfline, warm up, and measure one workload.

Run by run.py from the root of a checkout; prints one JSON object.  The
set-up time runs from just before numpy and halfline are imported to the
end of the warm-up, so it holds the imports and every cold cost the warm-up
pays (for presets, the six shooting start profiles of the cone solves).

    python3 perfbench/worker.py --workload W --seed S --index I
                                --seconds T --trace 0|1

The measured loop runs whole rounds (every case once, in an order shuffled
anew each round) until T seconds have passed.  With --trace 1 the same
rounds then run again with per-layer spans.

Times are given at the reference speed.  The host's speed drifts by up
to 2x within seconds (other tenants share its cores and caches), so a
fixed reference kernel, independent of halfline, runs between every two
operations, and each operation's time is scaled by REFERENCE_S over the
mean time of the kernel runs on either side of it.  The set-up time is
scaled by the median of the kernel runs made during set-up.  The raw
times are reported beside the scaled ones.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import random
import statistics
import sys
import time

# set-up runs from here, so that it holds the numpy and halfline imports
T_START = time.perf_counter()

import numpy  # noqa: E402


# nominal time of one reference() run: a scaled time is what the operation
# would take on a host where the kernel takes this long
REFERENCE_S = 5e-3
_REF_A = numpy.linspace(0.1, 1.0, 24)
_REF_M = 4.0 * numpy.eye(24) + numpy.outer(_REF_A, _REF_A)


def reference(n=150):
    """Time a fixed mix of the work halfline does: scalar Python arithmetic,
    small-array numpy temporaries and small dense solves.  Returns seconds."""
    t0 = time.perf_counter()
    a, y, s = _REF_A, _REF_A.copy(), 0.0
    for i in range(n):
        for j in range(24):
            s += math.exp(-a[j] * j) * math.cos(i + j)
        y = y + 0.01 * numpy.tanh(y * a)
        s += float(numpy.linalg.solve(_REF_M, y) @ a)
    return time.perf_counter() - t0


class Loop:
    """Closed loop of whole rounds, with a reference() run between any two
    operations.  Keeps each case's raw and scaled seconds, and the checks."""

    def __init__(self, workload, cases, errors, rng):
        self.workload, self.cases, self.errors, self.rng = (
            workload, cases, errors, rng)
        self.raw = [[] for _ in cases]
        self.scaled = [[] for _ in cases]
        self.refs = []
        self.checks = []
        self.busy_s = 0.0        # wall time outside reference() runs

    def run(self, seconds=float("inf"), rounds=None):
        """Run until `seconds` pass or `rounds` are run; returns rounds."""
        clock = time.perf_counter
        order = list(range(len(self.cases)))
        done = 0
        start = clock()
        ref = reference()
        self.refs.append(ref)
        while True:
            self.rng.shuffle(order)
            for i in order:
                t0 = clock()
                try:
                    result = self.workload.run(self.cases[i])
                except self.errors as exc:
                    result = exc
                elapsed = clock() - t0
                self.checks.append(self.workload.check(self.cases[i], result))
                self.busy_s += clock() - t0
                after = reference()
                self.refs.append(after)
                self.raw[i].append(elapsed)
                self.scaled[i].append(elapsed * REFERENCE_S / (0.5 * (ref + after)))
                ref = after
            done += 1
            if done == rounds or clock() - start >= seconds:
                return done


def summarise(checks):
    """Counts and accuracy maxima of a list of checks."""
    return {
        "attempted": len(checks),
        "failed": sum(not c.ok for c in checks),
        "flagged": sum(not c.ok or c.verify_failed for c in checks),
        "slope_err_max": max(c.slope_err for c in checks),
        "profile_err_max": max(c.profile_err for c in checks),
        "residual_max": max(c.residual for c in checks),
        "notes": [c.note for c in checks if not c.ok][:10],
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    import halfline
    import spans
    import workloads

    if not os.path.abspath(halfline.__file__).startswith(sys.path[0] + os.sep):
        raise SystemExit("halfline was imported from %s, not from ./src"
                         % halfline.__file__)
    workload = workloads.WORKLOADS[args.workload]
    cases = workload.cases(args.seed)
    errors = (halfline.HalflineError,)
    rng = random.Random("%d/%d" % (args.seed, args.index))
    setup_tracer = spans.Tracer()
    warm = Loop(workload, cases, errors, rng)
    with setup_tracer.installed() if args.trace else contextlib.nullcontext():
        if workload.warm is not None:
            warm.refs.append(reference())
            workload.warm()
            warm.refs.append(reference())
        else:
            warm.run(rounds=1)
    setup_raw_s = time.perf_counter() - T_START - sum(warm.refs)
    setup_s = setup_raw_s * REFERENCE_S / statistics.median(warm.refs)

    loop = Loop(workload, cases, errors, rng)
    rounds = loop.run(seconds=args.seconds)
    checks = warm.checks + loop.checks
    out = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "times": loop.scaled,
        "raw_times": loop.raw,
        "facts": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "rounds": rounds,
            "measured_s": loop.busy_s,
            "reference_ms_median": 1e3 * statistics.median(loop.refs),
        },
    }
    if args.trace:
        tracer = spans.Tracer()
        traced = Loop(workload, cases, errors, rng)
        with tracer.installed():
            traced.run(rounds=rounds)
        checks += traced.checks
        ops = rounds * len(cases)
        untraced_s = sum(map(statistics.median, loop.scaled))
        overhead = sum(map(statistics.median, traced.scaled)) - untraced_s
        layers = tracer.per_op(ops)
        layers.update({
            "setup.shooting.shoot.self_s": setup_tracer.self_s("shooting.shoot"),
            "setup.shooting.shoot.calls": setup_tracer.calls("shooting.shoot"),
            "trace.overhead_s": overhead / len(cases),
            "trace.overhead_share": overhead / untraced_s,
            "trace.coverage": tracer.covered_s / traced.busy_s,
        })
        out["layers"] = layers
        # scalar tabulation, the target of vectorizing the basis families
        tabulation = sum(tracer.self_s(layer) for layer in (
            "core.eval_expansion", "laguerre.member", "hermite.member",
            "sinc.member"))
        out["facts"].update(absent_layers=tracer.absent(),
                            missing_names=tracer.missing,
                            tabulation_share=tabulation / traced.busy_s,
                            traced_s=traced.busy_s)
    out["checks"] = summarise(checks)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
