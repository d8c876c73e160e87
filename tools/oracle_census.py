"""Shoot 171 problems and compare the slopes and states with another checkout.

    python3 tools/oracle_census.py [--against DIR] [--src SRC]

The census is 57 problems, each shot at the default ShootConfig, at
step=5e-4 and at z_max=25:

  - the cone at lam = i/12, i = 0..24;
  - 30 films FluidParams.from_b1_b3(b1, b3), (b1, b3) drawn in turn by
    random.Random(36).uniform(0.2, 1.0);
  - the default film FluidParams(0.6, 0.1, 0.5) and screening.

halfline is imported from SRC (default ./src).  Each line names the shoot
and gives its slope as float.hex and the SHA-256 of its state array.  With
--against, the same census runs on DIR/src in a child process, and each
line also gives the gap to that checkout's slope in units of the bisection
width 1e-10 (1 + |s|) and whether the states are bit-identical; the last
lines give the largest gap over the film and cone shoots, by config, and
how many slopes and state arrays are bit-identical.  A shoot that raises
prints its error type and message in place of the slope, and a read of the
states that raises, in place of their SHA-256.

The census also counts the top_derivative calls each config's 57 shoots
make before their states are read, and those that reading the states
adds, and prints both totals per config; with --against, next to the
other checkout's totals and the ratios of this checkout's to theirs.  A
checkout that walks the trajectory on the first read of the states counts
that walk in the second total, one that walks it in shoot in the first.
"""

import argparse
import hashlib
import os
import pathlib
import random
import subprocess
import sys

CONFIGS = (("default", {}), ("step=5e-4", {"step": 5e-4}), ("z_max=25", {"z_max": 25.0}))


def problems(halfline):
    """(name, problem) of the 57 problems, in census order."""
    rng = random.Random(36)
    films = [(rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)) for _ in range(30)]
    return ([("cone %d/12" % i, halfline.ConeParams(i / 12)) for i in range(25)]
            + [("film %r %r" % b, halfline.FluidParams.from_b1_b3(*b)) for b in films]
            + [("film default", halfline.FluidParams(0.6, 0.1, 0.5)),
               ("screening", halfline.ThomasFermiProblem())])


def census(src):
    """({(name, config): (slope hex or error, states SHA-256 or error)}, {config:
    [top_derivative calls of its shoots before their states are read, calls that
    reading them adds]}) of halfline in src."""
    sys.path.insert(0, str(src))
    import halfline
    out, calls = {}, {}
    for config, kwargs in CONFIGS:
        cfg, calls[config] = halfline.ShootConfig(**kwargs), [0, 0]
        for name, problem in problems(halfline):
            made, slope = [], None
            problem.top_derivative = counted(problem.top_derivative, made)
            try:
                slope, trajectory = halfline.shoot(problem, cfg)
                slope, before = float(slope).hex(), len(made)
                digest = hashlib.sha256(trajectory[1].tobytes()).hexdigest()
            except halfline.HalflineError as exc:
                digest = "%s: %s" % (type(exc).__name__, exc)
                if slope is None:
                    slope, digest, before = digest, "-", len(made)
            out[name, config] = (slope, digest)
            calls[config][0] += before
            calls[config][1] += len(made) - before
    return out, calls


def counted(accel, made):
    """accel, each call appending None to made."""
    def accel_counted(*args):
        made.append(None)
        return accel(*args)
    return accel_counted


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", help="checkout to compare with")
    ap.add_argument("--src", default=str(pathlib.Path.cwd() / "src"))
    ap.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    here, calls = census(args.src)
    if args.raw:
        for (name, config), (slope, digest) in here.items():
            print("%s\t%s\t%s\t%s" % (name, config, slope, digest))
        for config, (before, read) in calls.items():
            print("%s\t%d\t%d" % (config, before, read))
        return
    other, their_calls = {}, {}
    if args.against:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--raw",
             "--src", str(pathlib.Path(args.against) / "src")],
            capture_output=True, text=True, check=True)
        for line in child.stdout.splitlines():
            fields = line.split("\t")
            if len(fields) == 3:
                their_calls[fields[0]] = [int(fields[1]), int(fields[2])]
            else:
                name, config, slope, digest = fields
                other[name, config] = (slope, digest)
    worst = {}
    for (name, config), (slope, digest) in here.items():
        line = "%-36s %-10s %-24s %s" % (name, config, slope, digest)
        if (name, config) in other:
            theirs, their_digest = other[name, config]
            try:
                s, t = float.fromhex(slope), float.fromhex(theirs)
                gap = (s - t) / (1e-10 * (1.0 + abs(t)))
                line += "  gap %+.3f" % gap
                if name != "screening":
                    worst[config] = max(worst.get(config, 0.0), abs(gap))
            except ValueError:
                line += "  gap -"
            line += "  states %s" % ("same" if digest == their_digest else "differ")
        print(line)
    if worst:
        print("largest film and cone gap: " + ", ".join(
            "%s %.3f" % item for item in worst.items()))
    if other:
        slopes, states = (sum(here[key][i] == other.get(key, ("", ""))[i] for key in here)
                          for i in (0, 1))
        print("bit-identical: %d of %d slopes, %d of %d state arrays"
              % (slopes, len(here), states, len(here)))
    for i, label in enumerate(("accel calls before the states are read",
                               "accel calls that reading the states adds")):
        print(label + ":")
        print("  ours:   " + ", ".join("%s %d" % (config, count[i])
                                       for config, count in calls.items()))
        if their_calls:
            print("  theirs: " + ", ".join("%s %d" % (config, count[i])
                                           for config, count in their_calls.items()))
            print("  ratio:  " + ", ".join("%s %.4f" % (config, count[i] / their_calls[config][i])
                                           for config, count in calls.items()))


if __name__ == "__main__":
    main()
