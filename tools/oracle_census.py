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
line also gives the gap to that checkout's slope in units of
1e-10·(1 + |s|) and whether the states are bit-identical; the last
lines give the largest gap over the film and cone shoots, by config, and
how many slopes and state arrays are bit-identical.  A shoot that raises
prints its error type and message in place of the slope, and a read of the
states that raises, in place of their SHA-256.

The census also counts the top_derivative evaluations each config's 57
shoots make before their states are read, and those that reading the
states adds, and prints both totals per config; with --against, next to
the other checkout's totals and the ratios of this checkout's to theirs.  A
checkout that walks the trajectory on the first read of the states counts
that walk in the second total, one that walks it in shoot in the first.

Each problem is shot twice.  The slope and states come from a shoot of the
problem as it is, whose walks write its top_derivative's expression out.
The counts come from a second shoot, with the method wrapped in a counter;
the walk calls such a wrapper at every stage, so that shoot takes the call
path, whose steps are the same.  Where the two shoots differ in a bit, the
slope or states field gives both, as "<written out> | called <called>",
and the last line says how many shoots are alike.

tools/snapshot.py prints the default config's 57 shoots as the oracle
census section of the snapshot golden, one line per shoot with its slope,
the SHA-256 of its states, and its walks (calls of
halfline.shooting._dop853) and top_derivative calls, each written as those
before the states are read + those that reading them adds.
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


def census(src, configs=CONFIGS):
    """{(name, config): (slope hex or error, states SHA-256 or error, walks
    before the states are read, walks that reading them adds, top_derivative
    calls before, calls that reading adds)} of halfline in src, in census
    order; a walk is a call of halfline.shooting._dop853.  The slope and
    states are the written-out shoot's, the counts the counted one's."""
    sys.path.insert(0, str(src))
    import halfline
    from halfline import shooting
    out, walks, walk = {}, [], shooting._dop853
    shooting._dop853 = counted(walk, walks)
    try:
        for config, kwargs in configs:
            cfg = halfline.ShootConfig(**kwargs)
            for name, problem in problems(halfline):
                written = shot(halfline, problem, cfg, walks, [])[:2]
                made = []
                problem.top_derivative = counted(problem.top_derivative, made)
                record = shot(halfline, problem, cfg, walks, made)
                out[name, config] = (*(ours if ours == called else "%s | called %s" % (ours, called)
                                       for ours, called in zip(written, record[:2])), *record[2:])
    finally:
        shooting._dop853 = walk
    return out


def shot(halfline, problem, cfg, walks, made):
    """(slope hex or error, states SHA-256 or error, len(walks) before the
    states are read, what reading them adds, and the same of len(made)) of
    one shoot, with walks emptied first."""
    slope = None
    walks.clear()
    try:
        slope, trajectory = halfline.shoot(problem, cfg)
        slope, before = float(slope).hex(), (len(walks), len(made))
        digest = hashlib.sha256(trajectory[1].tobytes()).hexdigest()
    except halfline.HalflineError as exc:
        digest = "%s: %s" % (type(exc).__name__, exc)
        if slope is None:
            slope, digest, before = digest, "-", (len(walks), len(made))
    return slope, digest, before[0], len(walks) - before[0], before[1], len(made) - before[1]


def counted(function, made):
    """function, each call appending None to made."""
    def function_counted(*args):
        made.append(None)
        return function(*args)
    return function_counted


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", help="checkout to compare with")
    ap.add_argument("--src", default=str(pathlib.Path.cwd() / "src"))
    ap.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    here = census(args.src)
    if args.raw:
        for key, record in here.items():
            print("\t".join(map(str, key + record)))
        return
    other = {}
    if args.against:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--raw",
             "--src", str(pathlib.Path(args.against) / "src")],
            capture_output=True, text=True, check=True)
        for line in child.stdout.splitlines():
            name, config, slope, digest, *counts = line.split("\t")
            other[name, config] = (slope, digest, *map(int, counts))
    worst = {}
    for (name, config), (slope, digest, *_) in here.items():
        line = "%-36s %-10s %-24s %s" % (name, config, slope, digest)
        if (name, config) in other:
            theirs, their_digest, *_ = other[name, config]
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
    for i, label in ((4, "accel calls before the states are read"),
                     (5, "accel calls that reading the states adds")):
        ours, theirs = totals(here, i), totals(other, i)
        print(label + ":")
        print("  ours:   " + ", ".join("%s %d" % item for item in ours.items()))
        if theirs:
            print("  theirs: " + ", ".join("%s %d" % item for item in theirs.items()))
            print("  ratio:  " + ", ".join("%s %.4f" % (config, count / theirs[config])
                                           for config, count in ours.items()))
    alike = sum(" | called " not in record[0] + record[1] for record in here.values())
    print("written out and called alike: %d of %d shoots" % (alike, len(here)))


def totals(shoots, i):
    """{config: the sum of field i over its shoots}."""
    out = {}
    for (_, config), record in shoots.items():
        out[config] = out.get(config, 0) + record[i]
    return out


if __name__ == "__main__":
    main()
