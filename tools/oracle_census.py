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
line gives the largest gap over the film and cone shoots, by config.  A
shoot that raises prints its error type and message in place of the slope.
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
    """{(name, config): (slope hex or error, states SHA-256)} of halfline in src."""
    sys.path.insert(0, str(src))
    import halfline
    out = {}
    for config, kwargs in CONFIGS:
        cfg = halfline.ShootConfig(**kwargs)
        for name, problem in problems(halfline):
            try:
                slope, (_, states) = halfline.shoot(problem, cfg)
                out[name, config] = (float(slope).hex(),
                                     hashlib.sha256(states.tobytes()).hexdigest())
            except halfline.HalflineError as exc:
                out[name, config] = ("%s: %s" % (type(exc).__name__, exc), "-")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", help="checkout to compare with")
    ap.add_argument("--src", default=str(pathlib.Path.cwd() / "src"))
    ap.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    here = census(args.src)
    if args.raw:
        for (name, config), (slope, digest) in here.items():
            print("%s\t%s\t%s\t%s" % (name, config, slope, digest))
        return
    other = {}
    if args.against:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--raw",
             "--src", str(pathlib.Path(args.against) / "src")],
            capture_output=True, text=True, check=True)
        for line in child.stdout.splitlines():
            name, config, slope, digest = line.split("\t")
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


if __name__ == "__main__":
    main()
