"""The independent check: shooting with error-controlled Runge-Kutta, a
bisection on the initial slope and a secant to finish.

Every collocation answer in this package can be cross-examined by an
oracle that never sees a basis function: integrate the ODE from the origin
with a guessed initial slope, call the guess too low or too high by the
first telltale event on its walk (the profile crossing zero, or turning
back up), and bisect the interval of trial slopes on that verdict.  Once
the interval is 1e-6 wide, a secant on a far-field mismatch, which
vanishes on the decaying far-field mode, takes the slope to about 1e-13.
"""

from halfline import (
    ConeParams,
    FluidParams,
    ShootConfig,
    ThomasFermiProblem,
    shoot,
)


def main():
    slope, (xs, states) = shoot(FluidParams(0.6, 0.1, 0.5))
    print("draining film:   f'(0) = %.9f" % slope)
    for z in (1.0, 5.0, 10.0):
        i = int(round(z / 1e-3))
        print("                 f(%4.1f) = %12.5e" % (z, states[i, 0]))

    slope, (xs, states) = shoot(ThomasFermiProblem())
    print("atomic screen:   y'(0) = %.9f" % slope)
    i = int(round(4.0 / 1e-3))
    print("                 y(4.0) = %12.5e" % states[i, 0])

    slope, (xs, states) = shoot(ConeParams(0.0))
    print("heated cone:     f'(0) = %.9f  (lam = 0)" % slope)

    # the far-field truncation and the accuracy step (local tolerance
    # step**4) are adjustable when a problem needs them; the slope comes
    # from the mismatch at z = 10, so a farther z_max leaves it as it is
    cfg = ShootConfig(z_max=60.0, step=1e-3)
    slope60, _ = shoot(ConeParams(0.0), cfg)
    print("                 z_max 60 in place of 40 moves it by %.1e" %
          abs(slope60 - slope))


if __name__ == "__main__":
    main()
