"""One-step opinion updates under opinion-dependent susceptibility.

Walks through the building blocks: susceptibility profiles, the
row-stochastic one-step matrix, and the exact single-step collapse of a
4-agent panel where one extreme dissenter faces a unanimous opposition.

Usage:
    python demos/01_single_step_dynamics.py
"""

import numpy as np

import opdyn as od


def show_susceptibility_profiles():
    print("=" * 64)
    print("SUSCEPTIBILITY PROFILES f(x) OVER THE OPINION SCALE [-1, 1]")
    print("=" * 64)
    grid = np.linspace(-1.0, 1.0, 9)
    kinds = [od.DeGroot(), od.StubbornPositive(), od.StubbornNeutral(),
             od.StubbornExtremist()]
    print(f"{'x':>6} " + " ".join(f"{k.name:>18}" for k in kinds))
    profiles = np.column_stack([od.susceptibility_profile(k, grid) for k in kinds])
    for x, fs in zip(grid, profiles):
        row = " ".join(f"{f:>18.3f}" for f in fs)
        print(f"{x:>6.2f} {row}")
    print()
    print("stubborn_positive is immovable at +1 and fully open at -1;")
    print("stubborn_neutral is immovable at 0 and fully open at both extremes.")
    print()


def show_one_step_matrix():
    print("=" * 64)
    print("ONE-STEP MATRIX S = I - F + F W IS ALWAYS ROW-STOCHASTIC")
    print("=" * 64)
    w = od.WeightMatrix([[0.5, 0.5], [0.5, 0.5]], beta=0.5)
    x = [1.0, -1.0]
    s = od.system_matrix(x, w, od.StubbornPositive())
    print(f"opinions x = {x}")
    print(f"S =\n{s}")
    print(f"row sums  = {s.sum(axis=1)}")
    print("agent 1 sits at +1 (susceptibility 0), so her row is frozen to")
    print("the identity; agent 2 at -1 is fully open and averages freely.")
    print()


def show_dissenter_collapse():
    print("=" * 64)
    print("A SINGLE EXTREME DISSENTER AMONG STUBBORN NEUTRALS")
    print("=" * 64)
    w = od.uniform_complete_matrix(4)
    for x0 in ([1.0, -1.0, -1.0, -1.0], [-1.0, 1.0, 1.0, 1.0]):
        x1 = od.step(x0, w, od.StubbornNeutral())
        print(f"x(0) = {x0}  ->  x(1) = {x1.tolist()}")
    print()
    print("Opinions at the extremes are fully susceptible (f = 1), so the")
    print("all-to-all average lands everyone on +-1/2 in a single step --")
    print("and with mixed starting signs the side with more extremists wins")
    print("the sign of the consensus.")


if __name__ == "__main__":
    show_susceptibility_profiles()
    show_one_step_matrix()
    show_dissenter_collapse()
