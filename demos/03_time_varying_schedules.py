"""Consensus over graphs that change every step.

No single snapshot needs to be strongly connected: it is enough that
every length-p window of graphs is strongly connected IN UNION. This demo
splits a ring across two alternating matrices (each half useless alone),
verifies the window condition, and shows consensus still arriving.

Usage:
    python demos/03_time_varying_schedules.py
"""

import numpy as np

import opdyn as od


def split_ring_matrices(n):
    """Each matrix carries half the arcs of a directed ring (plus
    self-loops), so only their union is strongly connected."""
    halves = []
    for arcs in (range(0, n // 2), range(n // 2, n)):
        entries = np.eye(n)
        for k in arcs:
            entries[(k + 1) % n, k] = 1.0
        entries /= entries.sum(axis=1, keepdims=True)
        halves.append(od.WeightMatrix(entries, beta=0.5))
    return halves


def main():
    n = 6
    first, second = split_ring_matrices(n)
    print("single-snapshot connectivity:")
    for label, m in (("first half", first), ("second half", second)):
        print(f"  {label}: strongly connected = {od.is_strongly_connected(m)}")
    union = od.is_strongly_connected(first, second)
    print(f"  union:      strongly connected = {union}\n")

    schedule = od.PeriodicSchedule((first, second))
    for p in (1, 2, 4):
        ok = od.verify_repeated_joint_connectivity(schedule, p=p, q=1, horizon=50)
        print(f"window length p={p}: every window strongly connected in union = {ok}")
    print(f"smallest verifying window: {od.find_window_parameters(schedule, horizon=50)}\n")

    x0 = od.generate_initial(-1.0, 1.0, n, seed=77)
    record = od.simulate(x0, schedule, od.StubbornPositive(),
                         od.StopRule(max_steps=100_000, consensus_epsilon=1e-9))
    value = float(record.final_state.mean())
    print(f"stubborn positives on the alternating schedule:")
    print(f"  x(0) spread {record.spreads[0]:.3f} -> consensus {value:+.6f} "
          f"after {record.steps} steps")

    rate = od.estimate_rate(record)
    print(f"  fitted per-step spread contraction rho = {rate.rho:.4f} "
          f"(r^2 = {rate.r_squared:.4f})")

    print("\nthe same schedule drawn at random instead of alternating:")
    random_schedule = od.RandomSchedule((first, second), seed=99)
    record = od.simulate(x0, random_schedule, od.StubbornPositive(),
                         od.StopRule(max_steps=100_000, consensus_epsilon=1e-9))
    print(f"  consensus {float(record.final_state.mean()):+.6f} after {record.steps} steps "
          f"(draws are a pure function of (seed, step), so reruns are identical)")


if __name__ == "__main__":
    main()
