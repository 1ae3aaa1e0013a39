"""The exact averaging limit on a fixed graph, without simulating.

Under plain averaging (everyone fully susceptible) on a fixed strongly
connected graph, the consensus value is the influence-weighted mean
c @ x(0), where c is the left fixed vector of the weight matrix. This
demo computes c by power iteration, reads each agent's social influence
off it, and confirms the prediction against a long simulation.

Usage:
    python demos/04_averaging_oracle.py
"""

import numpy as np

import opdyn as od
from opdyn.rng import SplitMix64


def main():
    rng = SplitMix64(5150)
    n = 7
    w = od.random_strongly_connected_matrix(n, rng, edge_probability=0.35)
    x0 = od.generate_initial(-1.0, 1.0, n, seed=61)

    c = od.stationary_weights(w)
    print("per-agent influence weights (left fixed vector of W):")
    for i, weight in enumerate(c):
        bar = "#" * int(round(60 * weight))
        print(f"  agent {i}: {weight:.4f} {bar}")
    residual = np.abs(w.entries.T @ c - c).max()
    print(f"fixed-vector residual: {residual:.2e}\n")

    predicted = od.degroot_consensus_value(w, x0)
    epsilon = 1e-12  # the run's consensus spread, and the agreement asked of the limits
    record = od.simulate(x0, od.StaticSchedule(w), od.DeGroot(),
                         od.StopRule(consensus_epsilon=epsilon))
    simulated = float(record.final_state.mean())
    print(f"predicted limit: {predicted:+.12f}")
    print(f"simulated limit: {simulated:+.12f}  ({record.steps} steps)")
    agree = abs(predicted - simulated) <= epsilon
    print(f"agree within {epsilon:g}: {'yes' if agree else 'no'}\n")

    rate = od.estimate_rate(record)
    print(f"spread contracted geometrically: rho = {rate.rho:.4f}, "
          f"r^2 = {rate.r_squared:.5f}")
    print("\nmean(x0) for comparison:", f"{float(np.mean(x0)):+.6f}",
          "(differs from the limit unless the matrix is doubly stochastic)")


if __name__ == "__main__":
    main()
