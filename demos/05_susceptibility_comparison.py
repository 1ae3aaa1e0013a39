"""Same crowd, same graph: what does susceptibility change?

Thirty agents with opinions drawn uniformly from (0, 1) discuss on one
seeded strongly connected graph. The run is repeated twice from identical
inputs: once fully susceptible (plain averaging) and once as stubborn
positives, whose openness shrinks as their opinion approaches +1. The
stubborn-positive consensus lands visibly closer to +1, and the crawl of
the near-+1 agents drags the convergence out.

Writes paired trajectory CSVs under ./out/ for plotting with any tool.

Usage:
    python demos/05_susceptibility_comparison.py
"""

import json
from pathlib import Path

import opdyn as od

DOCUMENT = {
    "schema": 1,
    "name": "crowd30-demo",
    "n": 30,
    "x0": {"uniform": [0.0, 1.0]},
    "schedule": {"kind": "static", "generated": {"edge_probability": 0.25}},
    "susceptibility": "stubborn_positive",
    "stop": {"max_steps": 100000, "consensus_epsilon": 1e-9},
    "seed": 3909,
}


def main():
    scenario = od.load_scenario(json.dumps(DOCUMENT))
    records = od.run_comparison(scenario)

    out = Path("out")
    out.mkdir(exist_ok=True)
    print(f"{'kind':20s} {'consensus':>12s} {'steps':>8s}")
    for kind_name, record in records.items():
        value = record.consensus_value
        shown = record.stop_reason if value is None else f"{value:.6f}"
        print(f"{kind_name:20s} {shown:>12s} {record.steps:>8d}")
        path = out / f"{scenario.name}.{kind_name}.csv"
        od.write_trajectory_csv(record, path)

    values = {k: r.consensus_value for k, r in records.items()}
    if None in values.values():
        print("\nno shift to report: not both runs reached consensus")
    else:
        shift = values["stubborn_positive"] - values["degroot"]
        print(f"\nreluctance near +1 shifted the consensus by {shift:+.4f}")
    print(f"trajectory CSVs written to {out}/ "
          f"(identical t=0 rows, diverging afterwards)")


if __name__ == "__main__":
    main()
