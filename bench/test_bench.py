"""Tests of the benchmark itself: seeded inputs, span arithmetic, checks.

    python3 -m pytest bench
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import opdyn  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _digest(docs):
    return hashlib.sha256(json.dumps(docs).encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(workloads.DOCUMENTS))
def test_same_seed_yields_identical_documents(workload):
    make = workloads.DOCUMENTS[workload]
    docs = make(7)
    assert docs == make(7)
    assert docs != make(8)
    for doc in docs:
        opdyn.load_scenario(doc)
    # Another interpreter, with another string-hash seed, makes the same bytes.
    code = ("import hashlib, json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            f"print(hashlib.sha256(json.dumps(workloads.DOCUMENTS[{workload!r}](7))"
            ".encode()).hexdigest())")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=str(HERE.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == _digest(docs)


def test_self_time_subtracts_children_on_a_hand_built_tree():
    t = tracing.Tracer()
    root = t.add("cli.simulate", 0.0, 10.0)
    sim = t.add("dynamics.simulate", 1.0, 7.0, root)
    t.add("graph.matrix_at", 2.0, 3.0, sim)
    t.add("graph.matrix_at", 4.0, 4.5, sim)
    t.add("dynamics.write_csv", 7.5, 9.5, root)
    t.segment("pass 1")
    t.add("graph.matrix_at", 20.0, 20.25)

    inclusive, own = t.totals(0)
    assert inclusive == {"cli.simulate": 10.0, "dynamics.simulate": 6.0,
                         "graph.matrix_at": 1.5, "dynamics.write_csv": 2.0}
    assert own == {"cli.simulate": 2.0, "dynamics.simulate": 4.5,
                   "graph.matrix_at": 1.5, "dynamics.write_csv": 2.0}
    assert t.totals(1) == ({"graph.matrix_at": 0.25}, {"graph.matrix_at": 0.25})


def test_installed_spans_nest_and_uninstall_restores():
    (doc,) = workloads.cli_session_documents(3)
    scenario = opdyn.load_scenario(doc)
    simulate, matrix_at = opdyn.simulate, opdyn.RandomSchedule.matrix_at
    t = tracing.Tracer()
    uninstall = tracing.install(t)
    try:
        opdyn.run_scenario(scenario, stop=opdyn.StopRule(max_steps=5), keep_states=False)
    finally:
        uninstall()
    assert opdyn.simulate is simulate and opdyn.scenario.simulate is simulate
    assert opdyn.RandomSchedule.matrix_at is matrix_at

    names = [t.names[i] for i in t.name]
    sim = names.index("dynamics.simulate")
    lookups = [i for i, name in enumerate(names) if name == "graph.matrix_at"]
    assert len(lookups) == 5 and all(t.parent[i] == sim for i in lookups)
    assert t.counts["dynamics.steps"] == 5 and t.counts["graph.matrix_at_calls"] == 5


def test_forged_lemma_violation_is_counted_in_failed_frac(monkeypatch):
    scenarios = [opdyn.load_scenario(doc) for doc in workloads.ensemble_documents(5)[:4]]
    clean = workloads.Tally()
    workloads.ensemble_pass(workloads.Inputs(scenarios), clean)
    assert (clean.attempted, clean.failed) == (4, 0)

    # A running minimum that falls at step 1 violates the min lemma.
    forged = opdyn.TrajectoryRecord.from_states([[0.5, -0.5], [0.6, -0.6]])
    real = opdyn.check_lemmas
    monkeypatch.setattr(opdyn.scenario, "check_lemmas", lambda record: real(forged))
    tally = workloads.Tally()
    workloads.ensemble_pass(workloads.Inputs(scenarios), tally)
    assert (tally.attempted, tally.failed) == (4, 4)
    assert tally.failed_frac == 1.0
    assert "lemma violation" in tally.problems[0]
