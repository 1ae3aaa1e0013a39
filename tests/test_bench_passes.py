"""One pass of each benchmark workload that no other test runs.

The benchmark (``bench/workloads.py``) drives opdyn through its public
names. ``bench/test_bench.py`` runs a short ensemble pass; the passes here
cover the rest, so a name the benchmark reads cannot go without a test
failing.
"""

import pytest

import opdyn as od

from _trials import bench_workloads


@pytest.mark.parametrize("workload", ["large_static", "cli_session"])
def test_one_pass_at_seed_1_passes_its_checks(workload, tmp_path):
    workloads = bench_workloads()
    documents = workloads.DOCUMENTS[workload](1)
    inputs = workloads.Inputs([od.load_scenario(doc) for doc in documents])
    if workload == "cli_session":  # as bench/run.py prepares the session
        inputs.scenario_path = tmp_path / "scenario.json"
        inputs.scenario_path.write_text(documents[0], encoding="utf-8")
        inputs.out_dir = tmp_path / "out"
    tally = workloads.Tally()
    workloads.PASSES[workload](inputs, tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.problems
