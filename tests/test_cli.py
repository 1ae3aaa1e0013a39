import json
import subprocess
import sys

import pytest

import opdyn.scenario
from opdyn.analysis import LemmaReport
from opdyn.cli import main

from _trials import nan_spike_kind


QUARTER = [[0.25] * 4 for _ in range(4)]


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def dissenter_path(tmp_path):
    return write_scenario(tmp_path, {
        "schema": 1,
        "name": "dissenter",
        "n": 4,
        "beta": 0.25,
        "x0": [1.0, -1.0, -1.0, -1.0],
        "schedule": {"kind": "static", "matrix": QUARTER},
        "susceptibility": "stubborn_neutral",
        "stop": {"max_steps": 100, "consensus_epsilon": 1e-9},
        "seed": 7,
    })


@pytest.fixture
def generated_path(tmp_path):
    return write_scenario(tmp_path, {
        "schema": 1,
        "name": "positive-crowd",
        "n": 12,
        "x0": {"uniform": [0.0, 1.0]},
        "schedule": {"kind": "static", "generated": {"edge_probability": 0.4}},
        "susceptibility": "stubborn_positive",
        "stop": {"max_steps": 20000, "consensus_epsilon": 1e-9},
        "seed": 21,
    }, name="generated.json")


class TestSimulateCommand:
    def test_prints_consensus_and_writes_artifacts(self, dissenter_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["simulate", dissenter_path, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "consensus -0.5 at step 1" in printed
        assert (out / "dissenter.trajectory.csv").exists()
        summary = json.loads((out / "dissenter.summary.json").read_text())
        assert summary["consensus_value"] == -0.5

    def test_stop_overrides(self, dissenter_path, tmp_path, capsys):
        code = main(["simulate", dissenter_path, "--out", str(tmp_path / "o"),
                     "--max-steps", "0"])
        assert code == 1  # max_steps 0 violates the stop rule
        code = main(["simulate", dissenter_path, "--out", str(tmp_path / "o"),
                     "--epsilon", "2.5"])
        assert code == 0
        assert "at step 0" in capsys.readouterr().out

    def test_lemma_violation_exits_one_after_writing(self, dissenter_path, tmp_path,
                                                      capsys, monkeypatch):
        forged = LemmaReport(interval_step=None, min_step=3, max_step=2)
        monkeypatch.setattr(opdyn.scenario, "check_lemmas", lambda record: forged)
        out = tmp_path / "out"
        assert main(["simulate", dissenter_path, "--out", str(out)]) == 1
        assert (out / "dissenter.trajectory.csv").exists()
        summary = json.loads((out / "dissenter.summary.json").read_text())
        assert summary["lemma_checks"] == {"interval_step": None, "min_step": 3, "max_step": 2}
        assert "lemma violation at step 2 (max_step)" in capsys.readouterr().err

    def test_non_finite_state_exits_one_after_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(opdyn.scenario._KIND_NAMES, "stubborn_neutral", nan_spike_kind)
        path = write_scenario(tmp_path, {
            "schema": 1,
            "name": "spike",
            "n": 3,
            "beta": 0.25,
            "x0": [0.3001, -0.5, 0.9],
            "schedule": {"kind": "static",
                         "matrix": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]},
            "susceptibility": "stubborn_neutral",
            "stop": {"max_steps": 20000, "consensus_epsilon": 1e-9},
            "seed": 7,
        })
        out = tmp_path / "out"
        assert main(["simulate", path, "--out", str(out)]) == 1
        assert "step 1 produced a non-finite state" in capsys.readouterr().err
        summary = json.loads((out / "spike.summary.json").read_text())
        assert summary["stop_reason"] == "non_finite"
        assert summary["final_state"] == [0.3001, -0.5, 0.9]
        assert len((out / "spike.trajectory.csv").read_text().splitlines()) == 2

    def test_missing_file_is_io_failure(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err


class TestValidateCommand:
    def test_valid_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("2\n0.5 0.5\n0.25 0.75\n")
        assert main(["validate", str(path), "--beta", "0.25"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("2\n0.5 0.6\n0.25 0.75\n")
        assert main(["validate", str(path), "--beta", "0.25"]) == 1
        assert "row_sum" in capsys.readouterr().out

    def test_violations_print_plain_numbers(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("3\n0.5 0.5 0.05\n0.5 0 0.5\n0.2 0.3 0.5\n")
        assert main(["validate", str(path), "--beta", "0.1"]) == 1
        out = capsys.readouterr().out
        assert "row sums to 1.05, expected 1" in out
        assert "nonzero entry 0.05 below floor 0.1" in out
        assert "zero_diagonal" in out
        assert "np.float64(" not in out

    def test_nan_beta_rejected(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("2\n0.99 0.01\n0.5 0.5\n")
        assert main(["validate", str(path), "--beta", "nan"]) == 1
        assert "beta must be positive" in capsys.readouterr().err

    def test_scenario_document(self, dissenter_path, capsys):
        assert main(["validate", dissenter_path]) == 0
        assert "valid scenario" in capsys.readouterr().out

    def test_broken_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"schema": 1}, name="broken.json")
        assert main(["validate", path]) == 1


class TestClassifyCommand:
    def test_zero_pinned_prediction(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 3,
            "x0": [0.5, 0.0, -0.5],
            "schedule": {"kind": "static", "matrix": [[1 / 3] * 3] * 3},
            "susceptibility": "stubborn_neutral",
        })
        assert main(["classify", path]) == 0
        printed = capsys.readouterr().out
        assert "consensus_at_zero" in printed
        assert "zero_pinning" in printed


class TestConnectivityCommand:
    def test_verifies_declared_window(self, dissenter_path, capsys):
        assert main(["connectivity", dissenter_path, "--p", "1", "--q", "1",
                     "--horizon", "10"]) == 0
        assert "True" in capsys.readouterr().out

    def test_failing_window_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 2,
            "x0": [0.5, -0.5],
            "schedule": {"kind": "static", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
            "susceptibility": "degroot",
        })
        assert main(["connectivity", path, "--p", "2", "--q", "1", "--horizon", "10"]) == 1

    def test_search_flag(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 2,
            "x0": [0.5, -0.5],
            "schedule": {"kind": "periodic", "matrices": [
                [[1.0, 0.0], [0.5, 0.5]],
                [[0.5, 0.5], [0.0, 1.0]],
            ]},
            "susceptibility": "degroot",
        })
        assert main(["connectivity", path, "--search", "--horizon", "10"]) == 0
        assert "p=2, q=1" in capsys.readouterr().out

    def test_search_cap_below_one_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 2,
            "x0": [0.5, -0.5],
            "schedule": {"kind": "periodic", "matrices": [
                [[1.0, 0.0], [0.5, 0.5]],
                [[0.5, 0.5], [0.0, 1.0]],
            ]},
            "susceptibility": "degroot",
        })
        assert main(["connectivity", path, "--search", "--p", "1", "--horizon", "10"]) == 1
        assert "no verifying window" in capsys.readouterr().out
        assert main(["connectivity", path, "--search", "--p", "0", "--horizon", "10"]) == 1
        assert "max_p must be >= 1" in capsys.readouterr().err

    def test_requires_window_or_search(self, dissenter_path, capsys):
        assert main(["connectivity", dissenter_path, "--horizon", "10"]) == 1


class TestCompareCommand:
    def test_paired_runs_share_first_row(self, generated_path, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", generated_path, "--out", str(out)]) == 0
        a = (out / "positive-crowd.degroot.csv").read_text().splitlines()
        b = (out / "positive-crowd.stubborn_positive.csv").read_text().splitlines()
        assert a[1] == b[1]  # identical t=0 rows, bit for bit
        assert a[-1] != b[-1]
        assert "difference" in capsys.readouterr().out

    def test_degroot_scenario_compares_against_flag(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 4, "beta": 0.25,
            "x0": [0.9, 0.1, 0.4, 0.7],
            "schedule": {"kind": "static", "matrix": QUARTER},
            "susceptibility": "degroot",
            "stop": {"max_steps": 5000, "consensus_epsilon": 1e-9},
        })
        out = tmp_path / "cmp"
        assert main(["compare", path, "--against", "stubborn_neutral", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert any("stubborn_neutral" in n for n in names)

    def test_max_steps_stop_is_not_reported_as_a_limit(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "schema": 1, "name": "capped", "n": 4, "beta": 0.25,
            "x0": [1.0, 0.2, -0.5, 0.3],
            "schedule": {"kind": "static", "matrix": QUARTER},
            "susceptibility": "stubborn_positive",
            "stop": {"max_steps": 3, "consensus_epsilon": 1e-9},
        })
        assert main(["compare", path, "--out", str(tmp_path / "cmp")]) == 0
        printed = capsys.readouterr().out
        degroot, positive = printed.split(" | ")
        assert degroot.startswith("degroot -> consensus ")
        assert "at step 1" in degroot
        assert positive.startswith("stubborn_positive -> no consensus: max_steps after 3 steps")
        assert "difference undefined" in positive

    def test_against_choices_exclude_degroot(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 4, "beta": 0.25,
            "x0": [0.9, 0.1, 0.4, 0.7],
            "schedule": {"kind": "static", "matrix": QUARTER},
            "susceptibility": "degroot",
            "stop": {"max_steps": 50, "consensus_epsilon": 1e-9},
        })
        out = str(tmp_path / "cmp")
        assert main(["compare", path, "--against", "degroot", "--out", out]) == 1
        err = capsys.readouterr().err
        assert "invalid choice" in err
        for name in ("stubborn_extremist", "stubborn_neutral", "stubborn_positive"):
            assert name in err
        assert main(["compare", path, "--against", "stubborn_extremist", "--out", out]) == 0

    def test_against_rejected_for_non_degroot_scenario(self, generated_path, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", generated_path, "--against", "stubborn_neutral",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--against" in err and "stubborn_positive" in err
        assert not out.exists()


class TestOracleCommand:
    def test_prints_value(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 4, "beta": 0.25,
            "x0": [0.9, -0.3, 0.5, -0.1],
            "schedule": {"kind": "static", "matrix": QUARTER},
            "susceptibility": "degroot",
        })
        assert main(["oracle", path]) == 0
        value = float(capsys.readouterr().out.rsplit(" ", 1)[1])
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_not_strongly_connected_is_precondition_failure(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 2,
            "x0": [0.4, -0.4],
            "schedule": {"kind": "static", "matrix": [[1.0, 0.0], [0.5, 0.5]]},
            "susceptibility": "degroot",
        })
        assert main(["oracle", path]) == 1
        assert "strongly connected" in capsys.readouterr().err


class TestExitCodeContract:
    def test_unknown_flag_rejected(self, dissenter_path, capsys):
        assert main(["simulate", dissenter_path, "--frobnicate"]) == 1

    def test_unknown_command_rejected(self, capsys):
        assert main(["launch"]) == 1

    def test_installed_entry_point(self, dissenter_path, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "opdyn.cli", "simulate", dissenter_path,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "consensus -0.5" in result.stdout
