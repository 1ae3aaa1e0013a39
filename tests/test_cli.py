import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

import opdyn.scenario
from opdyn.analysis import LemmaReport
from opdyn.cli import main
from opdyn.errors import DomainError

from _trials import bench_workloads, nan_spike_kind


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

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir", "a\0b"])
    def test_a_name_that_is_not_a_file_name_writes_nothing(self, dissenter_path, tmp_path,
                                                           capsys, name):
        doc = json.loads((tmp_path / "scenario.json").read_text())
        path = write_scenario(tmp_path, {**doc, "name": name})
        before = sorted(tmp_path.rglob("*"))
        assert main(["simulate", path, "--out", str(tmp_path / "run" / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: name: ")
        assert sorted(tmp_path.rglob("*")) == before

    def test_missing_file_is_io_failure(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err


GENERATED = {
    "schema": 1, "name": "gen", "n": 6,
    "x0": {"uniform": [0.1, 0.9]},
    "schedule": {"kind": "static", "generated": {"edge_probability": 0.3}},
    "susceptibility": "stubborn_positive",
    "stop": {"max_steps": 5000, "consensus_epsilon": 1e-9},
    "seed": 3,
}

# Two agents drawn from (-0.5, 0.5): whether they share a sign, and so the
# classification, depends on the seed.
SIGN_DRAW = {
    "schema": 1, "n": 2,
    "x0": {"uniform": [-0.5, 0.5]},
    "schedule": {"kind": "static", "generated": {"edge_probability": 0.3}},
    "susceptibility": "stubborn_neutral",
    "seed": 3,
}

# Neither matrix is strongly connected alone, so the shortest verifying
# window depends on the draws, and so on the seed.
HALF_RING_POOL = {
    "schema": 1, "n": 2,
    "x0": [0.5, -0.5],
    "schedule": {"kind": "random", "pool": [[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.0, 1.0]]]},
    "susceptibility": "degroot",
    "seed": 3,
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOverrides:
    """--seed, --epsilon and --max-steps run the scenario with that field
    replaced: the same run, and the same id, as a document that says so."""

    @pytest.mark.parametrize("doc,command,seed", [
        (SIGN_DRAW, ["classify"], 4),
        ({**GENERATED, "susceptibility": "degroot"}, ["oracle"], 2),  # oracle takes degroot only
        (HALF_RING_POOL, ["connectivity", "--search", "--horizon", "12"], 2),
    ])
    def test_seed_flag_runs_the_reseeded_document(self, tmp_path, capsys, doc, command, seed):
        path = write_scenario(tmp_path, doc)
        reseeded = write_scenario(tmp_path, {**doc, "seed": seed}, name="reseeded.json")
        name, *flags = command
        flagged = run(capsys, [name, path, *flags, "--seed", str(seed)])
        assert flagged == run(capsys, [name, reseeded, *flags])
        assert flagged != run(capsys, [name, path, *flags])
        assert flagged[0] == 0

    def test_compare_honours_seed(self, tmp_path, capsys):
        path = write_scenario(tmp_path, GENERATED)
        reseeded = write_scenario(tmp_path, {**GENERATED, "seed": 2}, name="reseeded.json")
        flagged = run(capsys, ["compare", path, "--seed", "2", "--out", str(tmp_path / "a")])
        assert flagged == run(capsys, ["compare", reseeded, "--out", str(tmp_path / "b")])
        assert flagged != run(capsys, ["compare", path, "--out", str(tmp_path / "c")])
        for kind in ("degroot", "stubborn_positive"):
            csv = f"gen.{kind}.csv"
            assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()

    def test_simulate_writes_the_replaced_scenarios_summary(self, tmp_path, capsys):
        unnamed = {k: v for k, v in GENERATED.items() if k != "name"}
        path = write_scenario(tmp_path, unnamed)
        scenario = opdyn.load_scenario_file(path)
        stop = replace(scenario.stop, max_steps=7, consensus_epsilon=1e-3)
        for flags, override in (
            (["--seed", "2"], replace(scenario, seed=2)),
            (["--max-steps", "7", "--epsilon", "1e-3"], replace(scenario, stop=stop)),
        ):
            out = tmp_path / flags[0]
            assert run(capsys, ["simulate", path, *flags, "--out", str(out)])[0] == 0
            expected = tmp_path / "expected.json"
            opdyn.write_summary(opdyn.run_scenario(override)[1], expected)
            stem = override.scenario_id  # an unnamed scenario's files carry the run's id
            assert stem != scenario.scenario_id
            assert (out / f"{stem}.summary.json").read_bytes() == expected.read_bytes()

    def test_compare_honours_max_steps(self, tmp_path, capsys):
        path = write_scenario(tmp_path, GENERATED)
        code, out, _ = run(capsys, ["compare", path, "--max-steps", "2", "--out", str(tmp_path)])
        assert code == 0
        assert out.count("no consensus: max_steps after 2 steps") == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_the_document_rule_exits_one(self, tmp_path, capsys, seed):
        path = write_scenario(tmp_path, GENERATED)
        for command in (["classify", path], ["simulate", path, "--out", str(tmp_path)]):
            code, _, err = run(capsys, [*command, "--seed", seed])
            assert code == 1
            assert "seed: expected an unsigned 64-bit integer" in err


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_entry_names_row_and_column(self, tmp_path, capsys, value):
        path = tmp_path / "w.txt"
        path.write_text(f"2\n0.5 0.5\n0.5 {value}\n")
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: matrix entry [1][1] is not finite: {float(value)!r}\n"

    def test_matrix_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_bytes(b"2\n0.5 0.5\n0.5 0.5\xa0\n")  # a Latin-1 no-break space
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not UTF-8 text: ")

    def test_beta_defaults_to_the_documents_floor(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        path.write_text("2\n0.5 0.5\n0.25 0.75\n")
        assert run(capsys, ["validate", str(path)]) == (0, "valid weight matrix (n=2, beta=1e-12)\n", "")

    def test_scenario_document(self, dissenter_path, capsys):
        assert main(["validate", dissenter_path]) == 0
        assert "valid scenario" in capsys.readouterr().out

    def test_beta_with_a_scenario_is_a_usage_error(self, dissenter_path, capsys):
        code, out, err = run(capsys, ["validate", dissenter_path, "--beta", "0.9"])
        assert (code, out) == (1, "")
        assert err.startswith("error: --beta applies only to matrix files")

    def test_broken_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"schema": 1}, name="broken.json")
        assert main(["validate", path]) == 1

    @pytest.mark.parametrize("matrix,where", [
        ([[0.5, "x"], [0.5, 0.5]], "schedule.matrix[0][1]"),
        ([[0.5, 0.5], [1.0]], "schedule.matrix[1]"),
    ])
    def test_malformed_matrix_entry_is_a_schema_error(self, tmp_path, capsys, matrix, where):
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 2, "x0": [0.5, -0.5],
            "schedule": {"kind": "static", "matrix": matrix},
            "susceptibility": "degroot",
        })
        for command in (["validate", path], ["simulate", path, "--out", str(tmp_path)]):
            code, _, err = run(capsys, command)
            assert code == 1
            assert err.startswith(f"error: {where}: ")


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

    def test_q_with_search_is_a_usage_error(self, dissenter_path, capsys):
        code, out, err = run(capsys, ["connectivity", dissenter_path, "--search", "--q", "5",
                                      "--horizon", "10"])
        assert (code, out) == (1, "")
        assert err.startswith("error: --q applies only without --search")


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


class FailsAtStep:
    """stubborn_neutral's susceptibility, except that the update into
    state ``step`` raises ``error``."""

    name = "stubborn_neutral"

    def __init__(self, error: BaseException, step: int = 3):
        self.error = error
        self.calls_left = step + 1  # simulate calls values once, to check its size, first

    def values(self, x):
        self.calls_left -= 1
        if self.calls_left == 0:
            raise self.error
        return x * x


SEVERAL_STEPS = {
    "schema": 1, "name": "several", "n": 4, "beta": 0.25,
    "x0": [0.9, -0.5, 0.2, 0.4],
    "schedule": {"kind": "static", "matrix": QUARTER},
    "susceptibility": "stubborn_neutral",
    "stop": {"max_steps": 100, "consensus_epsilon": 1e-9},
}


def traced_peak(argv) -> int:
    """Peak bytes tracemalloc sees while the CLI runs ``argv``."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedCsvs:
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("error", [KeyboardInterrupt(), DomainError("raised at step 3")])
    def test_a_failed_run_leaves_no_csv(self, tmp_path, capsys, monkeypatch, command, error):
        monkeypatch.setitem(opdyn.scenario._KIND_NAMES, "stubborn_neutral",
                            lambda: FailsAtStep(error))
        path = write_scenario(tmp_path, SEVERAL_STEPS)
        out = tmp_path / "out"
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main([command, path, "--out", str(out)])
        else:
            assert main([command, path, "--out", str(out)]) == 1
            assert "raised at step 3" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_a_failed_run_keeps_the_earlier_csv(self, tmp_path, capsys, monkeypatch):
        path = write_scenario(tmp_path, SEVERAL_STEPS)
        out = tmp_path / "out"
        assert main(["simulate", path, "--out", str(out)]) == 0
        earlier = (out / "several.trajectory.csv").read_bytes()
        monkeypatch.setitem(opdyn.scenario._KIND_NAMES, "stubborn_neutral",
                            lambda: FailsAtStep(DomainError("raised at step 3")))
        assert main(["simulate", path, "--out", str(out), "--max-steps", "50"]) == 1
        assert (out / "several.trajectory.csv").read_bytes() == earlier
        assert sorted(p.name for p in out.iterdir()) == [
            "several.summary.json", "several.trajectory.csv"]

    def test_a_failed_rename_leaves_no_temporary(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SEVERAL_STEPS)
        out = tmp_path / "out"
        (out / "several.trajectory.csv").mkdir(parents=True)  # the CSV cannot move there
        assert main(["simulate", path, "--out", str(out)]) == 2
        assert "i/o error" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["several.trajectory.csv"]

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_memory_grows_by_the_extremes_alone(self, tmp_path, capsys, command):
        # The n = 30 benchmark session runs to --max-steps. The loop keeps
        # 16 bytes per step (each state's min and max); 64 KB of slack covers
        # the block of extremes and rows staged before it is handed on (the
        # same size in both runs). simulate also fits the spread's decay rate
        # after the run, and np.polyfit's temporaries take about 32 bytes per
        # step more (72 allowed), until the fit is computed online.
        (document,) = bench_workloads().cli_session_documents(1)
        path = tmp_path / "doc.json"
        path.write_text(document)
        argv = [command, str(path), "--out", str(tmp_path / "out"), "--max-steps"]
        traced_peak(argv + ["10"])  # imports and caches
        growth = traced_peak(argv + ["20000"]) - traced_peak(argv + ["2000"])
        per_step = 16 + (72 if command == "simulate" else 0)
        assert growth <= per_step * 18_000 + 64_000


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

    @pytest.mark.parametrize("kind", ["stubborn_positive", "stubborn_neutral"])
    def test_refuses_kinds_other_than_degroot(self, tmp_path, capsys, kind):
        # plain averaging's limit is not the limit of these kinds
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 3,
            "x0": [0.6, -0.2, -0.8],
            "schedule": {"kind": "static", "matrix": [[1 / 3] * 3] * 3},
            "susceptibility": kind,
        })
        assert main(["oracle", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"this one is {kind}" in captured.err

    def test_refuses_periodic_schedules(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "schema": 1, "n": 4, "beta": 0.25,
            "x0": [0.9, -0.3, 0.5, -0.1],
            "schedule": {"kind": "periodic", "matrices": [QUARTER, QUARTER]},
            "susceptibility": "degroot",
        })
        assert main(["oracle", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "static schedules only" in captured.err


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

    def test_missing_file_is_named_once(self, tmp_path, capsys):
        code, out, err = run(capsys, ["classify", str(tmp_path / "absent.json")])
        assert (code, out) == (2, "")
        assert err.startswith("i/o error: ") and err.count("absent.json") == 1

    @pytest.mark.parametrize("raw", [b'{"schema": 1, "name": "caf\xe9"}',
                                     b"[" * 100_000 + b"]" * 100_000], ids=["latin-1", "nested"])
    @pytest.mark.parametrize("command", ["simulate", "validate", "classify"])
    def test_unreadable_document_is_a_schema_error(self, tmp_path, capsys, raw, command):
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        out_flag = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        code, out, err = run(capsys, [command, str(path), *out_flag])
        assert (code, out) == (1, "")
        assert err.startswith("error: $: not valid JSON: ") and err.count("\n") == 1

