import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

import opdyn as od
from opdyn.errors import PreconditionError, SchemaError


QUARTER = [[0.25] * 4 for _ in range(4)]


def dissenter_document(**overrides):
    doc = {
        "schema": 1,
        "name": "dissenter",
        "n": 4,
        "beta": 0.25,
        "x0": [1.0, -1.0, -1.0, -1.0],
        "schedule": {"kind": "static", "matrix": QUARTER},
        "susceptibility": "stubborn_neutral",
        "stop": {"max_steps": 100, "consensus_epsilon": 1e-9},
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def load(doc):
    return od.load_scenario(json.dumps(doc))


class TestLoadScenario:
    def test_dissenter_scenario_reproduces_half_consensus(self):
        scenario = load(dissenter_document())
        record, summary = od.run_scenario(scenario)
        assert summary.stop_reason == "consensus"
        assert summary.steps == 1
        assert summary.consensus_value == -0.5
        assert np.array_equal(record.states[1], np.full(4, -0.5))

    def test_minimal_document_gets_defaults(self):
        doc = {
            "schema": 1,
            "n": 2,
            "x0": [0.5, -0.5],
            "schedule": {"kind": "static", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
            "susceptibility": "degroot",
        }
        scenario = load(doc)
        assert scenario.stop.max_steps == 10**6
        assert scenario.stop.consensus_epsilon == 1e-9
        assert scenario.document["stop"] == asdict(od.StopRule())
        assert scenario.seed == 0
        assert scenario.document["beta"] == 1e-12
        assert scenario.name is None

    def test_x0_entry_out_of_range_names_index(self):
        with pytest.raises(SchemaError, match=r"x0\[2\]"):
            load(dissenter_document(x0=[0.0, 0.5, 1.5, 0.0]))

    def test_unknown_fields_rejected(self):
        with pytest.raises(SchemaError, match="plots"):
            load(dissenter_document(plots=True))
        doc = dissenter_document()
        doc["schedule"] = {"kind": "static", "matrix": QUARTER, "speed": 3}
        with pytest.raises(SchemaError, match=r"schedule\.speed"):
            load(doc)
        doc = dissenter_document()
        doc["stop"] = {"max_steps": 10, "patience": 2}
        with pytest.raises(SchemaError, match=r"stop\.patience"):
            load(doc)

    def test_schema_version_checked(self):
        with pytest.raises(SchemaError, match="schema"):
            load(dissenter_document(schema=2))

    def test_invalid_matrix_names_its_path(self):
        doc = dissenter_document()
        doc["schedule"] = {"kind": "periodic", "matrices": [QUARTER, [[0.6] * 4] * 4]}
        with pytest.raises(SchemaError, match=r"schedule\.matrices\[1\]"):
            load(doc)

    def test_matrix_shape_must_match_n(self):
        doc = dissenter_document(n=3)
        doc["x0"] = [0.0, 0.5, -0.5]
        with pytest.raises(SchemaError, match=r"schedule\.matrix"):
            load(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="susceptibility"):
            load(dissenter_document(susceptibility="stubborn_sideways"))

    def test_constant_kind_parses_and_validates(self):
        doc = dissenter_document(
            susceptibility={"kind": "constant", "openness": [0.1, 0.5, 0.9, 1.0]})
        scenario = load(doc)
        assert isinstance(scenario.kind, od.Constant)
        doc = dissenter_document(
            susceptibility={"kind": "constant", "openness": [0.1, 0.5, 0.9, 1.5]})
        with pytest.raises(SchemaError, match="openness"):
            load(doc)

    def test_generator_interval_validated(self):
        doc = dissenter_document(x0={"uniform": [0.5, 0.1]})
        with pytest.raises(SchemaError, match="empty interval"):
            load(doc)
        doc = dissenter_document(x0={"uniform": [0.0, 1.5]})
        with pytest.raises(SchemaError, match="uniform"):
            load(doc)

    def test_nan_interval_rejected(self):
        for pair in ([float("nan"), 0.5], [0.0, float("nan")]):
            with pytest.raises(SchemaError) as caught:
                load(dissenter_document(x0={"uniform": pair}))
            assert caught.value.path == "x0.uniform"

    def test_interval_without_interior_rejected(self):
        doc = dissenter_document(x0={"uniform": [0.5, float(np.nextafter(0.5, 1.0))]})
        with pytest.raises(SchemaError, match="strictly inside") as caught:
            load(doc)
        assert caught.value.path == "x0.uniform"

    def test_schedule_fields_of_another_kind_rejected(self):
        for schedule, path in (
            ({"kind": "periodic", "matrices": [QUARTER], "pool": [QUARTER]}, "schedule.pool"),
            ({"kind": "random", "pool": [QUARTER], "matrix": QUARTER}, "schedule.matrix"),
            ({"kind": "static", "matrix": QUARTER, "matrices": "not even a list"},
             "schedule.matrices"),
            ({"kind": "static", "generated": {}, "horizon": 5, "pool": [QUARTER]},
             "schedule.pool"),
        ):
            with pytest.raises(SchemaError, match="unknown field") as caught:
                load(dissenter_document(schedule=schedule))
            assert caught.value.path == path

    def test_nan_beta_rejected(self):
        entries = [[0.97, 0.01, 0.01, 0.01]] + QUARTER[1:]  # below any floor worth declaring
        doc = dissenter_document(beta=float("nan"), schedule={"kind": "static", "matrix": entries})
        with pytest.raises(SchemaError) as caught:
            load(doc)
        assert caught.value.path == "beta"

    def test_bad_json_reports_top_level(self):
        with pytest.raises(SchemaError, match=r"\$"):
            od.load_scenario("{not json")

    def test_static_requires_exactly_one_source(self):
        doc = dissenter_document()
        doc["schedule"] = {"kind": "static"}
        with pytest.raises(SchemaError):
            load(doc)
        doc["schedule"] = {"kind": "static", "matrix": QUARTER,
                          "generated": {"edge_probability": 0.5}}
        with pytest.raises(SchemaError):
            load(doc)


class TestGenerateInitial:
    def test_reproducible_open_interval(self):
        a = od.generate_initial(0.0, 1.0, 30, seed=11)
        b = od.generate_initial(0.0, 1.0, 30, seed=11)
        assert np.array_equal(a, b)
        assert a.shape == (30,)
        assert np.all((a > 0.0) & (a < 1.0))

    # sha256 of x0's bytes, recorded from the draw-by-draw generator. The
    # last interval holds one double, so endpoints come up: at n = 40 the
    # block draw hits one and the draws are redone one by one.
    @pytest.mark.parametrize("low,high,n,seed,x0_sha256", [
        (0.0, 1.0, 30, 11, "589029ccb1720e73ebf5ee446a55fc378fccc8cbcc76ae86b51434b3a37e166d"),
        (-1.0, 1.0, 1000, 1, "fbcf5f77c83cc888f0af5cc83116d7aa7a8db9bccfa1ec9a042f2868ddff8501"),
        (0.05, 0.5, 1000, 2**64 - 1,
         "40676727174977b0d84cadd6259810f19f07f6b764d5f3a5bfee63bb79b0e0d2"),
        (-0.9, -0.1, 7, 12345, "c85d8dafc9e65afee6f8b50178cd0915feecd45fb6435817337e214d78a2989a"),
        (0.25, 0.2500000000000001, 5, 3,
         "54b08b36b35aea11da1c24cd73879e1eb96587bab12d24ce42a801fdf7e4115c"),
        (0.25, 0.2500000000000001, 40, 3,
         "64a3b8ec33565c6d4f07c4a4aaa266279c36d3a762cc62026b9a82a613706019"),
    ])
    def test_output_is_pinned(self, low, high, n, seed, x0_sha256):
        x0 = od.generate_initial(low, high, n, seed)
        assert hashlib.sha256(x0.tobytes()).hexdigest() == x0_sha256
        assert np.all((low < x0) & (x0 < high))

    def test_degenerate_interval_gives_constant(self):
        assert np.array_equal(od.generate_initial(0.3, 0.3, 5, seed=1), np.full(5, 0.3))
        assert np.array_equal(od.generate_initial(-1.0, -1.0, 3, seed=1), np.full(3, -1.0))

    def test_different_seeds_differ(self):
        a = od.generate_initial(-1.0, 1.0, 8, seed=1)
        b = od.generate_initial(-1.0, 1.0, 8, seed=2)
        assert np.any(a != b)

    def test_interval_validation(self):
        with pytest.raises(PreconditionError):
            od.generate_initial(0.5, 0.1, 3, seed=0)
        with pytest.raises(PreconditionError):
            od.generate_initial(-1.5, 0.0, 3, seed=0)
        for low, high in ((float("nan"), 0.5), (0.0, float("nan"))):
            with pytest.raises(PreconditionError):
                od.generate_initial(low, high, 3, seed=0)

    def test_interval_without_interior_rejected(self):
        # no double lies strictly between two neighbouring doubles
        for n in (3, 40):  # scalar and block draws
            with pytest.raises(PreconditionError, match="strictly inside"):
                od.generate_initial(0.5, np.nextafter(0.5, 1.0), n, seed=1)


class TestRoundTrip:
    def test_write_then_load_is_equivalent(self, tmp_path):
        scenario = load(dissenter_document(beta=0.2, x0=[1 / 3, -1 / 3, 0.1, -1.0]))
        path = tmp_path / "scenario.json"
        od.write_scenario(scenario, path)
        again = od.load_scenario_file(path)
        assert again.document == scenario.document
        assert again.scenario_id == scenario.scenario_id
        assert np.array_equal(again.matrices[0].entries, scenario.matrices[0].entries)

    def test_thirds_matrix_survives_bit_exact(self, tmp_path):
        third = 1 / 3
        matrix = [[third, third, 1 - 2 * third]] * 3
        doc = {
            "schema": 1, "n": 3, "x0": [0.1, 0.2, 0.3],
            "schedule": {"kind": "static", "matrix": matrix},
            "susceptibility": "degroot",
        }
        scenario = load(doc)
        path = tmp_path / "s.json"
        od.write_scenario(scenario, path)
        again = od.load_scenario_file(path)
        assert again.matrices[0].entries[0, 0] == third


class TestDeterminism:
    def test_identical_runs_write_identical_csv(self, tmp_path):
        doc = {
            "schema": 1, "n": 6,
            "x0": {"uniform": [-0.8, 0.8]},
            "schedule": {"kind": "static", "generated": {"edge_probability": 0.4}},
            "susceptibility": "stubborn_positive",
            "stop": {"max_steps": 400, "consensus_epsilon": 1e-9},
            "seed": 123,
        }
        scenario = load(doc)
        digests = []
        for tag in ("a", "b"):
            record, _ = od.run_scenario(scenario)
            path = tmp_path / f"{tag}.csv"
            od.write_trajectory_csv(record, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_seed_override_changes_generated_inputs(self):
        doc = {
            "schema": 1, "n": 6,
            "x0": {"uniform": [-0.8, 0.8]},
            "schedule": {"kind": "static", "generated": {"edge_probability": 0.4}},
            "susceptibility": "degroot",
            "seed": 123,
        }
        scenario = load(doc)
        x_default = od.initial_opinions(scenario)
        x_override = od.initial_opinions(scenario, seed=124)
        assert np.any(x_default != x_override)
        w_default = od.build_schedule(scenario).matrix
        w_override = od.build_schedule(scenario, seed=124).matrix
        assert not np.array_equal(w_default.entries, w_override.entries)


class TestRunSummary:
    def test_consensus_value_present_iff_consensus_stop(self, tmp_path):
        scenario = load(dissenter_document())
        _, summary = od.run_scenario(scenario)
        data = od.summary_to_dict(summary)
        assert data["consensus_value"] == -0.5
        assert data["stop_reason"] == "consensus"
        assert data["steps"] == 1

        interrupted = load(dissenter_document(
            x0=[1.0, 0.0, -1.0, 0.5],
            susceptibility="stubborn_extremist",
            stop={"max_steps": 3, "consensus_epsilon": 1e-9},
        ))
        _, summary = od.run_scenario(interrupted)
        data = od.summary_to_dict(summary)
        assert data["stop_reason"] == "max_steps"
        assert "consensus_value" not in data

    def test_all_equal_input_still_writes_step_zero_row(self, tmp_path):
        scenario = load(dissenter_document(x0=[0.25, 0.25, 0.25, 0.25]))
        record, summary = od.run_scenario(scenario)
        assert summary.steps == 0
        csv_path = tmp_path / "t.csv"
        od.write_trajectory_csv(record, csv_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,")
        summary_path = tmp_path / "s.json"
        od.write_summary(summary, summary_path)
        assert json.loads(summary_path.read_text())["steps"] == 0

    def test_summary_key_order_is_stable(self, tmp_path):
        scenario = load(dissenter_document())
        _, summary = od.run_scenario(scenario)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        od.write_summary(summary, a)
        od.write_summary(summary, b)
        assert a.read_bytes() == b.read_bytes()

    def test_classification_serialized(self):
        scenario = load(dissenter_document(x0=[0.5, 0.0, -0.5, 0.25]))
        _, summary = od.run_scenario(scenario)
        data = od.summary_to_dict(summary)
        assert data["classification"]["outcome"] == "consensus_at_zero"
        assert data["rjsc"] is True


class TestComparison:
    def test_shared_inputs_and_distinct_kinds(self):
        doc = {
            "schema": 1, "n": 8,
            "x0": {"uniform": [0.0, 1.0]},
            "schedule": {"kind": "static", "generated": {"edge_probability": 0.5}},
            "susceptibility": "stubborn_positive",
            "stop": {"max_steps": 10000, "consensus_epsilon": 1e-9},
            "seed": 5,
        }
        scenario = load(doc)
        records = od.run_comparison(scenario)
        assert set(records) == {"degroot", "stubborn_positive"}
        first_rows = [rec.states[0] for rec in records.values()]
        assert np.array_equal(first_rows[0], first_rows[1])

    def test_same_kind_comparison_rejected(self):
        doc = dissenter_document(susceptibility="degroot")
        with pytest.raises(PreconditionError):
            od.run_comparison(load(doc))


class TestRjscStatus:
    def test_static_cases(self):
        assert od.schedule_rjsc_status(od.StaticSchedule(od.uniform_complete_matrix(3))) is True
        eye = od.WeightMatrix(np.eye(3), beta=0.5)
        assert od.schedule_rjsc_status(od.StaticSchedule(eye)) is False

    def test_periodic_union_decides(self):
        w_a = od.WeightMatrix([[1.0, 0.0], [0.5, 0.5]], beta=0.5)
        w_b = od.WeightMatrix([[0.5, 0.5], [0.0, 1.0]], beta=0.5)
        assert od.schedule_rjsc_status(od.PeriodicSchedule((w_a, w_b))) is True
        assert od.schedule_rjsc_status(od.PeriodicSchedule((w_a, w_a))) is False

    def test_random_pool_rules(self):
        sc = od.uniform_complete_matrix(2)
        w_a = od.WeightMatrix([[1.0, 0.0], [0.5, 0.5]], beta=0.5)
        w_b = od.WeightMatrix([[0.5, 0.5], [0.0, 1.0]], beta=0.5)
        eye = od.WeightMatrix(np.eye(2), beta=0.5)
        assert od.schedule_rjsc_status(od.RandomSchedule((sc, sc), seed=1)) is True
        assert od.schedule_rjsc_status(od.RandomSchedule((eye, eye), seed=1)) is False
        assert od.schedule_rjsc_status(od.RandomSchedule((w_a, w_b), seed=1)) is None
