import hashlib
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opdyn as od
from opdyn.errors import PreconditionError, SchemaError

from _trials import bench_workloads


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

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_schema_is_the_integer_one(self, schema):
        with pytest.raises(SchemaError, match="expected an integer") as caught:
            load(dissenter_document(schema=schema))
        assert caught.value.path == "schema"

    @pytest.mark.parametrize("spelling", ["1e400", "Infinity"])
    @pytest.mark.parametrize("path,overrides", [
        ("beta", {"beta": "VALUE", "schedule": {"kind": "static", "generated": {}}}),
        ("stop.consensus_epsilon", {"stop": {"consensus_epsilon": "VALUE"}}),
        ("stop.target_epsilon", {"stop": {"target": 0.0, "target_epsilon": "VALUE"}}),
    ])
    def test_infinite_number_names_its_path(self, path, overrides, spelling):
        text = json.dumps(dissenter_document(**overrides)).replace('"VALUE"', spelling)
        with pytest.raises(SchemaError, match="expected a finite number") as caught:
            od.load_scenario(text)
        assert caught.value.path == path

    @pytest.mark.parametrize("key,index", [("matrix", ""), ("matrices", "[1]"), ("pool", "[1]")])
    @pytest.mark.parametrize("entry,reason", [
        ("0.25", "a string"), (True, "a bool"), (float("nan"), "NaN"), (float("inf"), "Infinity"),
    ])
    def test_bad_matrix_entry_names_its_path(self, key, index, entry, reason):
        bad = [row[:] for row in QUARTER]
        bad[2][3] = entry
        kind = {"matrix": "static", "matrices": "periodic", "pool": "random"}[key]
        schedule = {"kind": kind, key: bad if key == "matrix" else [QUARTER, bad]}
        with pytest.raises(SchemaError, match="expected a (finite )?number") as caught:
            load(dissenter_document(schedule=schedule))
        assert caught.value.path == f"schedule.{key}{index}[2][3]", reason

    def test_ragged_matrix_row_names_its_path(self):
        ragged = [row[:] for row in QUARTER]
        ragged[1] = [0.5, 0.5]
        doc = dissenter_document(schedule={"kind": "periodic", "matrices": [QUARTER, ragged]})
        with pytest.raises(SchemaError, match="row of 4 numbers") as caught:
            load(doc)
        assert caught.value.path == "schedule.matrices[1][1]"

    def test_seed_rule(self):
        for seed in (-1, 2**64, True, 1.0, "7"):
            with pytest.raises(SchemaError) as caught:
                load(dissenter_document(seed=seed))
            assert caught.value.path == "seed"
            with pytest.raises(SchemaError) as caught:
                replace(load(dissenter_document()), seed=seed)
            assert caught.value.path == "seed"
        assert load(dissenter_document(seed=2**64 - 1)).seed == 2**64 - 1

    def test_name_rule(self):
        # the name is the CLI's file stem under --out, so it is one file name
        for name in ("../escaped", "sub/dir", "a\\b", "a\0b", ".", "..", 7):
            with pytest.raises(SchemaError) as caught:
                load(dissenter_document(name=name))
            assert caught.value.path == "name"
            with pytest.raises(SchemaError) as caught:
                replace(load(dissenter_document()), name=name)
            assert caught.value.path == "name"
        for name in ("...", ".hidden", "a b", "crowd-30.v2"):
            assert load(dissenter_document(name=name)).name == name

    def test_stop_nulls_only_where_the_default_is_null(self):
        scenario = load(dissenter_document(stop={"target": None, "target_epsilon": None}))
        assert scenario.stop == od.StopRule()
        for field in ("max_steps", "consensus_epsilon"):
            with pytest.raises(SchemaError) as caught:
                load(dissenter_document(stop={field: None}))
            assert caught.value.path == f"stop.{field}"

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
        for k, pair in enumerate(([float("nan"), 0.5], [0.0, float("nan")])):
            with pytest.raises(SchemaError) as caught:
                load(dissenter_document(x0={"uniform": pair}))
            assert caught.value.path == f"x0.uniform[{k}]"

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
             "schedule.horizon"),
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

    @pytest.mark.parametrize("raw", [b'{"schema": 1, "name": "caf\xe9"}',
                                     b"[" * 100_000 + b"]" * 100_000], ids=["latin-1", "nested"])
    def test_undecodable_or_over_nested_file_reports_top_level(self, tmp_path, raw):
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        with pytest.raises(SchemaError, match="not valid JSON") as caught:
            od.load_scenario_file(path)
        assert caught.value.path == "$"

    def test_file_with_a_byte_order_mark_loads(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(dissenter_document()).encode())
        assert od.load_scenario_file(path).scenario_id == load(dissenter_document()).scenario_id

    def test_integer_past_the_digit_limit_reports_top_level(self):
        with pytest.raises(SchemaError) as caught:
            od.load_scenario(json.dumps(dissenter_document()).replace('"seed": 7', '"seed": 7' + "0" * 5000))
        assert caught.value.path == "$"

    HUGE = 10**400  # a JSON integer, beyond the largest double
    HUGE_FIELDS = [
        ("x0[2]", {"x0": [0.0, 0.5, HUGE, 0.0]}),
        ("x0.uniform[1]", {"x0": {"uniform": [0, HUGE]}}),
        ("beta", {"beta": HUGE}),
        ("susceptibility.openness[2]",
         {"susceptibility": {"kind": "constant", "openness": [0.5, 0.5, HUGE, 0.5]}}),
        ("stop.consensus_epsilon", {"stop": {"consensus_epsilon": HUGE}}),
        ("schedule.matrix[2][3]",
         {"schedule": {"kind": "static", "matrix": [*QUARTER[:2], [0.25, 0.25, 0.25, HUGE], QUARTER[3]]}}),
        ("schedule.generated.edge_probability",
         {"schedule": {"kind": "static", "generated": {"edge_probability": HUGE}}}),
    ]

    @pytest.mark.parametrize("path,overrides", HUGE_FIELDS, ids=[path for path, _ in HUGE_FIELDS])
    def test_integer_too_large_for_a_double_names_its_path(self, path, overrides):
        with pytest.raises(SchemaError, match="integer too large for a double") as caught:
            load(dissenter_document(**overrides))
        assert caught.value.path == path

    def test_static_requires_exactly_one_source(self):
        doc = dissenter_document()
        doc["schedule"] = {"kind": "static"}
        with pytest.raises(SchemaError):
            load(doc)
        doc["schedule"] = {"kind": "static", "matrix": QUARTER,
                          "generated": {"edge_probability": 0.5}}
        with pytest.raises(SchemaError):
            load(doc)

    REFUSED = [
        ("$", [dissenter_document()]),
        ("n", dissenter_document(n=1)),
        ("beta", dissenter_document(beta=0.0)),
        ("beta", dissenter_document(beta=-0.25)),
        ("schedule.kind", dissenter_document(schedule={"kind": "spiral", "matrix": QUARTER})),
        ("schedule.horizon",
         dissenter_document(schedule={"kind": "static", "matrix": QUARTER, "horizon": 0})),
        ("schedule.generated", dissenter_document(schedule={"kind": "static", "generated": 0.3})),
        ("schedule.generated.edge_probability",
         dissenter_document(schedule={"kind": "static", "generated": {"edge_probability": 1.5}})),
        ("schedule.generated.edge_probability",
         dissenter_document(schedule={"kind": "static", "generated": {"edge_probability": -0.1}})),
        ("schedule.matrices", dissenter_document(schedule={"kind": "periodic", "matrices": []})),
        ("schedule.pool", dissenter_document(schedule={"kind": "random", "pool": {"0": QUARTER}})),
        ("x0.uniform", dissenter_document(x0={"uniform": [0.0]})),
        ("x0.uniform", dissenter_document(x0={"uniform": 0.5})),
        ("susceptibility.kind", dissenter_document(susceptibility={"kind": "degroot"})),
        ("susceptibility.openness", dissenter_document(susceptibility={"kind": "constant"})),
        ("susceptibility.openness",
         dissenter_document(susceptibility={"kind": "constant", "openness": [0.5, 0.5]})),
        ("stop", dissenter_document(stop={"max_steps": 0})),
    ]

    @pytest.mark.parametrize("path,doc", REFUSED, ids=[path for path, _ in REFUSED])
    def test_refusal_names_its_path(self, path, doc):
        with pytest.raises(SchemaError) as caught:
            load(doc)
        assert caught.value.path == path

    # A value echoed in a message is cut short, however large the field.
    ECHOED = [
        ("n", lambda v: {"n": v}),
        ("seed", lambda v: {"seed": v}),
        ("name", lambda v: {"name": v}),
        ("schema", lambda v: {"schema": v}),
        ("schedule.kind", lambda v: {"schedule": {"kind": v, "matrix": QUARTER}}),
        ("susceptibility", lambda v: {"susceptibility": v}),
        ("susceptibility.kind", lambda v: {"susceptibility": {"kind": v}}),
        ("stop.max_steps", lambda v: {"stop": {"max_steps": v}}),
    ]

    @pytest.mark.parametrize("value", [[0] * 200_000, "/" * 600_000], ids=["list", "string"])
    @pytest.mark.parametrize("path,place", ECHOED, ids=[path for path, _ in ECHOED])
    def test_a_huge_value_is_echoed_briefly(self, path, place, value):
        with pytest.raises(SchemaError) as caught:
            load(dissenter_document(**place(value)))
        assert caught.value.path == path
        assert len(str(caught.value)) < 300

    @pytest.mark.parametrize("prefix", ["", "schedule."], ids=["top", "schedule"])
    def test_a_huge_unknown_key_is_echoed_briefly(self, prefix):
        doc = dissenter_document(schedule={"kind": "static", "matrix": QUARTER})
        (doc["schedule"] if prefix else doc)["k" * 600_000] = 1
        with pytest.raises(SchemaError, match="unknown field") as caught:
            load(doc)
        assert caught.value.path.startswith(prefix)
        assert len(str(caught.value)) < 300


class TestCanonicalDocument:
    GENERATED = {
        "schema": 1, "n": 5,
        "x0": {"uniform": [0, 1]},
        "schedule": {"kind": "static", "generated": {}},
        "susceptibility": "stubborn_positive",
    }

    def test_equivalent_spellings_share_one_id(self, tmp_path):
        spellings = [
            self.GENERATED,
            {**self.GENERATED, "x0": {"uniform": [0.0, 1.0]}},
            {**self.GENERATED, "schedule": {"kind": "static", "generated": {"edge_probability": 0.3}}},
            {**self.GENERATED, "name": None},
            {**self.GENERATED, "stop": {"max_steps": 10**6, "target": None}, "seed": 0, "beta": 1e-12},
        ]
        scenarios = [load(doc) for doc in spellings]
        assert len({sc.scenario_id for sc in scenarios}) == 1
        path = tmp_path / "canonical.json"
        od.write_scenario(scenarios[0], path)
        again = od.load_scenario_file(path)
        assert again.scenario_id == scenarios[0].scenario_id
        assert again.document == scenarios[0].document
        assert again.document["schedule"]["generated"] == {"edge_probability": 0.3}
        assert "name" not in again.document

    def test_integer_entries_read_as_floats(self):
        a = load({"schema": 1, "n": 2, "x0": [1, 0],
                  "schedule": {"kind": "static", "matrix": [[1, 0], [0.5, 0.5]]},
                  "susceptibility": {"kind": "constant", "openness": [1, 0]}})
        b = load({"schema": 1, "n": 2, "x0": [1.0, 0.0],
                  "schedule": {"matrix": [[1.0, 0.0], [0.5, 0.5]], "kind": "static"},
                  "susceptibility": {"openness": [1.0, 0.0], "kind": "constant"}})
        assert a.scenario_id == b.scenario_id
        assert a.document == b.document

    def test_loaded_opinions_are_read_only(self):
        scenario = load(dissenter_document())
        before = scenario.scenario_id
        with pytest.raises(ValueError):
            scenario.x0[0] = 0.25
        assert scenario.scenario_id == before == load(scenario.document).scenario_id

    def test_an_override_is_part_of_the_id(self):
        scenario = load(dissenter_document())
        for override in (replace(scenario, seed=8),
                         replace(scenario, stop=replace(scenario.stop, max_steps=5))):
            assert override.scenario_id != scenario.scenario_id
            as_document = json.loads(json.dumps(override.document))
            assert load(as_document).scenario_id == override.scenario_id
        _, summary = od.run_scenario(scenario, stop=od.StopRule(max_steps=5))
        assert summary.scenario_id == replace(scenario, stop=od.StopRule(max_steps=5)).scenario_id

    # sha256 over the newline-joined ids of the benchmark's 904 documents
    # (every workload at seeds 1 and 2), recorded when the document was a
    # copy of the raw input; the canonical rebuild keeps every one of them.
    BENCH_IDS_SHA256 = "07d790fe78c075482ebbb893e5fc4fff625109f779ef266614238a3d52528ece"

    def test_bench_document_ids_are_pinned(self):
        workloads = bench_workloads()
        documents = [doc for seed in (1, 2) for name in ("ensemble", "large_static", "cli_session")
                     for doc in workloads.DOCUMENTS[name](seed)]
        ids = [od.load_scenario(doc).scenario_id for doc in documents]
        assert len(ids) == 904
        assert hashlib.sha256("\n".join(ids).encode()).hexdigest() == self.BENCH_IDS_SHA256


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
        for n in (3, 40):
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

    def test_an_infinite_number_is_not_written(self, tmp_path):
        # JSON has no Infinity: the writer refuses before the file exists
        scenario = replace(load(dissenter_document()), stop=od.StopRule(consensus_epsilon=math.inf))
        path = tmp_path / "s.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            od.write_scenario(scenario, path)
        assert not path.exists()


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
        override = replace(scenario, seed=124)
        x_default = od.initial_opinions(scenario)
        x_override = od.initial_opinions(override)
        assert np.any(x_default != x_override)
        w_default = od.build_schedule(scenario).matrix
        w_override = od.build_schedule(override).matrix
        assert not np.array_equal(w_default.entries, w_override.entries)
        assert override.scenario_id != scenario.scenario_id
        assert np.array_equal(od.initial_opinions(load({**doc, "seed": 124})), x_override)


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


# Any JSON value: nested lists and objects, floats with NaN and the infinities,
# integers of any size, strings, bools and null.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)

LOADABLE = [
    dissenter_document(),
    {"schema": 1, "n": 5, "x0": {"uniform": [0, 1]},
     "schedule": {"kind": "static", "generated": {}}, "susceptibility": "stubborn_positive"},
]


def refuse_constant(name):
    raise AssertionError(f"{name} in a canonical document")


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(LOADABLE),
       field=st.sampled_from(["schema", "name", "n", "beta", "x0", "schedule",
                              "susceptibility", "stop", "seed"]),
       value=JSON_VALUES)
def test_a_field_of_any_json_value_loads_to_strict_json_or_is_refused(base, field, value):
    try:
        scenario = od.load_scenario(json.dumps({**base, field: value}))
    except SchemaError:
        return
    text = json.dumps(scenario.document)
    assert json.loads(text, parse_constant=refuse_constant) == scenario.document
