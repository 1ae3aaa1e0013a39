"""The CSR product that large sparse weight matrices use.

A ``WeightMatrix`` with at least ``_CSR_MIN_N`` agents and density at most
``_CSR_MAX_DENSITY`` keeps a CSR copy, and its products sum each row (or
column) from left to right over the nonzeros, another order than the
dense ones. These tests pin that order, hold that path to the dense
``entries @`` form and the gap form within rounding, hold the small
sizes to the dense path bit for bit, and hold every door's ``matvec`` and
``rmatvec`` to the products of the form the matrix holds.
"""

import gc
import hashlib
import json
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opdyn as od
from opdyn import analysis, dynamics, graph
from opdyn.cli import main
from opdyn.errors import SchemaError, ShapeError, ValidationError
from opdyn.rng import SplitMix64

from _trials import ALL_KINDS, bench_workloads, gap_form_step, random_valid_matrix, trial_rng


def dense_form_step(x: np.ndarray, matrix: od.WeightMatrix, kind) -> np.ndarray:
    """The library's update with the product taken on the dense array."""
    f = kind.values(x)
    d = x - x[0]
    return np.clip(x + f * (matrix.entries @ d - d), x.min(), x.max())


def dense_stationary_weights(matrix: od.WeightMatrix, tol: float = 1e-12) -> np.ndarray:
    """``stationary_weights``' power iteration on the dense transpose."""
    w = matrix.entries
    c = np.full(matrix.n, 1.0 / matrix.n)
    for _ in range(200_000):
        image = w.T @ c
        if float(np.abs(image - c).max()) <= tol:
            return c
        c = image / image.sum()
    raise AssertionError("dense power iteration did not converge")


class TestCsrProduct:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_step_and_stationary_weights_match_dense(self, data):
        n = data.draw(st.integers(500, 800), label="n")
        p = data.draw(st.floats(0.003, 0.02), label="edge probability")
        w = od.random_strongly_connected_matrix(
            n, SplitMix64(data.draw(st.integers(0, 2**64 - 1), label="seed")), p)
        assert w._csr is not None
        rng = trial_rng(40, data.draw(st.integers(0, 2**16), label="trial"))
        # a palette of a few values makes ties at the extremes common
        palette = [rng.uniform(-1.0, 1.0) for _ in range(1 + rng.randrange(8))]
        palette += [(-1.0, 0.0, 1.0)[rng.randrange(3)]]
        x = np.array([palette[rng.randrange(len(palette))] for _ in range(n)])
        kind = data.draw(st.one_of(
            st.sampled_from(ALL_KINDS),
            st.just(od.Constant(tuple(0.0 if rng.random() < 0.2 else rng.random()
                                      for _ in range(n))))), label="kind")

        out = od.step(x, w, kind)
        assert np.abs(out - dense_form_step(x, w, kind)).max() <= 1e-12
        assert np.abs(out - gap_form_step(x, w, kind)).max() <= 1e-12
        assert out.min() >= x.min() and out.max() <= x.max()
        stubborn = kind.values(x) == 0.0
        assert np.array_equal(out[stubborn], x[stubborn])
        consensus = np.full(n, palette[0])
        assert np.array_equal(od.step(consensus, w, kind), consensus)

        assert np.abs(od.stationary_weights(w) - dense_stationary_weights(w)).max() <= 1e-12

    def test_non_contiguous_input(self):
        generated = od.random_strongly_connected_matrix(600, trial_rng(42, 0), 0.005)
        entries = generated.entries
        w = od.WeightMatrix(np.asfortranarray(entries), generated.beta)  # column-major
        assert w._csr is not None
        v = np.linspace(-1.0, 1.0, 600)
        assert np.abs(w.matvec(v) - entries @ v).max() <= 1e-12
        assert np.abs(w.rmatvec(v) - entries.T @ v).max() <= 1e-12


    def test_products_sum_each_row_and_column_left_to_right(self):
        w = od.random_strongly_connected_matrix(500, trial_rng(45, 0), 0.01)
        assert w._csr is not None
        rng = trial_rng(45, 1)
        v = np.array([rng.uniform(-2.0, 2.0) for _ in range(500)])
        row_sums, column_sums = [0.0] * 500, [0.0] * 500
        for i, j in zip(*np.nonzero(w.entries)):  # row-major order
            row_sums[i] += float(w.entries[i, j]) * float(v[j])
            column_sums[j] += float(w.entries[i, j]) * float(v[i])
        assert w.matvec(v).tobytes() == np.array(row_sums).tobytes()
        assert w.rmatvec(v).tobytes() == np.array(column_sums).tobytes()


class TestDensePathKept:
    def test_small_and_dense_matrices_stay_dense(self):
        for n in (3, 8, 30):
            assert random_valid_matrix(n, trial_rng(43, n))._csr is None
        # large, but denser than the threshold
        assert od.random_strongly_connected_matrix(400, trial_rng(43, 0), 0.1)._csr is None

    def test_products_are_the_dense_ones_bit_for_bit(self):
        for n in (3, 5, 8, 30, 100, 399):
            w = random_valid_matrix(n, trial_rng(44, n))
            assert w._csr is None
            rng = trial_rng(45, n)
            for scale in (1.0, 1.0, 2.0, 1e-300, 1e300):
                v = scale * (2.0 * rng.random_block(n) - 1.0)
                assert np.array_equal(w.matvec(v), w.entries @ v)
                assert np.array_equal(w.rmatvec(v), w.entries.T @ v)


def support_door(w: od.WeightMatrix) -> od.WeightMatrix:
    """``w`` rebuilt through ``_from_support``, which keeps CSR at any size."""
    flat = np.flatnonzero(w.entries)
    return od.WeightMatrix._from_support(w.n, flat, np.take(w.entries, flat), w.beta)


def held_products(w: od.WeightMatrix, v: np.ndarray) -> tuple:
    """``W v`` and ``W^T v`` as the form ``w`` holds computes them."""
    if w._csr is None:
        return w.entries.dot(v), w.entries.T.dot(v)
    rows, cols, vals = w._csr
    return (np.bincount(rows, vals * v[cols], minlength=w.n),
            np.bincount(cols, vals * v[rows], minlength=w.n))


def negative_zero_matrix() -> od.WeightMatrix:
    entries = reference_generator_entries(400, SplitMix64(5), 0.01)
    entries[0, np.flatnonzero(entries[0] == 0.0)[0]] = -0.0
    return od.WeightMatrix(entries, float(entries[entries > 0.0].min()))


class TestProductsBoundAtConstruction:
    """Whichever door builds a matrix, ``matvec`` and ``rmatvec`` are the
    products of the form it holds, bit for bit."""

    DOORS = {  # door: (make, holds CSR)
        "dense_from_list": (lambda: od.WeightMatrix(
            random_valid_matrix(6, trial_rng(46, 0)).entries.tolist(), 0.01), False),
        "dense_from_array": (lambda: od.WeightMatrix(
            random_valid_matrix(30, trial_rng(46, 1)).entries, 0.01), False),
        "from_support": (lambda: support_door(random_valid_matrix(7, trial_rng(46, 2))), True),
        "generator_dense": (lambda: od.random_strongly_connected_matrix(
            399, trial_rng(46, 3), 0.01), False),
        "generator_csr": (lambda: od.random_strongly_connected_matrix(
            500, trial_rng(46, 4), 0.005), True),
        "at_floor_dense": (lambda: random_valid_matrix(8, trial_rng(46, 5))._at_floor(0.01), False),
        "at_floor_csr": (lambda: od.random_strongly_connected_matrix(
            400, trial_rng(46, 6), 0.01)._at_floor(1e-3), True),
        "negative_zero": (negative_zero_matrix, True),
    }

    @pytest.mark.parametrize("door", DOORS)
    def test_products_are_the_held_forms(self, door):
        make, csr = self.DOORS[door]
        w = make()
        assert (w._csr is not None) == csr
        rng = trial_rng(47, w.n)
        for v in (np.zeros(w.n), -np.zeros(w.n),
                  *(scale * (2.0 * rng.random_block(w.n) - 1.0)
                    for scale in (1.0, 1.0, 1e-300, 1e300))):
            fresh = "entries" not in vars(w)
            got = w.matvec(v), w.rmatvec(v)
            assert fresh == ("entries" not in vars(w))  # a product builds no entries
            for have, want in zip(got, held_products(w, v)):
                assert have.dtype == want.dtype and have.tobytes() == want.tobytes()

    def test_list_and_array_states_agree_on_a_pool_held_as_csr(self):
        for trial in range(24):
            rng = trial_rng(48, trial)
            n = 2 + rng.randrange(dynamics._LIST_KERNEL_MAX_N - 1)
            pool = tuple(support_door(random_valid_matrix(n, rng, 0.5)) for _ in range(3))
            assert all(m._csr is not None for m in pool)
            schedule = od.RandomSchedule(pool, seed=rng.randrange(2**32))
            kind = (*ALL_KINDS, od.Constant(tuple(rng.random() for _ in range(n))))[trial % 5]
            x0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
            stop = od.StopRule(max_steps=200, consensus_epsilon=1e-12)
            lists = od.simulate(x0, schedule, kind, stop)
            with mock.patch.object(dynamics, "_LIST_KERNEL_MAX_N", 0):
                arrays = od.simulate(x0, schedule, kind, stop)
            assert (lists.stop_reason, lists.steps, lists.clamp_steps) == \
                (arrays.stop_reason, arrays.steps, arrays.clamp_steps)
            for name in ("mins", "maxs", "final_state", "states"):
                assert getattr(lists, name).tobytes() == getattr(arrays, name).tobytes(), name


def reference_generator_entries(n: int, rng: SplitMix64, p: float) -> np.ndarray:
    """The generator's matrix built the dense way, on one n x n array: the
    same draws, and rows normalized by that array's ``sum(axis=1)``."""
    order = list(range(n))
    rng.shuffle(order)
    entries = np.zeros((n, n))
    entries[np.arange(n), np.arange(n)] = 1.0
    entries[order[1:] + order[:1], order] = 1.0  # order[k] -> order[k + 1]
    i, r = np.divmod(rng._hits(n * (n - 1), p), n - 1)
    entries[i, r + (r >= i)] = 1.0
    support = np.flatnonzero(entries)
    np.put(entries, support, 1.0 + rng.random_block(support.size))
    entries /= entries.sum(axis=1)[:, None]
    return entries


def csr_bytes(w: od.WeightMatrix) -> list:
    return [(a.dtype, a.tobytes()) for a in w._csr]


def outcome(make):
    """What a door gives: its CSR form and floor, or its error and findings."""
    try:
        w = make()
    except (ShapeError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "violations", None)
    return csr_bytes(w), w.beta.hex()


class TestOneFormOfWeights:
    """A large sparse matrix holds its CSR form alone; ``entries`` is built on request."""

    # (n, p, csr): 0.04 n^2 nonzeros is 6,400 at n = 400; p = 0.03 gives about
    # 5,600 with the diagonal and the cycle, p = 0.045 about 8,000.
    STORAGE = [(399, 0.01, False), (400, 0.01, True), (400, 0.03, True),
               (400, 0.045, False), (401, 0.03, True), (401, 0.045, False)]

    @pytest.mark.parametrize("n,p,csr", STORAGE)
    def test_generated_matrix_is_the_dense_doors(self, n, p, csr):
        for seed in range(3):
            drawn, rng = SplitMix64(seed), SplitMix64(seed)
            w = od.random_strongly_connected_matrix(n, drawn, p)
            entries = reference_generator_entries(n, rng, p)
            dense_door = od.WeightMatrix(entries, float(entries[entries > 0.0].min()))
            assert drawn._state == rng._state
            assert (w._csr is not None) == (dense_door._csr is not None) == csr
            assert w.beta.hex() == dense_door.beta.hex()
            if csr:
                assert csr_bytes(w) == csr_bytes(dense_door)
                assert "entries" not in vars(w) and "entries" not in vars(dense_door)
            assert w.entries.tobytes() == dense_door.entries.tobytes() == entries.tobytes()
            assert w.entries is w.entries  # built once, then kept
            assert w.entries.flags.c_contiguous and not w.entries.flags.writeable

    # Each corrupts the support and weights of a valid 400-agent CSR matrix.
    CORRUPTIONS = {
        "clean": lambda flat, vals, n: (flat, vals),
        "row_sum": lambda flat, vals, n: (flat, np.where(flat // n == 7, vals * 1.5, vals)),
        "entry_floor": lambda flat, vals, n: (flat, np.where(np.arange(flat.size) == 11, 1e-9, vals)),
        "zero_diagonal": lambda flat, vals, n: (flat[flat != 5 * (n + 1)], vals[flat != 5 * (n + 1)]),
        "negative": lambda flat, vals, n: (flat, np.where(np.arange(flat.size) == 3, -vals, vals)),
        "nan": lambda flat, vals, n: (flat, np.where(np.arange(flat.size) >= 40, np.nan, vals)),
        "inf": lambda flat, vals, n: (flat, np.where(np.arange(flat.size) == 9, np.inf, vals)),
    }

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_private_door_reports_what_the_dense_door_reports(self, corruption):
        n = 400
        valid = od.random_strongly_connected_matrix(n, SplitMix64(8), 0.01)
        rows, cols, vals = valid._csr
        flat, vals = self.CORRUPTIONS[corruption](rows * n + cols, vals.copy(), n)
        dense = np.zeros((n, n))
        np.put(dense, flat, vals)
        private = outcome(lambda: od.WeightMatrix._from_support(n, flat, vals, valid.beta))
        assert private == outcome(lambda: od.WeightMatrix(dense, valid.beta))
        assert (private[0] is ShapeError) == (corruption in ("nan", "inf"))

    @pytest.mark.parametrize("n,block", [(2, None), (9, None), (400, None), (1000, None),
                                         (37, 5 * 37), (37, 5 * 37 + 36), (300, 299), (129, 1)])
    def test_row_sums_are_the_dense_ones_bit_for_bit(self, n, block, monkeypatch):
        if block is not None:  # rows per block, and a partial last block
            monkeypatch.setattr(graph, "_ROW_SUM_BLOCK", block)
        rng = np.random.default_rng(n)
        # wide magnitudes, so the order of the sum shows; each row its own density
        dense = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.integers(-8, 9, (n, n))
        dense[rng.random((n, n)) < rng.random((n, 1))] = 0.0
        dense[rng.integers(n)] = 0.0  # an empty row
        flat = np.flatnonzero(dense)
        sums = graph._row_sums(n, flat, np.take(dense, flat))
        assert sums.tobytes() == dense.sum(axis=1).tobytes()

    def test_generator_memory_is_o_nnz(self):
        n = 1000
        od.random_strongly_connected_matrix(n, SplitMix64(1), 0.003)  # first-use costs
        tracemalloc.start()
        try:
            w = od.random_strongly_connected_matrix(n, SplitMix64(1), 0.003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w._csr is not None and "entries" not in vars(w)
        assert peak <= 0.3 * 8 * n * n

    def test_csr_matrix_keeps_no_reference_to_its_input(self):
        entries = reference_generator_entries(500, SplitMix64(4), 0.005)
        expected = entries.tobytes()
        beta = float(entries[entries > 0.0].min())
        entries.setflags(write=False)  # read-only, C-ordered and owning its memory
        given = weakref.ref(entries)
        w = od.WeightMatrix(entries, beta)
        del entries
        gc.collect()
        assert given() is None
        assert w._csr is not None and w.entries.tobytes() == expected

    def test_negative_zero_is_kept(self):
        entries = reference_generator_entries(400, SplitMix64(5), 0.01)
        entries[0, np.flatnonzero(entries[0] == 0.0)[0]] = -0.0
        w = od.WeightMatrix(entries, float(entries[entries > 0.0].min()))
        assert w._csr is not None and w.entries.tobytes() == entries.tobytes()

    def test_repr_names_the_form_and_builds_no_dense_array(self):
        dense = od.uniform_complete_matrix(4)
        assert repr(dense) == "WeightMatrix(n=4, beta=0.25, form='dense')"
        w = od.random_strongly_connected_matrix(1000, SplitMix64(1), 0.003)
        assert repr(w) == f"WeightMatrix(n=1000, beta={w.beta!r}, form='csr')"
        assert "entries" not in vars(w)

    @staticmethod
    def static_scenario(matrix, beta: float) -> od.Scenario:
        return od.Scenario(n=matrix.n if isinstance(matrix, od.WeightMatrix) else len(matrix),
                           beta=beta, seed=1, name=None, x0=(0.1, 0.5), schedule_kind="static",
                           matrices=(matrix,), generated_edge_probability=None,
                           kind=od.DeGroot(), stop=od.StopRule())

    @staticmethod
    def below_floor(seed: int) -> od.WeightMatrix:
        """A generated 400-agent CSR matrix declared at half its floor."""
        w = od.random_strongly_connected_matrix(400, SplitMix64(seed), 0.01)
        rows, cols, vals = w._csr
        return od.WeightMatrix._from_support(400, rows * 400 + cols, vals, w.beta / 2)

    def test_scenario_rechecks_a_csr_matrix_without_its_dense_array(self):
        m = self.below_floor(9)
        beta = float(m._csr.vals.min())
        scenario = self.static_scenario(m, beta)
        assert "entries" not in vars(m)
        (kept,) = scenario.matrices
        assert kept.beta == beta and "entries" not in vars(kept)
        assert csr_bytes(kept) == csr_bytes(m)

    def test_scenario_recheck_of_a_csr_matrix_fails_as_the_dense_one_does(self):
        m = self.below_floor(10)
        beta = float(np.partition(m._csr.vals, 2)[2])  # two entries fall below it
        with pytest.raises(SchemaError) as csr:
            self.static_scenario(m, beta)
        assert "entries" not in vars(m)
        with pytest.raises(SchemaError) as dense:
            self.static_scenario(np.array(self.below_floor(10).entries), beta)
        assert str(csr.value) == str(dense.value)
        assert "below floor" in str(csr.value)

    def test_run_path_builds_no_dense_array(self):
        scenario = od.load_scenario(json.dumps({
            "schema": 1, "n": 1000, "x0": {"uniform": [0.05, 0.5]},
            "schedule": {"kind": "static", "generated": {"edge_probability": 0.003}},
            "susceptibility": "degroot", "stop": {"consensus_epsilon": 1e-12}, "seed": 3}))
        schedule = od.build_schedule(scenario)
        x0 = od.initial_opinions(scenario)
        record = od.simulate(x0, schedule, od.DeGroot(), scenario.stop)
        assert record.stop_reason == "consensus"
        assert od.schedule_rjsc_status(schedule) is True
        c = od.stationary_weights(schedule.matrix)
        assert abs(record.final_state[0] - c @ x0) <= 1e-8
        assert "entries" not in vars(schedule.matrix)

    def test_dense_callers_build_entries(self, tmp_path):
        n = 400
        entries = reference_generator_entries(n, SplitMix64(6), 0.01)
        beta = float(entries[entries > 0.0].min())
        w = od.WeightMatrix(entries, beta)
        assert w._csr is not None and "entries" not in vars(w)
        x = np.linspace(-1.0, 1.0, n)
        kind = od.StubbornNeutral()
        f = kind.values(x)
        expected = f[:, None] * entries
        expected[np.arange(n), np.arange(n)] += 1.0 - f
        assert od.system_matrix(x, w, kind).tobytes() == expected.tobytes()

        doc = {"schema": 1, "n": n, "beta": beta, "x0": x.tolist(),
               "schedule": {"kind": "static", "matrix": entries.tolist()},
               "susceptibility": "degroot"}
        scenario = od.load_scenario(json.dumps(doc))
        assert scenario.matrices[0]._csr is not None and "entries" not in vars(scenario.matrices[0])
        od.write_scenario(scenario, tmp_path / "doc.json")
        again = od.load_scenario_file(tmp_path / "doc.json")
        assert again.scenario_id == scenario.scenario_id
        assert again.matrices[0].entries.tobytes() == entries.tobytes()

    def test_slowly_mixing_ring_falls_back_to_the_dense_solve(self, monkeypatch):
        w = od.random_strongly_connected_matrix(650, SplitMix64(650), 0.0)
        assert w._csr is not None and "entries" not in vars(w)
        monkeypatch.setattr(analysis, "STATIONARY_MAX_ITERATIONS", 100)  # the ring needs more
        c = od.stationary_weights(w)
        assert "entries" in vars(w)  # the dense solve built it
        assert np.abs(w.rmatvec(c) - c).max() <= 1e-12


# The benchmark's cli_session document (n = 30) at two seeds, and the sha256
# of what `opdyn simulate` writes for it, recorded before the CSR path existed.
CLI_SESSION_PINS = [
    (1, "b1a3ec0a21e80a479645e579a01cc0d3b97cc4441b136cde6a67eebd8f38ad40",
     "49ae07da541532bc88b5839c653c12b2f522d903155efc27b77eced5d453d7b1"),
    (7, "40dce039d2c6306d565345826b6ad132f3859d51784a870bb4e5ba80f244528d",
     "9cbeabcb3f91425491112a8a6a1c6cba76d7fd80760670cfa73f96625b655e15"),
]
# Per seed, the sha256 of the degroot CSV `opdyn compare` writes, recorded
# before the CLI streamed its CSVs; its stubborn_positive CSV is simulate's.
CLI_SESSION_DEGROOT_PINS = {
    1: "398e51bc616d8884ee7e2424c7140f28556a1857ddf9df4fa1b8352640532dfb",
    7: "d609593cc5253b0c78b2bca0a201714ea07b3049dae5b72b709c200f2cb43e1a",
}


@pytest.mark.parametrize("seed,summary_sha256,csv_sha256", CLI_SESSION_PINS)
def test_cli_session_outputs_are_unchanged(seed, summary_sha256, csv_sha256, tmp_path, capsys):
    (document,) = bench_workloads().cli_session_documents(seed)
    path = tmp_path / "doc.json"
    path.write_text(document)
    assert main(["simulate", str(path), "--out", str(tmp_path)]) == 0
    assert main(["compare", str(path), "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "cli-session.summary.json").read_bytes()
    csv = (tmp_path / "cli-session.trajectory.csv").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == summary_sha256
    assert hashlib.sha256(csv).hexdigest() == csv_sha256
    assert (tmp_path / "cli-session.stubborn_positive.csv").read_bytes() == csv
    degroot = (tmp_path / "cli-session.degroot.csv").read_bytes()
    assert hashlib.sha256(degroot).hexdigest() == CLI_SESSION_DEGROOT_PINS[seed]
