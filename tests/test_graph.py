import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opdyn as od
from opdyn.errors import PreconditionError, ShapeError, ValidationError

from opdyn.rng import _GAMMA, SplitMix64, indexed_choice

from _trials import (
    arc_support,
    floyd_warshall_strongly_connected,
    half_cycle_matrices,
    matrix_of_arcs,
    random_valid_matrix,
    reference_generated_matrix,
    reference_violations,
    trial_rng,
    unmix64,
    verify_by_window,
)


@functools.cache
def sparse_600() -> od.WeightMatrix:
    return od.random_strongly_connected_matrix(600, trial_rng(16, -1), 0.005)


def ring_matrix(n):
    """Directed ring: each agent listens to herself and her predecessor."""
    entries = np.eye(n) * 0.5
    for i in range(n):
        entries[(i + 1) % n, i] = 0.5
    return od.WeightMatrix(entries, beta=0.5)


def read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def violations(entries, beta):
    """The findings of ``WeightMatrix(entries, beta)``: empty when it constructs."""
    try:
        od.WeightMatrix(entries, beta)
    except ValidationError as exc:
        assert exc.violations
        return exc.violations
    return ()


class TestValidateWeightMatrix:
    def test_complete_quarter_matrix_valid(self):
        assert violations(np.full((4, 4), 0.25), beta=0.1) == ()

    def test_identity_valid(self):
        assert violations(np.eye(3), beta=0.5) == ()

    def test_row_sum_violation_names_row(self):
        entries = [[0.5, 0.5, 0.1], [0.4, 0.3, 0.3], [0.2, 0.2, 0.6]]
        found = violations(entries, beta=0.05)
        assert [v.clause for v in found] == ["row_sum"]
        assert found[0].index == (0,)

    def test_entry_below_floor(self):
        entries = [[0.95, 0.05], [0.5, 0.5]]
        clauses = {(v.clause, v.index) for v in violations(entries, beta=0.1)}
        assert ("entry_floor", (0, 1)) in clauses

    def test_negative_entry_fails_floor_clause(self):
        entries = [[1.2, -0.2], [0.5, 0.5]]
        found = violations(entries, beta=0.1)
        assert ("entry_floor", (0, 1)) in {(v.clause, v.index) for v in found}

    def test_zero_diagonal(self):
        entries = [[0.0, 1.0], [0.5, 0.5]]
        found = violations(entries, beta=0.1)
        assert ("zero_diagonal", (0,)) in {(v.clause, v.index) for v in found}

    def test_all_clauses_reported_together(self):
        entries = [[0.0, 1.05], [0.01, 0.5]]
        assert {v.clause for v in violations(entries, beta=0.1)} == {
            "row_sum", "entry_floor", "zero_diagonal"}

    def test_non_square_is_structural(self):
        with pytest.raises(ShapeError):
            od.WeightMatrix([[0.5, 0.5]], beta=0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_is_named_by_row_and_column(self, value):
        entries = np.full((3, 3), 1 / 3)
        entries[1, 2] = value
        entries[2, 0] = value  # only the first in row-major order is named
        with pytest.raises(ShapeError) as caught:
            od.WeightMatrix(entries, beta=0.1)
        assert str(caught.value) == f"matrix entry [1][2] is not finite: {value!r}"

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(PreconditionError):
            od.WeightMatrix(np.eye(2), beta=0.0)

    def test_nan_beta_rejected(self):
        entries = [[0.99, 0.01], [0.5, 0.5]]  # below any floor worth declaring
        with pytest.raises(PreconditionError):
            od.WeightMatrix(entries, beta=float("nan"))

    def test_constructor_raises_on_invalid(self):
        with pytest.raises(ValidationError) as caught:
            od.WeightMatrix([[0.5, 0.5], [0.6, 0.6]], beta=0.1)
        assert str(caught.value) == "invalid weight matrix:\nrow_sum[1]: row sums to 1.2, expected 1"
        assert [(v.clause, v.index) for v in caught.value.violations] == [("row_sum", (1,))]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_and_gates_construction(self, data):
        n = data.draw(st.sampled_from((*range(2, 13), 600)), label="n")
        if n == 600:  # sparse enough for the CSR copy
            entries = sparse_600().entries.copy()
        else:
            entries = random_valid_matrix(n, trial_rng(16, data.draw(st.integers(0, 2**16)))).entries.copy()
        beta = float(entries[entries > 0].min())
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for fault, (i, j) in data.draw(st.lists(st.tuples(st.sampled_from(
                ("row_sum", "sub_floor", "negative", "zero_diagonal", "non_finite")), cell),
                max_size=4), label="faults"):
            if fault == "row_sum":  # 1e-13 stays inside the tolerance
                entries[i, i] += data.draw(st.sampled_from((1e-13, -1e-13, 1e-11, 0.25)))
            elif fault == "sub_floor":
                entries[i, j] = beta * data.draw(st.floats(0.0, 1.0, exclude_max=True))
            elif fault == "negative":
                entries[i, j] = -data.draw(st.floats(1e-300, 1.0))
            elif fault == "zero_diagonal":
                entries[i, i] = 0.0
            else:
                entries[i, j] = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
        layout = data.draw(st.sampled_from(("C", "F", "T")), label="layout")
        if layout == "F":
            entries = np.asfortranarray(entries)
        elif layout == "T":  # the transpose of a C-ordered array
            entries = np.ascontiguousarray(entries.T).T

        non_finite = [(i, j) for i in range(n) for j in range(n) if not math.isfinite(entries[i, j])]
        if non_finite:
            i, j = non_finite[0]
            with pytest.raises(ShapeError) as caught:
                od.WeightMatrix(entries, beta)
            assert str(caught.value) == f"matrix entry [{i}][{j}] is not finite: {float(entries[i, j])!r}"
            return
        expected = reference_violations(entries, beta)
        if not expected:
            w = od.WeightMatrix(entries, beta)
            assert np.array_equal(w.entries, entries)
            assert (w._csr is not None) == (n == 600)
        else:
            with pytest.raises(ValidationError) as caught:
                od.WeightMatrix(entries, beta)
            assert caught.value.violations == expected
            assert str(caught.value) == "invalid weight matrix:\n" + "\n".join(map(str, expected))

    def test_entries_are_read_only(self):
        w = od.uniform_complete_matrix(3)
        with pytest.raises(ValueError):
            w.entries[0, 0] = 0.9

    # Whether ``entries`` is the input's memory: kept where no caller can
    # write it, copied to C order otherwise.
    OWNERSHIP = {
        "list": (lambda: [[0.5, 0.5], [0.25, 0.75]], False),
        "int_array": (lambda: np.eye(2, dtype=np.int64), False),
        "writable_float": (lambda: np.full((2, 2), 0.5), False),
        "read_only_c": (lambda: read_only(np.full((2, 2), 0.5)), True),
        "read_only_fortran": (lambda: read_only(np.asfortranarray([[0.5, 0.5], [0.25, 0.75]])), False),
        "read_only_view": (lambda: read_only(np.full((2, 2), 0.5)[:, :]), False),
    }

    @pytest.mark.parametrize("case", OWNERSHIP)
    def test_entries_adopt_only_an_array_no_caller_can_write(self, case):
        make, shared = self.OWNERSHIP[case]
        given = make()
        w = od.WeightMatrix(given, beta=0.25)
        assert np.array_equal(w.entries, np.asarray(given, dtype=float))
        assert np.shares_memory(w.entries, given) == shared
        assert w.entries.flags.c_contiguous and not w.entries.flags.writeable
        if case in ("writable_float", "read_only_view"):  # the caller writes its array
            (given if given.flags.writeable else given.base)[0, 0] = 0.9
            assert w.entries[0, 0] == 0.5

    @pytest.mark.parametrize("beta", ["0.5", None, [0.5], True, np.bool_(True), 10**400],
                             ids=["string", "none", "list", "bool", "numpy_bool", "huge_int"])
    def test_beta_must_be_a_real_number(self, beta):
        with pytest.raises(PreconditionError, match="^beta "):
            od.WeightMatrix(np.eye(2), beta=beta)

    @pytest.mark.parametrize("beta", [np.float32(0.5), 1, np.float64(0.5)],
                             ids=["float32", "int", "float64"])
    def test_beta_is_kept_as_a_float(self, beta):
        w = od.WeightMatrix(np.eye(2), beta=beta)
        assert type(w.beta) is float and w.beta == float(beta)


class TestStrongConnectivity:
    def test_complete_graph(self):
        assert od.is_strongly_connected(od.uniform_complete_matrix(4))

    def test_disconnected_self_arcs(self):
        assert not od.is_strongly_connected(od.WeightMatrix(np.eye(2), beta=0.5))

    def test_directed_ring(self):
        assert od.is_strongly_connected(ring_matrix(3))
        ring = ring_matrix(400)
        assert ring._csr is not None
        assert od.is_strongly_connected(ring)
        broken = matrix_of_arcs(400, [(i, i + 1) for i in range(399)])  # no arc 399 -> 0
        assert broken._csr is not None
        assert not od.is_strongly_connected(broken)

    def test_matches_reachability_oracle_on_random_graphs(self):
        for trial in range(300):
            rng = trial_rng(10, trial)
            n = 2 + rng.randrange(5)
            arcs = [(i, j) for i in range(n) for j in range(n)
                    if i != j and rng.random() < 0.3]
            m = matrix_of_arcs(n, arcs)
            assert od.is_strongly_connected(m) == floyd_warshall_strongly_connected(
                arc_support([m]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_floyd_warshall_closure(self, data):
        count = data.draw(st.integers(1, 3), label="matrices")
        if data.draw(st.integers(0, 7), label="size class") == 0:
            # Large and sparse, so every matrix takes the CSR path: a path
            # through the agents in a random order, closed or not, plus a
            # few random arcs.
            n = data.draw(st.integers(400, 440), label="n")
            rng = trial_rng(17, data.draw(st.integers(0, 2**16), label="trial"))
            order = list(range(n))
            rng.shuffle(order)
            arcs = list(zip(order, order[1:] + order[:1]))[:n - rng.randrange(2)]
            arcs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n // 2))]
            owners = [rng.randrange(count) for _ in arcs]
        else:
            n = data.draw(st.integers(2, 10), label="n")
            arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            arcs = data.draw(st.lists(arc, max_size=3 * n), label="arcs")
            if data.draw(st.booleans(), label="with a ring"):  # closed or one arc short
                order = data.draw(st.permutations(range(n)), label="ring order")
                arcs += list(zip(order, order[1:] + order[:1]))[data.draw(st.integers(0, 1)):]
            owners = data.draw(st.lists(st.integers(0, count - 1), min_size=len(arcs),
                                        max_size=len(arcs)), label="owners")
        scale = data.draw(st.sampled_from((1.0, 1e-3, 1e-300)), label="arc weight")
        ms = [matrix_of_arcs(n, [a for a, k in zip(arcs, owners) if k == owner], scale)
              for owner in range(count)]
        if n >= 400:
            assert all(m._csr is not None for m in ms)
        expected = floyd_warshall_strongly_connected(arc_support(ms))
        assert od.is_strongly_connected(*ms) is expected
        assert od.is_strongly_connected(*reversed(ms)) is expected


class TestUnionGraph:
    """Strong connectivity of the union of several matrices' graphs."""

    def test_two_single_arcs_become_strongly_connected(self):
        a, b = alternating_two_agent_schedule().matrices
        assert not od.is_strongly_connected(a) and not od.is_strongly_connected(b)
        assert od.is_strongly_connected(a, b)

    def test_vertex_count_mismatch(self):
        with pytest.raises(ShapeError):
            od.is_strongly_connected(od.uniform_complete_matrix(2), od.uniform_complete_matrix(3))

    def test_empty_sequence(self):
        with pytest.raises(PreconditionError):
            od.is_strongly_connected()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_commutative_associative_idempotent(self, data):
        # The mean of two valid matrices is a valid matrix whose graph is
        # the union of theirs, so it stands for a union taken first.
        n = data.draw(st.integers(2, 5))
        arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        a, b, c = (matrix_of_arcs(n, data.draw(st.sets(arc, max_size=8))) for _ in range(3))

        def joined(x, y):
            entries = (x.entries + y.entries) / 2
            return od.WeightMatrix(entries, beta=float(entries[entries > 0].min()))

        verdict = od.is_strongly_connected(a, b, c)
        assert od.is_strongly_connected(a, b) == od.is_strongly_connected(b, a)
        assert od.is_strongly_connected(joined(a, b), c) == verdict
        assert od.is_strongly_connected(a, joined(b, c)) == verdict
        assert od.is_strongly_connected(a, a) == od.is_strongly_connected(a)


def alternating_two_agent_schedule():
    # step parity alternates a single cross arc: 0 -> 1, then 1 -> 0
    w_a = od.WeightMatrix([[1.0, 0.0], [0.5, 0.5]], beta=0.5)
    w_b = od.WeightMatrix([[0.5, 0.5], [0.0, 1.0]], beta=0.5)
    return od.PeriodicSchedule((w_a, w_b))


def draw_schedule(data, family):
    """A static, periodic or random schedule over a pool drawn from two
    jointly-only connected half cycles and a matrix of arbitrary support;
    returns the kind's name and the schedule."""
    rng = trial_rng(family, data.draw(st.integers(0, 2**16), label="trial"))
    n = data.draw(st.integers(2, 6), label="n")
    candidates = [*half_cycle_matrices(n, rng), random_valid_matrix(n, rng)]
    picks = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3), label="pool")
    pool = tuple(candidates[k] for k in picks)  # may hold one matrix object twice
    kind = data.draw(st.sampled_from(["static", "periodic", "random"]), label="kind")
    if kind == "static":
        return kind, od.StaticSchedule(pool[0])
    if kind == "periodic":
        return kind, od.PeriodicSchedule(pool)
    return kind, od.RandomSchedule(pool, seed=data.draw(st.integers(0, 2**64 - 1), label="seed"))


class TestRepeatedJointConnectivity:
    def test_static_strongly_connected(self):
        sched = od.StaticSchedule(od.uniform_complete_matrix(3))
        assert od.verify_repeated_joint_connectivity(sched, 1, 1)

    def test_alternation_needs_window_of_two(self):
        sched = alternating_two_agent_schedule()
        assert od.verify_repeated_joint_connectivity(sched, 2, 1)
        assert od.verify_repeated_joint_connectivity(sched, 2, 2)
        assert not od.verify_repeated_joint_connectivity(sched, 1, 1)

    def test_static_self_arcs_only_fails_every_window(self):
        sched = od.StaticSchedule(od.WeightMatrix(np.eye(3), beta=0.5))
        for p in (1, 2, 5):
            assert not od.verify_repeated_joint_connectivity(sched, p, 1)

    def test_horizon_must_cover_one_window(self):
        sched = od.RandomSchedule((od.uniform_complete_matrix(3),), seed=0)
        with pytest.raises(PreconditionError, match="shorter than the first window"):
            od.verify_repeated_joint_connectivity(sched, 5, 2, 5)
        assert od.verify_repeated_joint_connectivity(sched, 5, 2, 6)

    def test_only_a_random_schedule_takes_a_horizon(self):
        a, b = half_cycle_matrices(4, trial_rng(13, 0))
        chain = od.WeightMatrix([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], beta=0.5)
        for sched in (od.StaticSchedule(a), od.PeriodicSchedule((a, b)), od.StaticSchedule(chain)):
            with pytest.raises(PreconditionError, match="takes no horizon"):
                od.verify_repeated_joint_connectivity(sched, 2, 1, 10)
            with pytest.raises(PreconditionError, match="takes no horizon"):
                od.find_window_parameters(sched, 10)  # refused before the union is checked
        for pool in ((a, b), (chain,)):
            sched = od.RandomSchedule(pool, seed=1)
            with pytest.raises(PreconditionError, match="none given"):
                od.verify_repeated_joint_connectivity(sched, 2, 1)
            with pytest.raises(PreconditionError, match="none given"):
                od.find_window_parameters(sched, max_p=2)

    def test_window_parameters_must_be_positive(self):
        sched = od.StaticSchedule(od.uniform_complete_matrix(3))
        with pytest.raises(PreconditionError):
            od.verify_repeated_joint_connectivity(sched, 0, 1)
        with pytest.raises(PreconditionError):
            od.verify_repeated_joint_connectivity(sched, 1, 0)

    def test_random_schedule_verified_within_horizon(self):
        rng = trial_rng(11, 0)
        pool = tuple(od.random_strongly_connected_matrix(4, rng, 0.4) for _ in range(3))
        sched = od.RandomSchedule(pool, seed=99)
        assert od.verify_repeated_joint_connectivity(sched, 1, 1, 50)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_per_window_reference(self, data):
        kind, schedule = draw_schedule(data, 12)
        p = data.draw(st.integers(1, 4), label="p")
        q = data.draw(st.integers(1, p), label="q")
        # only a random schedule is examined up to a horizon; any other, for all time
        horizon = data.draw(st.integers(1, 40), label="horizon") if kind == "random" else None
        try:
            expected = verify_by_window(schedule, p, q, horizon)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                od.verify_repeated_joint_connectivity(schedule, p, q, horizon)
        else:
            assert od.verify_repeated_joint_connectivity(schedule, p, q, horizon) is expected

        # On the pool cycled in order, one window of a whole period draws
        # every member, and single-step windows draw each member alone.
        cycle = od.PeriodicSchedule(schedule.pool)
        k = len(cycle.pool)
        whole, each = verify_by_window(cycle, k, 1), verify_by_window(cycle, 1, 1)
        status = od.schedule_rjsc_status(schedule)
        if kind == "random":
            assert status is (True if each else None if whole else False)
        else:
            assert status is whole

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_search_matches_brute_force(self, data):
        kind, schedule = draw_schedule(data, 18)
        max_p = data.draw(st.none() | st.integers(1, 8), label="max_p")
        if kind == "random":
            horizon = data.draw(st.integers(1, 25), label="horizon")
            cap = horizon if max_p is None else min(max_p, horizon)
            # smallest p, then smallest q, among the windows that end by the horizon
            expected = next(((p, q) for p in range(1, cap + 1) for q in range(1, p + 1)
                             if q + p - 1 <= horizon and verify_by_window(schedule, p, q, horizon)),
                            None)
            assert od.find_window_parameters(schedule, horizon, max_p=max_p) == expected
            return
        # for all time: windows up to twice the period are tried, past the
        # search's own bound of one period
        cap = 2 * len(schedule.pool) if max_p is None else max_p
        expected = next(((p, q) for p in range(1, cap + 1) for q in range(1, p + 1)
                         if verify_by_window(schedule, p, q)), None)
        assert od.find_window_parameters(schedule, max_p=max_p) == expected

    @pytest.mark.parametrize("kind", ["static", "periodic"])
    def test_a_window_longer_than_the_period_walks_one_period(self, kind):
        a, b = half_cycle_matrices(5, trial_rng(13, 0))
        lookups = []

        class Counting(od.StaticSchedule if kind == "static" else od.PeriodicSchedule):
            def matrix_at(self, t):
                lookups.append(t)
                return super().matrix_at(t)

        schedule = Counting(a) if kind == "static" else Counting((a, a, b))
        period, p = len(schedule.pool), 10**9
        windows = period // math.gcd(p, period)
        # a alone is half a cycle; a and b together are strongly connected
        assert od.verify_repeated_joint_connectivity(schedule, p, 1) is (kind == "periodic")
        assert 0 < len(lookups) <= windows * period

    def test_repeated_matrix_object_in_pool(self):
        a, b = half_cycle_matrices(5, trial_rng(13, 0))
        sched = od.PeriodicSchedule((a, a, b))
        # windows from step 1: (a, b) then (a, a), which draws a alone
        assert not od.verify_repeated_joint_connectivity(sched, 2, 1)
        assert od.verify_repeated_joint_connectivity(sched, 3, 1)
        for p in (1, 2, 3):
            random_sched = od.RandomSchedule((a, a, b), seed=p)
            assert od.verify_repeated_joint_connectivity(random_sched, p, 1, 30) is (
                verify_by_window(random_sched, p, 1, 30))

    def test_search_finds_smallest_window(self):
        assert od.find_window_parameters(alternating_two_agent_schedule()) == (2, 1)

    def test_search_honours_its_cap(self):
        sched = alternating_two_agent_schedule()
        assert od.find_window_parameters(sched, max_p=1) is None
        for cap in (0, -1):
            with pytest.raises(PreconditionError, match="max_p"):
                od.find_window_parameters(sched, max_p=cap)

    def test_search_skips_windows_that_end_past_the_horizon(self):
        a, b = half_cycle_matrices(4, trial_rng(13, 0))
        sched = od.RandomSchedule((a, b), seed=0)
        assert [sched.matrix_at(t) for t in (1, 2, 3)] == [a, a, b]
        # (2, 1)'s first window draws (a, a); (2, 2)'s draws (a, b) and ends at step 3
        assert od.find_window_parameters(sched, 2) is None
        assert od.find_window_parameters(sched, 3) == (2, 2)

    def test_periodic_search_needs_no_horizon(self):
        a, b = half_cycle_matrices(4, trial_rng(13, 0))
        sched = od.PeriodicSchedule((a, a, b))
        # windows from step 1 of length 2 draw (a, b), then (a, a); any 3 steps draw a and b
        assert od.find_window_parameters(sched) == (3, 1)
        assert od.find_window_parameters(sched, max_p=2) is None

    def test_search_reports_absence(self):
        sched = od.StaticSchedule(od.WeightMatrix(np.eye(3), beta=0.5))
        assert od.find_window_parameters(sched) is None

    def test_search_without_a_connected_union_checks_it_once(self, monkeypatch):
        # no window of a pool whose union is not strongly connected can connect,
        # so a random pool's long horizon costs one check, not one per (p, q)
        chain = od.WeightMatrix([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], beta=0.5)
        real, calls = od.graph.is_strongly_connected, []

        def counting(*matrices):
            calls.append(matrices)
            assert len(calls) == 1, "a second connectivity check"
            return real(*matrices)

        monkeypatch.setattr(od.graph, "is_strongly_connected", counting)
        assert od.find_window_parameters(od.RandomSchedule((chain,), seed=0), 10_000) is None
        assert len(calls) == 1


class TestSchedules:
    def test_periodic_cycles_in_order(self):
        sched = alternating_two_agent_schedule()
        assert sched.matrix_at(0) is sched.matrices[0]
        assert sched.matrix_at(1) is sched.matrices[1]
        assert sched.matrix_at(4) is sched.matrices[0]

    def test_random_schedule_is_deterministic_and_from_pool(self):
        rng = trial_rng(12, 0)
        pool = tuple(od.random_strongly_connected_matrix(3, rng, 0.5) for _ in range(3))
        a = od.RandomSchedule(pool, seed=7)
        b = od.RandomSchedule(pool, seed=7)
        draws_a = [a.matrix_at(t) for t in range(40)]
        draws_b = [b.matrix_at(t) for t in range(40)]
        assert all(x is y for x, y in zip(draws_a, draws_b))
        assert {id(m) for m in draws_a} <= {id(m) for m in pool}
        c = od.RandomSchedule(pool, seed=8)
        assert any(c.matrix_at(t) is not draws_a[t] for t in range(40))

    # Runs of steps: a start (0, a step next to an edge of the blocks that
    # a run from 0 draws, anywhere up to 4000, or far off), walked forward
    # one step at a time. Later runs can jump back or far ahead.
    STEP_RUNS = st.lists(st.tuples(
        st.one_of(st.just(0), st.sampled_from((63, 64, 191, 192, 447, 448, 959, 960, 1983, 1984)),
                  st.integers(0, 4000), st.integers(0, 2**63)),
        st.integers(1, 300)), min_size=1, max_size=8)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 5), runs=STEP_RUNS)
    def test_random_access_draws_are_indexed_choice(self, seed, k, runs):
        pool = tuple(od.uniform_complete_matrix(2) for _ in range(k))  # told apart by identity
        sched = od.RandomSchedule(pool, seed=seed)
        for start, length in runs:
            for t in range(start, start + length):
                assert sched.matrix_at(t) is pool[indexed_choice(seed, t, k)]
        with pytest.raises(PreconditionError):
            sched.matrix_at(-1)

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ShapeError):
            od.PeriodicSchedule((od.uniform_complete_matrix(3), od.uniform_complete_matrix(4)))


# Output of the generator when it drew every entry with a scalar random()
# call: (n, edge_probability, seed) -> sha256 of the entries' bytes, beta,
# and the generator's state afterwards.
GENERATOR_PINS = [
    (2, 0.3, 1, "5a43aec106794ecb0b2e8e9adbd4f10a9255430958422ead00477edb30b65253",
     "0x1.efe6ea16111c0p-2", 6018027440424182932),
    (3, 0.0, 7, "4d17a4c327617d7739bff1a4e36ff851e8b833cb0618a9ce3419e05378383c93",
     "0x1.70e1c4afbb721p-2", 12036054880848365869),
    (5, 1.0, 11, "dd436b09e590fc30b238fb7d0eb44a927383b722bd2f56132286d2ab277dc7c9",
     "0x1.1b1b77e063051p-3", 5232703935550177296),
    (8, 0.4, 12345, "c36eddffa493e0e00cba0e1b1ed21c08d62ecb01b474b8ca35a7304d75b35fec",
     "0x1.6cb82f5fbde6fp-4", 5082720492201351361),
    (30, 0.3, 2**64 - 1, "eef94365258e30e2c66122237b616fe37c7ef286dfb19f91918ab1774bb4c8ea",
     "0x1.4b2b0782fc32ep-5", 6045075437724416166),
    (100, 0.05, 42, "09414737c44cacbb3044d5b6b1afc4c97cb4023467a7302c647ea4b8ee06c5a1",
     "0x1.bf16491345b80p-5", 9067380260794813842),
    (1000, 0.003, 1, "5cc613b9efbdb0da2e1000107b3da12a6225cb9e015edfeef7e81f93dba864bc",
     "0x1.d1ca309a86bb7p-5", 7824711803662175063),
]


class TestRandomMatrixGenerator:
    def test_valid_and_strongly_connected(self):
        for trial in range(30):
            rng = trial_rng(13, trial)
            n = 2 + rng.randrange(9)
            w = od.random_strongly_connected_matrix(n, rng, edge_probability=0.2)
            assert reference_violations(w.entries, w.beta) == ()
            assert od.is_strongly_connected(w)

    def test_deterministic_in_seed(self):
        a = od.random_strongly_connected_matrix(6, trial_rng(14, 0), 0.3)
        b = od.random_strongly_connected_matrix(6, trial_rng(14, 0), 0.3)
        assert np.array_equal(a.entries, b.entries)

    def test_floor_is_smallest_nonzero_weight(self):
        w = od.random_strongly_connected_matrix(5, trial_rng(15, 0), 0.3)
        assert w.beta == w.entries[w.entries > 0].min()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_peak_memory_is_one_matrix(self, seed):
        """The generator builds its n x n array once and the WeightMatrix
        keeps it: no second dense copy at any point."""
        n = 1000
        tracemalloc.start()
        try:
            od.random_strongly_connected_matrix(n, SplitMix64(seed), 0.003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8

    @pytest.mark.parametrize("n,p,seed,entries_sha256,beta_hex,final_state", GENERATOR_PINS)
    def test_output_is_pinned(self, n, p, seed, entries_sha256, beta_hex, final_state):
        rng = SplitMix64(seed)
        w = od.random_strongly_connected_matrix(n, rng, p)
        digest = hashlib.sha256(np.ascontiguousarray(w.entries).tobytes()).hexdigest()
        assert digest == entries_sha256
        assert w.beta.hex() == beta_hex
        assert rng._state == final_state

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_draw_by_draw_reference(self, data):
        n = data.draw(st.integers(2, 40), label="n")
        choice = data.draw(st.sampled_from(("zero", "one", "tiny", "uniform", "tie", "above_tie")),
                           label="edge probability")
        if choice in ("tie", "above_tie"):
            # A seed whose arc draw k, after the shuffle's n - 1 words, is the word
            # c << 11. At p = c * 2**-53 that draw equals p, so it is no hit, though
            # the word equals the integer bound. At the next double up it is a hit,
            # though p * 2**53 then rounds down to c.
            k = data.draw(st.integers(0, n * (n - 1) - 1), label="arc")
            c = data.draw(st.integers(0, 2**53 - 1), label="arc draw")
            seed = (unmix64(c << 11) - (n + k) * _GAMMA) % 2**64
            p = c * 2.0**-53
            if choice == "above_tie":
                p = math.nextafter(p, 1.0)
        else:
            seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
            p = {"zero": 0.0, "one": 1.0, "tiny": 5e-324}.get(choice)
            if p is None:
                p = data.draw(st.floats(0.0, 1.0), label="p")
        rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
        w = od.random_strongly_connected_matrix(n, rng, p)
        entries, beta = reference_generated_matrix(n, reference_rng, p)
        assert w.entries.tobytes() == entries.tobytes()
        assert w.beta == beta
        assert rng._state == reference_rng._state


class TestMatrixTextFormat:
    def test_round_trip(self, tmp_path):
        w = od.uniform_complete_matrix(3)
        text = "3\n" + "\n".join(" ".join(f"{v:.17g}" for v in row) for row in w.entries)
        parsed = od.parse_weight_matrix_text(text)
        assert np.array_equal(parsed, w.entries)
        path = tmp_path / "w.txt"
        path.write_text(text + "\n")
        reread = od.WeightMatrix(od.parse_weight_matrix_text(path.read_text()), beta=1e-3)
        assert np.array_equal(reread.entries, w.entries)

    def test_malformed_inputs(self):
        with pytest.raises(ValidationError):
            od.parse_weight_matrix_text("")
        with pytest.raises(ValidationError):
            od.parse_weight_matrix_text("two\n0.5 0.5\n0.5 0.5")
        with pytest.raises(ValidationError):
            od.parse_weight_matrix_text("2\n0.5 0.5")
        with pytest.raises(ValidationError):
            od.parse_weight_matrix_text("2\n0.5 0.5\n0.5 x")
