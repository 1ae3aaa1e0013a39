import hashlib
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import nullcontext
from unittest import mock
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import opdyn as od
from opdyn.errors import (
    DomainError,
    PreconditionError,
    ShapeError,
    ValidationError,
)
from opdyn import dynamics
from opdyn.dynamics import _LIST_EXTREMES_MAX_N, _LIST_KERNEL_MAX_N, _extremes, _list_clamp
from opdyn.rng import SplitMix64

from _trials import (
    ALL_KINDS,
    NEVER,
    SPIKE_AT,
    bench_workloads,
    gap_form_step,
    nan_spike_kind,
    overshoot_spike_kind,
    random_kind,
    random_opinions,
    random_periodic_schedule,
    random_valid_matrix,
    reference_simulate,
    trial_rng,
    write_trajectory_csv_by_value,
)

UNIT = st.floats(-1.0, 1.0)
CUSTOM_KINDS = (nan_spike_kind(), overshoot_spike_kind())
# Palette entries: signed zeros, the interval's ends and the Custom spike
# point come up often, next to arbitrary opinions.
PALETTE_VALUE = st.one_of(st.sampled_from((-1.0, -0.0, 0.0, 1.0, SPIKE_AT)), UNIT)


def palette_opinions(data, n: int) -> np.ndarray:
    """n opinions that take each of 2 to n palette values; small palettes
    make ties at the extremes (where rounding can step past them) common."""
    palette = data.draw(st.lists(PALETTE_VALUE, min_size=2, max_size=n, unique=True))
    rest = st.lists(st.sampled_from(palette), min_size=n - len(palette), max_size=n - len(palette))
    return np.array(data.draw(st.permutations(palette + data.draw(rest))))


def has_negative_zero(x) -> bool:
    x = np.asarray(x)
    return bool(np.any((x == 0.0) & np.signbit(x)))


class TestOpinionVector:
    def test_accepts_and_freezes(self):
        x = od.opinion_vector([0.5, -1.0, 1.0])
        assert x.dtype == float
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_out_of_range_names_index(self):
        with pytest.raises(DomainError, match=r"^opinions\[2\]: value 1.5 outside"):
            od.opinion_vector([0.0, 0.5, 1.5])

    def test_rejects_non_finite_and_wrong_rank(self):
        with pytest.raises(DomainError):
            od.opinion_vector([0.0, np.nan])
        with pytest.raises(ShapeError):
            od.opinion_vector([[0.0, 0.1]])

    # Every entry that takes opinions checks them with opinion_vector and
    # _check_dims, so one bad input is refused the same way by each.
    ENTRIES = {
        "step": lambda x, w: od.step(x, w, od.StubbornPositive()),
        "system_matrix": lambda x, w: od.system_matrix(x, w, od.StubbornPositive()),
        "simulate": lambda x, w: od.simulate(x, od.StaticSchedule(w), od.StubbornPositive()),
        "degroot_consensus_value": lambda x, w: od.degroot_consensus_value(w, x),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("x,error,match", [
        (np.zeros((4, 4)), ShapeError, r"1-D and nonempty, got shape \(4, 4\)"),
        ([3.0, 0.0, 0.0, 0.0], DomainError, r"^opinions\[0\]: value 3.0 outside"),
        ([0.0, np.nan, 0.0, 0.0], DomainError, "non-finite"),
        ([0.0, 0.5], ShapeError, "^2 opinions against 4 agents$"),
    ], ids=["matrix", "out_of_range", "nan", "count"])
    def test_every_entry_refuses_alike(self, entry, x, error, match):
        with pytest.raises(error, match=match):
            self.ENTRIES[entry](x, od.uniform_complete_matrix(4))


class TestSusceptibility:
    @pytest.mark.parametrize("kind,x,expected", [
        (od.StubbornPositive(), 1.0, 0.0),
        (od.StubbornPositive(), -1.0, 1.0),
        (od.StubbornPositive(), 0.0, 0.5),
        (od.StubbornNeutral(), 0.0, 0.0),
        (od.StubbornNeutral(), 1.0, 1.0),
        (od.StubbornNeutral(), -1.0, 1.0),
        (od.StubbornExtremist(), 1.0, 0.0),
        (od.StubbornExtremist(), -1.0, 0.0),
        (od.StubbornExtremist(), 0.0, 1.0),
        (od.DeGroot(), 0.3, 1.0),
    ])
    def test_endpoint_values(self, kind, x, expected):
        assert kind.values(np.array([x])).tolist() == [expected]

    def test_constant_is_per_agent(self):
        kind = od.Constant((0.2, 0.9))
        assert kind.values(np.array([0.5, -0.5])).tolist() == [0.2, 0.9]
        # built once, read-only, and handed out as is
        f = kind.values(np.zeros(2))
        assert f is kind.values(np.ones(2)) and not f.flags.writeable

    def test_constant_range_checked(self):
        with pytest.raises(ValidationError):
            od.Constant((0.5, 1.2))

    def test_every_kind_maps_into_unit_interval(self):
        grid = np.linspace(-1.0, 1.0, 401)
        for kind in ALL_KINDS:
            f = kind.values(grid)
            assert f.min() >= 0.0 and f.max() <= 1.0

    def test_custom_probe_accepts_valid(self):
        kind = od.Custom(lambda x: 0.5 * (1.0 + x * x), label="half_plus")
        assert kind.values(np.array([0.0])).tolist() == [0.5]

    def test_custom_values_are_clipped_between_probe_points(self):
        x = np.array([SPIKE_AT, 0.5])
        assert overshoot_spike_kind().values(x).tolist() == [1.0, 0.25]
        below = od.Custom(lambda v: np.where(np.abs(v - SPIKE_AT) < 1e-5, -0.5, v * v))
        assert below.values(x).tolist() == [0.0, 0.25]

    def test_custom_probe_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            od.Custom(lambda x: 1.5 * x * x)
        with pytest.raises(ValidationError):
            od.Custom(lambda x: x)  # negative on [-1, 0)


class TestSystemMatrix:
    def test_degroot_reduces_to_weights(self):
        w = od.uniform_complete_matrix(4)
        s = od.system_matrix([0.3, -0.2, 0.9, -1.0], w, od.DeGroot())
        assert np.array_equal(s, w.entries)

    def test_stubborn_neutral_at_zero_is_identity(self):
        w = od.uniform_complete_matrix(3)
        s = od.system_matrix(np.zeros(3), w, od.StubbornNeutral())
        assert np.array_equal(s, np.eye(3))

    def test_stubborn_positive_two_agent_case(self):
        w = od.WeightMatrix([[0.5, 0.5], [0.5, 0.5]], beta=0.5)
        s = od.system_matrix([1.0, -1.0], w, od.StubbornPositive())
        assert np.array_equal(s, [[1.0, 0.0], [0.5, 0.5]])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            od.system_matrix([0.0, 0.0], od.uniform_complete_matrix(3), od.DeGroot())

    def test_randomized_stochasticity(self):
        for trial in range(300):
            rng = trial_rng(20, trial)
            n = 2 + rng.randrange(7)
            w = random_valid_matrix(n, rng)
            x = random_opinions(n, rng, pin_extremes=True)
            s = od.system_matrix(x, w, random_kind(n, rng))
            assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12
            assert s.min() >= 0.0


class TestStep:
    def test_unanimous_opposition_with_one_dissenter(self):
        w = od.uniform_complete_matrix(4)
        x1 = od.step([1.0, -1.0, -1.0, -1.0], w, od.StubbornNeutral())
        assert np.array_equal(x1, np.full(4, -0.5))
        mirrored = od.step([-1.0, 1.0, 1.0, 1.0], w, od.StubbornNeutral())
        assert np.array_equal(mirrored, np.full(4, 0.5))

    def test_consensus_is_fixed_for_every_kind(self):
        w = random_valid_matrix(5, trial_rng(21, 0))
        x = np.full(5, 0.37)
        kinds = ALL_KINDS + (od.Constant((0.1, 0.9, 0.5, 0.0, 1.0)),)
        for kind in kinds:
            assert np.array_equal(od.step(x, w, kind), x)

    def test_stubborn_positive_two_agent_step(self):
        w = od.WeightMatrix([[0.5, 0.5], [0.5, 0.5]], beta=0.5)
        assert np.array_equal(od.step([1.0, -1.0], w, od.StubbornPositive()), [1.0, 0.0])

    def test_pinned_agents_stay_exactly(self):
        rng = trial_rng(22, 0)
        w = random_valid_matrix(4, rng)
        x = np.array([1.0, 0.2, -0.6, 0.9])
        for _ in range(200):
            x = od.step(x, w, od.StubbornPositive())
        assert x[0] == 1.0
        y = np.array([0.0, 0.2, -0.6, 0.9])
        for _ in range(200):
            y = od.step(y, w, od.StubbornNeutral())
        assert y[0] == 0.0

    def test_agentwise_equals_matrix_form(self):
        for trial in range(200):
            rng = trial_rng(23, trial)
            n = 2 + rng.randrange(7)
            w = random_valid_matrix(n, rng)
            x = random_opinions(n, rng, pin_extremes=True)
            kind = random_kind(n, rng)
            via_matrix = od.system_matrix(x, w, kind) @ x
            assert np.abs(od.step(x, w, kind) - via_matrix).max() <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_kernel_matches_gap_form_and_keeps_fixed_points(self, data):
        n = data.draw(st.integers(2, 9))
        w = random_valid_matrix(n, SplitMix64(data.draw(st.integers(0, 2**64 - 1))))
        x = palette_opinions(data, n)
        kind = data.draw(st.one_of(
            st.sampled_from(ALL_KINDS),
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
            .map(lambda openness: od.Constant(tuple(openness)))))

        out = od.step(x, w, kind)
        assert np.abs(out - gap_form_step(x, w, kind)).max() <= 1e-12
        assert out.min() >= x.min() and out.max() <= x.max()
        stubborn = kind.values(x) == 0.0
        assert np.array_equal(out[stubborn], x[stubborn])
        consensus = np.full(n, data.draw(UNIT))
        assert np.array_equal(od.step(consensus, w, kind), consensus)
        # simulate advances with the same kernel, bit for bit (it stops
        # before the step only on an exact consensus, which out keeps)
        one = od.simulate(x, od.StaticSchedule(w), kind,
                          od.StopRule(max_steps=1, consensus_epsilon=np.nextafter(0.0, 1.0)))
        assert np.array_equal(one.final_state, out)

    def test_rejects_opinions_outside_the_interval(self):
        w = od.uniform_complete_matrix(2)
        for x in ([1.5, 0.0], [0.0, -1.0 - 1e-12], [np.nan, 0.0]):
            with pytest.raises(DomainError):
                od.step(x, w, od.StubbornPositive())
        assert od.step([1.0, -1.0], w, od.StubbornPositive()).tolist() == [1.0, 0.0]

    def test_negative_zero_keeps_its_sign(self):
        # A stubborn-neutral agent at -0.0 has f = 0 and does not move; the
        # kernel does not clamp here, so the zero keeps its sign (a clamp to
        # max x = +0.0, as the reference loop does every step, turns it +0.0).
        w = od.uniform_complete_matrix(3)
        x = np.array([-0.0, 0.0, -0.5])
        out = od.step(x, w, od.StubbornNeutral())
        assert np.signbit(out[0]) and not np.signbit(out[1])
        ref = reference_simulate(x, od.StaticSchedule(w), od.StubbornNeutral(),
                                 od.StopRule(max_steps=1, consensus_epsilon=NEVER))
        assert not np.signbit(ref.final_state[0])
        assert np.array_equal(ref.final_state, out)

    def test_interval_and_monotone_extremes_hold_along_trajectories(self):
        for trial in range(60):
            rng = trial_rng(24, trial)
            n = 2 + rng.randrange(7)
            w = random_valid_matrix(n, rng)
            kind = random_kind(n, rng)
            x = random_opinions(n, rng, pin_extremes=True)
            mn, mx = x.min(), x.max()
            for _ in range(300):
                x = od.step(x, w, kind)
                assert x.min() >= -1.0 - 1e-12 and x.max() <= 1.0 + 1e-12
                assert x.min() >= mn - 1e-12 and x.max() <= mx + 1e-12
                mn, mx = x.min(), x.max()


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


# Values on which Python's min and max can part from numpy's reductions:
# both zeros (equal, with a sign to pick), NaN (unordered), the infinities
# (together they sum to NaN), and subnormals and ordinary values among them.
EXTREME_VALUE = st.one_of(
    st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     1e-300, -1e-300, 0.5, -0.25)),
    st.floats(allow_nan=False))


class TestExtremes:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(EXTREME_VALUE, min_size=1, max_size=_LIST_EXTREMES_MAX_N + 8))
    def test_bits_are_numpys_reductions(self, values):
        u = np.array(values)
        mn, mx = _extremes(u)
        assert type(mn) is float and type(mx) is float
        assert bits(mn) == bits(float(np.minimum.reduce(u)))
        assert bits(mx) == bits(float(np.maximum.reduce(u)))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(EXTREME_VALUE, min_size=1, max_size=_LIST_KERNEL_MAX_N),
           st.lists(st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -1.0, 1.0)), UNIT),
                    min_size=2, max_size=2).map(sorted))
    def test_list_clamp_bits_are_numpys(self, values, bounds):
        lo, hi = bounds
        u = np.array(values)
        np.minimum(u, hi, out=u)
        np.maximum(u, lo, out=u)
        assert [bits(v) for v in _list_clamp(values, lo, hi)] == [bits(v) for v in u.tolist()]

    # A stubborn-neutral run from both zeros, recorded when the loop took
    # every extreme with ndarray.min and max: sha256 of the record's mins,
    # maxs and states, and of its CSV. Its first min is -0.0 and its first
    # max +0.0, where Python's min and max would pick the first zero.
    BOTH_ZEROS_PINS = [
        ([0.0, -0.0, 0.5],
         "b2b4b0f9b9ec2d0b73d2010f9e1f498bcbdf2c61b3a899bbf45295650bb39a88",
         "2343edbf3132f2695a8f4171ef016ca8ff0c90f34be8fe8701ae9eeb782fda2a",
         "31249c0b4491bdfc27821282221d124c06e6556fea57ae123d9133deb69469d0",
         "97f115a7b916aeabc58fb12c22070230d70b7273e37a1be31ce3d816e25818ee"),
        ([-0.0, 0.0, -0.5],
         "18a9a976309426542230255e582e10c65896b2400e183467f3935d51c87c8585",
         "5d81987966a0197c8a663d8800d87b97c0c5ea4f619d42f44e22bf5321d14cbb",
         "4c28996241bbb410e7008ff962e3aac20e6409045ec85e061b6349b7a3764ac7",
         "2ed639faddd1162bce6536eb022051e4278a854d7af80f0ac694ba4da9b8fcad"),
    ]

    @pytest.mark.parametrize("x0,mins,maxs,states,csv", BOTH_ZEROS_PINS)
    def test_a_run_between_both_zeros_is_pinned(self, tmp_path, x0, mins, maxs, states, csv):
        w = od.WeightMatrix([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], 0.25)
        with od.TrajectoryCsv(tmp_path / "zeros.csv", 3) as writer:
            record = od.simulate(x0, od.StaticSchedule(w), od.StubbornNeutral(),
                                 od.StopRule(max_steps=300), writer=writer)
        assert (record.stop_reason, record.steps) == ("max_steps", 300)
        assert np.signbit(record.mins[0]) and not np.signbit(record.maxs[0])
        written = (record.mins, record.maxs, record.states, (tmp_path / "zeros.csv").read_bytes())
        assert [hashlib.sha256(data).hexdigest() for data in written] == [mins, maxs, states, csv]


def scalar_two_agent_oracle(x1, x2, w21, steps):
    """Hand-rolled stubborn-positive recurrence for agent 2 listening to a
    pinned agent 1; independent of the library's array path."""
    out = [x2]
    for _ in range(steps):
        gap = w21 * (x1 - x2) + (1 - w21) * (x2 - x2)
        x2 = x2 + 0.5 * (1.0 - x2) * gap
        out.append(x2)
    return out


class TestSimulate:
    def test_degroot_complete_graph_one_step_mean(self):
        w = od.uniform_complete_matrix(5)
        x0 = np.array([0.9, -0.3, 0.1, -0.7, 0.44])
        rec = od.simulate(x0, od.StaticSchedule(w), od.DeGroot())
        assert rec.stop_reason == "consensus"
        assert rec.steps == 1
        assert rec.final_state.mean() == pytest.approx(x0.mean(), abs=1e-12)

    def test_already_converged_input_records_step_zero(self):
        rec = od.simulate(np.full(3, 0.25), od.StaticSchedule(od.uniform_complete_matrix(3)), od.DeGroot())
        assert rec.stop_reason == "consensus"
        assert rec.steps == 0
        assert rec.states.shape == (1, 3)

    def test_stubborn_positive_monotone_toward_pinned_agent(self):
        w = od.WeightMatrix([[0.5, 0.5], [0.5, 0.5]], beta=0.5)
        rec = od.simulate([1.0, -1.0], od.StaticSchedule(w), od.StubbornPositive(),
                          od.StopRule(max_steps=50, consensus_epsilon=NEVER))
        assert np.all(rec.states[:, 0] == 1.0)
        agent2 = rec.states[:, 1]
        assert np.all(np.diff(agent2) > 0)
        oracle = scalar_two_agent_oracle(1.0, -1.0, 0.5, 50)
        assert np.abs(agent2 - np.array(oracle)).max() <= 1e-12

    def test_zero_pinned_neutral_heads_to_zero(self):
        rng = trial_rng(25, 0)
        w = od.random_strongly_connected_matrix(6, rng, 0.5)
        x0 = np.array([0.0, 0.8, -0.5, 0.3, -0.9, 0.6])
        rec = od.simulate(x0, od.StaticSchedule(w), od.StubbornNeutral(),
                          od.StopRule(max_steps=10**5, consensus_epsilon=NEVER),
                          keep_states=False)
        assert rec.final_state[0] == 0.0
        assert np.abs(rec.final_state).max() < 0.02
        assert rec.spreads[-1] < rec.spreads[0] * 0.02

    def test_target_stop(self):
        w = od.WeightMatrix([[0.5, 0.5], [0.5, 0.5]], beta=0.5)
        rec = od.simulate([1.0, -1.0], od.StaticSchedule(w), od.StubbornPositive(),
                          od.StopRule(max_steps=10**6, consensus_epsilon=NEVER,
                                      target=1.0, target_epsilon=1e-3))
        assert rec.stop_reason == "target"
        assert np.abs(rec.final_state - 1.0).max() < 1e-3

    def test_max_steps_stop(self):
        w = od.uniform_complete_matrix(3)
        rec = od.simulate([1.0, 0.0, -1.0], od.StaticSchedule(w), od.StubbornExtremist(),
                          od.StopRule(max_steps=5, consensus_epsilon=NEVER))
        assert rec.stop_reason == "max_steps"
        assert rec.steps == 5

    def test_non_finite_state_stops_the_run(self):
        x0 = np.array([0.3001, -0.5, 0.9])
        rec = od.simulate(x0, od.StaticSchedule(od.uniform_complete_matrix(3)),
                          nan_spike_kind(), od.StopRule(max_steps=20_000))
        # the first step turns the state NaN; it is not recorded
        assert rec.stop_reason == "non_finite"
        assert rec.steps == 0
        assert np.array_equal(rec.final_state, x0)
        assert np.array_equal(rec.states, x0[None, :])
        assert od.check_lemmas(rec).ok

    def test_non_finite_stop_keeps_the_last_finite_state(self):
        calls = []

        def nan_from_sixth_step(x):
            calls.append(None)  # construction probes once, simulate checks once
            return np.full_like(x, np.nan) if len(calls) > 7 else x * x

        w = od.random_strongly_connected_matrix(5, trial_rng(26, 0), 0.5)
        x0 = np.array([0.9, -0.3, 0.1, -0.7, 0.44])
        stop = od.StopRule(max_steps=100, consensus_epsilon=NEVER)
        rec = od.simulate(x0, od.StaticSchedule(w), od.Custom(nan_from_sixth_step), stop)
        assert rec.stop_reason == "non_finite"
        assert rec.steps == 5
        five = od.simulate(x0, od.StaticSchedule(w), od.StubbornNeutral(),
                           od.StopRule(max_steps=5, consensus_epsilon=NEVER))
        assert np.array_equal(rec.final_state, five.final_state)
        assert np.array_equal(rec.states, five.states)

    def test_clamp_steps_counts_the_fired_clamp(self):
        # Agent 2 listens only to tied minimum opinions; the shifted product
        # rounds her a hair below 0.01 and the clamp puts her back.
        w = od.WeightMatrix([[1.0, 0.0, 0.0], [0.0, 0.34, 0.66], [0.5, 0.0, 0.5]], beta=0.34)
        x0 = [0.43, 0.01, 0.01]
        stop = od.StopRule(max_steps=50)
        rec = od.simulate(x0, od.StaticSchedule(w), od.DeGroot(), stop)
        assert rec.clamp_steps > 0
        assert rec.states[1, 1] == 0.01
        assert rec.clamp_steps == reference_simulate(x0, od.StaticSchedule(w), od.DeGroot(),
                                                     stop).clamp_steps
        untied = od.simulate([0.43, 0.01, 0.2], od.StaticSchedule(w), od.DeGroot(), stop)
        assert untied.clamp_steps == 0

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_reference_loop_bit_for_bit(self, data):
        n = data.draw(st.integers(2, 2 * _LIST_KERNEL_MAX_N))
        rng = SplitMix64(data.draw(st.integers(0, 2**64 - 1)))
        x0 = palette_opinions(data, n)
        kind = data.draw(st.one_of(
            st.sampled_from(ALL_KINDS + CUSTOM_KINDS),
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
            .map(lambda openness: od.Constant(tuple(openness)))))
        # sparse rows make agents that hear only tied extremes, whose update
        # rounding can carry past them, so the clamp fires
        density = data.draw(st.sampled_from((0.4, 0.15)))
        form = data.draw(st.sampled_from(("static", "periodic", "random")))
        if form == "static":
            schedule = od.StaticSchedule(random_valid_matrix(n, rng, density))
        elif form == "periodic":
            schedule = random_periodic_schedule(n, rng)
        else:
            pool = tuple(random_valid_matrix(n, rng, density) for _ in range(3))
            schedule = od.RandomSchedule(pool, seed=rng.randrange(2**32))
        target = data.draw(st.none() | PALETTE_VALUE)
        stop = od.StopRule(
            max_steps=data.draw(st.integers(1, 300)),
            consensus_epsilon=data.draw(st.sampled_from((NEVER, 1e-9, 1e-3))),
            target=target,
            target_epsilon=None if target is None else data.draw(st.sampled_from((1e-3, 0.1, 0.6))))
        keep = data.draw(st.booleans())
        stream = data.draw(st.booleans())

        with tempfile.TemporaryDirectory() as tmp:
            streamed = Path(tmp, "streamed.csv")
            with od.TrajectoryCsv(streamed, n) if stream else nullcontext() as writer:
                got = od.simulate(x0, schedule, kind, stop, keep_states=keep, writer=writer)
            want = reference_simulate(x0, schedule, kind, stop, keep_states=keep)
            if stream:
                event(f"streamed, {got.stop_reason}")
                kept = got if keep else od.simulate(x0, schedule, kind, stop)
                od.write_trajectory_csv(kept, Path(tmp, "kept.csv"))
                assert streamed.read_bytes() == Path(tmp, "kept.csv").read_bytes()
                if not has_negative_zero(x0):  # a zero's sign shows in the CSV
                    reference = want if keep else reference_simulate(x0, schedule, kind, stop)
                    write_trajectory_csv_by_value(reference, Path(tmp, "reference.csv"))
                    assert streamed.read_bytes() == Path(tmp, "reference.csv").read_bytes()
        assert (got.stop_reason, got.steps, got.clamp_steps) == \
            (want.stop_reason, want.steps, want.clamp_steps)
        pairs = [(got.mins, want.mins), (got.maxs, want.maxs),
                 (got.final_state, want.final_state)]
        if keep:
            pairs.append((got.states, want.states))
        else:
            assert got.states is None and want.states is None
        for a, b in pairs:
            if has_negative_zero(x0):  # the one documented difference: a zero's sign
                assert np.array_equal(a, b)
            else:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_list_and_array_states_give_the_same_bits(self, data):
        # no exemption for a zero's sign: the two forms must agree on every bit
        n = data.draw(st.integers(2, _LIST_KERNEL_MAX_N))
        rng = SplitMix64(data.draw(st.integers(0, 2**64 - 1)))
        x0 = palette_opinions(data, n)
        kind = data.draw(st.one_of(
            st.sampled_from(ALL_KINDS),
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
            .map(lambda openness: od.Constant(tuple(openness)))))
        density = data.draw(st.sampled_from((0.4, 0.15)))
        form = data.draw(st.sampled_from(("static", "periodic", "random")))
        if form == "static":
            schedule = od.StaticSchedule(random_valid_matrix(n, rng, density))
        elif form == "periodic":
            schedule = random_periodic_schedule(n, rng)
        else:
            pool = tuple(random_valid_matrix(n, rng, density) for _ in range(3))
            schedule = od.RandomSchedule(pool, seed=rng.randrange(2**32))
        stop = od.StopRule(max_steps=data.draw(st.integers(1, 300)),
                           consensus_epsilon=data.draw(st.sampled_from((NEVER, 1e-9, 1e-3))))
        lists = od.simulate(x0, schedule, kind, stop)
        with mock.patch.object(dynamics, "_LIST_KERNEL_MAX_N", 0):
            arrays = od.simulate(x0, schedule, kind, stop)
        event(f"{lists.stop_reason}, clamped: {lists.clamp_steps > 0}")
        assert (lists.stop_reason, lists.steps, lists.clamp_steps) == \
            (arrays.stop_reason, arrays.steps, arrays.clamp_steps)
        for name in ("mins", "maxs", "final_state", "states"):
            got, want = getattr(lists, name), getattr(arrays, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        assert lists.final_state.flags.writeable

    class StubbornNeutralSubclass(od.StubbornNeutral):
        pass

    @pytest.mark.parametrize("n,kind,lists", [
        (2, od.DeGroot(), True),
        (_LIST_KERNEL_MAX_N, od.StubbornNeutral(), True),
        (_LIST_KERNEL_MAX_N, od.Constant((0.5,) * _LIST_KERNEL_MAX_N), True),
        (_LIST_KERNEL_MAX_N + 1, od.StubbornNeutral(), False),
        (4, StubbornNeutralSubclass(), False),
        (4, od.Custom(lambda x: x * x), False),
    ])
    def test_list_state_only_for_built_in_kinds_of_few_agents(self, n, kind, lists):
        schedule = od.StaticSchedule(random_valid_matrix(n, SplitMix64(n), 0.4))
        with mock.patch.object(dynamics, "_list_kernel", wraps=dynamics._list_kernel) as spy:
            record = od.simulate(np.linspace(-0.5, 0.5, n), schedule, kind, od.StopRule(max_steps=3))
        assert spy.called == lists
        assert record.steps == 3 and type(record.final_state) is np.ndarray

    # sha256 over every record of the benchmark's ensemble documents at seed
    # 1 (run_scenario with keep_states=False): stop reason, steps and clamp
    # steps, then the bytes of mins, maxs and the final state, document by
    # document. Recorded before the list-state kernel existed.
    ENSEMBLE_SEED_1_SHA256 = "8fe277a5003b2caf4008e254df0349876e1c8732a25b474cdd1d7350f414d709"

    def test_ensemble_records_are_pinned(self):
        digest = hashlib.sha256()
        for document in bench_workloads().DOCUMENTS["ensemble"](1):
            record, _ = od.run_scenario(od.load_scenario(document), keep_states=False)
            digest.update(f"{record.stop_reason},{record.steps},{record.clamp_steps};".encode())
            for values in (record.mins, record.maxs, record.final_state):
                digest.update(values.tobytes())
        assert digest.hexdigest() == self.ENSEMBLE_SEED_1_SHA256

    def test_dimension_guards(self):
        w = od.uniform_complete_matrix(3)
        with pytest.raises(ShapeError):
            od.simulate([0.1, 0.2], od.StaticSchedule(w), od.DeGroot())
        with pytest.raises(ShapeError):
            od.simulate([0.1, 0.2, 0.3], od.StaticSchedule(w), od.Constant((0.5, 0.5)))

    def test_packed_extremes_and_csv_blocks_match_the_reference(self, tmp_path):
        # The loop hands its staged extremes, kept states and CSV rows on
        # every _block_rows(n) recorded steps (1170 at n = 5); run across
        # several blocks, keeping and writing the states together.
        steps = 2 * od.dynamics._block_rows(5) + 5
        w = random_valid_matrix(5, trial_rng(45, 0), 0.4)
        stop = od.StopRule(max_steps=steps, consensus_epsilon=NEVER)
        x0 = [1.0, 0.3, -0.2, 0.6, -0.9]
        with od.TrajectoryCsv(tmp_path / "streamed.csv", 5) as writer:
            got = od.simulate(x0, od.StaticSchedule(w), od.StubbornPositive(), stop,
                              keep_states=True, writer=writer)
        want = reference_simulate(x0, od.StaticSchedule(w), od.StubbornPositive(), stop)
        assert got.steps == steps
        assert got.mins.tobytes() == want.mins.tobytes()
        assert got.maxs.tobytes() == want.maxs.tobytes()
        assert got.mins.dtype == np.float64 and got.mins.shape == (steps + 1,)
        assert got.states.shape == want.states.shape == (steps + 1, 5)
        assert got.states.tobytes() == want.states.tobytes()
        write_trajectory_csv_by_value(want, tmp_path / "reference.csv")
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @staticmethod
    def _block_counter():
        blocks = []

        def writer(states, spreads):
            assert states.ndim == 2 and states.shape == (spreads.shape[0], 5)
            blocks.append(states.shape[0])
        return blocks, writer

    def test_a_whole_number_of_blocks_hands_on_no_empty_block(self):
        rows = od.dynamics._block_rows(5)
        w = random_valid_matrix(5, trial_rng(45, 1), 0.4)
        x0 = [1.0, 0.3, -0.2, 0.6, -0.9]
        # max_steps transitions record max_steps + 1 states: two whole blocks
        stop = od.StopRule(max_steps=2 * rows - 1, consensus_epsilon=NEVER)
        blocks, writer = self._block_counter()
        got = od.simulate(x0, od.StaticSchedule(w), od.StubbornPositive(), stop, writer=writer)
        assert (got.stop_reason, got.steps) == ("max_steps", 2 * rows - 1)
        assert blocks == [rows, rows]
        assert got.states.shape == (2 * rows, 5)

    def test_non_finite_stop_on_a_block_boundary(self):
        rows = od.dynamics._block_rows(5)
        calls = []

        def nan_at_step_rows(x):
            # call 1 is the construction probe, call 2 simulate's size check,
            # call 2 + s the step that makes state s
            calls.append(None)
            return np.full_like(x, np.nan) if len(calls) == 2 + rows else 0.5 * (1.0 - x)

        kind = od.Custom(nan_at_step_rows, "nan_at_step_rows")
        w = random_valid_matrix(5, trial_rng(45, 2), 0.4)
        x0 = [1.0, 0.3, -0.2, 0.6, -0.9]
        stop = od.StopRule(max_steps=2 * rows, consensus_epsilon=NEVER)
        blocks, writer = self._block_counter()
        got = od.simulate(x0, od.StaticSchedule(w), kind, stop, writer=writer)
        assert (got.stop_reason, got.steps) == ("non_finite", rows - 1)
        assert blocks == [rows]
        assert got.states.shape == (rows, 5) and np.all(np.isfinite(got.states))
        assert got.final_state.tobytes() == got.states[-1].tobytes()

    def test_kept_states_cost_about_their_own_size(self):
        # The n = 30 benchmark session at 20,000 steps: the kept states are
        # packed block by block, so the traced peak stays near the array
        # returned (staged rows, block copies and the buffer's overallocation
        # are the rest), not near the per-step arrays a list of states held.
        (document,) = bench_workloads().cli_session_documents(1)
        scenario = od.load_scenario(document)
        x0 = od.initial_opinions(scenario)
        schedule = od.build_schedule(scenario)
        stop = replace(scenario.stop, max_steps=20_000)
        od.simulate(x0, schedule, scenario.kind, replace(stop, max_steps=10))  # caches
        tracemalloc.start()
        try:
            record = od.simulate(x0, schedule, scenario.kind, stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.states.shape == (20_001, 30)
        assert peak <= 1.25 * record.states.nbytes + 256_000

    def test_keep_states_false_drops_states_only(self):
        w = od.uniform_complete_matrix(3)
        rec = od.simulate([0.4, -0.4, 0.0], od.StaticSchedule(w), od.DeGroot(), keep_states=False)
        assert rec.states is None
        assert len(rec.spreads) == rec.steps + 1
        assert rec.final_state.shape == (3,)


class TestStopRule:
    def test_defaults(self):
        rule = od.StopRule()
        assert rule.max_steps == 10**6
        assert rule.consensus_epsilon == 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            od.StopRule(max_steps=0)
        with pytest.raises(ValidationError):
            od.StopRule(consensus_epsilon=0.0)
        with pytest.raises(ValidationError):
            od.StopRule(target=0.5)
        with pytest.raises(ValidationError):
            od.StopRule(target=1.5, target_epsilon=1e-3)

    def test_max_steps_must_be_an_integer(self):
        # a loop that stops at t == max_steps would never stop on these
        for bad in (2.5, float("nan"), True):
            with pytest.raises(ValidationError, match="integer"):
                od.StopRule(max_steps=bad)
        assert od.StopRule(max_steps=np.int64(5)).max_steps == 5


def percent_row(width: int) -> str:
    """TrajectoryCsv's row: t as %d, then %.17g."""
    return ",".join(["%d"] + ["%.17g"] * (width - 1)) + "\n"


def assert_formats_like_percent(block: np.ndarray) -> None:
    m, width = block.shape
    expected = ((percent_row(width) * m) % tuple(block.ravel().tolist())).encode()
    assert od.dynamics._percent_rows(block) == expected
    assert od.dynamics._format_block(block) == expected


# Any finite double, and the opinions' range, where the fast path applies
FIELD = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-10.0, 10.0)


class TestCsvFormatter:
    """The vectorized formatter against the % row it replaces, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_percent_on_finite_blocks(self, data):
        m = data.draw(st.integers(1, 12), label="rows")
        width = data.draw(st.integers(2, 5), label="columns")
        t = data.draw(st.lists(st.integers(0, 2**53), min_size=m, max_size=m), label="t")
        fields = data.draw(st.lists(FIELD, min_size=m * (width - 1), max_size=m * (width - 1)))
        assert_formats_like_percent(
            np.column_stack([np.array(t, dtype=float), np.reshape(fields, (m, width - 1))]))

    def test_edges(self):
        tiny = 1e-290
        values = [
            0.0, -0.0, 5e-324, tiny, math.nextafter(tiny, 0.0), math.nextafter(tiny, 1.0),
            1e-4, math.nextafter(1e-4, 0.0), 1.0, 9.999999999999999, 10.0,
            1 + 2.0**-17,  # an exact tie at the 17th digit
            12.5, 1e17, float("nan"), float("inf"), -float("inf"),
        ]
        values += [-v for v in values]
        for k in range(-20, 20):  # powers of ten and their neighbours
            x = 10.0**k
            values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
        block = np.array([[t, v, 0.5] for t, v in enumerate(values)], dtype=float)
        assert_formats_like_percent(block)
        # doubles are 2 apart below 1e16 and 16 apart below 1e17; %d takes 1e17 and up
        times = np.array([[t, 0.5] for t in (9_999, 10_000, 10**16 - 2, 10**16, 10**17 - 16,
                                             10**17, 2**60)], dtype=float)
        assert_formats_like_percent(times)
        text = od.dynamics._format_block(
            np.array([[0, -0.0, math.nextafter(1e-4, 0.0)], [10**17, 10.0, 1e-4]]))
        assert text == b"0,-0,9.9999999999999991e-05\n100000000000000000,10,0.0001\n"

    def test_a_slow_field_sends_the_whole_block_through_percent(self, monkeypatch):
        rng = np.random.default_rng(46)
        block = np.column_stack([np.arange(40.0), rng.uniform(-1.0, 1.0, (40, 6))])
        # 10 or more and not an integer, below 1e-290, an integer of 1e17, a rounding tie
        planted = {0: (3, 12.5), 7: (1, 1e-300), 8: (0, 1e17), 20: (5, 1 + 2.0**-17),
                   39: (2, -1234.75)}
        reference = od.dynamics._percent_rows
        calls = []

        def counting(rows):
            calls.append(rows)
            return reference(rows)

        monkeypatch.setattr(od.dynamics, "_percent_rows", counting)
        blocks = []
        for r, (column, value) in planted.items():
            blocks.append(block.copy())
            blocks[-1][r, column] = value
            block[r, column] = value
        for planted_block in blocks + [block]:
            calls.clear()
            assert od.dynamics._format_block(planted_block) == reference(planted_block)
            assert len(calls) == 1 and calls[0] is planted_block

    def test_a_near_tie_alone_sends_the_block_through_percent(self, monkeypatch):
        # Every field is in the fast range, so only the near-tie check can send
        # this block to %: the 17th digit of 1 + 2**-17 is an exact tie.
        block = np.array([[0, 1 + 2.0**-17, 0.5], [1, 0.25, 1e-9]])
        reference = od.dynamics._percent_rows
        calls = []

        def counting(rows):
            calls.append(rows)
            return reference(rows)

        monkeypatch.setattr(od.dynamics, "_percent_rows", counting)
        assert od.dynamics._format_block(block) == reference(block)
        assert len(calls) == 1 and calls[0] is block

    def test_trajectory_like_blocks_take_the_fast_path(self, monkeypatch):
        # cli_session's rows: t up to 20,000, 30 opinions in [-1, 1], spreads down to
        # 1e-9. Formatted by % they are the same bytes at about 3.5 times the cost,
        # which no byte test would see.
        rng = np.random.default_rng(47)
        m = 256
        block = np.empty((m, 32))
        block[:, 0] = np.arange(20_000 - m + 1, 20_001)
        block[:, 1:-1] = rng.uniform(-1.0, 1.0, (m, 30))
        block[:, 1] = 1.0  # an agent pinned at +1
        block[:, -1] = 10.0 ** rng.uniform(-9.0, 0.0, m)
        expected = od.dynamics._percent_rows(block)

        def refuse(rows):
            raise AssertionError("a trajectory-like block left the fast path")

        monkeypatch.setattr(od.dynamics, "_percent_rows", refuse)
        assert od.dynamics._format_block(block) == expected

    def test_tables_are_built_on_first_use(self):
        # importing opdyn must not build them: the benchmark's setup_s counts imports
        src = str(Path(od.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", "import opdyn; "
             "print(opdyn.dynamics._format_tables.cache_info().currsize)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        assert done.stdout == "0\n"


class TestTrajectoryCsv:
    def test_layout_and_precision(self, tmp_path):
        w = od.uniform_complete_matrix(3)
        rec = od.simulate([1 / 3, -1 / 3, 0.0], od.StaticSchedule(w), od.DeGroot())
        path = tmp_path / "traj.csv"
        od.write_trajectory_csv(rec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,x_3,spread"
        assert len(lines) == rec.steps + 2
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert float(cells[1]) == 1 / 3  # 17 significant digits round-trips
        assert float(cells[-1]) == rec.spreads[0]

    def test_bytes_match_value_by_value_reference(self, tmp_path):
        tiny = 5e-324
        rows = [[-0.0, tiny, 1.0, -1.0], [1 / 3, -tiny, 0.0, -2 / 3],
                [0.1, 0.7, -0.30000000000000004, 1.0]]
        rng = trial_rng(40, 0)
        rows += [random_opinions(4, rng, pin_extremes=True) for _ in range(50)]
        records = [od.TrajectoryRecord.from_states(rows)]
        w = od.uniform_complete_matrix(5)
        records.append(od.simulate([1.0, -1.0, 0.25, -0.0, 0.5], od.StaticSchedule(w),
                                   od.StubbornNeutral(), od.StopRule(max_steps=30)))
        for k, rec in enumerate(records):
            expected, written = tmp_path / f"ref{k}.csv", tmp_path / f"lib{k}.csv"
            write_trajectory_csv_by_value(rec, expected)
            od.write_trajectory_csv(rec, written)
            assert written.read_bytes() == expected.read_bytes()
        first_row = (tmp_path / "lib0.csv").read_text().splitlines()[1]
        assert first_row == "0,-0,4.9406564584124654e-324,1,-1,2"

    def test_the_file_appears_only_on_a_clean_exit(self, tmp_path):
        path = tmp_path / "traj.csv"
        with od.TrajectoryCsv(path, 2) as writer:
            writer(np.array([[0.5, -0.5]]), np.array([1.0]))
            assert [p.name for p in tmp_path.iterdir()] == [f"traj.csv.{os.getpid()}.tmp"]
        assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]
        assert path.read_text() == "t,x_1,x_2,spread\n0,0.5,-0.5,1\n"

    @pytest.mark.parametrize("error", [KeyboardInterrupt, DomainError])
    def test_an_exception_leaves_neither_the_file_nor_its_temporary(self, tmp_path, error):
        path = tmp_path / "traj.csv"
        with pytest.raises(error):
            with od.TrajectoryCsv(path, 2) as writer:
                writer(np.array([[0.5, -0.5]]), np.array([1.0]))
                raise error("raised while writing")
        assert list(tmp_path.iterdir()) == []
        path.write_text("earlier\n")
        with pytest.raises(error):
            with od.TrajectoryCsv(path, 2):
                raise error("raised while writing")
        assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]
        assert path.read_text() == "earlier\n"

    def test_a_failed_rename_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.mkdir()  # os.replace cannot put a file there
        with pytest.raises(OSError):
            with od.TrajectoryCsv(path, 2) as writer:
                writer(np.array([[0.5, -0.5]]), np.array([1.0]))
        assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]
        assert list(path.iterdir()) == []

    # A stubborn_neutral run, recorded before the vectorized formatter: agents
    # 1 and 2 hear only themselves and hold +1 and -1 exactly; agent 3 sits
    # at 0, where f = 0, and agents 4 and 5 (at -3e-7) creep towards it;
    # agent 6, at 2.5e-123, is too close to 0 to move; agent 7 hears the
    # extremes and creeps towards 0 too. So the rows hold fixed and
    # scientific fields, with 2- and 3-digit exponents, negative ones among
    # them. 12,001 rows, so t passes 10,000.
    CREEPING_NEUTRAL_SHA256 = "5d75c32d8f871118337dc3d81a0bcd1fbb959030c80a5c0e5b36c3e1819711e8"

    def test_creeping_neutral_csv_is_pinned(self, tmp_path):
        w = od.WeightMatrix(np.array([
            [1.0, 0, 0, 0, 0, 0, 0],
            [0, 1.0, 0, 0, 0, 0, 0],
            [0, 0, 1.0, 0, 0, 0, 0],
            [0, 0, 0.5, 0.5, 0, 0, 0],
            [0, 0, 0.25, 0, 0.75, 0, 0],
            [0.125, 0, 0.5, 0, 0, 0.375, 0],
            [0.25, 0.5, 0, 0, 0, 0, 0.25],
        ]), 0.125)
        x0 = [1.0, -1.0, 0.0, 0.4, -3e-7, 2.5e-123, 0.3]
        path = tmp_path / "creeping.csv"
        with od.TrajectoryCsv(path, 7) as writer:
            record = od.simulate(x0, od.StaticSchedule(w), od.StubbornNeutral(),
                                 od.StopRule(max_steps=12_000), keep_states=False, writer=writer)
        assert (record.stop_reason, record.steps) == ("max_steps", 12_000)
        text = path.read_bytes()
        assert b"\n10000,1,-1,0,0.0099940857317984914,-2.9999999993223735e-07," in text
        assert hashlib.sha256(text).hexdigest() == self.CREEPING_NEUTRAL_SHA256

    def test_requires_states(self, tmp_path):
        w = od.uniform_complete_matrix(3)
        rec = od.simulate([0.4, -0.4, 0.0], od.StaticSchedule(w), od.DeGroot(), keep_states=False)
        with pytest.raises(PreconditionError):
            od.write_trajectory_csv(rec, tmp_path / "x.csv")

    def test_from_states_builds_diagnostics(self):
        rec = od.TrajectoryRecord.from_states([[0.0, 1.0], [0.25, 0.75]])
        assert rec.steps == 1
        assert rec.spreads.tolist() == [1.0, 0.5]
        assert rec.mins.tolist() == [0.0, 0.25]
