import numpy as np
import pytest

import opdyn as od
from opdyn.analysis import Outcome
from opdyn.errors import PreconditionError
from opdyn.rng import SplitMix64

from _trials import (
    NEVER,
    exact_stationary_weights,
    random_matrix,
    random_periodic_schedule,
    trial_rng,
)


class TestCheckLemmas:
    def test_simulated_trajectories_are_clean(self):
        for trial in range(30):
            rng = trial_rng(30, trial)
            n = 2 + rng.randrange(6)
            sched = od.StaticSchedule(random_matrix(n, rng))
            x0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
            rec = od.simulate(x0, sched, od.StubbornExtremist(),
                              od.StopRule(max_steps=500, consensus_epsilon=NEVER),
                              keep_states=False)
            assert od.check_lemmas(rec).ok

    def test_forged_interval_violation(self):
        for states in (
            [[0.5, 0.0], [1.5, 0.0]],
            [[0.5, -0.5], [np.nan, -0.5], [0.4, -0.4]],  # NaN is not inside [-1, 1]
        ):
            rec = od.TrajectoryRecord.from_states(states)
            assert od.check_lemmas(rec).interval_step == 1

    def test_forged_min_decrease(self):
        rec = od.TrajectoryRecord.from_states([[0.2, 0.6], [0.1, 0.6], [0.1, 0.6]])
        report = od.check_lemmas(rec)
        assert report.min_step == 1
        assert report.max_step is None

    def test_forged_max_increase(self):
        rec = od.TrajectoryRecord.from_states([[0.2, 0.6], [0.2, 0.7]])
        assert od.check_lemmas(rec).max_step == 1

    def test_empty_rejected(self):
        rec = od.TrajectoryRecord(
            mins=np.array([]), maxs=np.array([]),
            final_state=np.zeros(2), stop_reason="forged")
        with pytest.raises(PreconditionError):
            od.check_lemmas(rec)


class TestClassifyLimit:
    def test_stubborn_positive_pinned_one(self):
        result = od.classify_limit([0.2, 1.0, -0.7], od.StubbornPositive(), rjsc=True)
        assert result.outcome is Outcome.CONSENSUS_AT_ONE
        assert result.value == 1.0

    def test_stubborn_positive_interior(self):
        result = od.classify_limit([0.2, -1.0, -0.7], od.StubbornPositive(), rjsc=True)
        assert result.outcome is Outcome.CONSENSUS_IN_OPEN_INTERVAL
        assert result.interval == (-1.0, 1.0)

    def test_stubborn_positive_all_minus_one(self):
        result = od.classify_limit([-1.0, -1.0, -1.0], od.StubbornPositive(), rjsc=True)
        assert result.outcome is Outcome.CONSENSUS_AT_MINUS_ONE

    def test_stubborn_neutral_zero_pinning(self):
        result = od.classify_limit([0.5, 0.0, -0.5], od.StubbornNeutral(), rjsc=True)
        assert result.outcome is Outcome.CONSENSUS_AT_ZERO

    def test_stubborn_neutral_one_signed(self):
        pos = od.classify_limit([0.5, 0.2, 1.0], od.StubbornNeutral(), rjsc=True)
        assert pos.outcome is Outcome.CONSENSUS_IN_OPEN_INTERVAL
        assert pos.interval == (0.0, 1.0)
        neg = od.classify_limit([-0.5, -0.2, -1.0], od.StubbornNeutral(), rjsc=True)
        assert neg.interval == (-1.0, 0.0)

    def test_stubborn_neutral_mixed_signs_unknown(self):
        result = od.classify_limit([1.0, -1.0, -1.0, -1.0], od.StubbornNeutral(), rjsc=True)
        assert result.outcome is Outcome.UNKNOWN

    def test_stubborn_neutral_unanimous_extremes(self):
        assert od.classify_limit([1.0, 1.0], od.StubbornNeutral(), rjsc=True).outcome \
            is Outcome.CONSENSUS_AT_ONE
        assert od.classify_limit([-1.0, -1.0], od.StubbornNeutral(), rjsc=True).outcome \
            is Outcome.CONSENSUS_AT_MINUS_ONE

    def test_all_equal_is_decided_for_every_kind(self):
        for kind in (od.DeGroot(), od.Constant((0.5, 0.5)), od.StubbornExtremist()):
            result = od.classify_limit([0.37, 0.37], kind, rjsc=True)
            assert result.outcome is Outcome.CONSENSUS_AT_VALUE
            assert result.value == 0.37
        # fixed point regardless of connectivity
        result = od.classify_limit([0.37, 0.37], od.DeGroot(), rjsc=False)
        assert result.outcome is Outcome.CONSENSUS_AT_VALUE

    def test_without_connectivity_everything_else_unknown(self):
        result = od.classify_limit([0.2, 1.0], od.StubbornPositive(), rjsc=False)
        assert result.outcome is Outcome.UNKNOWN

    def test_kinds_without_theory_are_unknown(self):
        for kind in (od.DeGroot(), od.Constant((0.5, 0.5)), od.StubbornExtremist()):
            assert od.classify_limit([0.2, -0.4], kind, rjsc=True).outcome is Outcome.UNKNOWN


class TestClassificationNeverContradictsSimulation:
    """Randomized consistency between the classifier and simulation.

    Point outcomes from pinning are checked exactly; the slow crawl toward
    a pinned extreme is checked at the long-horizon target stop; interval
    outcomes are checked by containment at the consensus stop.
    """

    def test_interval_outcomes_contained(self):
        for trial in range(25):
            rng = trial_rng(31, trial)
            n = 3 + rng.randrange(5)
            sched = random_periodic_schedule(n, rng)
            if rng.random() < 0.5:
                kind = od.StubbornPositive()
                x0 = np.array([rng.uniform(-1.0, 0.98) for _ in range(n)])
            else:
                kind = od.StubbornNeutral()
                sign = 1.0 if rng.random() < 0.5 else -1.0
                x0 = np.array([sign * rng.uniform(0.05, 0.98) for _ in range(n)])
            result = od.classify_limit(x0, kind, rjsc=True)
            assert result.outcome is Outcome.CONSENSUS_IN_OPEN_INTERVAL
            rec = od.simulate(x0, sched, kind, od.StopRule(max_steps=10**5), keep_states=False)
            assert rec.stop_reason == "consensus"
            lo, hi = result.interval
            value = float(rec.final_state.mean())
            assert lo < value < hi

    def test_pinned_extreme_reached_at_long_horizon_stop(self):
        for trial in range(6):
            rng = trial_rng(32, trial)
            n = 3 + rng.randrange(3)
            w = random_matrix(n, rng, 0.8)
            x0 = np.array([rng.uniform(-1.0, 0.9) for _ in range(n)])
            x0[rng.randrange(n)] = 1.0
            assert od.classify_limit(x0, od.StubbornPositive(), rjsc=True).outcome \
                is Outcome.CONSENSUS_AT_ONE
            rec = od.simulate(x0, od.StaticSchedule(w), od.StubbornPositive(),
                              od.StopRule(max_steps=10**6, consensus_epsilon=NEVER,
                                          target=1.0, target_epsilon=1e-4),
                              keep_states=False)
            assert rec.stop_reason == "target"

    def test_exact_point_outcomes_pinned_forever(self):
        w = random_matrix(4, trial_rng(33, 0))
        x = np.full(4, -1.0)
        for _ in range(100):
            x = od.step(x, w, od.StubbornPositive())
        assert np.all(x == -1.0)

    def test_zero_pinned_neutral_contracts_toward_zero(self):
        rng = trial_rng(34, 0)
        w = random_matrix(5, rng, 0.6)
        x0 = np.array([0.0, 0.7, -0.4, 0.2, -0.8])
        assert od.classify_limit(x0, od.StubbornNeutral(), rjsc=True).outcome \
            is Outcome.CONSENSUS_AT_ZERO
        rec = od.simulate(x0, od.StaticSchedule(w), od.StubbornNeutral(),
                          od.StopRule(max_steps=10**5, consensus_epsilon=NEVER),
                          keep_states=False)
        assert rec.final_state[0] == 0.0
        assert np.abs(rec.final_state).max() < 0.02

    def test_sharpness_limits_stay_clear_of_unreached_extremes(self):
        # no agent at an extreme => the simulated limit stays strictly inside
        for trial in range(15):
            rng = trial_rng(35, trial)
            n = 3 + rng.randrange(5)
            sched = od.StaticSchedule(random_matrix(n, rng))
            x0 = np.array([rng.uniform(-0.99, 0.99) for _ in range(n)])
            rec = od.simulate(x0, sched, od.StubbornPositive(),
                              od.StopRule(max_steps=10**5), keep_states=False)
            value = float(rec.final_state.mean())
            assert value > -1.0 + 1e-6
            x0p = np.abs(x0) * 0.97 + 0.01
            rec = od.simulate(x0p, sched, od.StubbornNeutral(),
                              od.StopRule(max_steps=10**5), keep_states=False)
            value = float(rec.final_state.mean())
            assert 0.0 < value < 1.0 - 1e-6
            rec = od.simulate(-x0p, sched, od.StubbornNeutral(),
                              od.StopRule(max_steps=10**5), keep_states=False)
            value = float(rec.final_state.mean())
            assert -1.0 + 1e-6 < value < 0.0


class TestStationaryWeights:
    def test_doubly_stochastic_gives_mean(self):
        w = od.uniform_complete_matrix(4)
        c = od.stationary_weights(w)
        assert np.abs(c - 0.25).max() <= 1e-12
        x0 = [0.9, -0.3, 0.5, -0.1]
        assert od.degroot_consensus_value(w, x0) == pytest.approx(np.mean(x0), abs=1e-12)

    def test_not_strongly_connected_rejected(self):
        w = od.WeightMatrix([[1.0, 0.0], [0.5, 0.5]], beta=0.5)
        with pytest.raises(PreconditionError):
            od.degroot_consensus_value(w, [0.4, -0.4])

    def test_matches_long_run_simulation(self):
        for trial in range(25):
            rng = trial_rng(36, trial)
            n = 3 + rng.randrange(8)
            w = random_matrix(n, rng, 0.3)
            x0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
            value = od.degroot_consensus_value(w, x0)
            rec = od.simulate(x0, od.StaticSchedule(w), od.DeGroot(),
                              od.StopRule(consensus_epsilon=1e-12), keep_states=False)
            assert abs(value - float(rec.final_state.mean())) <= 1e-8

    def test_residual_and_positivity(self):
        for trial in range(25):
            rng = trial_rng(37, trial)
            w = random_matrix(3 + rng.randrange(8), rng, 0.3)
            c = od.stationary_weights(w)
            assert np.all(c > 0.0)
            assert np.abs(w.entries.T @ c - c).max() <= 1e-12
            assert c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dense_solve_matches_exact_rationals(self, monkeypatch):
        # With no iteration budget every answer comes from the dense solve;
        # dyadic weights (sixteenths) make the exact fixed vector rational.
        monkeypatch.setattr(od.analysis, "STATIONARY_MAX_ITERATIONS", 0)
        for trial in range(20):
            rng = trial_rng(38, trial)
            n = 2 + rng.randrange(6)
            counts = np.zeros((n, n), dtype=int)
            for i in range(n):
                counts[i, i] += 1
                counts[i, (i - 1) % n] += 1  # a directed ring: strongly connected
                for _ in range(14):
                    counts[i, rng.randrange(n)] += 1
            w = od.WeightMatrix(counts / 16.0, beta=1.0 / 16.0)
            exact = exact_stationary_weights(counts, 16)
            c = od.stationary_weights(w)
            assert np.abs(c - np.array([float(v) for v in exact])).max() <= 1e-14
            assert np.all(c > 0.0)

    def test_slowly_mixing_ring_is_answered(self):
        # A 650-agent directed ring with self-loops: the power iteration stays
        # above the tolerance for its whole budget, and the dense solve answers.
        w = od.random_strongly_connected_matrix(650, SplitMix64(650), 0.0)
        c = od.stationary_weights(w)
        assert np.all(c > 0.0)
        assert np.abs(w.entries.T @ c - c).max() <= 1e-12
        assert c.sum() == pytest.approx(1.0, abs=1e-12)


class TestEstimateRate:
    def test_instant_consensus_has_insufficient_data(self):
        w = od.uniform_complete_matrix(4)
        rec = od.simulate([0.5, -0.5, 0.25, -0.25], od.StaticSchedule(w), od.DeGroot())
        with pytest.raises(PreconditionError):
            od.estimate_rate(rec)

    def test_fixed_graph_geometric_decay(self):
        rng = trial_rng(38, 0)
        w = random_matrix(6, rng, 0.4)
        x0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(6)])
        rec = od.simulate(x0, od.StaticSchedule(w), od.DeGroot(),
                          od.StopRule(consensus_epsilon=1e-9), keep_states=False)
        rate = od.estimate_rate(rec)
        assert rate.rho < 1.0
        assert rate.r_squared > 0.99

    def test_pinned_extreme_regime_still_fits(self):
        rng = trial_rng(39, 0)
        w = random_matrix(4, rng, 0.8)
        x0 = np.array([1.0, -0.5, 0.2, -0.8])
        rec = od.simulate(x0, od.StaticSchedule(w), od.StubbornPositive(),
                          od.StopRule(max_steps=20000, consensus_epsilon=NEVER),
                          keep_states=False)
        rate = od.estimate_rate(rec)
        assert 0.0 < rate.rho <= 1.0

    def test_noise_floor_excluded_from_fit(self):
        # spread column with a long stretch of float noise at the tail
        spreads = np.concatenate([np.geomspace(1.0, 1e-12, 40), np.full(60, 1e-16)])
        states = np.zeros((100, 2))
        states[:, 0] = spreads / 2
        states[:, 1] = -spreads / 2
        rec = od.TrajectoryRecord.from_states(states)
        rate = od.estimate_rate(rec)
        assert rate.r_squared > 0.999  # tail noise would wreck the fit if included
