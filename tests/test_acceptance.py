"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them as they complete).

Criterion 7 (zero-pinned stubborn neutrals go to the pinned zero) takes its
tolerance from an analytic floor, since the paper's proof gives no rate.
Near the zero anchor the extreme agent moves per step by at most
f*|gap| <= 2*m**3, where m = max|x|, so m(t+1) >= m(t) - 2*m(t)**3 on any
graph. While m <= 1/4, (1 - 2*m**2)**-2 <= 1 + 5*m**2, which gives
m(t) >= 1/sqrt(m(0)**-2 + 5t): about 4.5e-4 at t = 1e6, so a 1e-6
tolerance is out of reach, and going from m = 1/4 to eps takes at least
(eps**-2 - 16)/5 steps. The criterion uses eps = 2e-2 (at least ~500
steps, far inside the 1e6 horizon), and checks the floor itself at every
step, so a kernel that converged faster than the theory allows fails.
"""

import hashlib
import json
import time

import numpy as np
import pytest

import opdyn as od
from opdyn.cli import main as cli_main

from _trials import (
    NEVER,
    random_kind,
    random_matrix,
    random_opinions,
    random_periodic_schedule,
    random_valid_matrix,
    trial_rng,
)


_capsys = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}"
    if _capsys is not None:
        with _capsys.disabled():  # show the line for passing criteria too
            print(line, flush=True)
    else:
        print(line, flush=True)


# ---------------------------------------------------------------------------
# 1. Exact single-step consensus of the 4-agent dissenter example
# ---------------------------------------------------------------------------

def test_criterion_01_dissenter_single_step_exact():
    w = od.uniform_complete_matrix(4)
    kind = od.StubbornNeutral()
    x1 = od.step([1.0, -1.0, -1.0, -1.0], w, kind)  # warm-up + result
    mirrored = od.step([-1.0, 1.0, 1.0, 1.0], w, kind)
    elapsed = min(
        _timed(lambda: od.step([1.0, -1.0, -1.0, -1.0], w, kind)) for _ in range(5))
    ok = (
        np.abs(x1 - (-0.5)).max() <= 1e-12
        and np.abs(mirrored - 0.5).max() <= 1e-12
        and elapsed < 1e-3
    )
    report("criterion 01", ok,
           f"x(1)={x1.tolist()} mirrored={mirrored.tolist()} step_time={elapsed * 1e6:.1f}us")
    assert np.abs(x1 - (-0.5)).max() <= 1e-12
    assert np.abs(mirrored - 0.5).max() <= 1e-12
    assert elapsed < 1e-3


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 2. Stochasticity of the one-step matrix on random inputs
# ---------------------------------------------------------------------------

def test_criterion_02_system_matrix_stochasticity():
    t0 = time.perf_counter()
    worst_dev = 0.0
    for trial in range(10_000):
        rng = trial_rng(102, trial)
        n = 2 + rng.randrange(7)
        w = random_valid_matrix(n, rng)
        x = random_opinions(n, rng, pin_extremes=True)
        s = od.system_matrix(x, w, random_kind(n, rng))
        worst_dev = max(worst_dev, float(np.abs(s.sum(axis=1) - 1.0).max()))
        assert s.min() >= 0.0, f"trial {trial}: negative entry {s.min()}"
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 1e-12 and elapsed < 5.0
    report("criterion 02", ok,
           f"10^4 triples, worst row-sum deviation {worst_dev:.2e}, {elapsed:.1f}s")
    assert worst_dev <= 1e-12
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. Interval containment and monotone extremes over random trajectories
# ---------------------------------------------------------------------------

def test_criterion_03_lemma_suite():
    t0 = time.perf_counter()
    stop = od.StopRule(max_steps=1000, consensus_epsilon=NEVER)
    for trial in range(1000):
        rng = trial_rng(103, trial)
        n = 2 + rng.randrange(5)
        roll = rng.random()
        if roll < 0.4:
            schedule = od.StaticSchedule(random_valid_matrix(n, rng))
        elif roll < 0.7:
            schedule = random_periodic_schedule(n, rng)
        else:
            pool = tuple(random_valid_matrix(n, rng) for _ in range(2))
            schedule = od.RandomSchedule(pool, seed=rng.next_uint64())
        x0 = random_opinions(n, rng, pin_extremes=True)
        record = od.simulate(x0, schedule, random_kind(n, rng), stop, keep_states=False)
        lemmas = od.check_lemmas(record)
        assert lemmas.ok, f"trial {trial}: {lemmas}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report("criterion 03", ok, f"10^3 trajectories x 10^3 steps, zero violations, {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. Stubborn positives away from the pinned extreme: exponential consensus
# ---------------------------------------------------------------------------

def test_criterion_04_stubborn_positive_consensus_and_rate():
    fits_ok = 0
    worst_steps = 0
    for trial in range(200):
        rng = trial_rng(104, trial)
        n = 3 + rng.randrange(6)
        schedule = random_periodic_schedule(n, rng)
        x0 = np.array([rng.uniform(-1.0, 1.0 - 1e-3) for _ in range(n)])
        record = od.simulate(x0, schedule, od.StubbornPositive(),
                             od.StopRule(max_steps=10**5, consensus_epsilon=1e-9),
                             keep_states=False)
        assert record.stop_reason == "consensus", (
            f"trial {trial}: {record.stop_reason} spread={record.spreads[-1]:.2e}")
        worst_steps = max(worst_steps, record.steps)
        try:
            rate = od.estimate_rate(record)
            if rate.rho < 1.0 and rate.r_squared > 0.95:
                fits_ok += 1
        except od.PreconditionError:
            pass
    ok = fits_ok >= 190
    report("criterion 04", ok,
           f"200/200 consensus within 1e5 steps (worst {worst_steps}); "
           f"geometric fits {fits_ok}/200")
    assert fits_ok >= 190


# ---------------------------------------------------------------------------
# 5. Stubborn positives at the extremes (iff behavior)
# ---------------------------------------------------------------------------

def test_criterion_05a_single_pinned_agent_drags_everyone_to_one():
    worst_gap = 0.0
    for trial in range(50):
        rng = trial_rng(105, trial)
        n = 3 + rng.randrange(4)
        w = random_matrix(n, rng, edge_probability=0.8)
        x0 = np.array([rng.uniform(-1.0, 1.0 - 1e-3) for _ in range(n)])
        x0[rng.randrange(n)] = 1.0
        record = od.simulate(x0, od.StaticSchedule(w), od.StubbornPositive(),
                             od.StopRule(max_steps=10**6, consensus_epsilon=NEVER,
                                         target=1.0, target_epsilon=1e-4),
                             keep_states=False)
        gap = float(np.abs(record.final_state - 1.0).max())
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-4, f"trial {trial}: gap {gap:.2e} after {record.steps} steps"
    report("criterion 05a", True, f"50 trials within 1e-4 of +1 (worst gap {worst_gap:.2e})")


def test_criterion_05b_unanimous_negative_extreme_is_fixed_exactly():
    for trial in range(50):
        rng = trial_rng(106, trial)
        n = 2 + rng.randrange(7)
        w = random_valid_matrix(n, rng)
        x = np.full(n, -1.0)
        for _ in range(100):
            x = od.step(x, w, od.StubbornPositive())
        assert np.all(x == -1.0), f"trial {trial}: drifted to {x}"
    report("criterion 05b", True, "50 trials pinned at -1 exactly over 100 steps")


def test_criterion_05c_no_agent_at_extremes_keeps_limit_off_minus_one():
    worst = 1.0
    for trial in range(50):
        rng = trial_rng(107, trial)
        n = 3 + rng.randrange(6)
        schedule = od.StaticSchedule(random_matrix(n, rng))
        x0 = np.array([rng.uniform(-1.0 + 1e-3, 1.0 - 1e-3) for _ in range(n)])
        record = od.simulate(x0, schedule, od.StubbornPositive(),
                             od.StopRule(max_steps=10**5, consensus_epsilon=1e-9),
                             keep_states=False)
        assert record.stop_reason == "consensus"
        value = float(record.final_state.mean())
        worst = min(worst, value + 1.0)
        assert value > -1.0 + 1e-6, f"trial {trial}: limit {value}"
    report("criterion 05c", True, f"50 trials, limit cleared -1 by at least {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. Stubborn neutrals with one-signed populations
# ---------------------------------------------------------------------------

def test_criterion_06_one_signed_neutral_populations():
    for sign in (1.0, -1.0):
        for trial in range(200):
            rng = trial_rng(108 if sign > 0 else 109, trial)
            n = 3 + rng.randrange(6)
            schedule = (od.StaticSchedule(random_matrix(n, rng))
                        if rng.random() < 0.6 else random_periodic_schedule(n, rng))
            x0 = sign * np.array([rng.uniform(1e-2, 1.0) for _ in range(n)])
            record = od.simulate(x0, schedule, od.StubbornNeutral(),
                                 od.StopRule(max_steps=10**6, consensus_epsilon=1e-9),
                                 keep_states=False)
            assert record.stop_reason == "consensus", f"sign {sign} trial {trial}"
            value = float(record.final_state.mean())
            if sign > 0:
                assert 0.0 < value <= 1.0, f"trial {trial}: {value}"
            else:
                assert -1.0 <= value < 0.0, f"trial {trial}: {value}"
            assert abs(value) < 1.0 - 1e-6, f"interior start pinned: {value}"
    for trial in range(50):
        rng = trial_rng(110, trial)
        n = 2 + rng.randrange(7)
        w = random_valid_matrix(n, rng)
        ones = np.full(n, 1.0)
        minus = np.full(n, -1.0)
        for _ in range(100):
            ones = od.step(ones, w, od.StubbornNeutral())
            minus = od.step(minus, w, od.StubbornNeutral())
        assert np.all(ones == 1.0) and np.all(minus == -1.0)
    report("criterion 06", True,
           "400 one-signed trials in the open intervals; unanimous extremes pinned exactly")


# ---------------------------------------------------------------------------
# 7. Zero-pinned stubborn neutrals reach the pinned zero (epsilon from the floor)
# ---------------------------------------------------------------------------

ZERO_PIN_EPSILON = 2e-2
# Fewest steps the floor allows from m = 1/4 down to ZERO_PIN_EPSILON (~497).
ZERO_PIN_FLOOR_STEPS = (ZERO_PIN_EPSILON**-2 - 4.0**2) / 5.0


def test_criterion_07_zero_pinned_neutral_reaches_1e6_tolerance():
    kind = od.StubbornNeutral()
    eps = ZERO_PIN_EPSILON
    steps = []
    smallest_margin = 1.0
    for trial in range(200):
        rng = trial_rng(111, trial)
        n = 3 + rng.randrange(6)
        schedule = od.StaticSchedule(random_matrix(n, rng))
        x0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
        x0[0] = 0.0
        x0[1] = rng.uniform(0.1, 1.0)       # guarantee mixed signs around the zero
        x0[2] = -rng.uniform(0.1, 1.0)
        assert od.classify_limit(x0, kind, rjsc=True).outcome is od.Outcome.CONSENSUS_AT_ZERO
        record = od.simulate(x0, schedule, kind,
                             od.StopRule(max_steps=10**6, consensus_epsilon=NEVER,
                                         target=0.0, target_epsilon=eps),
                             keep_states=False)
        peak = float(np.abs(record.final_state).max())
        spread = float(record.spreads[-1])
        assert record.stop_reason == "target", (
            f"trial {trial}: {record.stop_reason} max|x|={peak:.2e} at t={record.steps}")
        assert peak < eps and spread < 2 * eps, f"trial {trial}: {peak:.2e} {spread:.2e}"
        assert record.final_state[0] == 0.0, (
            f"trial {trial}: pin moved to {float(record.final_state[0])!r}")
        m = np.maximum(record.maxs, -record.mins)
        rose = np.diff(m) > 0.0
        assert not rose.any(), f"trial {trial}: max|x| rose at t={np.argmax(rose) + 1}"
        prev, nxt = m[:-1], m[1:]
        floor = prev - 2.0 * prev**3
        short = nxt < floor - 4.0 * np.spacing(prev)
        assert not short.any(), (
            f"trial {trial}: max|x| fell below the floor m - 2m^3 at t={np.argmax(short) + 1}")
        # Share of the allowed drop 2m^3 that the fastest step left unused.
        smallest_margin = min(smallest_margin, float(1.0 - ((prev - nxt) / (2.0 * prev**3)).max()))
        steps.append(record.steps)
    report("criterion 07", True,
           f"200/200 reached |x| < {eps:g} around the exact zero pin in "
           f"{min(steps)}/{int(np.median(steps))}/{max(steps)} steps (min/median/max; "
           f"the floor needs >= {ZERO_PIN_FLOOR_STEPS:.0f} from m = 1/4, horizon 1e6); "
           f"smallest floor margin {smallest_margin:.0%} of 2m^3")


# ---------------------------------------------------------------------------
# 8. Fixed-graph averaging oracle against long-run simulation
# ---------------------------------------------------------------------------

def test_criterion_08_averaging_oracle():
    worst_diff = 0.0
    worst_residual = 0.0
    for trial in range(100):
        rng = trial_rng(112, trial)
        n = 3 + rng.randrange(8)
        w = random_matrix(n, rng, edge_probability=0.3)
        x0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
        c = od.stationary_weights(w)
        assert np.all(c > 0.0), f"trial {trial}: nonpositive stationary weight"
        residual = float(np.abs(w.entries.T @ c - c).max())
        worst_residual = max(worst_residual, residual)
        value = float(c @ x0)
        record = od.simulate(x0, od.StaticSchedule(w), od.DeGroot(),
                             od.StopRule(consensus_epsilon=1e-12), keep_states=False)
        diff = abs(value - float(record.final_state.mean()))
        worst_diff = max(worst_diff, diff)
        assert diff <= 1e-8, f"trial {trial}: oracle off by {diff:.2e}"
    ok = worst_residual <= 1e-12
    report("criterion 08", ok,
           f"100 matrices, worst |oracle - simulation| {worst_diff:.2e}, "
           f"worst residual {worst_residual:.2e}")
    assert worst_residual <= 1e-12


# ---------------------------------------------------------------------------
# 9. Same-inputs comparison of plain averaging vs stubborn positives
# ---------------------------------------------------------------------------

def test_criterion_09_thirty_agent_comparison(tmp_path):
    t0 = time.perf_counter()
    document = {
        "schema": 1,
        "name": "crowd30",
        "n": 30,
        "x0": {"uniform": [0.0, 1.0]},
        "schedule": {"kind": "static", "generated": {"edge_probability": 0.25}},
        "susceptibility": "stubborn_positive",
        "stop": {"max_steps": 10**5, "consensus_epsilon": 1e-9},
        "seed": 3909,
    }
    scenario = od.load_scenario(json.dumps(document))
    records = od.run_comparison(scenario)
    paths = {}
    for kind_name, record in records.items():
        assert record.spreads[-1] < 1e-9, f"{kind_name} spread {record.spreads[-1]:.2e}"
        paths[kind_name] = tmp_path / f"{kind_name}.csv"
        od.write_trajectory_csv(record, paths[kind_name])
    first_rows = [p.read_text().splitlines()[1] for p in paths.values()]
    assert first_rows[0] == first_rows[1], "t=0 rows must match bit for bit"
    values = {k: float(r.final_state.mean()) for k, r in records.items()}
    difference = abs(values["degroot"] - values["stubborn_positive"])
    elapsed = time.perf_counter() - t0
    ok = difference > 1e-3 and elapsed < 10.0
    report("criterion 09", ok,
           f"degroot {values['degroot']:.4f} vs stubborn_positive "
           f"{values['stubborn_positive']:.4f} (diff {difference:.3f}), {elapsed:.1f}s")
    assert difference > 1e-3
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 10. Bit-identical reruns under a fixed seed
# ---------------------------------------------------------------------------

def _determinism_documents():
    docs = []
    rng = trial_rng(113, 0)
    for k in range(20):
        n = 3 + rng.randrange(5)
        kind = ("degroot", "stubborn_positive", "stubborn_neutral",
                "stubborn_extremist")[k % 4]
        if k % 3 == 0:
            schedule = {"kind": "static", "generated": {"edge_probability": 0.5}}
        elif k % 3 == 1:
            mats = [random_matrix(n, rng, 0.5).entries.tolist() for _ in range(2)]
            schedule = {"kind": "periodic", "matrices": mats}
        else:
            pool = [random_matrix(n, rng, 0.5).entries.tolist() for _ in range(3)]
            schedule = {"kind": "random", "pool": pool}
        x0 = ({"uniform": [-0.9, 0.9]} if k % 2 == 0
              else [round(rng.uniform(-1.0, 1.0), 6) for _ in range(n)])
        docs.append({
            "schema": 1,
            "name": f"det{k:02d}",
            "n": n,
            "x0": x0,
            "schedule": schedule,
            "susceptibility": kind,
            "stop": {"max_steps": 300, "consensus_epsilon": 1e-9},
            "seed": 5000 + k,
        })
    return docs


def test_criterion_10_determinism(tmp_path):
    for k, document in enumerate(_determinism_documents()):
        scenario = od.load_scenario(json.dumps(document))
        digests = []
        for rerun in range(2):
            record, _ = od.run_scenario(scenario)
            path = tmp_path / f"{k}_{rerun}.csv"
            od.write_trajectory_csv(record, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1], f"scenario {k} not reproducible"
    # two of them exercised end to end through the command line as well
    for k, document in enumerate(_determinism_documents()[:2]):
        scenario_path = tmp_path / f"cli{k}.json"
        scenario_path.write_text(json.dumps(document))
        digests = []
        for rerun in range(2):
            out = tmp_path / f"cli{k}_{rerun}"
            assert cli_main(["simulate", str(scenario_path), "--out", str(out)]) == 0
            csv = out / f"det{k:02d}.trajectory.csv"
            digests.append(hashlib.sha256(csv.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
    report("criterion 10", True, "20 scenarios re-ran bit-identically (2 via the CLI)")
