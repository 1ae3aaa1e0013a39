"""Shared seeded generators for randomized trials.

Everything here is deterministic in the trial index, so failures
reproduce exactly.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import opdyn as od
from opdyn.rng import _MIX1, _MIX2, SplitMix64, derive_seed

# Effectively disables the consensus stop without violating epsilon > 0.
NEVER = 1e-300

ALL_KINDS = (
    od.DeGroot(),
    od.StubbornPositive(),
    od.StubbornNeutral(),
    od.StubbornExtremist(),
)


def bench_workloads():
    """The benchmark's ``workloads`` module, which generates its documents."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def trial_rng(family: int, trial: int) -> SplitMix64:
    return SplitMix64(derive_seed(family, trial))


def random_matrix(n: int, rng: SplitMix64, edge_probability: float = 0.4) -> od.WeightMatrix:
    return od.random_strongly_connected_matrix(n, rng, edge_probability)


def unmix64(z: int) -> int:
    """The inverse of ``mix64``: each multiplication undone by the
    constant's inverse mod 2^64, each ``z ^= z >> s`` by repeated shifts."""
    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x
    z = unshift(z, 31)
    z = z * pow(_MIX2, -1, 2**64) % 2**64
    z = unshift(z, 27)
    z = z * pow(_MIX1, -1, 2**64) % 2**64
    return unshift(z, 30)


def reference_shuffle(items: list, rng: SplitMix64) -> None:
    """Fisher-Yates through ``randrange``, one call per swap;
    ``SplitMix64.shuffle`` must leave the same items and state."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def reference_generated_matrix(n: int, rng: SplitMix64, edge_probability: float):
    """``random_strongly_connected_matrix`` drawn draw by draw: the cycle's
    shuffle through ``randrange``, one ``random() < edge_probability`` per
    off-diagonal entry in row-major order, then one ``1.0 + random()`` per
    support entry in row-major order. Rows are divided by their dense row
    sums. Returns the entries and the smallest nonzero."""
    order = list(range(n))
    reference_shuffle(order, rng)
    support = np.eye(n, dtype=bool)
    for k in range(n):
        support[order[(k + 1) % n], order[k]] = True
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_probability:
                support[i, j] = True
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if support[i, j]:
                entries[i, j] = 1.0 + rng.random()
    entries /= entries.sum(axis=1, keepdims=True)
    return entries, float(entries[entries > 0].min())


def random_valid_matrix(n: int, rng: SplitMix64, edge_probability: float = 0.4) -> od.WeightMatrix:
    """Valid weight matrix with arbitrary support (not necessarily
    strongly connected): self-loops plus independent extra arcs."""
    entries = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_probability:
                entries[i, j] = 1.0 + rng.random()
    entries /= entries.sum(axis=1, keepdims=True)
    return od.WeightMatrix(entries, beta=float(entries[entries > 0].min()))


def reference_violations(entries, beta: float) -> tuple[od.Violation, ...]:
    """Reference validator: the weight rules checked with per-row Python
    loops, violations in clause order (row sums, entry floor, zero
    diagonal), each clause in row-major order. The ``violations`` of the
    ``ValidationError`` that ``WeightMatrix`` raises must be the same."""
    arr = np.asarray(entries, dtype=float)
    n = arr.shape[0]
    found: list[od.Violation] = []
    row_sums = arr.sum(axis=1)
    for i in range(n):
        if abs(row_sums[i] - 1.0) > od.graph.ROW_SUM_TOL:
            found.append(od.Violation(
                "row_sum", (i,), f"row sums to {float(row_sums[i])!r}, expected 1"))
    bad = (arr != 0.0) & (arr < beta)
    for i, j in zip(*np.nonzero(bad)):
        found.append(od.Violation(
            "entry_floor", (int(i), int(j)),
            f"nonzero entry {float(arr[i, j])!r} below floor {float(beta)!r}"))
    for i in range(n):
        if arr[i, i] == 0.0:
            found.append(od.Violation(
                "zero_diagonal", (i,), "agent must keep a self-weight"))
    return tuple(found)


def gap_form_step(x, matrix: od.WeightMatrix, kind: od.SusceptibilityKind) -> np.ndarray:
    """Reference update in the agent-wise gap form, built on an n x n gap
    array: ``x_i + f_i * sum_j w_ij (x_j - x_i)``. The library's kernel
    sums in another order and must agree with this to within rounding."""
    x = np.asarray(x, dtype=float)
    f = np.clip(kind.values(x), 0.0, 1.0)
    gaps = np.einsum("ij,ij->i", matrix.entries, x[None, :] - x[:, None])
    return x + f * gaps


def reference_simulate(x0, schedule: od.GraphSchedule, kind: od.SusceptibilityKind,
                       stop: od.StopRule, keep_states: bool = True) -> od.TrajectoryRecord:
    """Reference loop: the simulation loop and kernel as they were before
    the kernel reported its own extremes, verbatim. Each state's min and max
    are taken at the top of the loop, the susceptibilities are clipped to
    [0, 1], every step is clamped to the previous extremes, and the target
    stop tests ``max |x - target|``. ``clamp_steps`` counts the recorded
    steps whose unclamped update left those extremes. ``simulate`` must
    match this bit for bit, up to the sign of a zero."""
    x = od.opinion_vector(x0).copy()
    target = stop.target
    mins: list[float] = []
    maxs: list[float] = []
    states: list[np.ndarray] = []
    reason = "max_steps"
    t = clamp_steps = 0
    fired = False
    while True:
        mn = float(x.min())
        mx = float(x.max())
        if mx != mx:
            reason = "non_finite"
            x = finite
            break
        clamp_steps += fired
        mins.append(mn)
        maxs.append(mx)
        if keep_states:
            states.append(x)
        if mx - mn < stop.consensus_epsilon:
            reason = "consensus"
            break
        if target is not None and float(np.abs(x - target).max()) < stop.target_epsilon:
            reason = "target"
            break
        if t == stop.max_steps:
            reason = "max_steps"
            break
        matrix = schedule.matrix_at(t)
        finite = x
        f = np.minimum(kind.values(x), 1.0)
        np.maximum(f, 0.0, out=f)
        d = x - x[0]
        u = matrix.matvec(d)
        u -= d
        u *= f
        u += x
        fired = bool(np.any(u < mn) or np.any(u > mx))
        np.minimum(u, mx, out=u)
        np.maximum(u, mn, out=u)
        x = u
        t += 1
    return od.TrajectoryRecord(
        mins=np.array(mins),
        maxs=np.array(maxs),
        final_state=x,
        stop_reason=reason,
        states=np.array(states) if keep_states else None,
        clamp_steps=clamp_steps,
    )


SPIKE_AT = 0.3001  # between the 1e-3 probe points of a Custom kind


def nan_spike_kind() -> od.Custom:
    """``x**2`` except NaN within 1e-5 of ``SPIKE_AT``, which falls between
    the 1e-3 probe points, so construction accepts it."""
    return od.Custom(lambda x: np.where(np.abs(x - SPIKE_AT) < 1e-5, np.nan, x * x), "nan_spike")


def overshoot_spike_kind() -> od.Custom:
    """``x**2`` except 1.5 within 1e-5 of ``SPIKE_AT``: it passes the range
    probe, and only clipping keeps its values in [0, 1]."""
    return od.Custom(lambda x: np.where(np.abs(x - SPIKE_AT) < 1e-5, 1.5, x * x), "overshoot")


def random_opinions(n: int, rng: SplitMix64, pin_extremes: bool = False) -> np.ndarray:
    """Uniform opinions; with ``pin_extremes``, some entries are set to
    exactly -1, 0, or +1 to exercise the boundary arithmetic."""
    x = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
    if pin_extremes and rng.random() < 0.5:
        k = rng.randrange(n)
        x[k] = (-1.0, 0.0, 1.0)[rng.randrange(3)]
    return x


def random_kind(n: int, rng: SplitMix64) -> od.SusceptibilityKind:
    pick = rng.randrange(5)
    if pick < 4:
        return ALL_KINDS[pick]
    return od.Constant(tuple(rng.random() for _ in range(n)))


def half_cycle_matrices(n: int, rng: SplitMix64) -> list[od.WeightMatrix]:
    """Two matrices that are only JOINTLY strongly connected: each carries
    half of a random full cycle (plus self-loops)."""
    order = list(range(n))
    rng.shuffle(order)
    mats = []
    for half in (range(0, n // 2), range(n // 2, n)):
        entries = np.eye(n)
        for k in half:
            a, b = order[k], order[(k + 1) % n]
            entries[b, a] = 1.0 + rng.random()
        entries /= entries.sum(axis=1, keepdims=True)
        mats.append(od.WeightMatrix(entries, beta=float(entries[entries > 0].min())))
    return mats


def random_periodic_schedule(n: int, rng: SplitMix64) -> od.PeriodicSchedule:
    """Periodic schedule over 2-3 matrices, repeatedly jointly strongly
    connected by construction (jointly-only half-cycles, or individually
    strongly connected members)."""
    if rng.random() < 0.5:
        mats = half_cycle_matrices(n, rng)
    else:
        mats = [random_matrix(n, rng) for _ in range(2 + rng.randrange(2))]
    return od.PeriodicSchedule(tuple(mats))


def verify_by_window(schedule: od.GraphSchedule, p: int, q: int, horizon=None) -> bool:
    """Reference window check: the same window starts as
    ``verify_repeated_joint_connectivity``, with a fresh union and a fresh
    Floyd-Warshall closure for every window of p steps and nothing
    remembered between windows. A static or periodic schedule takes no
    horizon and is checked over one full cycle of window starts; a random
    one over the windows that end by ``horizon``."""
    if p < 1 or q < 1:
        raise od.PreconditionError(f"window parameters must satisfy p,q >= 1, got p={p} q={q}")
    if not isinstance(schedule, od.RandomSchedule):
        if horizon is not None:
            raise od.PreconditionError("a static or periodic schedule takes no horizon")
        period = len(schedule.pool)
        count = period // math.gcd(p, period)
    elif horizon is None or horizon < q + p - 1:
        raise od.PreconditionError(f"horizon {horizon} shorter than the first window")
    else:
        count = (horizon - (q + p - 1)) // p + 1
    starts = [q + k * p for k in range(count)]
    return all(
        floyd_warshall_strongly_connected(
            arc_support([schedule.matrix_at(t) for t in range(s, s + p)]))
        for s in starts)


def arc_support(matrices) -> np.ndarray:
    """Boolean arc array of the union of the matrices' graphs under the
    information-flow convention: ``support[j, i]`` when ``w_ij != 0``."""
    return np.logical_or.reduce([m.entries.T != 0 for m in matrices])


def matrix_of_arcs(n: int, arcs, scale: float = 1.0) -> od.WeightMatrix:
    """Valid matrix whose graph holds the arcs ``(j, i)``, meaning agent
    ``i`` listens to ``j``, plus every self-loop: weight 1 on the diagonal
    and ``scale`` on each arc, rows normalised."""
    entries = np.eye(n)
    for j, i in arcs:
        if i != j:
            entries[i, j] = scale
    entries /= entries.sum(axis=1, keepdims=True)
    return od.WeightMatrix(entries, beta=float(entries[entries > 0].min()))


def floyd_warshall_closure(support: np.ndarray) -> np.ndarray:
    """Independent reachability oracle on a boolean arc array
    (``support[i, j]`` for the arc ``i -> j``): the reflexive-transitive
    closure, ``reach[i, j]`` when a path runs from ``i`` to ``j``."""
    reach = support | np.eye(support.shape[0], dtype=bool)
    for k in range(reach.shape[0]):
        reach |= reach[:, k, None] & reach[k]  # paths through k
    return reach


def floyd_warshall_strongly_connected(support: np.ndarray) -> bool:
    return bool(floyd_warshall_closure(support).all())


def write_trajectory_csv_by_value(record: od.TrajectoryRecord, path) -> None:
    """Reference CSV writer that formats value by value; the library's
    writer must produce the same bytes."""
    n = record.n
    header = "t," + ",".join(f"x_{i + 1}" for i in range(n)) + ",spread"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        spreads = record.spreads
        for t in range(record.states.shape[0]):
            row = ",".join(f"{v:.17g}" for v in record.states[t])
            fh.write(f"{t},{row},{spreads[t]:.17g}\n")


def exact_stationary_weights(counts, denominator: int) -> list[Fraction]:
    """The left fixed vector of ``counts / denominator`` summing to 1, by
    Gaussian elimination over the rationals on ``(W^T - I) c = 0`` with the
    last equation replaced by ``sum c = 1``."""
    n = len(counts)
    rows = [[Fraction(int(counts[j][i]), denominator) - (i == j) for j in range(n)] + [Fraction(0)]
            for i in range(n - 1)]
    rows.append([Fraction(1)] * (n + 1))
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]
