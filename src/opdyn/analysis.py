"""Trajectory checks, limit prediction, and the fixed-graph averaging oracle.

The limit classifier encodes what is provable about each susceptibility
kind from the initial opinions alone, assuming the schedule satisfies the
repeated joint strong connectivity hypothesis. Where the theory is silent
(mixed-sign stubborn neutrals, the constant and extremist kinds) it says
``UNKNOWN`` rather than guessing; simulation remains available for those
regimes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreconditionError
from .dynamics import (
    StubbornNeutral,
    StubbornPositive,
    SusceptibilityKind,
    TrajectoryRecord,
    _check_dims,
    opinion_vector,
)
from .graph import WeightMatrix, is_strongly_connected

LEMMA_SLACK = 1e-12
RATE_SPREAD_FLOOR = 100.0 * np.finfo(float).eps
STATIONARY_TOL = 1e-12
STATIONARY_MAX_ITERATIONS = 200_000


# ---------------------------------------------------------------------------
# Trajectory sanity: interval containment and monotone extremes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport:
    """First violating step index per clause, or None when clean.

    ``interval_step``: a state left [-1, 1] (beyond ``LEMMA_SLACK``) at
    that index.
    ``min_step``: the running minimum decreased entering that index.
    ``max_step``: the running maximum increased entering that index.
    """

    interval_step: Optional[int]
    min_step: Optional[int]
    max_step: Optional[int]

    @property
    def ok(self) -> bool:
        return self.interval_step is None and self.min_step is None and self.max_step is None


def check_lemmas(record: TrajectoryRecord) -> LemmaReport:
    """Check interval invariance and monotone extremes on a trajectory,
    each clause up to ``LEMMA_SLACK``.

    Any trajectory produced by ``simulate`` passes; the checks exist to
    catch forged or externally loaded records and to act as a regression
    tripwire over the update rule itself.
    """
    if len(record.mins) < 1:
        raise PreconditionError("empty trajectory")
    inside = (record.mins >= -1.0 - LEMMA_SLACK) & (record.maxs <= 1.0 + LEMMA_SLACK)
    bad = np.nonzero(~inside)[0]  # a NaN state is not inside
    interval_step = int(bad[0]) if bad.size else None
    dmin = np.nonzero(np.diff(record.mins) < -LEMMA_SLACK)[0]
    min_step = int(dmin[0] + 1) if dmin.size else None
    dmax = np.nonzero(np.diff(record.maxs) > LEMMA_SLACK)[0]
    max_step = int(dmax[0] + 1) if dmax.size else None
    return LemmaReport(interval_step, min_step, max_step)


# ---------------------------------------------------------------------------
# Limit classification from initial conditions
# ---------------------------------------------------------------------------

class Outcome(enum.Enum):
    CONSENSUS_AT_ONE = "consensus_at_one"
    CONSENSUS_AT_MINUS_ONE = "consensus_at_minus_one"
    CONSENSUS_AT_ZERO = "consensus_at_zero"
    CONSENSUS_AT_VALUE = "consensus_at_value"
    CONSENSUS_IN_OPEN_INTERVAL = "consensus_in_open_interval"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class LimitClassification:
    """Predicted limit with the rule that produced it.

    ``value`` is set for the point outcomes, ``interval`` for the open
    interval outcome; ``basis`` names the applied rule.
    """

    outcome: Outcome
    basis: str
    value: Optional[float] = None
    interval: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.outcome is Outcome.CONSENSUS_IN_OPEN_INTERVAL:
            lo, hi = self.interval
            if not lo < hi:
                raise PreconditionError(f"degenerate interval ({lo}, {hi})")


def _exact_point(value: float, basis: str) -> LimitClassification:
    """A consensus at ``value``, named when it is +1, -1 or 0 (a -0.0 as 0.0)."""
    for outcome, point in ((Outcome.CONSENSUS_AT_ONE, 1.0), (Outcome.CONSENSUS_AT_MINUS_ONE, -1.0),
                           (Outcome.CONSENSUS_AT_ZERO, 0.0)):
        if value == point:
            return LimitClassification(outcome, basis, value=point)
    return LimitClassification(Outcome.CONSENSUS_AT_VALUE, basis, value=value)


def classify_limit(x0, kind: SusceptibilityKind, rjsc: bool) -> LimitClassification:
    """Predict the consensus limit from the initial opinions.

    ``rjsc`` declares that the schedule satisfies repeated joint strong
    connectivity (verify it upstream); without it only the trivial
    all-equal case is decidable, since a consensus state is a fixed point
    under any weights.

    Stubborn positives: a single agent at +1 drags everyone to +1; all
    agents at -1 stay there; otherwise the limit is a consensus strictly
    inside (-1, 1). Stubborn neutrals: an agent at 0 pins the consensus to
    0; a one-signed population keeps its sign, reaching the extreme only
    from a unanimous extreme start; mixed signs without a zero depend on
    the graph as well as the values, so no prediction is made. Kinds with
    no limit theory classify as UNKNOWN, and so does a subclass of the
    paper's kinds, which may change f: a kind is one of them only by exact
    class, as in ``_BUILT_IN_KINDS``.
    """
    x = opinion_vector(x0)
    lo = float(x.min())
    hi = float(x.max())

    if lo == hi:
        return _exact_point(lo, "all_initial_equal")
    if not rjsc:
        return LimitClassification(Outcome.UNKNOWN, "connectivity_not_established")

    if type(kind) is StubbornPositive:
        if hi == 1.0:
            return _exact_point(1.0, "stubborn_positive/agent_pinned_at_one")
        return LimitClassification(
            Outcome.CONSENSUS_IN_OPEN_INTERVAL,
            "stubborn_positive/all_strictly_below_one",
            interval=(-1.0, 1.0))

    if type(kind) is StubbornNeutral:
        if np.any(x == 0.0):
            return _exact_point(0.0, "stubborn_neutral/zero_pinning")
        if lo > 0.0:
            return LimitClassification(
                Outcome.CONSENSUS_IN_OPEN_INTERVAL,
                "stubborn_neutral/all_positive",
                interval=(0.0, 1.0))
        if hi < 0.0:
            return LimitClassification(
                Outcome.CONSENSUS_IN_OPEN_INTERVAL,
                "stubborn_neutral/all_negative",
                interval=(-1.0, 0.0))
        return LimitClassification(
            Outcome.UNKNOWN, "stubborn_neutral/mixed_signs_graph_dependent")

    return LimitClassification(Outcome.UNKNOWN, f"no_limit_rule/{kind.name}")


# ---------------------------------------------------------------------------
# Fixed-graph averaging oracle
# ---------------------------------------------------------------------------

def stationary_weights(matrix: WeightMatrix) -> np.ndarray:
    """Normalized left fixed vector ``c`` of a strongly connected matrix:
    ``c @ W == c``, ``c.sum() == 1``, entrywise positive.

    Raises ``PreconditionError`` unless ``is_strongly_connected(matrix)``,
    which decides it from the matrix's own products, as the iteration
    does. Power iteration on the transpose from the uniform vector,
    returned once its residual ``max |W^T c - c|`` is at most
    ``STATIONARY_TOL``; the positive diagonal of a valid matrix rules out
    periodicity, so it converges for every strongly connected input. A
    slowly mixing graph (a directed ring of several hundred agents) can
    need more than ``STATIONARY_MAX_ITERATIONS`` steps; then ``c`` is the
    dense solve of ``(W^T - I) c = 0`` with one equation replaced by
    ``sum c = 1``, which is nonsingular for a strongly connected ``W``
    (its residual is rounding, 1.4e-16 on a 650-agent ring).
    """
    if not is_strongly_connected(matrix):
        raise PreconditionError("matrix graph is not strongly connected")
    c = np.full(matrix.n, 1.0 / matrix.n)
    for _ in range(STATIONARY_MAX_ITERATIONS):
        image = matrix.rmatvec(c)
        if float(np.abs(image - c).max()) <= STATIONARY_TOL:
            return c
        c = image / image.sum()
    system = matrix.entries.T - np.eye(matrix.n)
    system[-1] = 1.0
    unit = np.zeros(matrix.n)
    unit[-1] = 1.0
    return np.linalg.solve(system, unit)


def degroot_consensus_value(matrix: WeightMatrix, x0) -> float:
    """Exact limit of plain averaging on a fixed strongly connected graph:
    the influence-weighted mean ``c @ x0`` with ``c`` the stationary
    weights of the matrix."""
    x = opinion_vector(x0)
    _check_dims(x, matrix)
    return float(stationary_weights(matrix) @ x)


# ---------------------------------------------------------------------------
# Convergence rate estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateEstimate:
    """Fitted per-step spread contraction ``rho`` and the fit quality."""

    rho: float
    r_squared: float


def estimate_rate(record: TrajectoryRecord) -> RateEstimate:
    """Least-squares geometric rate of spread decay.

    Fits ln(spread) against the step index over the steps whose spread is
    above ``RATE_SPREAD_FLOOR`` (anything lower is float noise, not
    signal) and reports ``rho = exp(slope)``. Requires at least 10 usable
    steps. Spread is nonincreasing, so rho is capped at 1; values near 1
    flag the sub-geometric regimes near pinned extremes.
    """
    spreads = record.spreads
    usable = np.nonzero(spreads > RATE_SPREAD_FLOOR)[0]
    if usable.size < 10:
        raise PreconditionError(
            f"insufficient usable steps for a rate fit: {usable.size} above floor")
    t = usable.astype(float)
    y = np.log(spreads[usable])
    del spreads, usable  # not held through np.polyfit, whose temporaries set the peak
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateEstimate(rho=min(float(np.exp(slope)), 1.0), r_squared=r_squared)
