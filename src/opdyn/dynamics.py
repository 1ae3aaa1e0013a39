"""The opinion update and its simulation loop.

Opinions are scalars in [-1, 1]; +1 and -1 are the extreme positions and 0
is neutral. Each step, agent ``i`` moves toward the weighted average of
her neighbors' opinions by a fraction ``f_i(x_i)`` of the gap, where the
susceptibility ``f_i`` maps her own current opinion into [0, 1]:

    x_i(t+1) = x_i(t) + f_i(x_i(t)) * sum_j w_ij(t) * (x_j(t) - x_i(t))

Equivalently ``x(t+1) = S(x(t), t) x(t)`` with the row-stochastic one-step
matrix ``S = I - F + F W`` (``F`` diagonal of susceptibilities). Because
``W`` is row-stochastic, the gap sum equals ``(W d - d)_i`` for the shifted
state ``d = x - x_1``, and the update is computed as that shifted
matrix-vector product, clamped to ``[min x, max x]`` on the steps where
rounding carries it past them. The kernel's own min and max of the output
decide that, and drive the loop's stop tests:

  * shifting by ``x_1`` keeps exact fixed points exact in floating point:
    a consensus vector never moves, a fully stubborn agent (f = 0) never
    moves;
  * the clamp makes "opinions stay in [-1, 1], the min never falls, the
    max never rises" hold by construction, whatever order the BLAS sums in.

The product ``W d`` is ``WeightMatrix.matvec``: the dense array's, or,
for a matrix of at least 400 agents with at most 0.04 n**2 nonzeros, a
compressed-sparse-row product over the nonzeros alone, chosen once when
the matrix is built. The CSR product sums in another order, so runs on
such a matrix agree with the dense product only to within rounding
(measured at most 4.4e-16 per entry of ``W d``); the shift and the
clamp keep every guarantee above either way.

Reruns with one version of opdyn (and one numpy/BLAS build) are
bit-identical; trajectories agree with versions that used another
arithmetic (the earlier n x n gap form) only to within rounding. The
earlier kernel that clamped every step gave the same bits but could flip
a zero's sign (``-0.0`` became ``+0.0`` when ``max x`` was ``0.0``); no
step creates ``-0.0``, so only an initial state holding one shows this.

Susceptibility kinds:
  * ``DeGroot``            f = 1 (classic averaging)
  * ``Constant``           f = per-agent fixed openness in [0, 1]
  * ``StubbornPositive``   f = (1 - x) / 2 (immovable at +1, fully open at -1)
  * ``StubbornNeutral``    f = x**2       (immovable at 0, fully open at +-1)
  * ``StubbornExtremist``  f = 1 - x**2   (immovable at +-1; no limit theory)
  * ``Custom``             any vectorized f, range-checked on a fine grid

Each kind's ``values(x)`` gives the susceptibilities ``f(x)``, vectorized,
in [0, 1] for opinions in [-1, 1]: the built-in kinds map into it exactly
(rounding is monotone) and ``Custom`` clips. The result may be read-only.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    PreconditionError,
    ScheduleExhaustedError,
    ShapeError,
    ValidationError,
)
from .graph import GraphSchedule, WeightMatrix

OPINION_MIN = -1.0
OPINION_MAX = 1.0


def opinion_vector(values) -> np.ndarray:
    """Validate opinions into a read-only float array in [-1, 1]."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeError(f"opinion vector must be 1-D and nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("opinion vector contains non-finite entries")
    bad = np.nonzero((arr < OPINION_MIN) | (arr > OPINION_MAX))[0]
    if bad.size:
        k = int(bad[0])
        raise DomainError(f"x0[{k}]: value {float(arr[k])!r} outside [-1, 1]")
    out = arr.copy()
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Susceptibility kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeGroot:
    name = "degroot"

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.ones_like(x)


@dataclass(frozen=True)
class Constant:
    """Fixed per-agent openness, the state-independent special case."""

    openness: tuple[float, ...]
    name = "constant"

    def __post_init__(self):
        vals = tuple(float(v) for v in self.openness)
        if not vals:
            raise ValidationError("constant susceptibility needs at least one agent")
        for k, v in enumerate(vals):
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"openness[{k}]: value {v!r} outside [0, 1]")
        object.__setattr__(self, "openness", vals)
        arr = np.array(vals)
        arr.setflags(write=False)
        object.__setattr__(self, "_values", arr)

    def values(self, x: np.ndarray) -> np.ndarray:
        if len(self.openness) != x.shape[0]:
            raise ShapeError(
                f"openness has {len(self.openness)} agents, opinions have {x.shape[0]}")
        return self._values


@dataclass(frozen=True)
class StubbornPositive:
    name = "stubborn_positive"

    def values(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 - x)


@dataclass(frozen=True)
class StubbornNeutral:
    name = "stubborn_neutral"

    def values(self, x: np.ndarray) -> np.ndarray:
        return x * x


@dataclass(frozen=True)
class StubbornExtremist:
    name = "stubborn_extremist"

    def values(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - x * x


_PROBE_GRID = np.linspace(OPINION_MIN, OPINION_MAX, 2001)  # 1e-3 spacing


@dataclass(frozen=True, eq=False)
class Custom:
    """Extension point for user susceptibility functions.

    ``fn`` must be vectorized over a float array. Construction probes the
    function on a 1e-3 grid over [-1, 1] and rejects it unless every value
    lands in [0, 1]; there is no way to run an unchecked function.
    ``values`` clips to [0, 1], as the range between probe points is unproved.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    def __post_init__(self):
        probe = np.asarray(self.fn(_PROBE_GRID), dtype=float)
        if probe.shape != _PROBE_GRID.shape:
            raise ValidationError("custom susceptibility must map arrays elementwise")
        if not np.all(np.isfinite(probe)):
            raise ValidationError("custom susceptibility produced non-finite values")
        if probe.min() < 0.0 or probe.max() > 1.0:
            raise ValidationError(
                f"custom susceptibility leaves [0, 1] on the probe grid "
                f"(min {float(probe.min())!r}, max {float(probe.max())!r})")

    @property
    def name(self) -> str:
        return self.label

    def values(self, x: np.ndarray) -> np.ndarray:
        # np.minimum copies, so the in-place maximum never writes into what fn
        # returned (fn may return x itself)
        f = np.minimum(np.asarray(self.fn(x), dtype=float), 1.0)
        np.maximum(f, 0.0, out=f)
        return f


SusceptibilityKind = Union[
    DeGroot, Constant, StubbornPositive, StubbornNeutral, StubbornExtremist, Custom,
]


# ---------------------------------------------------------------------------
# One-step operators
# ---------------------------------------------------------------------------

def _check_dims(x: np.ndarray, matrix: WeightMatrix) -> None:
    if x.shape[0] != matrix.n:
        raise ShapeError(f"{x.shape[0]} opinions against a {matrix.n}-agent matrix")


def system_matrix(x, matrix: WeightMatrix, kind: SusceptibilityKind) -> np.ndarray:
    """One-step transition matrix ``S = I - F + F W`` at state ``x``.

    Built by scaling rows of ``W`` rather than materializing diagonal
    matrices. Row-stochastic and nonnegative whenever ``W`` is valid and
    ``x`` is in range.
    """
    xa = np.asarray(x, dtype=float)
    _check_dims(xa, matrix)
    f = kind.values(xa)
    s = f[:, None] * matrix.entries
    idx = np.arange(matrix.n)
    s[idx, idx] += 1.0 - f
    return s


def _advance(x: np.ndarray, matrix: WeightMatrix, kind: SusceptibilityKind,
             lo: float, hi: float) -> tuple[np.ndarray, float, float, bool]:
    """The update kernel: ``u = x + f * (W d - d)`` with ``d = x - x[0]``,
    clamped to ``[lo, hi]`` (the min and max of ``x``) only if it leaves it.

    Returns ``(u, min u, max u, clamped)``; ``x`` is not modified. A NaN
    step fails both range tests and comes back unclamped, extremes NaN.
    """
    f = kind.values(x)
    d = x - x[0]
    u = matrix.matvec(d)
    u -= d
    u *= f
    u += x
    mn, mx = float(u.min()), float(u.max())
    if mn < lo or mx > hi:
        np.minimum(u, hi, out=u)
        np.maximum(u, lo, out=u)
        return u, min(max(mn, lo), hi), max(min(mx, hi), lo), True
    return u, mn, mx, False


def step(x, matrix: WeightMatrix, kind: SusceptibilityKind) -> np.ndarray:
    """Advance opinions one step.

    Computes the gap sum ``sum_j w_ij (x_j - x_i)`` as the shifted
    matrix-vector product ``W d - d`` with ``d = x - x[0]``, clamped to
    ``[min x, max x]`` where rounding steps past them. Consensus states and
    zero-susceptibility agents stay exactly fixed in floating point, the
    extremes never widen, and the result agrees with
    ``system_matrix(x) @ x`` to within rounding. Raises ``DomainError``
    unless every opinion is in [-1, 1], where the kinds are defined.
    """
    xa = np.asarray(x, dtype=float)
    _check_dims(xa, matrix)
    lo, hi = float(xa.min()), float(xa.max())
    if not (OPINION_MIN <= lo and hi <= OPINION_MAX):
        raise DomainError(f"opinions span [{lo!r}, {hi!r}], outside [-1, 1]")
    return _advance(xa, matrix, kind, lo, hi)[0]


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StopRule:
    """When to stop a simulation.

    ``max_steps`` caps the transitions; it is an integer of at least 1
    (a bool is not), since the loop stops when the step count equals it.
    ``consensus_epsilon`` stops on spread (max - min) falling below it.
    ``target``/``target_epsilon`` stop once every opinion is within
    ``target_epsilon`` of a predicted limit; useful near the extremes,
    where convergence has no geometric rate and spread alone is a poor
    stopping signal.
    """

    max_steps: int = 10**6
    consensus_epsilon: float = 1e-9
    target: Optional[float] = None
    target_epsilon: Optional[float] = None

    def __post_init__(self):
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, numbers.Integral):
            raise ValidationError(f"max_steps must be an integer, got {self.max_steps!r}")
        if self.max_steps < 1:
            raise ValidationError(f"max_steps must be >= 1, got {self.max_steps}")
        if not self.consensus_epsilon > 0.0:
            raise ValidationError("consensus_epsilon must be positive")
        if (self.target is None) != (self.target_epsilon is None):
            raise ValidationError("target and target_epsilon come together")
        if self.target is not None:
            if not OPINION_MIN <= self.target <= OPINION_MAX:
                raise ValidationError(f"target {self.target!r} outside [-1, 1]")
            if not self.target_epsilon > 0.0:
                raise ValidationError("target_epsilon must be positive")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """States over time plus per-step diagnostics.

    ``states`` holds one row per recorded step (row 0 is the initial
    state); it is None when the simulation ran with ``keep_states=False``,
    in which case only the diagnostics and the final state remain.
    ``clamp_steps`` counts the steps on which the kernel's clamp fired.
    """

    mins: np.ndarray
    maxs: np.ndarray
    final_state: np.ndarray
    stop_reason: str
    states: Optional[np.ndarray] = None
    clamp_steps: int = 0

    @property
    def spreads(self) -> np.ndarray:
        """Per-step spread ``maxs - mins``."""
        return self.maxs - self.mins

    @property
    def steps(self) -> int:
        """Number of transitions taken."""
        return len(self.mins) - 1

    @property
    def n(self) -> int:
        return self.final_state.shape[0]

    @classmethod
    def from_states(cls, states, stop_reason: str = "unspecified") -> "TrajectoryRecord":
        """Build a record (diagnostics included) from raw state rows.

        Accepts arbitrary rows, including ones no simulation would
        produce; the lemma checks are meant to judge such forgeries.
        """
        arr = np.asarray(states, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ShapeError(f"states must be (steps+1, n), got shape {arr.shape}")
        return cls(
            mins=arr.min(axis=1),
            maxs=arr.max(axis=1),
            final_state=arr[-1].copy(),
            stop_reason=stop_reason,
            states=arr.copy(),
        )


def simulate(
    x0,
    schedule: GraphSchedule,
    kind: SusceptibilityKind,
    stop: Optional[StopRule] = None,
    keep_states: bool = True,
) -> TrajectoryRecord:
    """Iterate the opinion update until a stop condition fires.

    Stop reasons, in the order they are checked at each new state:
    ``"non_finite"`` (the step produced a NaN, say from a ``Custom``
    susceptibility; that state is not recorded, and the final state is
    the last finite one), ``"consensus"`` (spread below epsilon),
    ``"target"`` (all opinions within target_epsilon of the predicted
    limit), ``"max_steps"``, and ``"schedule_exhausted"`` for finite
    schedules that run out of matrices before any other condition fires
    (reported, never silent).

    The initial state is recorded as step 0, so an already-converged input
    yields a 0-transition record.
    """
    stop = stop or StopRule()
    x = opinion_vector(x0).copy()
    if x.shape[0] != schedule.n:
        raise ShapeError(f"{x.shape[0]} opinions against a {schedule.n}-agent schedule")
    # Fail fast on per-agent kinds of the wrong size.
    kind.values(x)

    target = stop.target
    mins: list[float] = []
    maxs: list[float] = []
    states: list[np.ndarray] = []
    reason = "max_steps"
    t = clamp_steps = 0
    mn, mx = float(x.min()), float(x.max())
    while True:
        if mx != mx:  # max propagates NaN, the one non-finite value a step can yield
            reason = "non_finite"
            x = finite
            break
        mins.append(mn)
        maxs.append(mx)
        if keep_states:
            states.append(x)  # _advance returns a fresh array each step
        if mx - mn < stop.consensus_epsilon:
            reason = "consensus"
            break
        # max |x_i - target|, bit for bit: rounding is monotone and sign-symmetric
        if target is not None and max(mx - target, target - mn) < stop.target_epsilon:
            reason = "target"
            break
        if t == stop.max_steps:
            reason = "max_steps"
            break
        try:
            matrix = schedule.matrix_at(t)
        except ScheduleExhaustedError:
            reason = "schedule_exhausted"
            break
        finite = x
        x, mn, mx, clamped = _advance(x, matrix, kind, mn, mx)
        clamp_steps += clamped
        t += 1

    return TrajectoryRecord(
        mins=np.array(mins),
        maxs=np.array(maxs),
        final_state=x,
        stop_reason=reason,
        states=np.array(states) if keep_states else None,
        clamp_steps=clamp_steps,
    )


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """Write ``t,x_1,...,x_n,spread`` rows at full double precision.

    Uses 17 significant digits, so every value round-trips bit-exactly,
    and a fixed newline so files hash identically across platforms.
    """
    if record.states is None:
        raise PreconditionError("trajectory was recorded without states; cannot write CSV")
    n = record.n
    header = "t," + ",".join(f"x_{i + 1}" for i in range(n)) + ",spread"
    row = ",".join(["%d"] + ["%.17g"] * (n + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for t, (state, spread) in enumerate(zip(record.states, record.spreads.tolist())):
            fh.write(row % (t, *state.tolist(), spread))
