"""Time-varying directed influence graphs, held as their weight matrices.

An influence matrix ``W`` is row-stochastic: ``w_ij`` is the weight agent
``i`` places on agent ``j``'s opinion. Its graph follows information
flow, which is the TRANSPOSE of the adjacency-matrix habit: ``w_ij > 0``
means agent ``j``'s opinion reaches agent ``i``, the arc ``j -> i``. Every
agent listens to herself, so a valid matrix has a positive diagonal and
its graph has all self-arcs. No separate graph object exists: strong
connectivity is decided by products with the matrices themselves.

Validity of a matrix is judged against a declared floor ``beta``: every
nonzero weight must be at least ``beta``. The floor is a user-supplied
validation parameter, never inferred from data.

A schedule gives a matrix for every step ``t >= 0``, without end, as the
paper's infinite graph sequences do; a run's length is bounded by its
stop rule alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import PreconditionError, ShapeError, ValidationError, _brief
from .rng import SplitMix64, indexed_choice

ROW_SUM_TOL = 1e-12


# ---------------------------------------------------------------------------
# Influence matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One violated validity clause.

    ``clause`` is one of ``"row_sum"``, ``"entry_floor"``, ``"zero_diagonal"``.
    ``index`` is the offending row ``(i,)`` or entry ``(i, j)``.
    """

    clause: str
    index: tuple
    detail: str

    def __str__(self) -> str:
        where = ",".join(str(k) for k in self.index)
        return f"{self.clause}[{where}]: {self.detail}"


class _CSR(NamedTuple):
    """Compressed sparse rows of a matrix (Saad, *Iterative Methods for
    Sparse Linear Systems*, 2003, ch. 3): the nonzeros in row-major order
    with their rows and columns, and the offset where each row starts."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    starts: np.ndarray


# Storage is chosen once per matrix: a CSR copy is kept when the matrix has
# at least _CSR_MIN_N agents and at most _CSR_MAX_DENSITY * n**2 nonzeros.
# In single-thread matvec timings (README, "Reproducibility") the dense
# product won or tied below _CSR_MIN_N at every density, and CSR never lost
# inside these bounds.
_CSR_MIN_N = 400
_CSR_MAX_DENSITY = 0.04


def _csr_or_none(arr: np.ndarray) -> Optional[_CSR]:
    """A CSR copy of the valid matrix ``arr`` when sparse storage pays
    off, else None. Every row holds its positive diagonal entry, so no
    segment that ``np.add.reduceat`` sums is empty.
    """
    n = arr.shape[0]
    if n < _CSR_MIN_N:
        return None
    support = arr != 0.0  # nonzero on a boolean array is several times faster
    if np.count_nonzero(support) > _CSR_MAX_DENSITY * n * n:
        return None
    rows, cols = np.divmod(np.flatnonzero(support), n)
    starts = np.searchsorted(rows, np.arange(n))
    return _CSR(rows, cols, arr[rows, cols], starts)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Row-stochastic influence matrix with its declared weight floor.

    Construction raises ``PreconditionError`` unless ``beta > 0``, and
    ``ShapeError`` on a non-square input or one with fewer than 2 agents,
    or naming the row and column of its first non-finite entry. Otherwise
    it checks every clause of the weight rules and raises
    ``ValidationError`` unless all hold; its ``violations`` holds every
    finding, clause by clause in this order, each in row-major order:

      * ``row_sum``: each row sums to 1 within ``ROW_SUM_TOL``;
      * ``entry_floor``: each entry is either exactly 0 or at least
        ``beta`` (negative entries fail this clause too);
      * ``zero_diagonal``: each diagonal entry is positive (an agent
        always hears herself).

    So every instance is valid. ``entries`` is kept as a read-only float
    copy.

    ``matvec`` and ``rmatvec`` compute ``W v`` and ``W^T v``. Construction
    decides, once, whether they run on the dense ``entries`` or on a CSR
    copy; a large sparse matrix gets the CSR copy, whose sums run in
    another order and so agree with the dense products to within rounding.
    :func:`is_strongly_connected` runs on the same products.
    """

    entries: np.ndarray
    beta: float

    def __post_init__(self):
        beta = self.beta
        if not beta > 0:  # NaN too
            raise PreconditionError(f"beta must be positive, got {beta}")
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ShapeError(f"matrix needs at least 2 agents, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            i, j = np.argwhere(~np.isfinite(arr))[0]
            raise ShapeError(f"matrix entry [{i}][{j}] is not finite: {float(arr[i, j])!r}")
        found: list[Violation] = []
        row_sums = arr.sum(axis=1)
        for i in np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL).tolist():
            found.append(Violation(
                "row_sum", (i,), f"row sums to {float(row_sums[i])!r}, expected 1"))
        below_floor = (arr != 0.0) & (arr < beta)
        if below_floor.any():  # enumerating an all-false n x n mask costs more than testing it
            for i, j in zip(*np.nonzero(below_floor)):
                found.append(Violation(
                    "entry_floor", (int(i), int(j)),
                    f"nonzero entry {float(arr[i, j])!r} below floor {float(beta)!r}"))
        for i in np.flatnonzero(arr.diagonal() == 0.0).tolist():
            found.append(Violation(
                "zero_diagonal", (i,), "agent must keep a self-weight"))
        if found:
            raise ValidationError(
                "invalid weight matrix:\n" + "\n".join(map(str, found)), violations=found)
        # CSR first, so that its temporaries are gone before the copy exists.
        object.__setattr__(self, "_csr", _csr_or_none(arr))
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``W v`` as a new array."""
        csr = self._csr
        if csr is None:
            return self.entries @ v
        return np.add.reduceat(csr.vals * v[csr.cols], csr.starts)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """``W^T v`` as a new array."""
        csr = self._csr
        if csr is None:
            return self.entries.T @ v
        return np.bincount(csr.cols, csr.vals * v[csr.rows], minlength=self.n)


def uniform_complete_matrix(n: int) -> WeightMatrix:
    """All-to-all listening with equal weights 1/n."""
    return WeightMatrix(np.full((n, n), 1.0 / n), beta=1.0 / n)


def parse_weight_matrix_text(text: str) -> np.ndarray:
    """Parse the plain-text dense format: a line with ``n``, then ``n``
    lines of ``n`` whitespace-separated decimals. Returns the raw array;
    a ``WeightMatrix`` of it is valid or raises."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty matrix text")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ValidationError(f"first line must be the size, got {_brief(lines[0])}")
    if len(lines) - 1 != n:
        raise ValidationError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for k, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != n:
            raise ValidationError(f"row {k} has {len(parts)} entries, expected {n}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValidationError(f"row {k} contains a non-numeric entry")
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# Strong connectivity
# ---------------------------------------------------------------------------

def _check_same_shape(matrices: Sequence[WeightMatrix]) -> int:
    if not matrices:
        raise PreconditionError("need at least one matrix")
    n = matrices[0].n
    for m in matrices:
        if m.n != n:
            raise ShapeError("all matrices must share one agent count")
    return n


def _reaches_all(products: Sequence, n: int) -> bool:
    """Whether breadth-first levels from vertex 0 reach all ``n`` vertices;
    each level is where the sum of ``products`` of the reached set's
    indicator is positive."""
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    count = 1
    while count < n:
        reached = sum(product(reached) for product in products) > 0
        grown = np.count_nonzero(reached)
        if grown == count:
            return False
        count = grown
    return True


def is_strongly_connected(*matrices: WeightMatrix) -> bool:
    """Strong connectivity of the union of the matrices' graphs.

    Entry ``i`` of ``W r`` is positive exactly when agent ``i`` listens to
    an agent marked in the 0/1 vector ``r``, and entry ``j`` of ``W^T r``
    exactly when a marked agent listens to ``j``. So repeated products
    from vertex 0's indicator, one breadth-first level each, find the
    agents that vertex 0's opinion reaches (``matvec``) and those whose
    opinions reach it (``rmatvec``); the union is strongly connected when
    both are everyone (Horn & Johnson, *Matrix Analysis*, sec. 6.2). The
    test is exact in floating point: weights are nonnegative, so a sum is
    positive exactly where some term is, and the positive diagonal keeps
    every reached vertex reached. Raises ``PreconditionError`` when given
    no matrix and ``ShapeError`` when the agent counts differ.
    """
    n = _check_same_shape(matrices)
    return (_reaches_all([m.matvec for m in matrices], n)
            and _reaches_all([m.rmatvec for m in matrices], n))


# ---------------------------------------------------------------------------
# Schedules: the rule producing W(t) for each step t
# ---------------------------------------------------------------------------

def _check_step(t: int) -> None:
    if t < 0:
        raise PreconditionError(f"step index must be >= 0, got {t}")


@dataclass(frozen=True, eq=False)
class StaticSchedule:
    """One fixed matrix for every step."""

    matrix: WeightMatrix

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def pool(self) -> tuple[WeightMatrix, ...]:
        return (self.matrix,)

    def matrix_at(self, t: int) -> WeightMatrix:
        _check_step(t)
        return self.matrix


@dataclass(frozen=True, eq=False)
class PeriodicSchedule:
    """Cycles through a fixed list of matrices."""

    matrices: tuple[WeightMatrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        _check_same_shape(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].n

    @property
    def pool(self) -> tuple[WeightMatrix, ...]:
        return self.matrices

    def matrix_at(self, t: int) -> WeightMatrix:
        _check_step(t)
        return self.matrices[t % len(self.matrices)]


@dataclass(frozen=True, eq=False)
class RandomSchedule:
    """Uniform draw from a matrix pool at every step.

    The draw at step ``t`` is a pure function of (seed, t), so the
    realization is reproducible and randomly accessible.
    """

    pool: tuple[WeightMatrix, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "pool", tuple(self.pool))
        _check_same_shape(self.pool)

    @property
    def n(self) -> int:
        return self.pool[0].n

    def matrix_at(self, t: int) -> WeightMatrix:
        _check_step(t)
        return self.pool[indexed_choice(self.seed, t, len(self.pool))]


GraphSchedule = Union[StaticSchedule, PeriodicSchedule, RandomSchedule]


def schedule_rjsc_status(schedule: GraphSchedule) -> Optional[bool]:
    """Repeated joint strong connectivity of a schedule, where decidable.

    Static and periodic: every window of one period draws exactly the
    cycled matrices, so the condition holds iff their union is strongly
    connected. Random: True when every pool member is strongly connected
    on its own (then even single-step windows verify); False when even
    the pool union is not; None otherwise, since the property then depends
    on the unbounded realization.
    """
    if not isinstance(schedule, RandomSchedule):
        return is_strongly_connected(*schedule.pool)
    if all(is_strongly_connected(m) for m in schedule.pool):
        return True
    if not is_strongly_connected(*schedule.pool):
        return False
    return None


def verify_repeated_joint_connectivity(
    schedule: GraphSchedule, p: int, q: int, horizon: int,
) -> bool:
    """Check the window-connectivity hypothesis for declared (p, q).

    Windows of length ``p`` start at steps ``q, q+p, q+2p, ...``; the check
    passes when every window's arc-set union is strongly connected. Step
    indices are the 0-based simulation steps (``horizon`` is the last index
    examined, inclusive); ``q >= 1`` mirrors the usual 1-based statement of
    the condition, and the property is about the tail of the sequence, so
    skipping step 0 loses nothing.

    For static and periodic schedules the window unions repeat with the
    schedule period, so only the distinct residue classes are examined and
    the answer is exact for all time; for seeded-random schedules every
    window up to ``horizon`` is examined and the answer certifies that
    range only. A window's union depends only on the set of pool matrices
    it draws, so each distinct set is checked once per call.
    """
    if p < 1 or q < 1:
        raise PreconditionError(f"window parameters must satisfy p,q >= 1, got p={p} q={q}")
    if horizon < q + p - 1:
        raise PreconditionError(
            f"horizon {horizon} shorter than the first window ending at {q + p - 1}")

    if isinstance(schedule, (StaticSchedule, PeriodicSchedule)):
        period = len(schedule.pool)
        count = period // math.gcd(p, period)
    else:
        count = (horizon - (q + p - 1)) // p + 1

    connected: set[frozenset] = set()  # matrices compare by identity
    for start in range(q, q + count * p, p):
        drawn = frozenset(schedule.matrix_at(t) for t in range(start, start + p))
        if drawn not in connected:
            if not is_strongly_connected(*drawn):
                return False
            connected.add(drawn)
    return True


def find_window_parameters(
    schedule: GraphSchedule, horizon: int, max_p: Optional[int] = None,
) -> Optional[tuple[int, int]]:
    """Exhaustive convenience search for a verifying (p, q), smallest p
    first, then smallest q, over the windows that end by ``horizon``;
    quadratic in ``max_p``. Returns None when no pair up to ``max_p``
    (default: horizon) verifies, at once when the pool's union is not
    strongly connected; raises ``PreconditionError`` when ``max_p`` < 1."""
    if max_p is not None and max_p < 1:
        raise PreconditionError(f"max_p must be >= 1, got {max_p}")
    if not is_strongly_connected(*schedule.pool):
        return None  # every window's union is part of the pool's, so none connects
    cap = horizon if max_p is None else min(max_p, horizon)
    for p in range(1, cap + 1):
        for q in range(1, min(p, horizon - p + 1) + 1):  # the first window ends by horizon
            if verify_repeated_joint_connectivity(schedule, p, q, horizon):
                return p, q
    return None


# ---------------------------------------------------------------------------
# Random strongly connected matrices (for reproducible experiments)
# ---------------------------------------------------------------------------

def random_strongly_connected_matrix(
    n: int, rng: SplitMix64, edge_probability: float,
) -> WeightMatrix:
    """Random row-stochastic matrix whose graph is strongly connected.

    Support = self-loops + a random full cycle (which alone guarantees
    strong connectivity) + independent extra arcs with the given
    probability. Weights are drawn uniformly from [1, 2] on the support
    and rows are normalized; the matrix floor is the smallest realized
    nonzero weight.

    Draw order from ``rng``: the cycle's shuffle, then one draw per
    off-diagonal entry in row-major order (the extra arcs), then one draw
    per support entry in row-major order (the weights). The two blocks
    come from ``SplitMix64.random_block``.
    """
    if n < 2:
        raise PreconditionError("need at least 2 agents")
    if not 0.0 <= edge_probability <= 1.0:
        raise PreconditionError("edge_probability must lie in [0, 1]")
    support = np.eye(n, dtype=bool)
    order = list(range(n))
    rng.shuffle(order)
    for k in range(n):
        a, b = order[k], order[(k + 1) % n]
        support[b, a] = True  # arc a -> b: b listens to a
    support[~np.eye(n, dtype=bool)] |= rng.random_block(n * (n - 1)) < edge_probability
    entries = np.zeros((n, n))
    entries[support] = 1.0 + rng.random_block(int(support.sum()))  # uniform(1, 2)
    del support  # freed before WeightMatrix copies entries, where memory peaks
    entries /= entries.sum(axis=1, keepdims=True)
    beta = float(entries[entries > 0].min())
    return WeightMatrix(entries, beta)
