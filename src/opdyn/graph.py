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
from functools import partial
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import PreconditionError, ShapeError, ValidationError, _as_float, _brief
from .rng import SplitMix64, _indexed_choices

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
    """The nonzeros of a matrix in row-major order with their rows and
    columns, the coordinate form of compressed sparse rows (Saad,
    *Iterative Methods for Sparse Linear Systems*, 2003, ch. 3). Its
    products add each row's (or column's) terms from left to right in
    this order, starting from 0.0, through ``np.bincount``."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


# Storage is chosen once per matrix: the CSR form is kept, and no dense
# array, when the matrix has at least _CSR_MIN_N agents and at most
# _CSR_MAX_DENSITY * n**2 nonzeros (``_stores_csr``).
# In single-thread matvec timings (README, "Reproducibility") the dense
# product won or tied below _CSR_MIN_N at every density, and CSR never lost
# inside these bounds.
_CSR_MIN_N = 400
_CSR_MAX_DENSITY = 0.04

# _row_sums fills at most this many dense entries at a time (256 KiB).
_ROW_SUM_BLOCK = 1 << 15


def _csr_product(into: np.ndarray, by: np.ndarray, vals: np.ndarray, n: int,
                 v: np.ndarray) -> np.ndarray:
    """Entry ``i`` sums ``vals[k] * v[by[k]]`` over the k with ``into[k] == i``,
    left to right: ``W v`` for ``into, by = rows, cols``, ``W^T v`` swapped."""
    return np.bincount(into, vals * v[by], minlength=n)


def _stores_csr(n: int, nonzeros: int) -> bool:
    """The storage rule: whether an n-agent matrix with this many nonzeros keeps CSR alone."""
    return n >= _CSR_MIN_N and nonzeros <= _CSR_MAX_DENSITY * n * n


def _beta(beta) -> float:
    """``beta`` as a float, or ``PreconditionError`` unless it is a real
    number (a bool is not) above 0."""
    beta = _as_float(beta, "beta", PreconditionError)
    if not beta > 0:  # NaN too
        raise PreconditionError(f"beta must be positive, got {beta}")
    return beta


def _row_sums(n: int, flat: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``sum(axis=1)`` of the n x n matrix holding ``vals`` at the strictly
    increasing row-major indices ``flat`` and 0 elsewhere, bit for bit,
    without that matrix. Whole rows, at most ``_ROW_SUM_BLOCK`` entries of
    them at a time, are filled into one zeroed dense block and summed there:
    numpy's pairwise sum of a contiguous row does not depend on the rows
    around it."""
    rows = max(1, _ROW_SUM_BLOCK // n)
    block = np.zeros((rows, n))
    sums = np.empty(n)
    ends = np.searchsorted(flat, np.arange(rows, n + rows, rows) * n).tolist()
    lo = 0
    for start, hi in zip(range(0, n, rows), ends):
        at = flat[lo:hi] - start * n
        np.put(block, at, vals[lo:hi])
        count = min(rows, n - start)
        np.sum(block[:count], axis=1, out=sums[start:start + count])
        np.put(block, at, 0.0)
        lo = hi
    return sums


def _check_finite(n: int, flat: np.ndarray, vals: np.ndarray) -> None:
    """``ShapeError`` naming the first non-finite of the nonzeros ``vals``
    at the row-major indices ``flat`` of an n x n matrix, if any."""
    finite = np.isfinite(vals)
    if not finite.all():
        k = int(np.argmin(finite))
        i, j = divmod(int(flat[k]), n)
        raise ShapeError(f"matrix entry [{i}][{j}] is not finite: {float(vals[k])!r}")


def _check_rules(n: int, flat: np.ndarray, vals: np.ndarray, beta: float,
                 row_sums: np.ndarray, zero_diagonal: np.ndarray) -> None:
    """``ValidationError`` with every violated weight rule of the n x n
    matrix with finite nonzeros ``vals`` at the row-major indices ``flat``,
    given its dense ``sum(axis=1)`` and the mark of each agent whose
    diagonal entry is zero, if any."""
    found: list[Violation] = []
    for i in np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL).tolist():
        found.append(Violation(
            "row_sum", (i,), f"row sums to {float(row_sums[i])!r}, expected 1"))
    for k in np.flatnonzero(vals < beta).tolist():
        found.append(Violation(
            "entry_floor", divmod(int(flat[k]), n),
            f"nonzero entry {float(vals[k])!r} below floor {beta!r}"))
    for i in np.flatnonzero(zero_diagonal).tolist():
        found.append(Violation(
            "zero_diagonal", (i,), "agent must keep a self-weight"))
    if found:
        raise ValidationError(
            "invalid weight matrix:\n" + "\n".join(map(str, found)), violations=found)


@dataclass(frozen=True, eq=False, repr=False)
class WeightMatrix:
    """Row-stochastic influence matrix with its declared weight floor.

    Construction raises ``PreconditionError`` unless ``beta`` is a real
    number (a bool is not) above 0, which it keeps as a float, and
    ``ShapeError`` on an input that is not an array of numbers, a
    non-square one or one with fewer than 2 agents, or naming the row and
    column of its first non-finite entry. Otherwise it checks every clause
    of the weight rules and raises
    ``ValidationError`` unless all hold; its ``violations`` holds every
    finding, clause by clause in this order, each in row-major order:

      * ``row_sum``: each row sums to 1 within ``ROW_SUM_TOL``;
      * ``entry_floor``: each entry is either exactly 0 or at least
        ``beta`` (negative entries fail this clause too);
      * ``zero_diagonal``: each diagonal entry is positive (an agent
        always hears herself).

    So every instance is valid. Construction scans the input once for its
    nonzeros, in row-major order, and runs the finiteness and floor checks
    on them alone: NaN, ``inf`` and every entry below the floor are
    nonzeros. Row sums are the dense ``sum(axis=1)``, numpy's pairwise sum
    of each whole row.

    A matrix holds one form of its weights, chosen once by its agent count
    ``n`` and its number of nonzeros. A small or dense one keeps the dense
    ``entries``, its own read-only, C-ordered copy of the input. A large
    sparse one (at least 400 agents, at most ``0.04 n^2`` nonzeros) keeps
    only a CSR copy of its nonzeros, O(nnz) memory, and drops the input;
    its ``entries``, the same read-only array with the same bytes, is built
    on first request and kept. (An input holding a negative zero, which the
    nonzeros cannot rebuild, is kept as ``entries`` as well.)

    ``matvec`` and ``rmatvec``, which compute ``W v`` and ``W^T v`` as new
    arrays, are bound once at construction to the form the matrix holds:
    ``entries.dot`` and ``entries.T.dot``, or the CSR products whenever the
    CSR form is kept, which never build ``entries``. The CSR products' sums
    run left to right over the nonzeros and so agree with the dense
    products to within rounding. :func:`is_strongly_connected` runs on the
    same products. The repr names ``n``, ``beta`` and the form, and builds
    no ``entries`` either.
    """

    entries: np.ndarray
    beta: float

    def __post_init__(self):
        if type(self.beta) is not float or not self.beta > 0:
            object.__setattr__(self, "beta", _beta(self.beta))
        try:
            arr = np.asarray(self.entries, dtype=float)
        except (TypeError, ValueError):  # a string, a ragged list
            raise ShapeError(f"matrix must be an array of numbers, got {_brief(self.entries)}") from None
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ShapeError(f"matrix needs at least 2 agents, got {arr.shape[0]}")
        n = arr.shape[0]
        object.__setattr__(self, "n", n)
        flat = np.flatnonzero(arr != 0.0)  # the support, row-major whatever the layout
        vals = np.take(arr, flat)
        _check_finite(n, flat, vals)
        _check_rules(n, flat, vals, self.beta, arr.sum(axis=1), arr.diagonal() == 0.0)
        csr = _CSR(*np.divmod(flat, n), vals) if _stores_csr(n, flat.size) else None
        del flat, vals  # freed before any copy, where memory peaks
        # Every nonzero is positive now, so a sign bit marks a negative zero.
        if csr is not None and not np.signbit(arr).any():
            object.__delattr__(self, "entries")  # __getattr__ rebuilds it on request
        else:
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, "entries", arr)
        self._bind(csr)

    def _bind(self, csr: Optional[_CSR]) -> None:
        """Keeps ``csr`` and binds ``matvec`` and ``rmatvec`` to it, or,
        when it is None, to the dense ``entries``."""
        object.__setattr__(self, "_csr", csr)
        if csr is None:
            matvec, rmatvec = self.entries.dot, self.entries.T.dot
        else:
            matvec = partial(_csr_product, csr.rows, csr.cols, csr.vals, self.n)
            rmatvec = partial(_csr_product, csr.cols, csr.rows, csr.vals, self.n)
        object.__setattr__(self, "matvec", matvec)
        object.__setattr__(self, "rmatvec", rmatvec)

    @classmethod
    def _from_support(cls, n: int, flat: np.ndarray, vals: np.ndarray, beta: float) -> WeightMatrix:
        """The n x n matrix (n >= 2) holding ``vals`` at the strictly
        increasing row-major indices ``flat`` and 0 elsewhere, checked as
        the constructor checks that dense array: the same errors, and the
        same violations in the same order with the same messages. It is
        stored as CSR alone, whatever its size, and no n x n array is made:
        row sums come from ``_row_sums``. Every value must be nonzero, as
        the constructor's support is; a zero fails the floor."""
        self = cls.__new__(cls)
        object.__setattr__(self, "beta", _beta(beta))
        object.__setattr__(self, "n", n)
        zero_diagonal = np.ones(n, dtype=bool)
        zero_diagonal[flat[flat % (n + 1) == 0] // (n + 1)] = False  # entry (i, i) is i * (n + 1)
        _check_finite(n, flat, vals)
        _check_rules(n, flat, vals, self.beta, _row_sums(n, flat, vals), zero_diagonal)
        self._bind(_CSR(*np.divmod(flat, n), vals))
        return self

    def _at_floor(self, beta: float) -> WeightMatrix:
        """This matrix checked again at floor ``beta``, with the errors
        ``WeightMatrix(self.entries, beta)`` gives. A matrix that holds its
        CSR form alone is checked from its nonzeros, O(nnz), and builds no
        ``entries``."""
        if "entries" in vars(self):
            return WeightMatrix(self.entries, beta)
        rows, cols, vals = self._csr
        return WeightMatrix._from_support(self.n, rows * self.n + cols, vals, beta)

    def __repr__(self) -> str:
        # the dataclass repr would print entries, and so build a CSR matrix's dense array
        form = "dense" if self._csr is None else "csr"
        return f"{type(self).__name__}(n={self.n}, beta={self.beta!r}, form={form!r})"

    def __getattr__(self, name: str):
        # Reached only for an attribute missing from the instance: for
        # ``entries`` of a CSR matrix, the dense array, built once and kept.
        if name != "entries":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows, cols, vals = self._csr
        arr = np.zeros((self.n, self.n))
        arr[rows, cols] = vals
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        return arr


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


# A random schedule draws the pool indices of the steps from t on in one
# numpy block when matrix_at(t) falls outside its last block: t + _FIRST_DRAW
# of them, at most _MAX_DRAW, so a run's blocks double from _FIRST_DRAW.
# timeit on a 2-core Xeon (numpy 2.4): a block costs about 20 us at 64 draws
# and 38 us at 1024 (0.31 and 0.04 us a step), one indexed_choice 1.3-1.9 us;
# a block is mostly fixed cost, and runs are often short (50 steps and up).
_FIRST_DRAW = 64
_MAX_DRAW = 1024


@dataclass(frozen=True, eq=False)
class RandomSchedule:
    """Uniform draw from a matrix pool at every step.

    The draw at step ``t`` is a pure function of (seed, t), ``indexed_choice(
    seed, t, len(pool))``, so the realization is reproducible and randomly
    accessible. ``matrix_at`` reads it from a block of consecutive steps'
    draws that it computes at once and keeps, as one ``(start, indices)``
    tuple; a step outside the block draws a new one starting there.
    """

    pool: tuple[WeightMatrix, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "pool", tuple(self.pool))
        _check_same_shape(self.pool)
        object.__setattr__(self, "_drawn", (0, []))

    @property
    def n(self) -> int:
        return self.pool[0].n

    def matrix_at(self, t: int) -> WeightMatrix:
        start, indices = self._drawn
        if not 0 <= t - start < len(indices):
            _check_step(t)
            start, indices = t, _indexed_choices(
                self.seed, t, min(t + _FIRST_DRAW, _MAX_DRAW), len(self.pool))
            object.__setattr__(self, "_drawn", (start, indices))
        return self.pool[indices[t - start]]


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


def _check_horizon(schedule: GraphSchedule, horizon: Optional[int]) -> None:
    """Raise ``PreconditionError`` unless a horizon is given exactly for a
    random schedule; any other is decided for all time from one period."""
    if (horizon is None) == isinstance(schedule, RandomSchedule):
        raise PreconditionError(
            "a random schedule is examined up to a horizon; none given" if horizon is None
            else "a static or periodic schedule is decided for all time; it takes no horizon")


def verify_repeated_joint_connectivity(
    schedule: GraphSchedule, p: int, q: int, horizon: Optional[int] = None,
) -> bool:
    """Check the window-connectivity hypothesis for declared (p, q).

    Windows of length ``p`` start at steps ``q, q+p, q+2p, ...``; the check
    passes when every window's arc-set union is strongly connected. Step
    indices are the 0-based simulation steps; ``q >= 1`` mirrors the usual
    1-based statement of the condition, and the property is about the tail
    of the sequence, so skipping step 0 loses nothing.

    For static and periodic schedules the window unions repeat with the
    schedule period, so only the distinct residue classes are examined,
    each over its first ``min(p, period)`` steps (any ``period``
    consecutive steps draw the whole pool), and the answer is exact for
    all time; they take no ``horizon``. A seeded-random schedule needs
    one: every window that ends by step ``horizon`` (inclusive, at least
    ``q + p - 1``) is examined, and the answer certifies that range only.
    A window's union depends only on the set of pool matrices it draws, so
    each distinct set is checked once per call.
    """
    if p < 1 or q < 1:
        raise PreconditionError(f"window parameters must satisfy p,q >= 1, got p={p} q={q}")
    _check_horizon(schedule, horizon)
    if horizon is None:
        period = len(schedule.pool)
        count = period // math.gcd(p, period)
        length = min(p, period)  # any `period` consecutive steps draw the whole pool
    elif horizon < q + p - 1:
        raise PreconditionError(
            f"horizon {horizon} shorter than the first window ending at {q + p - 1}")
    else:
        count = (horizon - (q + p - 1)) // p + 1
        length = p

    connected: set[frozenset] = set()  # matrices compare by identity
    for start in range(q, q + count * p, p):
        drawn = frozenset(schedule.matrix_at(t) for t in range(start, start + length))
        if drawn not in connected:
            if not is_strongly_connected(*drawn):
                return False
            connected.add(drawn)
    return True


def find_window_parameters(
    schedule: GraphSchedule, horizon: Optional[int] = None, max_p: Optional[int] = None,
) -> Optional[tuple[int, int]]:
    """Exhaustive convenience search for a verifying (p, q), smallest p
    first, then smallest q <= p; quadratic in ``max_p``. A static or
    periodic schedule is searched for all time, a random one over the
    windows that end by ``horizon``, as in
    :func:`verify_repeated_joint_connectivity`. Returns None when no pair
    up to ``max_p`` (default: the period, or the horizon) verifies, at
    once when the pool's union is not strongly connected; raises
    ``PreconditionError`` on a bad horizon or ``max_p`` < 1."""
    _check_horizon(schedule, horizon)
    if max_p is not None and max_p < 1:
        raise PreconditionError(f"max_p must be >= 1, got {max_p}")
    if not is_strongly_connected(*schedule.pool):
        return None  # every window's union is part of the pool's, so none connects
    # p = period verifies when the union connects: each window draws the whole pool
    bound = len(schedule.pool) if horizon is None else horizon
    cap = bound if max_p is None else min(max_p, bound)
    for p in range(1, cap + 1):
        last_q = p if horizon is None else min(p, horizon - p + 1)  # the first window ends by horizon
        for q in range(1, last_q + 1):
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
    per support entry in row-major order (the weights). The arc draws are
    compared with ``edge_probability`` as integer words, with the outcome
    of ``random() < edge_probability``, and only their hits are kept, so
    the support is built from its indices without an ``n x n`` mask.

    Rows are normalized by the dense row sums, numpy's pairwise sum of each
    whole row, and only the nonzeros divided. Where the storage rule of
    :class:`WeightMatrix` keeps the dense form, the matrix is built once
    and checked by the constructor, which keeps its own copy. Where it
    keeps CSR, no ``n x n`` array is made: the row sums are summed over a
    bounded block of dense rows at a time, with the same bits, and the
    sorted support and its weights are checked and kept as the CSR form,
    so the generator's memory is O(nnz).
    """
    if n < 2:
        raise PreconditionError("need at least 2 agents")
    if not 0.0 <= edge_probability <= 1.0:
        raise PreconditionError("edge_probability must lie in [0, 1]")
    order = list(range(n))
    rng.shuffle(order)
    ring = np.array(order + order[:1])
    cycle = ring[1:] * n + ring[:-1]  # arc a -> b is entry (b, a): b listens to a
    i, r = np.divmod(rng._hits(n * (n - 1), edge_probability), n - 1)
    extra = i * n + r + (r >= i)  # the r-th off-diagonal entry of row i
    support = np.sort(np.concatenate((np.arange(0, n * n, n + 1), cycle, extra)))
    first = np.ones(support.size, dtype=bool)  # a cycle arc can be a hit too
    np.not_equal(support[1:], support[:-1], out=first[1:])
    support = support[first]
    weights = 1.0 + rng.random_block(support.size)  # uniform(1, 2), row-major
    if _stores_csr(n, support.size):
        weights /= _row_sums(n, support, weights)[support // n]
        return WeightMatrix._from_support(n, support, weights, float(weights.min()))
    entries = np.zeros((n, n))
    np.put(entries, support, weights)
    weights /= entries.sum(axis=1)[support // n]
    np.put(entries, support, weights)
    return WeightMatrix(entries, float(weights.min()))
