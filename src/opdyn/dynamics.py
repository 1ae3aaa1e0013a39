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
arithmetic (the earlier n x n gap form) only to within rounding.

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

import contextlib
import functools
import math
import numbers
import os
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    PreconditionError,
    ShapeError,
    ValidationError,
    _brief,
)
from .graph import GraphSchedule, WeightMatrix

OPINION_MIN = -1.0
OPINION_MAX = 1.0

# The loop stages each recorded step's min and max (and its state, when it
# is kept or written) and hands them on in blocks of about this many values:
# a list append costs a third of an array append, a Python float takes 32
# bytes where a packed double takes 8, and a block of CSV rows is cheaper to
# format at once than row by row.
_BLOCK_VALUES = 8192


def _block_rows(n: int) -> int:
    """Recorded steps per block for n agents (a row is t, n opinions, spread)."""
    return max(1, _BLOCK_VALUES // (n + 2))


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

def _check_dims(x: np.ndarray, agents: Union[WeightMatrix, GraphSchedule]) -> None:
    """Raise ``ShapeError`` unless ``x`` holds one opinion per agent of
    ``agents``, a weight matrix or a schedule (only its ``n`` is read)."""
    if x.shape[0] != agents.n:
        raise ShapeError(f"{x.shape[0]} opinions against {agents.n} agents")


def system_matrix(x, matrix: WeightMatrix, kind: SusceptibilityKind) -> np.ndarray:
    """One-step transition matrix ``S = I - F + F W`` at state ``x``.

    Built by scaling rows of ``W`` rather than materializing diagonal
    matrices. ``x`` goes through ``opinion_vector`` and ``_check_dims``,
    so ``S`` is row-stochastic and nonnegative.
    """
    xa = opinion_vector(x)
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
    ``system_matrix(x) @ x`` to within rounding. ``x`` goes through
    ``opinion_vector`` and ``_check_dims``: the kinds are defined on [-1, 1].
    """
    xa = opinion_vector(x)
    _check_dims(xa, matrix)
    return _advance(xa, matrix, kind, float(xa.min()), float(xa.max()))[0]


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
            raise ValidationError(f"max_steps must be an integer, got {_brief(self.max_steps)}")
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
    state), n doubles each; it is None when the simulation ran with
    ``keep_states=False``, in which case only the diagnostics and the
    final state remain. ``mins`` and ``maxs`` hold each recorded state's
    extremes as float64 arrays, 16 bytes per step between them. A
    simulated record's three arrays are views of packed buffers of
    doubles, ``states`` reshaped to (steps + 1, n). ``clamp_steps`` counts
    the steps on which the kernel's clamp fired.
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

    @property
    def consensus_value(self) -> Optional[float]:
        """The final state's mean if the run stopped on consensus (its spread
        is below epsilon, so no second test), else None."""
        return float(self.final_state.mean()) if self.stop_reason == "consensus" else None

    @classmethod
    def from_states(cls, states) -> "TrajectoryRecord":
        """Build a record from raw state rows: diagnostics included, stop reason "unspecified".

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
            stop_reason="unspecified",
            states=arr.copy(),
        )


# Takes a block of recorded states (m, n) and their spreads (m,), m >= 1,
# as the loop hands them on.
BlockWriter = Callable[[np.ndarray, np.ndarray], None]


# ---------------------------------------------------------------------------
# CSV text
# ---------------------------------------------------------------------------

# Fields the fast formatter takes: zero, integers below 1e17, and other
# values with 10**_MIN_EXP <= |v| < 10. A block holding any other field, or
# a field whose 17th digit is within _TIE_SLACK of a rounding tie, is
# formatted with % instead.
_MIN_EXP = -290
_TIE_SLACK = 2.0**-30


class _FormatTables(NamedTuple):
    ceil10: np.ndarray      # [k - _MIN_EXP]: the least double >= 10**k, k in [_MIN_EXP, 17]
    scale_hi: np.ndarray    # [k - _MIN_EXP], k in [_MIN_EXP, 16]: 10**(16 - k) is
    scale_lo: np.ndarray    # hi + lo + tail, where hi + lo is the nearest double, split
    scale_tail: np.ndarray  # into 26-bit halves, and tail the rest, rounded
    digits4: np.ndarray     # [c]: the ASCII of c as four digits, first digit in the low byte
    last_digit: np.ndarray  # [q, c]: 4q + the place (1-4) of c's last nonzero digit; 0 if c == 0
    mask_hi: np.ndarray     # [d]: keeps the first d of 16 digit bytes: in the first word,
    mask_lo: np.ndarray     # and in the second
    prefix: np.ndarray      # [((class * 10 + first digit) * 2 + more digits) * 2 + negative]
    suffix: np.ndarray      # [max(-k - 4, 0) * 2 + last column]


def _word(text: str) -> int:
    """Up to 8 ASCII bytes as a little-endian uint64, zero-padded."""
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


@functools.cache
def _format_tables() -> _FormatTables:
    """The fast formatter's tables, built from exact integers on first use
    (about 4 ms), so importing opdyn does not pay for them."""
    ceil10 = []
    for k in range(_MIN_EXP, 18):
        c = float(10**k) if k >= 0 else 1 / 10**-k  # int / int rounds correctly
        num, den = c.as_integer_ratio()
        ceil10.append(math.nextafter(c, math.inf) if k < 0 and num * 10**-k < den else c)
    scale = []
    for k in range(_MIN_EXP, 17):
        power = 10**(16 - k)
        mant, exp = math.frexp(float(power))
        split = mant * 134217729.0  # 2**27 + 1: Veltkamp's split
        hi = split - (split - mant)
        scale.append((math.ldexp(hi, exp), math.ldexp(mant - hi, exp),
                      float(power - int(float(power)))))
    quads = np.arange(10_000)
    digits4 = np.zeros(10_000, np.uint64)
    last = np.zeros(10_000, np.int64)
    for place in range(4):
        digit = quads // 10**(3 - place) % 10
        digits4 |= (48 + digit).astype(np.uint64) << np.uint64(8 * place)
        last[digit != 0] = place + 1
    # class: 0 scientific (k <= -5), 1-4 fixed with k = -4..-1, 5 k = 0, 6 integers (k >= 1)
    prefix = [
        sign + ("0." + "0" * (4 - cls) if 1 <= cls <= 4 else "") + str(first)
        + ("." if more and cls in (0, 5) else "")
        for cls in range(7) for first in range(10) for more in (0, 1) for sign in ("", "-")]
    suffix = [(f"e-{e + 4:02d}" if e else "") + sep for e in range(-_MIN_EXP - 3) for sep in ",\n"]
    hi, lo, tail = map(np.array, zip(*scale))
    return _FormatTables(
        ceil10=np.array(ceil10), scale_hi=hi, scale_lo=lo, scale_tail=tail,
        digits4=digits4, last_digit=np.where(last > 0, last + 4 * np.arange(4)[:, None], 0),
        mask_hi=np.array([(1 << 8 * min(d, 8)) - 1 for d in range(17)], np.uint64),
        mask_lo=np.array([(1 << 8 * max(d - 8, 0)) - 1 for d in range(17)], np.uint64),
        prefix=np.array([_word(x) for x in prefix], np.uint64),
        suffix=np.array([_word(x) for x in suffix], np.uint64))


def _percent_rows(block: np.ndarray) -> bytes:
    """A block of CSV rows, ``%d`` then ``%.17g`` per field, through one ``%``:
    the reference for the fast formatter, and its fallback for a block it cannot prove."""
    row = ",".join(["%d"] + ["%.17g"] * (block.shape[1] - 1)) + "\n"
    return ((row * block.shape[0]) % tuple(block.ravel().tolist())).encode()


def _decimal_digits(a: np.ndarray, tables: _FormatTables):
    """``(k, digits, near_tie)`` for positive ``a`` in the fast range:
    ``digits``, in [10**16, 10**17), are a's 17 significant digits correctly
    rounded, so that ``a ~ digits * 10**(k - 16)``.

    ``k`` is exact: ``frexp`` puts a in [2**(e-1), 2**e), so floor(log10 a)
    is k0 = floor((e - 1) log10 2) or k0 + 1, and ``ceil10`` decides. Then
    a * 10**(16 - k) = p + err with p = fl(a * (hi + lo)): Dekker's product
    (Veltkamp's split; numpy has no FMA) gives a * (hi + lo) - p exactly,
    and a * tail adds the rest of the power, so err is off by about 2**-48.
    ``near_tie`` marks fields whose err is within ``_TIE_SLACK`` of a half,
    where that error could round the wrong way.
    """
    k = np.floor((np.frexp(a)[1] - 1) * math.log10(2.0)).astype(np.intp)
    k += a >= tables.ceil10[k + (1 - _MIN_EXP)]
    at = k - _MIN_EXP
    hi, lo = tables.scale_hi[at], tables.scale_lo[at]
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    p = a * (hi + lo)
    err = ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo
    err += a * tables.scale_tail[at]
    up = np.rint(err)
    near_tie = np.abs(np.abs(err - up) - 0.5) < _TIE_SLACK
    digits = p.astype(np.int64) + up.astype(np.int64)
    carry = digits == 10**17  # 9.99...95 rounds up to the next power
    digits[carry] = 10**16
    k += carry
    return k, digits, near_tie


def _format_block(block: np.ndarray) -> bytes:
    """The bytes ``_percent_rows(block)`` gives, for a first column of
    nonnegative integers (as ``t``), computed for the whole block at once.

    Each field becomes four uint64 words of zero-padded ASCII, laid out as
    ``%.17g`` does: 17 digits rounded, trailing zeros dropped, fixed
    notation for decimal exponents -4 to 16 and ``d.ddde-XX`` below. The
    words are a prefix (sign, ``0.`` and zeros, first digit, point), the
    other 16 digits masked to those shown, and the exponent with the
    separator; dropping the zero bytes leaves the text. An integer below
    1e17 prints the same under ``%d``. A block with any field outside the
    fast range (see ``_MIN_EXP``; NaN and infinities too) or near a
    rounding tie goes whole through ``_percent_rows``, decided before the
    words are built.
    """
    tables = _format_tables()
    m, width = block.shape
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0.0
    with np.errstate(invalid="ignore"):  # floor of a signalling NaN
        fast = (a < 10.0) | ((a < 1e17) & (a == np.floor(a)))
    fast &= (a >= tables.ceil10[0]) | zero
    if not fast.all():
        return _percent_rows(block)
    a[zero] = 1.0  # a stand-in, so every table index is in range
    k, digits, near_tie = _decimal_digits(a, tables)
    if near_tie.any():
        return _percent_rows(block)
    first = digits // 10**16
    others = digits - first * 10**16  # the other 16 digits
    first[zero] = 0
    upper = others // 10**8
    lower = others - upper * 10**8
    q0, q2 = upper // 10**4, lower // 10**4
    quads = (q0, upper - q0 * 10**4, q2, lower - q2 * 10**4)
    last = tables.last_digit
    significant = np.maximum(np.maximum(last[0][quads[0]], last[1][quads[1]]),
                             np.maximum(last[2][quads[2]], last[3][quads[3]]))
    shown = np.maximum(significant, k)  # an integer shows every digit up to its point
    cls = np.clip(k, -5, 1) + 5  # see the prefix table
    last_column = np.zeros((m, width), np.intp)
    last_column[:, -1] = 1
    words = np.empty((m * width, 4), np.uint64)
    words[:, 0] = tables.prefix[((cls * 10 + first) * 2 + (others != 0)) * 2 + np.signbit(v)]
    digits4 = tables.digits4
    words[:, 1] = (digits4[quads[0]] | digits4[quads[1]] << np.uint64(32)) & tables.mask_hi[shown]
    words[:, 2] = (digits4[quads[2]] | digits4[quads[3]] << np.uint64(32)) & tables.mask_lo[shown]
    words[:, 3] = tables.suffix[np.maximum(-k - 4, 0) * 2 + last_column.ravel()]
    raw = words.view(np.uint8)
    return raw[raw != 0].tobytes()


class TrajectoryCsv:
    """Writes a trajectory to ``path`` as CSV rows ``t,x_1,...,x_n,spread``.

    Each call ``writer(states, spreads)`` adds a block of rows, ``t``
    counting from 0, formatted as ``%d`` and ``%.17g`` would (by
    ``_format_block``, a vectorized ``%.17g`` that formats a block it cannot
    prove with ``_percent_rows`` instead; both take the row from the block's
    width). Values have 17 significant digits, so every one round-trips
    bit-exactly, and rows end in a fixed newline, so files hash identically
    across platforms. Passed as ``simulate``'s ``writer``, it streams the
    rows as the loop records the states; ``write_trajectory_csv`` feeds it a
    record's stored states in blocks of the same size, so both give the same bytes.

    The rows go to a temporary sibling, ``<path>.<pid>.tmp``. ``close``, or
    leaving a ``with`` block normally, moves it into place with
    ``os.replace``, so ``path`` never holds a partial trajectory; leaving
    the block by an exception (``KeyboardInterrupt`` included), or a
    ``close`` that fails, removes it and leaves ``path`` as it was.
    """

    def __init__(self, path, n: int):
        self._path = os.fspath(path)
        self._tmp = f"{self._path}.{os.getpid()}.tmp"
        self._width = n + 2
        self._t = 0
        self._fh = open(self._tmp, "wb")
        self._fh.write(("t," + ",".join(f"x_{i + 1}" for i in range(n)) + ",spread\n").encode())

    def __call__(self, states: np.ndarray, spreads: np.ndarray) -> None:
        m = states.shape[0]
        block = np.empty((m, self._width))
        block[:, 0] = np.arange(self._t, self._t + m)  # exact, and %d prints it as an integer
        block[:, 1:-1] = states
        block[:, -1] = spreads
        self._fh.write(_format_block(block))
        self._t += m

    def close(self) -> None:
        """Close the file and move it into place at ``path``."""
        if self._fh.closed:
            return
        try:
            self._fh.close()
            os.replace(self._tmp, self._path)
        except BaseException:
            self._discard()
            raise

    def _discard(self) -> None:
        with contextlib.suppress(OSError):
            self._fh.close()
        with contextlib.suppress(OSError):
            os.remove(self._tmp)

    def __enter__(self) -> "TrajectoryCsv":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self.close()
        else:
            self._discard()


def simulate(
    x0,
    schedule: GraphSchedule,
    kind: SusceptibilityKind,
    stop: Optional[StopRule] = None,
    keep_states: bool = True,
    writer: Optional[BlockWriter] = None,
) -> TrajectoryRecord:
    """Iterate the opinion update until a stop condition fires.

    Stop reasons, in the order they are checked at each new state:
    ``"non_finite"`` (the step produced a NaN, say from a ``Custom``
    susceptibility; that state is not recorded, and the final state is
    the last finite one), ``"consensus"`` (spread below epsilon),
    ``"target"`` (all opinions within target_epsilon of the predicted
    limit), and ``"max_steps"``, the one bound on a run's length.

    The initial state is recorded as step 0, so an already-converged input
    yields a 0-transition record. Each recorded step's min and max, and
    its state when it is kept or written, are staged and handed on every
    ``_block_rows(n)`` recorded steps and once at the stop: the extremes
    and kept states are packed as doubles, and ``writer``, if given, gets
    ``writer(states (m, n), spreads (m,))``, m >= 1, row 0 included and a
    non-finite state never (a ``TrajectoryCsv`` writes them to a file).
    Memory is O(n) plus 16 bytes per step for the extremes, and n doubles
    per step more with ``keep_states``.
    """
    stop = stop or StopRule()
    x = opinion_vector(x0).copy()
    n = x.shape[0]
    _check_dims(x, schedule)
    # Fail fast on per-agent kinds of the wrong size.
    kind.values(x)

    target = stop.target
    block_rows = _block_rows(n)
    mins, maxs, kept = array("d"), array("d"), array("d")
    # the staged block: extremes, and states when they are kept or written
    lows: list[float] = []
    highs: list[float] = []
    rows: Optional[list[np.ndarray]] = [] if keep_states or writer is not None else None

    def hand_off() -> None:
        mins.extend(lows)
        maxs.extend(highs)
        if rows:
            states = np.array(rows)
            if keep_states:
                kept.frombytes(states.tobytes())
            if writer is not None:
                writer(states, np.array(highs) - np.array(lows))
            rows.clear()
        lows.clear()
        highs.clear()

    t = clamp_steps = 0
    mn, mx = float(x.min()), float(x.max())
    while True:
        if mx != mx:  # max propagates NaN, the one non-finite value a step can yield
            reason = "non_finite"
            x = finite
            break
        lows.append(mn)
        highs.append(mx)
        if rows is not None:
            rows.append(x)  # _advance returns a fresh array each step
        if len(lows) == block_rows:
            hand_off()
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
        finite = x
        x, mn, mx, clamped = _advance(x, schedule.matrix_at(t), kind, mn, mx)
        clamp_steps += clamped
        t += 1
    hand_off()

    return TrajectoryRecord(
        mins=np.frombuffer(mins),
        maxs=np.frombuffer(maxs),
        final_state=x,
        stop_reason=reason,
        states=np.frombuffer(kept).reshape(-1, n) if keep_states else None,
        clamp_steps=clamp_steps,
    )


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """Write a record's stored states to ``path`` through a ``TrajectoryCsv``,
    in ``simulate``'s blocks."""
    if record.states is None:
        raise PreconditionError("trajectory was recorded without states; cannot write CSV")
    rows = _block_rows(record.n)
    spreads = record.spreads
    with TrajectoryCsv(path, record.n) as writer:
        for start in range(0, len(spreads), rows):
            writer(record.states[start:start + rows], spreads[start:start + rows])
