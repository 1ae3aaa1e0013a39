"""Experiment definitions: load, generate, run, persist.

A scenario is a versioned JSON document (``"schema": 1``) naming the agent
count, initial opinions (explicit or a seeded uniform generator), the
graph schedule, the susceptibility kind, the stop rule, and a seed:

    {
      "schema": 1,
      "name": "optional label",
      "n": 4,
      "beta": 0.25,
      "x0": [1.0, -1.0, -1.0, -1.0],            // or {"uniform": [lo, hi]}
      "schedule": {"kind": "static", "matrix": [[...], ...]},
      "susceptibility": "stubborn_neutral",
      "stop": {"max_steps": 1000000, "consensus_epsilon": 1e-9},
      "seed": 42
    }

Schedules: ``static`` (one ``matrix``, or ``generated`` with an
``edge_probability`` for a seeded random strongly connected matrix),
``periodic`` (``matrices`` cycled in order), ``random`` (uniform seeded
draws from ``pool``); any of them may carry a finite ``horizon``, and
none takes another kind's field.
Susceptibility is one of the kind names, or
``{"kind": "constant", "openness": [...]}`` for per-agent fixed openness.

Unknown fields are rejected, every matrix is validated against the
scenario's ``beta``, and all randomness is derived from the single seed
through fixed substreams (0: initial opinions, 1: schedule draws,
2: generated matrices), so a (document, seed) pair is fully reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .analysis import (
    LemmaReport,
    LimitClassification,
    RateEstimate,
    check_lemmas,
    classify_limit,
    estimate_rate,
)
from .dynamics import (
    Constant,
    DeGroot,
    StopRule,
    StubbornExtremist,
    StubbornNeutral,
    StubbornPositive,
    SusceptibilityKind,
    TrajectoryRecord,
    opinion_vector,
    simulate,
)
from .errors import PreconditionError, SchemaError, ValidationError
from .graph import (
    GraphSchedule,
    PeriodicSchedule,
    RandomSchedule,
    StaticSchedule,
    WeightMatrix,
    random_strongly_connected_matrix,
    schedule_rjsc_status,
    validate_weight_matrix,
)
from .rng import SplitMix64, derive_seed

SCHEMA_VERSION = 1
DEFAULT_BETA = 1e-12

_STOP_DEFAULTS = asdict(StopRule())  # a document's stop fields, in order

_X0_STREAM = 0
_SCHEDULE_STREAM = 1
_MATRIX_STREAM = 2

# generate_initial draws its opinions in one numpy block from this many agents
# on; below it, scalar draws cost less than the block's fixed numpy overhead
# (measured 2-5 us against 12 us at n = 3-8; they cross near n = 24).
_BLOCK_DRAW_MIN_N = 24

_KIND_NAMES = {
    "degroot": DeGroot,
    "stubborn_positive": StubbornPositive,
    "stubborn_neutral": StubbornNeutral,
    "stubborn_extremist": StubbornExtremist,
}

# The matrix fields each schedule kind takes, besides "kind" and "horizon".
_SCHEDULE_FIELDS = {
    "static": {"matrix", "generated"},
    "periodic": {"matrices"},
    "random": {"pool"},
}


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------

def _check_interval(low: float, high: float) -> None:
    """Raise ``PreconditionError`` unless opinions can be drawn from (low, high)."""
    if not low <= high:  # NaN too
        raise PreconditionError(f"empty interval ({low}, {high})")
    if low < -1.0 or high > 1.0:
        raise PreconditionError(f"interval ({low}, {high}) not contained in [-1, 1]")
    if low < high and np.nextafter(low, high) == high:
        raise PreconditionError(f"no double lies strictly inside ({low!r}, {high!r})")


def generate_initial(low: float, high: float, n: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. opinions, uniform over the OPEN interval (low, high).

    Endpoint draws are rejected because the limit theory is sensitive to
    exact endpoints; a degenerate interval [c, c] is special-cased to the
    constant vector. An interval with no double strictly inside it raises
    ``PreconditionError``. Deterministic given the seed.
    """
    _check_interval(low, high)
    if n < 1:
        raise PreconditionError(f"need at least one agent, got {n}")
    if low == high:
        return np.full(n, float(low))
    if n >= _BLOCK_DRAW_MIN_N:
        out = low + (high - low) * SplitMix64(seed).random_block(n)  # as rng.uniform, draw by draw
        if np.all((low < out) & (out < high)):
            return out
    # Draw one by one, rejecting endpoints: for few agents, or when a block
    # hit an endpoint (then from a fresh generator, giving the same values).
    rng = SplitMix64(seed)
    out = np.empty(n)
    for i in range(n):
        v = rng.uniform(low, high)
        while not low < v < high:
            v = rng.uniform(low, high)
        out[i] = v
    return out


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown field")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}" if path else key, "missing required field")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    return float(value)


def _parse_matrix(raw, n: int, beta: float, path: str) -> WeightMatrix:
    if not isinstance(raw, list):
        raise SchemaError(path, "expected a matrix as a list of rows")
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (n, n):
        raise SchemaError(path, f"expected a {n}x{n} matrix, got shape {arr.shape}")
    try:
        return WeightMatrix(arr, beta)
    except ValidationError:
        # the report alone, without the constructor's headline
        report = validate_weight_matrix(arr, beta)
        raise SchemaError(path, f"matrix violates weight rules: {report}") from None


def _parse_x0(raw, n: int, path: str = "x0"):
    """Returns (values, interval); exactly one is None."""
    if isinstance(raw, list):
        if len(raw) != n:
            raise SchemaError(path, f"expected {n} entries, got {len(raw)}")
        vals = np.empty(n)
        for k, v in enumerate(raw):
            x = _as_number(v, f"{path}[{k}]")
            if not -1.0 <= x <= 1.0:
                raise SchemaError(f"{path}[{k}]", f"value {x!r} outside [-1, 1]")
            vals[k] = x
        return vals, None
    if isinstance(raw, dict):
        _require_keys(raw, {"uniform"}, {"uniform"}, path)
        pair = raw["uniform"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}.uniform", "expected [low, high]")
        low = _as_number(pair[0], f"{path}.uniform[0]")
        high = _as_number(pair[1], f"{path}.uniform[1]")
        try:
            _check_interval(low, high)
        except PreconditionError as exc:
            raise SchemaError(f"{path}.uniform", str(exc)) from None
        return None, (low, high)
    raise SchemaError(path, "expected a list of opinions or a generator object")


def _parse_kind(raw, n: int, path: str = "susceptibility") -> SusceptibilityKind:
    if isinstance(raw, str):
        if raw not in _KIND_NAMES:
            raise SchemaError(path, f"unknown kind {raw!r}; one of {sorted(_KIND_NAMES)}")
        return _KIND_NAMES[raw]()
    if isinstance(raw, dict):
        _require_keys(raw, {"kind", "openness"}, {"kind"}, path)
        if raw["kind"] != "constant":
            raise SchemaError(f"{path}.kind", f"only 'constant' takes parameters, got {raw['kind']!r}")
        if "openness" not in raw:
            raise SchemaError(f"{path}.openness", "missing required field")
        vals = raw["openness"]
        if not isinstance(vals, list) or len(vals) != n:
            raise SchemaError(f"{path}.openness", f"expected {n} values")
        try:
            return Constant(tuple(_as_number(v, f"{path}.openness[{k}]") for k, v in enumerate(vals)))
        except ValidationError as exc:
            raise SchemaError(f"{path}.openness", str(exc))
    raise SchemaError(path, "expected a kind name or a constant-openness object")


def _parse_stop(raw, path: str = "stop") -> StopRule:
    if raw is None:
        return StopRule()
    if not isinstance(raw, dict):
        raise SchemaError(path, "expected an object")
    _require_keys(raw, {"max_steps", "consensus_epsilon", "target", "target_epsilon"}, set(), path)
    kwargs = {}
    if "max_steps" in raw:
        kwargs["max_steps"] = _as_int(raw["max_steps"], f"{path}.max_steps")
    if "consensus_epsilon" in raw:
        kwargs["consensus_epsilon"] = _as_number(raw["consensus_epsilon"], f"{path}.consensus_epsilon")
    if raw.get("target") is not None:
        kwargs["target"] = _as_number(raw["target"], f"{path}.target")
    if raw.get("target_epsilon") is not None:
        kwargs["target_epsilon"] = _as_number(raw["target_epsilon"], f"{path}.target_epsilon")
    try:
        return StopRule(**kwargs)
    except ValidationError as exc:
        raise SchemaError(path, str(exc))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully validated experiment definition."""

    n: int
    seed: int
    name: Optional[str]
    x0_values: Optional[np.ndarray]
    x0_interval: Optional[tuple[float, float]]
    schedule_kind: str
    matrices: tuple[WeightMatrix, ...]
    generated_edge_probability: Optional[float]
    horizon: Optional[int]
    kind: SusceptibilityKind
    stop: StopRule
    document: dict

    @property
    def scenario_id(self) -> str:
        canonical = json.dumps(self.document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _normalize_document(doc: dict) -> dict:
    """Materialized-defaults copy used for ids and round-trips."""
    out = {
        "schema": SCHEMA_VERSION,
        "n": doc["n"],
        "beta": doc.get("beta", DEFAULT_BETA),
        "x0": doc["x0"],
        "schedule": dict(doc["schedule"]),
        "susceptibility": doc["susceptibility"],
        "stop": {**_STOP_DEFAULTS, **(doc.get("stop") or {})},
        "seed": doc.get("seed", 0),
    }
    if "name" in doc:
        out["name"] = doc["name"]
    return out


def load_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario JSON document.

    Rejections carry the offending field path; every explicit matrix is
    validated against the scenario's ``beta`` at load time.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    _require_keys(
        doc,
        {"schema", "name", "n", "beta", "x0", "schedule", "susceptibility", "stop", "seed"},
        {"schema", "n", "x0", "schedule", "susceptibility"},
        "",
    )
    if doc["schema"] != SCHEMA_VERSION:
        raise SchemaError("schema", f"unsupported version {doc['schema']!r}, expected {SCHEMA_VERSION}")

    n = _as_int(doc["n"], "n")
    if n < 2:
        raise SchemaError("n", f"need at least 2 agents, got {n}")
    beta = _as_number(doc.get("beta", DEFAULT_BETA), "beta")
    if not beta > 0:  # NaN too
        raise SchemaError("beta", f"must be positive, got {beta}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError("name", "expected a string")
    seed = _as_int(doc.get("seed", 0), "seed")
    if not 0 <= seed < 2**64:
        raise SchemaError("seed", "expected an unsigned 64-bit integer")

    x0_values, x0_interval = _parse_x0(doc["x0"], n)

    sched = doc["schedule"]
    if not isinstance(sched, dict):
        raise SchemaError("schedule", "expected an object")
    if "kind" not in sched:
        raise SchemaError("schedule.kind", "missing required field")
    sched_kind = sched["kind"]
    if not isinstance(sched_kind, str) or sched_kind not in _SCHEDULE_FIELDS:
        raise SchemaError("schedule.kind", f"unknown kind {sched_kind!r}")
    _require_keys(sched, {"kind", "horizon", *_SCHEDULE_FIELDS[sched_kind]}, set(), "schedule")
    horizon = None
    if sched.get("horizon") is not None:
        horizon = _as_int(sched["horizon"], "schedule.horizon")
        if horizon < 1:
            raise SchemaError("schedule.horizon", f"must be >= 1, got {horizon}")
    matrices: tuple[WeightMatrix, ...] = ()
    generated_p = None
    if sched_kind == "static":
        if ("matrix" in sched) == ("generated" in sched):
            raise SchemaError("schedule", "static takes exactly one of 'matrix' or 'generated'")
        if "matrix" in sched:
            matrices = (_parse_matrix(sched["matrix"], n, beta, "schedule.matrix"),)
        else:
            gen = sched["generated"]
            if not isinstance(gen, dict):
                raise SchemaError("schedule.generated", "expected an object")
            _require_keys(gen, {"edge_probability"}, set(), "schedule.generated")
            generated_p = _as_number(gen.get("edge_probability", 0.3), "schedule.generated.edge_probability")
            if not 0.0 <= generated_p <= 1.0:
                raise SchemaError("schedule.generated.edge_probability", "must lie in [0, 1]")
    else:
        (key,) = _SCHEDULE_FIELDS[sched_kind]
        raw_list = sched.get(key)
        if not isinstance(raw_list, list) or not raw_list:
            raise SchemaError(f"schedule.{key}", "expected a nonempty list of matrices")
        matrices = tuple(
            _parse_matrix(m, n, beta, f"schedule.{key}[{k}]") for k, m in enumerate(raw_list))

    kind = _parse_kind(doc["susceptibility"], n)
    stop = _parse_stop(doc.get("stop"))

    return Scenario(
        n=n,
        seed=seed,
        name=name,
        x0_values=x0_values,
        x0_interval=x0_interval,
        schedule_kind=sched_kind,
        matrices=matrices,
        generated_edge_probability=generated_p,
        horizon=horizon,
        kind=kind,
        stop=stop,
        document=_normalize_document(doc),
    )


def load_scenario_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def write_scenario(scenario: Scenario, path) -> None:
    """Persist the normalized document; reloadable to an equivalent
    scenario, with matrix entries surviving bit-exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(scenario.document, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def initial_opinions(scenario: Scenario, seed: Optional[int] = None) -> np.ndarray:
    active = scenario.seed if seed is None else seed
    if scenario.x0_values is not None:
        return opinion_vector(scenario.x0_values)
    low, high = scenario.x0_interval
    return generate_initial(low, high, scenario.n, derive_seed(active, _X0_STREAM))


def build_schedule(scenario: Scenario, seed: Optional[int] = None) -> GraphSchedule:
    active = scenario.seed if seed is None else seed
    if scenario.schedule_kind == "static":
        if scenario.generated_edge_probability is not None:
            rng = SplitMix64(derive_seed(active, _MATRIX_STREAM))
            matrix = random_strongly_connected_matrix(
                scenario.n, rng, scenario.generated_edge_probability)
        else:
            matrix = scenario.matrices[0]
        return StaticSchedule(matrix, horizon=scenario.horizon)
    if scenario.schedule_kind == "periodic":
        return PeriodicSchedule(scenario.matrices, horizon=scenario.horizon)
    return RandomSchedule(
        scenario.matrices, seed=derive_seed(active, _SCHEDULE_STREAM), horizon=scenario.horizon)


@dataclass(frozen=True, eq=False)
class RunSummary:
    scenario_id: str
    name: Optional[str]
    stop_reason: str
    steps: int
    final_state: np.ndarray
    consensus_value: Optional[float]
    classification: LimitClassification
    rate: Optional[RateEstimate]
    lemmas: LemmaReport
    rjsc: Optional[bool]


def run_scenario(
    scenario: Scenario,
    seed: Optional[int] = None,
    stop: Optional[StopRule] = None,
    keep_states: bool = True,
) -> tuple[TrajectoryRecord, RunSummary]:
    """Simulate a scenario and assemble its summary.

    ``seed`` overrides the document seed; ``stop`` overrides the stop
    rule. The summary's consensus value is present exactly when the run
    stopped on consensus: the mean of the final state, whose spread the
    stop rule has already found below epsilon.
    """
    x0 = initial_opinions(scenario, seed)
    schedule = build_schedule(scenario, seed)
    rjsc = schedule_rjsc_status(schedule)
    record = simulate(x0, schedule, scenario.kind, stop or scenario.stop, keep_states=keep_states)
    consensus = None
    if record.stop_reason == "consensus":
        consensus = float(record.final_state.mean())
    try:
        rate = estimate_rate(record)
    except PreconditionError:
        rate = None
    summary = RunSummary(
        scenario_id=scenario.scenario_id,
        name=scenario.name,
        stop_reason=record.stop_reason,
        steps=record.steps,
        final_state=record.final_state,
        consensus_value=consensus,
        classification=classify_limit(x0, scenario.kind, rjsc=bool(rjsc)),
        rate=rate,
        lemmas=check_lemmas(record),
        rjsc=rjsc,
    )
    return record, summary


def run_comparison(
    scenario: Scenario,
    baseline: SusceptibilityKind = DeGroot(),
    seed: Optional[int] = None,
    stop: Optional[StopRule] = None,
    keep_states: bool = True,
) -> dict[str, TrajectoryRecord]:
    """Run the scenario's kind and a baseline kind on identical inputs.

    One initial-opinion vector and one schedule realization feed both
    runs (random schedules draw by step index, so the realizations match
    exactly); the records come back keyed by kind name.
    """
    if scenario.kind.name == baseline.name:
        raise PreconditionError(f"comparison against the same kind {baseline.name!r}")
    active_stop = stop or scenario.stop
    x0 = initial_opinions(scenario, seed)
    schedule = build_schedule(scenario, seed)
    return {
        baseline.name: simulate(x0, schedule, baseline, active_stop, keep_states=keep_states),
        scenario.kind.name: simulate(x0, schedule, scenario.kind, active_stop, keep_states=keep_states),
    }


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def summary_to_dict(summary: RunSummary) -> dict:
    cls = summary.classification
    classification = {"outcome": cls.outcome.value, "basis": cls.basis}
    if cls.value is not None:
        classification["value"] = cls.value
    if cls.interval is not None:
        classification["interval"] = list(cls.interval)
    out = {
        "schema": SCHEMA_VERSION,
        "scenario": summary.scenario_id,
        "name": summary.name,
        "stop_reason": summary.stop_reason,
        "steps": summary.steps,
        "final_state": [float(v) for v in summary.final_state],
    }
    if summary.consensus_value is not None:
        out["consensus_value"] = summary.consensus_value
    out["classification"] = classification
    out["rate"] = (
        None if summary.rate is None
        else {"rho": summary.rate.rho, "r_squared": summary.rate.r_squared})
    out["lemma_checks"] = {
        "interval_step": summary.lemmas.interval_step,
        "min_step": summary.lemmas.min_step,
        "max_step": summary.lemmas.max_step,
    }
    out["rjsc"] = summary.rjsc
    return out


def write_summary(summary: RunSummary, path) -> None:
    """Summary as JSON with a fixed key order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(summary_to_dict(summary), fh, indent=2)
        fh.write("\n")
