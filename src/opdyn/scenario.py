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
draws from ``pool``); none takes another kind's field, and none has a
length: ``stop.max_steps`` bounds a run.
Susceptibility is one of the kind names, or
``{"kind": "constant", "openness": [...]}`` for per-agent fixed openness.

Unknown fields are rejected, every matrix is validated against the
scenario's ``beta``, and all randomness is derived from the single seed
through fixed substreams (0: initial opinions, 1: schedule draws,
2: generated matrices), so a (document, seed) pair is fully reproducible.
A ``Scenario``'s document and id are rebuilt from its parsed fields, so
documents describing one run share one id, and an override is a
``dataclasses.replace`` whose id names the run it makes.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from typing import Mapping, Optional, Union

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
    BlockWriter,
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
from .errors import PreconditionError, SchemaError, ValidationError, _brief
from .graph import (
    GraphSchedule,
    PeriodicSchedule,
    RandomSchedule,
    StaticSchedule,
    WeightMatrix,
    random_strongly_connected_matrix,
    schedule_rjsc_status,
)
from .rng import SplitMix64, derive_seed

SCHEMA_VERSION = 1
DEFAULT_BETA = 1e-12

_X0_STREAM = 0
_SCHEDULE_STREAM = 1
_MATRIX_STREAM = 2

_KIND_NAMES = {
    "degroot": DeGroot,
    "stubborn_positive": StubbornPositive,
    "stubborn_neutral": StubbornNeutral,
    "stubborn_extremist": StubbornExtremist,
}

# The matrix fields each schedule kind takes, besides "kind".
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
    # The first n draws strictly inside, in stream order: the draws that
    # drawing one by one and redrawing each endpoint would keep.
    rng = SplitMix64(seed)
    out = np.empty(0)
    while out.size < n:
        draws = low + (high - low) * rng.random_block(n)  # as rng.uniform, draw by draw
        out = np.concatenate((out, draws[(low < draws) & (draws < high)]))
    return out[:n]


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    for key in obj:
        if key not in allowed:
            key = key if len(key) <= 80 else _brief(key)  # echo a huge key cut short
            raise SchemaError(f"{path}.{key}" if path else key, "unknown field")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}" if path else key, "missing required field")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {_brief(value)}")
    return value


def _as_number(value, path: str) -> float:
    """A JSON number as a finite double; a bool is not a number."""
    if type(value) not in (int, float):
        raise SchemaError(path, f"expected a number, got {_brief(value)}")
    try:
        value = float(value)
    except OverflowError:
        raise SchemaError(path, "integer too large for a double") from None
    if value - value != 0.0:  # NaN and the infinities
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return value


def _parse_matrix(raw, n: int, beta: float, path: str) -> WeightMatrix:
    if not isinstance(raw, list) or len(raw) != n:
        raise SchemaError(path, f"expected a {n}x{n} matrix as a list of {n} rows")
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}[{i}]", f"expected a row of {n} numbers")
        for j, v in enumerate(row):
            if type(v) is not float or v - v != 0.0:  # all but a finite double
                _as_number(v, f"{path}[{i}][{j}]")
    try:
        return WeightMatrix(raw, beta)
    except ValidationError as exc:  # the findings alone, without the headline
        violations = "\n".join(map(str, exc.violations))
        raise SchemaError(path, f"matrix violates weight rules: {violations}") from None


def _parse_x0(raw, n: int, path: str = "x0") -> Union[np.ndarray, tuple[float, float]]:
    """The opinions as a read-only array, or a generator's (low, high) interval."""
    if isinstance(raw, list):
        if len(raw) != n:
            raise SchemaError(path, f"expected {n} entries, got {len(raw)}")
        vals = np.empty(n)
        for k, v in enumerate(raw):
            x = _as_number(v, f"{path}[{k}]")
            if not -1.0 <= x <= 1.0:
                raise SchemaError(f"{path}[{k}]", f"value {x!r} outside [-1, 1]")
            vals[k] = x
        vals.setflags(write=False)  # a frozen Scenario's id names these opinions
        return vals
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
        return low, high
    raise SchemaError(path, "expected a list of opinions or a generator object")


def _parse_kind(raw, n: int, path: str = "susceptibility") -> SusceptibilityKind:
    if isinstance(raw, str):
        if raw not in _KIND_NAMES:
            raise SchemaError(path, f"unknown kind {_brief(raw)}; one of {sorted(_KIND_NAMES)}")
        return _KIND_NAMES[raw]()
    if isinstance(raw, dict):
        _require_keys(raw, {"kind", "openness"}, {"kind"}, path)
        if raw["kind"] != "constant":
            raise SchemaError(f"{path}.kind", f"only 'constant' takes parameters, got {_brief(raw['kind'])}")
        if "openness" not in raw:
            raise SchemaError(f"{path}.openness", "missing required field")
        vals = raw["openness"]
        if not isinstance(vals, list) or len(vals) != n:
            raise SchemaError(f"{path}.openness", f"expected {n} values")
        openness = tuple(_as_number(v, f"{path}.openness[{k}]") for k, v in enumerate(vals))
        try:
            return Constant(openness)
        except ValidationError as exc:
            raise SchemaError(f"{path}.openness", str(exc))
    raise SchemaError(path, "expected a kind name or a constant-openness object")


def _parse_stop(raw, path: str = "stop") -> StopRule:
    if raw is None:
        return StopRule()
    if not isinstance(raw, dict):
        raise SchemaError(path, "expected an object")
    defaults = {field.name: field.default for field in fields(StopRule)}
    _require_keys(raw, set(defaults), set(), path)
    kwargs = {}
    for field, value in raw.items():
        if value is not None or defaults[field] is not None:  # null only where the default is
            parse = _as_int if isinstance(defaults[field], int) else _as_number
            kwargs[field] = parse(value, f"{path}.{field}")
    try:
        return StopRule(**kwargs)
    except ValidationError as exc:
        raise SchemaError(path, str(exc))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully validated experiment definition."""

    n: int
    beta: float
    seed: int
    name: Optional[str]
    x0: Union[np.ndarray, tuple[float, float]]  # the opinions, or a generator's (low, high)
    schedule_kind: str
    matrices: tuple[WeightMatrix, ...]
    generated_edge_probability: Optional[float]
    kind: SusceptibilityKind
    stop: StopRule

    def __post_init__(self):  # the seed and name rules, for documents and replace() alike
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise SchemaError("seed", f"expected an unsigned 64-bit integer, got {_brief(self.seed)}")
        if self.name is not None:  # a file stem under the CLI's --out
            if not isinstance(self.name, str):
                raise SchemaError("name", "expected a string")
            if self.name in (".", "..") or any(c in self.name for c in "/\\\0"):
                raise SchemaError("name", f"{_brief(self.name)} is not a file name "
                                          "(no '/', '\\' or NUL; not '.' or '..')")

    @cached_property
    def document(self) -> dict:
        """The canonical document, built on first use: numbers as parsed,
        every default materialized, a null ``name`` left out."""
        x0 = {"uniform": list(self.x0)} if isinstance(self.x0, tuple) else self.x0.tolist()
        schedule = {"kind": self.schedule_kind}
        if self.generated_edge_probability is not None:
            schedule["generated"] = {"edge_probability": self.generated_edge_probability}
        elif self.schedule_kind == "static":
            schedule["matrix"] = self.matrices[0].entries.tolist()
        else:
            (key,) = _SCHEDULE_FIELDS[self.schedule_kind]
            schedule[key] = [m.entries.tolist() for m in self.matrices]
        kind = ({"kind": "constant", "openness": list(self.kind.openness)}
                if isinstance(self.kind, Constant) else self.kind.name)
        doc = {"schema": SCHEMA_VERSION, "n": self.n, "beta": self.beta, "x0": x0,
               "schedule": schedule, "susceptibility": kind, "stop": asdict(self.stop),
               "seed": self.seed}
        if self.name is not None:
            doc["name"] = self.name
        return doc

    @cached_property
    def scenario_id(self) -> str:
        canonical = json.dumps(self.document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def load_scenario(text: Union[str, bytes]) -> Scenario:
    """Parse and fully validate a scenario JSON document, given as text or
    as a file's raw bytes (UTF-8, a byte-order mark accepted).

    Every number must be finite and every explicit matrix valid for the
    scenario's ``beta``; a rejection carries its field path, ``$`` for input that is not JSON.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # undecodable, malformed, too many digits or too deep
        raise SchemaError("$", f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be an object")
    _require_keys(
        doc,
        {"schema", "name", "n", "beta", "x0", "schedule", "susceptibility", "stop", "seed"},
        {"schema", "n", "x0", "schedule", "susceptibility"},
        "",
    )
    if _as_int(doc["schema"], "schema") != SCHEMA_VERSION:
        raise SchemaError("schema", f"unsupported version {_brief(doc['schema'])}, expected {SCHEMA_VERSION}")

    n = _as_int(doc["n"], "n")
    if n < 2:
        raise SchemaError("n", f"need at least 2 agents, got {n}")
    beta = _as_number(doc.get("beta", DEFAULT_BETA), "beta")
    if not beta > 0:  # NaN too
        raise SchemaError("beta", f"must be positive, got {beta}")

    sched = doc["schedule"]
    if not isinstance(sched, dict):
        raise SchemaError("schedule", "expected an object")
    if "kind" not in sched:
        raise SchemaError("schedule.kind", "missing required field")
    sched_kind = sched["kind"]
    if not isinstance(sched_kind, str) or sched_kind not in _SCHEDULE_FIELDS:
        raise SchemaError("schedule.kind", f"unknown kind {_brief(sched_kind)}")
    _require_keys(sched, {"kind", *_SCHEDULE_FIELDS[sched_kind]}, set(), "schedule")
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
        beta=beta,
        seed=doc.get("seed", 0),
        name=doc.get("name"),
        x0=_parse_x0(doc["x0"], n),
        schedule_kind=sched_kind,
        matrices=matrices,
        generated_edge_probability=generated_p,
        kind=kind,
        stop=stop,
    )


def load_scenario_file(path) -> Scenario:
    with open(path, "rb") as fh:
        return load_scenario(fh.read())


def _write_json(document: dict, path) -> None:
    text = json.dumps(document, indent=2, allow_nan=False)  # NaN raises before the file opens
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def write_scenario(scenario: Scenario, path) -> None:
    """Persist the canonical document; it reloads to the same id, entries bit-exact."""
    _write_json(scenario.document, path)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def initial_opinions(scenario: Scenario) -> np.ndarray:
    if not isinstance(scenario.x0, tuple):
        return opinion_vector(scenario.x0)
    low, high = scenario.x0
    return generate_initial(low, high, scenario.n, derive_seed(scenario.seed, _X0_STREAM))


def build_schedule(scenario: Scenario) -> GraphSchedule:
    if scenario.schedule_kind == "static":
        if scenario.generated_edge_probability is not None:
            rng = SplitMix64(derive_seed(scenario.seed, _MATRIX_STREAM))
            matrix = random_strongly_connected_matrix(
                scenario.n, rng, scenario.generated_edge_probability)
        else:
            matrix = scenario.matrices[0]
        return StaticSchedule(matrix)
    if scenario.schedule_kind == "periodic":
        return PeriodicSchedule(scenario.matrices)
    return RandomSchedule(scenario.matrices, seed=derive_seed(scenario.seed, _SCHEDULE_STREAM))


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
    stop: Optional[StopRule] = None,
    keep_states: bool = True,
    writer: Optional[BlockWriter] = None,
) -> tuple[TrajectoryRecord, RunSummary]:
    """Simulate a scenario and assemble its summary.

    ``stop`` runs ``replace(scenario, stop=stop)`` instead, and the summary
    carries that scenario's id. The summary's consensus value is the
    record's ``consensus_value``. ``keep_states`` and ``writer`` go to
    ``simulate``.
    """
    if stop is not None:
        scenario = replace(scenario, stop=stop)
    x0 = initial_opinions(scenario)
    schedule = build_schedule(scenario)
    rjsc = schedule_rjsc_status(schedule)
    record = simulate(x0, schedule, scenario.kind, scenario.stop,
                      keep_states=keep_states, writer=writer)
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
        consensus_value=record.consensus_value,
        classification=classify_limit(x0, scenario.kind, rjsc=bool(rjsc)),
        rate=rate,
        lemmas=check_lemmas(record),
        rjsc=rjsc,
    )
    return record, summary


def run_comparison(scenario: Scenario,
                   baseline: SusceptibilityKind = DeGroot(),
                   writers: Optional[Mapping[str, BlockWriter]] = None,
                   ) -> dict[str, TrajectoryRecord]:
    """Run the scenario's kind and a baseline kind on identical inputs.

    One initial-opinion vector and one schedule realization feed both
    runs (random schedules draw by step index, so the realizations match
    exactly); the records come back keyed by kind name. With ``writers``,
    keyed by kind name too, each run streams its states to its writer
    and keeps none; without, the records hold their states.
    """
    if scenario.kind.name == baseline.name:
        raise PreconditionError(f"comparison against the same kind {baseline.name!r}")
    x0 = initial_opinions(scenario)
    schedule = build_schedule(scenario)
    return {
        kind.name: simulate(x0, schedule, kind, scenario.stop, keep_states=writers is None,
                            writer=None if writers is None else writers[kind.name])
        for kind in (baseline, scenario.kind)
    }


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def summary_to_dict(summary: RunSummary) -> dict:
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
    out["classification"] = asdict(summary.classification, dict_factory=lambda items: {
        key: value.value if isinstance(value, enum.Enum) else value
        for key, value in items if value is not None})
    out["rate"] = None if summary.rate is None else asdict(summary.rate)
    out["lemma_checks"] = asdict(summary.lemmas)
    out["rjsc"] = summary.rjsc
    return out


def write_summary(summary: RunSummary, path) -> None:
    """Summary as JSON with a fixed key order."""
    _write_json(summary_to_dict(summary), path)
