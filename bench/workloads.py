"""Seeded inputs, one pass of each workload, and the correctness checks.

Every input is a scenario document generated here from the workload seed
with Python's own ``random.Random``; opdyn receives only the documents (as
JSON text or files) and derives every other random number from their
``seed`` fields. The same workload seed always yields the same documents.

A pass runs the workload's calls once, in a closed loop: each call starts
when the previous one returns. Each pass function returns the pass's wall
time and the trajectory transitions it completed, and records its checks,
made after the timed calls, in a ``Tally``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import opdyn
from opdyn import cli

# ensemble: every kind crossed with every schedule kind and every opinion
# class, repeated, so that the work a seed asks for varies only through the
# drawn values. Mixed-sign starts are explicit lists with both signs present;
# one-signed starts use the scenario's seeded generator, kept away from 0 so
# that stubborn_neutral runs converge geometrically instead of creeping.
ENSEMBLE_REPEATS = 10
ENSEMBLE_KINDS = ("degroot", "constant", "stubborn_positive",
                  "stubborn_neutral", "stubborn_extremist")
ENSEMBLE_SCHEDULES = ("generated", "periodic", "random")
ENSEMBLE_OPINIONS = ("mixed", "positive", "negative")
ENSEMBLE_SIZES = (3, 4, 5, 6, 7, 8)
ENSEMBLE_STOP = {"max_steps": 3000, "consensus_epsilon": 1e-9}

# large_static: the stubborn_neutral run is capped at LARGE_STEPS, before its
# 1e-9 consensus (1.7 k to 2.0 k steps over seeds 1-10): the step count to
# consensus spreads 9 % between seeds, which a fixed cap removes. The DeGroot
# run goes to consensus and is held to the stationary-weights oracle.
LARGE_N = 1000
LARGE_EDGE_PROBABILITY = 0.003
LARGE_STEPS = 500
LARGE_DEGROOT_EPSILON = 1e-12
ORACLE_TOLERANCE = 1e-8

# cli_session: the agent pinned at +1 drags the others towards it too slowly
# for the 1e-4 target, so simulate and compare's stubborn run both stop at
# CLI_MAX_STEPS and keep every one of its states.
CLI_N = 30
CLI_POOL = 3
CLI_EDGE_PROBABILITY = 0.1
CLI_MAX_STEPS = 20_000
CLI_HORIZON = 2000

# A run that stops on consensus lands within this distance of a predicted
# point limit. Consensus at 1e-9 leaves every agent within 1e-9 of the mean.
POINT_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# Document generation
# ---------------------------------------------------------------------------

def _matrix(rng: random.Random, n: int, edge_probability: float) -> list[list[float]]:
    """Row-stochastic matrix with self-loops and a random full cycle, so its
    graph is strongly connected, plus extra arcs with the given probability."""
    order = list(range(n))
    rng.shuffle(order)
    support = [[i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        support[order[(k + 1) % n]][order[k]] = True
    rows = []
    for i in range(n):
        raw = [rng.uniform(1.0, 2.0) if support[i][j] or rng.random() < edge_probability
               else 0.0 for j in range(n)]
        total = sum(raw)
        rows.append([v / total for v in raw])
    return rows


def _beta(matrices) -> float:
    return min(v for m in matrices for row in m for v in row if v > 0.0)


def _ensemble_document(rng: random.Random, k: int, kind: str, sched: str,
                       opinions: str) -> dict:
    n = ENSEMBLE_SIZES[k % len(ENSEMBLE_SIZES)]
    if sched == "generated":
        schedule = {"kind": "static", "generated": {"edge_probability": rng.uniform(0.2, 0.8)}}
        matrices = []
    else:
        matrices = [_matrix(rng, n, rng.uniform(0.0, 0.5)) for _ in range(rng.randint(2, 3))]
        schedule = {"kind": sched, ("matrices" if sched == "periodic" else "pool"): matrices}
    if opinions == "mixed":
        x0 = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        x0[0], x0[1] = -rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
    else:
        lo, hi = sorted([rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)])
        x0 = {"uniform": [lo, hi] if opinions == "positive" else [-hi, -lo]}
    susceptibility = kind
    if kind == "constant":
        susceptibility = {"kind": "constant",
                          "openness": [rng.uniform(0.1, 1.0) for _ in range(n)]}
    doc = {
        "schema": 1,
        "name": f"ensemble-{k:03d}",
        "n": n,
        "x0": x0,
        "schedule": schedule,
        "susceptibility": susceptibility,
        "stop": dict(ENSEMBLE_STOP),
        "seed": rng.getrandbits(64),
    }
    if matrices:
        doc["beta"] = _beta(matrices)
    return doc


def ensemble_documents(seed: int) -> list[str]:
    rng = random.Random(f"ensemble/{seed}")
    cells = list(itertools.product(ENSEMBLE_KINDS, ENSEMBLE_SCHEDULES, ENSEMBLE_OPINIONS))
    return [json.dumps(_ensemble_document(rng, k, *cells[k % len(cells)]))
            for k in range(ENSEMBLE_REPEATS * len(cells))]


def large_static_documents(seed: int) -> list[str]:
    rng = random.Random(f"large_static/{seed}")
    return [json.dumps({
        "schema": 1,
        "name": "large-static",
        "n": LARGE_N,
        "x0": {"uniform": [0.05, 0.5]},
        "schedule": {"kind": "static",
                     "generated": {"edge_probability": LARGE_EDGE_PROBABILITY}},
        "susceptibility": "stubborn_neutral",
        "stop": {"max_steps": LARGE_STEPS, "consensus_epsilon": 1e-9},
        "seed": rng.getrandbits(64),
    })]


def cli_session_documents(seed: int) -> list[str]:
    rng = random.Random(f"cli_session/{seed}")
    pool = [_matrix(rng, CLI_N, CLI_EDGE_PROBABILITY) for _ in range(CLI_POOL)]
    x0 = [rng.uniform(-0.9, 0.9) for _ in range(CLI_N)]
    x0[rng.randrange(CLI_N)] = 1.0
    return [json.dumps({
        "schema": 1,
        "name": "cli-session",
        "n": CLI_N,
        "beta": _beta(pool),
        "x0": x0,
        "schedule": {"kind": "random", "pool": pool},
        "susceptibility": "stubborn_positive",
        "stop": {"max_steps": CLI_MAX_STEPS, "consensus_epsilon": 1e-9,
                 "target": 1.0, "target_epsilon": 1e-4},
        "seed": rng.getrandbits(64),
    })]


DOCUMENTS = {
    "ensemble": ensemble_documents,
    "large_static": large_static_documents,
    "cli_session": cli_session_documents,
}


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Runs or commands attempted, and those that failed a check."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def run_problems(lemmas, classification, stop_reason: str, final_state) -> list:
    """What is wrong with one simulated run, judged by tolerances only.

    The lemma report must be clean. When the run stopped on consensus and
    the classifier predicted a point or an open interval, the final state
    must agree with the prediction.
    """
    problems = []
    if not lemmas.ok:
        problems.append(f"lemma violation {lemmas}")
    if stop_reason == "consensus" and classification is not None:
        final = np.asarray(final_state, dtype=float)
        if classification.value is not None:
            gap = float(np.abs(final - classification.value).max())
            if gap > POINT_TOLERANCE:
                problems.append(f"final state {gap:.3e} away from predicted "
                                f"{classification.value}")
        if classification.interval is not None:
            lo, hi = classification.interval
            if not (lo < final.min() and final.max() < hi):
                problems.append(f"final state [{final.min()!r}, {final.max()!r}] "
                                f"outside predicted ({lo}, {hi})")
    return problems


# ---------------------------------------------------------------------------
# One pass of each workload
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """What a workload's passes run on, prepared in set-up."""

    scenarios: list
    scenario_path: Optional[Path] = None
    out_dir: Optional[Path] = None
    first_csv_digest: Optional[str] = None


def _no_region(name):
    return contextlib.nullcontext()


def ensemble_pass(inputs: Inputs, tally: Tally, region=_no_region) -> tuple[float, int]:
    t0 = time.perf_counter()
    summaries = [opdyn.run_scenario(sc, keep_states=False)[1] for sc in inputs.scenarios]
    wall = time.perf_counter() - t0
    for sc, s in zip(inputs.scenarios, summaries):
        tally.record(sc.name, run_problems(s.lemmas, s.classification, s.stop_reason,
                                           s.final_state))
    return wall, sum(s.steps for s in summaries)


def large_static_pass(inputs: Inputs, tally: Tally, region=_no_region) -> tuple[float, int]:
    (sc,) = inputs.scenarios
    t0 = time.perf_counter()
    x0 = opdyn.initial_opinions(sc)
    schedule = opdyn.build_schedule(sc)
    rjsc = opdyn.schedule_rjsc_status(schedule)
    record = opdyn.simulate(x0, schedule, sc.kind, sc.stop, keep_states=False)
    lemmas = opdyn.check_lemmas(record)
    opdyn.estimate_rate(record)
    classification = opdyn.classify_limit(x0, sc.kind, rjsc=bool(rjsc))
    oracle = opdyn.degroot_consensus_value(schedule.matrix, x0)
    averaged = opdyn.simulate(x0, schedule, opdyn.DeGroot(),
                              opdyn.StopRule(consensus_epsilon=LARGE_DEGROOT_EPSILON),
                              keep_states=False)
    averaged_lemmas = opdyn.check_lemmas(averaged)
    wall = time.perf_counter() - t0

    tally.record(sc.kind.name, run_problems(lemmas, classification, record.stop_reason,
                                            record.final_state))
    problems = run_problems(averaged_lemmas, None, averaged.stop_reason, averaged.final_state)
    gap = float(np.abs(averaged.final_state - oracle).max())
    if averaged.stop_reason != "consensus" or gap > ORACLE_TOLERANCE:
        problems.append(f"degroot run stopped on {averaged.stop_reason}, "
                        f"{gap:.3e} from the oracle")
    tally.record("degroot", problems)
    return wall, record.steps + averaged.steps


def _read_csv(path: Path) -> tuple[str, int, bytes]:
    """sha256, data rows and the t=0 row of a trajectory CSV."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        head = fh.readline()
        first = fh.readline()
        digest.update(head + first)
        rows = 1
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            rows += chunk.count(b"\n")
    return digest.hexdigest(), rows, first


def cli_commands(inputs: Inputs) -> list[tuple[str, list, int]]:
    """The session's commands in order: name, argv, expected exit code."""
    path, out = str(inputs.scenario_path), str(inputs.out_dir)
    return [
        ("simulate", ["simulate", path, "--out", out], 0),
        ("compare", ["compare", path, "--out", out], 0),
        ("classify", ["classify", path], 0),
        ("connectivity", ["connectivity", path, "--p", "1", "--q", "1",
                          "--horizon", str(CLI_HORIZON)], 0),
    ]


def cli_session_pass(inputs: Inputs, tally: Tally, region=_no_region) -> tuple[float, int]:
    commands = cli_commands(inputs)
    codes = []
    printed = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        for name, argv, _ in commands:
            with region(f"cli.{name}"):
                codes.append(cli.main(argv))
    wall = time.perf_counter() - t0

    problems = {name: ([] if code == expected else [f"exit code {code}, expected {expected}"])
                for (name, _, expected), code in zip(commands, codes)}
    try:
        steps = _check_cli_outputs(inputs, printed.getvalue(), problems)
    except (OSError, ValueError, KeyError) as exc:
        problems["simulate"].append(f"unreadable output: {exc!r}")
        steps = 0
    for name, found in problems.items():
        tally.record(f"cli {name}", found)
    return wall, steps


def _check_cli_outputs(inputs: Inputs, printed: str, problems: dict) -> int:
    """Check the files and lines the session wrote; returns its steps."""
    (sc,) = inputs.scenarios
    out = inputs.out_dir
    summary = json.loads((out / f"{sc.name}.summary.json").read_text(encoding="utf-8"))
    if any(v is not None for v in summary["lemma_checks"].values()):
        problems["simulate"].append(f"lemma violation {summary['lemma_checks']}")
    digest, rows, first = _read_csv(out / f"{sc.name}.trajectory.csv")
    if rows != summary["steps"] + 1:
        problems["simulate"].append(f"{rows} CSV rows for {summary['steps']} steps")
    if inputs.first_csv_digest is None:
        inputs.first_csv_digest = digest
    elif inputs.first_csv_digest != digest:
        problems["simulate"].append("repeated simulate wrote a different CSV")
    steps = summary["steps"]

    for kind in ("degroot", sc.kind.name):
        _, kind_rows, kind_first = _read_csv(out / f"{sc.name}.{kind}.csv")
        steps += kind_rows - 1
        if kind_first != first:
            problems["compare"].append(f"{kind} run does not start from the simulated t=0 row")

    if not any(ln.startswith("consensus_at_one") for ln in printed.splitlines()):
        problems["classify"].append("no consensus_at_one prediction for a pinned agent")
    return steps


PASSES = {
    "ensemble": ensemble_pass,
    "large_static": large_static_pass,
    "cli_session": cli_session_pass,
}
