"""Command-line entry point.

Exit codes: 0 on success, 1 on validation or precondition failure
(including usage errors) and when a ``simulate`` or ``compare`` run stops
on a non-finite state or breaks a lemma along its trajectory (after
writing the artifacts), 2 on I/O failure. Artifact paths are relative to
``--out`` (default ``./out``). ``simulate`` and ``compare`` stream their
trajectory CSVs through ``TrajectoryCsv``s, which move them into place
only when every run has finished; a run that fails leaves none behind.
``oracle`` applies to degroot scenarios on static schedules only.
``connectivity`` decides a static or periodic schedule for all time from
one period, and takes ``--horizon``, the last step examined, for random
schedules only.
``--seed``, ``--epsilon`` and ``--max-steps`` replace the scenario's
fields, so they change its ``scenario_id`` (an unnamed scenario's stem).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

from .analysis import check_lemmas, classify_limit, degroot_consensus_value
from .dynamics import DeGroot, TrajectoryCsv
from .errors import OpdynError, ValidationError
from .graph import (
    StaticSchedule,
    WeightMatrix,
    find_window_parameters,
    parse_weight_matrix_text,
    schedule_rjsc_status,
    verify_repeated_joint_connectivity,
)
from .scenario import (
    _KIND_NAMES,
    DEFAULT_BETA,
    Scenario,
    build_schedule,
    initial_opinions,
    load_scenario_file,
    run_comparison,
    run_scenario,
    write_summary,
)

# Kinds a degroot scenario can be compared against.
_ALTERNATIVES = sorted(name for name in _KIND_NAMES if name != "degroot")


class _UsageError(OpdynError, ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reject unknown flags with exit code 1
        raise _UsageError(message)


def _load(args) -> Scenario:
    """The command's scenario with its --seed, --epsilon and --max-steps applied."""
    scenario = load_scenario_file(args.scenario)
    stop = {field: value for field in ("max_steps", "consensus_epsilon")
            if (value := getattr(args, field, None)) is not None}
    seed = scenario.seed if args.seed is None else args.seed
    return dataclasses.replace(scenario, seed=seed, stop=dataclasses.replace(scenario.stop, **stop))


def _out_prefix(args, scenario: Scenario) -> str:
    """``--out``, created, joined with the scenario's name, or its id if unnamed."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return str(out / (scenario.name or scenario.scenario_id))


def _exit_code(record, lemmas, run: str = "") -> int:
    """1, after saying why on stderr, when a run stopped on a non-finite
    state or its trajectory breaks a lemma; 0 otherwise. ``run`` names
    the run in the message."""
    if record.stop_reason == "non_finite":
        print(f"error: {run}step {record.steps + 1} produced a non-finite state; "
              f"the artifacts end at step {record.steps}", file=sys.stderr)
        return 1
    if not lemmas.ok:
        step, clause = min((step, clause) for clause, step in dataclasses.asdict(lemmas).items()
                           if step is not None)
        print(f"error: {run}lemma violation at step {step} ({clause})", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(args) -> int:
    scenario = _load(args)
    prefix = _out_prefix(args, scenario)
    with TrajectoryCsv(f"{prefix}.trajectory.csv", scenario.n) as writer:
        record, summary = run_scenario(scenario, keep_states=False, writer=writer)
    write_summary(summary, f"{prefix}.summary.json")
    if summary.consensus_value is not None:
        print(f"consensus {summary.consensus_value:.12g} at step {summary.steps}")
    else:
        print(f"stopped: {summary.stop_reason} after {summary.steps} steps "
              f"(spread {record.maxs[-1] - record.mins[-1]:.3e})")
    return _exit_code(record, summary.lemmas)


def _cmd_validate(args) -> int:
    path = Path(args.target)
    if path.suffix == ".json":
        if args.beta is not None:
            raise _UsageError("--beta applies only to matrix files; "
                              "a scenario declares its own beta")
        scenario = load_scenario_file(path)
        print(f"valid scenario {scenario.scenario_id} (n={scenario.n}, "
              f"kind={scenario.kind.name}, schedule={scenario.schedule_kind})")
        return 0
    beta = DEFAULT_BETA if args.beta is None else args.beta
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    entries = parse_weight_matrix_text(text)
    try:
        WeightMatrix(entries, beta)
    except ValidationError as exc:
        print(f"invalid weight matrix: {len(exc.violations)} violation(s)")
        for violation in exc.violations:
            print(f"  {violation}")
        return 1
    print(f"valid weight matrix (n={entries.shape[0]}, beta={beta})")
    return 0


def _cmd_classify(args) -> int:
    scenario = _load(args)
    x0 = initial_opinions(scenario)
    schedule = build_schedule(scenario)
    rjsc = schedule_rjsc_status(schedule)
    result = classify_limit(x0, scenario.kind, rjsc=bool(rjsc))
    extra = ""
    if result.value is not None:
        extra = f" value={result.value:.12g}"
    if result.interval is not None:
        extra = f" interval=({result.interval[0]:g}, {result.interval[1]:g})"
    print(f"{result.outcome.value}{extra} [{result.basis}]")
    return 0


def _cmd_connectivity(args) -> int:
    if args.search and args.q is not None:
        raise _UsageError("--q applies only without --search; "
                          "with it, --p caps the window lengths tried")
    scenario = _load(args)
    if (args.horizon is None) == (scenario.schedule_kind == "random"):
        raise _UsageError("connectivity on a random schedule requires --horizon"
                          if args.horizon is None else "--horizon applies only to random "
                          "schedules; a static or periodic one is decided for all time")
    schedule = build_schedule(scenario)
    if args.search:
        found = find_window_parameters(schedule, args.horizon, max_p=args.p)
        if found is None:
            bound = "" if args.horizon is None else f" up to horizon {args.horizon}"
            print(f"no verifying window parameters{bound}")
            return 1
        print(f"repeatedly jointly strongly connected with p={found[0]}, q={found[1]}")
        return 0
    if args.p is None or args.q is None:
        raise _UsageError("connectivity requires --p and --q (or --search)")
    ok = verify_repeated_joint_connectivity(schedule, args.p, args.q, args.horizon)
    print(f"repeatedly jointly strongly connected for p={args.p}, q={args.q}: {ok}")
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    scenario = _load(args)
    if scenario.kind.name == "degroot":
        baseline = _KIND_NAMES[args.against or "stubborn_positive"]()
    elif args.against is not None:
        raise _UsageError(f"--against applies only to degroot scenarios; "
                          f"this one is {scenario.kind.name}")
    else:
        baseline = DeGroot()
    prefix = _out_prefix(args, scenario)
    with contextlib.ExitStack() as stack:
        writers = {name: stack.enter_context(TrajectoryCsv(f"{prefix}.{name}.csv", scenario.n))
                   for name in (baseline.name, scenario.kind.name)}
        records = run_comparison(scenario, baseline=baseline, writers=writers)
    outcomes = []
    limits = []
    for kind_name, record in records.items():
        if record.consensus_value is not None:
            limits.append(record.consensus_value)
            outcomes.append(f"{kind_name} -> consensus {limits[-1]:.12g} "
                            f"at step {record.steps}")
        else:
            spread = record.maxs[-1] - record.mins[-1]
            outcomes.append(f"{kind_name} -> no consensus: {record.stop_reason} "
                            f"after {record.steps} steps, spread {spread:.3e}")
    if len(limits) == 2:
        difference = f"difference {abs(limits[0] - limits[1]):.3e}"
    else:
        difference = "difference undefined: not both runs reached consensus"
    print(f"{' | '.join(outcomes)} ({difference})")
    return max(_exit_code(record, check_lemmas(record), f"{kind_name} run: ")
               for kind_name, record in records.items())


def _cmd_oracle(args) -> int:
    scenario = _load(args)
    if scenario.kind.name != "degroot":
        raise _UsageError(f"the averaging oracle applies to degroot scenarios only; "
                          f"this one is {scenario.kind.name}")
    schedule = build_schedule(scenario)
    if not isinstance(schedule, StaticSchedule):
        raise _UsageError("the averaging oracle applies to static schedules only")
    x0 = initial_opinions(scenario)
    value = degroot_consensus_value(schedule.matrix, x0)
    print(f"fixed-graph averaging limit {value:.12g}")
    return 0


def _add_scenario(parser, runs=False):
    """The scenario and ``--seed``; with ``runs``, ``--out`` and the stop-rule overrides too."""
    parser.add_argument("scenario")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    if runs:
        parser.add_argument("--out", default="./out", help="output directory (default ./out)")
        parser.add_argument("--epsilon", dest="consensus_epsilon", metavar="EPSILON", type=float,
                            help="override the consensus spread threshold")
        parser.add_argument("--max-steps", type=int, default=None,
                            help="override the step budget")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opdyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario; write trajectory CSV and summary JSON")
    _add_scenario(p, runs=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("validate", help="validate a matrix file or scenario document")
    p.add_argument("target", help="matrix .txt or scenario .json")
    p.add_argument("--beta", type=float, default=None,
                   help=f"weight floor for matrix files (default {DEFAULT_BETA:g}; "
                        "a usage error for scenarios)")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("classify", help="predict the consensus limit from initial opinions")
    _add_scenario(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("connectivity", help="verify window connectivity of the schedule")
    _add_scenario(p)
    p.add_argument("--p", type=int, default=None, help="window length")
    p.add_argument("--q", type=int, default=None, help="first window start (>= 1)")
    p.add_argument("--horizon", type=int, default=None,
                   help="last step examined; required for random schedules, "
                        "a usage error for static and periodic ones")
    p.add_argument("--search", action="store_true",
                   help="search for the smallest verifying (p, q) instead")
    p.set_defaults(handler=_cmd_connectivity)

    p = sub.add_parser("compare", help="run plain averaging and the scenario kind on identical inputs")
    _add_scenario(p, runs=True)
    p.add_argument("--against", choices=_ALTERNATIVES, default=None,
                   help="kind to compare a degroot scenario against "
                        "(default stubborn_positive; a usage error for other kinds)")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("oracle", help="exact averaging limit on a static strongly connected graph")
    _add_scenario(p)
    p.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except OpdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # its text names the file
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
