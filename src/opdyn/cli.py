"""Command-line entry point.

Exit codes: 0 on success, 1 on validation or precondition failure
(including usage errors) and when ``simulate`` stops on a non-finite state
or finds a lemma violation in its trajectory (after writing its
artifacts), 2 on I/O failure. Artifact paths are relative to ``--out``
(default ``./out``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .analysis import classify_limit, degroot_consensus_value
from .dynamics import DeGroot, StopRule, write_trajectory_csv
from .errors import OpdynError
from .graph import (
    StaticSchedule,
    find_window_parameters,
    parse_weight_matrix_text,
    schedule_rjsc_status,
    validate_weight_matrix,
    verify_repeated_joint_connectivity,
)
from .scenario import (
    _KIND_NAMES,
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


def _stop_override(scenario: Scenario, args) -> StopRule:
    """The scenario's stop rule with the --max-steps and --epsilon overrides."""
    overrides = {"max_steps": args.max_steps, "consensus_epsilon": args.epsilon}
    return dataclasses.replace(
        scenario.stop, **{field: v for field, v in overrides.items() if v is not None})


def _stem(scenario: Scenario) -> str:
    return scenario.name if scenario.name else scenario.scenario_id


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    scenario = load_scenario_file(args.scenario)
    record, summary = run_scenario(scenario, seed=args.seed, stop=_stop_override(scenario, args))
    out = _out_dir(args)
    stem = _stem(scenario)
    write_trajectory_csv(record, out / f"{stem}.trajectory.csv")
    write_summary(summary, out / f"{stem}.summary.json")
    if summary.consensus_value is not None:
        print(f"consensus {summary.consensus_value:.12g} at step {summary.steps}")
    else:
        print(f"stopped: {summary.stop_reason} after {summary.steps} steps "
              f"(spread {record.spreads[-1]:.3e})")
    if summary.stop_reason == "non_finite":
        print(f"error: step {summary.steps + 1} produced a non-finite state; "
              f"the artifacts end at step {summary.steps}", file=sys.stderr)
        return 1
    lemmas = summary.lemmas
    if not lemmas.ok:
        step, clause = min((step, clause) for clause, step in (
            ("interval_step", lemmas.interval_step), ("min_step", lemmas.min_step),
            ("max_step", lemmas.max_step)) if step is not None)
        print(f"error: lemma violation at step {step} ({clause})", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    path = Path(args.target)
    if path.suffix == ".json":
        scenario = load_scenario_file(path)
        print(f"valid scenario {scenario.scenario_id} (n={scenario.n}, "
              f"kind={scenario.kind.name}, schedule={scenario.schedule_kind})")
        return 0
    with open(path, "r", encoding="utf-8") as fh:
        entries = parse_weight_matrix_text(fh.read())
    report = validate_weight_matrix(entries, args.beta)
    if report.ok:
        print(f"valid weight matrix (n={entries.shape[0]}, beta={args.beta})")
        return 0
    print(f"invalid weight matrix: {len(report.violations)} violation(s)")
    for violation in report.violations:
        print(f"  {violation}")
    return 1


def _cmd_classify(args) -> int:
    scenario = load_scenario_file(args.scenario)
    x0 = initial_opinions(scenario, args.seed)
    schedule = build_schedule(scenario, args.seed)
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
    scenario = load_scenario_file(args.scenario)
    schedule = build_schedule(scenario, args.seed)
    if args.search:
        found = find_window_parameters(schedule, args.horizon, max_p=args.p)
        if found is None:
            print(f"no verifying window parameters up to horizon {args.horizon}")
            return 1
        print(f"repeatedly jointly strongly connected with p={found[0]}, q={found[1]}")
        return 0
    if args.p is None or args.q is None:
        raise _UsageError("connectivity requires --p and --q (or --search)")
    ok = verify_repeated_joint_connectivity(schedule, args.p, args.q, args.horizon)
    print(f"repeatedly jointly strongly connected for p={args.p}, q={args.q}: {ok}")
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    scenario = load_scenario_file(args.scenario)
    if scenario.kind.name == "degroot":
        baseline = _KIND_NAMES[args.against or "stubborn_positive"]()
    elif args.against is not None:
        raise _UsageError(f"--against applies only to degroot scenarios; "
                          f"this one is {scenario.kind.name}")
    else:
        baseline = DeGroot()
    records = run_comparison(
        scenario, baseline=baseline, seed=args.seed, stop=_stop_override(scenario, args))
    out = _out_dir(args)
    stem = _stem(scenario)
    outcomes = []
    limits = []
    for kind_name, record in records.items():
        write_trajectory_csv(record, out / f"{stem}.{kind_name}.csv")
        if record.stop_reason == "consensus":
            limits.append(float(record.final_state.mean()))
            outcomes.append(f"{kind_name} -> consensus {limits[-1]:.12g} "
                            f"at step {record.steps}")
        else:
            outcomes.append(f"{kind_name} -> no consensus: {record.stop_reason} "
                            f"after {record.steps} steps, spread {record.spreads[-1]:.3e}")
    if len(limits) == 2:
        difference = f"difference {abs(limits[0] - limits[1]):.3e}"
    else:
        difference = "difference undefined: not both runs reached consensus"
    print(f"{' | '.join(outcomes)} ({difference})")
    return 0


def _cmd_oracle(args) -> int:
    scenario = load_scenario_file(args.scenario)
    schedule = build_schedule(scenario, args.seed)
    if not isinstance(schedule, StaticSchedule):
        raise _UsageError("the averaging oracle applies to static schedules only")
    x0 = initial_opinions(scenario, args.seed)
    value = degroot_consensus_value(schedule.matrix, x0)
    print(f"fixed-graph averaging limit {value:.12g}")
    return 0


def _add_common(parser, seed=True, out=False, stop=False):
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    if out:
        parser.add_argument("--out", default="./out", help="output directory (default ./out)")
    if stop:
        parser.add_argument("--epsilon", type=float, default=None,
                            help="override the consensus spread threshold")
        parser.add_argument("--max-steps", type=int, default=None,
                            help="override the step budget")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opdyn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario; write trajectory CSV and summary JSON")
    p.add_argument("scenario")
    _add_common(p, out=True, stop=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("validate", help="validate a matrix file or scenario document")
    p.add_argument("target", help="matrix .txt or scenario .json")
    p.add_argument("--beta", type=float, default=1e-12,
                   help="weight floor for matrix files (default 1e-12)")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("classify", help="predict the consensus limit from initial opinions")
    p.add_argument("scenario")
    _add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("connectivity", help="verify window connectivity of the schedule")
    p.add_argument("scenario")
    p.add_argument("--p", type=int, default=None, help="window length")
    p.add_argument("--q", type=int, default=None, help="first window start (>= 1)")
    p.add_argument("--horizon", type=int, required=True, help="steps to examine")
    p.add_argument("--search", action="store_true",
                   help="search for the smallest verifying (p, q) instead")
    _add_common(p)
    p.set_defaults(handler=_cmd_connectivity)

    p = sub.add_parser("compare", help="run plain averaging and the scenario kind on identical inputs")
    p.add_argument("scenario")
    p.add_argument("--against", choices=_ALTERNATIVES, default=None,
                   help="kind to compare a degroot scenario against "
                        "(default stubborn_positive; a usage error for other kinds)")
    _add_common(p, out=True, stop=True)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("oracle", help="exact averaging limit on a static strongly connected graph")
    p.add_argument("scenario")
    _add_common(p)
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
    except OSError as exc:
        name = getattr(exc, "filename", None)
        where = f" ({name})" if name else ""
        print(f"i/o error: {exc}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
