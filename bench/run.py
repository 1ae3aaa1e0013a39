"""opdyn benchmark: one workload at one seed, end to end or layer by layer.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; opdyn is imported from its ``src`` tree and
nowhere else. The workload's scenario documents are generated from
``--seed`` (see ``workloads.py``). The measured phase repeats passes over
the workload, one call after another in this one process, until
``--seconds`` have gone by (at least two passes); ``wall_s`` is the median
pass. Set-up (import opdyn, then load every document) is timed in a fresh
interpreter after each pass, and ``setup_s`` is the median of those, so
that both sample the machine over the same stretch of time. BLAS runs on
one thread.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of BENCHMARK.json. A traced run alternates untraced and traced
passes: per-layer figures come from the traced passes (see ``tracing.py``),
and the tracing overhead is the difference of the two kinds' median pass
times. ``--workload all`` runs every workload in its own process and prints
their metrics side by side.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ensemble", "large_static", "cli_session")
MIN_PASSES = 2

_SETUP_PROBE = """\
import json, sys, time
docs = json.load(sys.stdin)
t0 = time.perf_counter()
import opdyn
for doc in docs:
    opdyn.load_scenario(doc)
print(time.perf_counter() - t0)
"""

# ROADMAP baseline rows that no workload reproduces.
BASELINE_NOT_COVERED = (
    "simulate step at n = 300 and n = 2000",
    "shifted-matvec step at n = 300 / 1000 / 2000",
    "trimmed single-trajectory loop and the 50-trajectory batch",
    "random_strongly_connected_matrix at n = 30 / 100 / 300",
    "generate_initial at n = 1e5",
    "verify_repeated_joint_connectivity at n = 100",
    "Tier-1 wall time, criterion 03",
)


def _import_opdyn():
    sys.path.insert(0, str(SRC))
    try:
        import opdyn
    except ImportError as exc:
        sys.exit(f"error: cannot import opdyn from {SRC}: {exc}")
    if not Path(opdyn.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: opdyn was imported from {opdyn.__file__}, not from {SRC}")
    return opdyn


def machine_info() -> dict:
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def setup_seconds(docs: list) -> float:
    """Import opdyn and load every document, timed in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE], input=json.dumps(docs),
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def step_call_us(opdyn) -> float:
    """One ``step`` at n = 4, as criterion 01 times it; minimum of 5 calls."""
    w = opdyn.uniform_complete_matrix(4)
    x = [1.0, -1.0, -1.0, -1.0]
    kind = opdyn.StubbornNeutral()
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        opdyn.step(x, w, kind)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def layer_metrics(inclusive: dict, own: dict, counts) -> dict:
    """Per-layer metrics of one traced pass."""
    def s(name):
        return inclusive.get(name, 0.0)

    steps = counts["dynamics.steps"]
    runs = counts["dynamics.runs"]
    simulate_self = own.get("dynamics.simulate", 0.0)
    return {
        "scenario.initial_opinions_s": s("scenario.initial_opinions"),
        "scenario.rjsc_s": s("scenario.rjsc"),
        "scenario.build_schedule_s": s("scenario.build_schedule"),
        "scenario.write_summary_s": s("scenario.write_summary"),
        "graph.random_matrix_s": s("graph.random_matrix"),
        "graph.random_matrix_calls": counts["graph.random_matrix_calls"],
        "graph.matrix_at_s": s("graph.matrix_at"),
        "graph.matrix_at_calls": counts["graph.matrix_at_calls"],
        "graph.connectivity_s": s("graph.connectivity"),
        "dynamics.simulate_self_s": simulate_self,
        "dynamics.steps": steps,
        "dynamics.step_us": simulate_self / steps * 1e6 if steps else 0.0,
        "dynamics.write_csv_s": s("dynamics.write_csv"),
        "dynamics.csv_rows": counts["dynamics.csv_rows"],
        "dynamics.csv_bytes": counts["dynamics.csv_bytes"],
        "dynamics.states_mb": counts["dynamics.states_bytes"] / 1e6,
        "dynamics.stop_consensus_frac": counts["dynamics.converged_runs"] / runs if runs else 0.0,
        "analysis.check_lemmas_s": s("analysis.check_lemmas"),
        "analysis.estimate_rate_s": s("analysis.estimate_rate"),
        "analysis.classify_s": s("analysis.classify"),
        "analysis.stationary_s": s("analysis.stationary"),
        "cli.simulate_s": s("cli.simulate"),
        "cli.compare_s": s("cli.compare"),
        "cli.classify_s": s("cli.classify"),
        "cli.connectivity_s": s("cli.connectivity"),
    }


def baseline_lines(workload: str, m: dict) -> list:
    """ROADMAP baseline rows next to this workload's traced figures."""
    if workload == "ensemble":
        lookup_us = m["graph.matrix_at_s"] / max(m["graph.matrix_at_calls"], 1) * 1e6
        rows = [("simulate step, static, n = 4: 20 us",
                 f"{m['dynamics.step_us']:.1f} us self + {lookup_us:.1f} us schedule lookup "
                 f"per step, n = 3..8")]
    elif workload == "large_static":
        rows = [("simulate step, n = 1000: 3.4 ms",
                 f"{m['dynamics.step_us'] / 1e3:.2f} ms self per step"),
                ("random_strongly_connected_matrix: 195 ms at n = 300",
                 f"{m['graph.random_matrix_s']:.3f} s at n = 1000")]
    else:
        row_us = m["dynamics.write_csv_s"] / max(m["dynamics.csv_rows"], 1) * 1e6
        rows = [("trajectory CSV export: 42 us per row at n = 30", f"{row_us:.1f} us per row"),
                ("verify_repeated_joint_connectivity, n = 30: 38 ms at horizon 500",
                 f"{m['graph.connectivity_s'] * 1e3:.1f} ms at horizon 2000")]
    return ([f"baseline  {row}  ->  here: {found}" for row, found in rows]
            + [f"baseline  not covered: {row}" for row in BASELINE_NOT_COVERED])


def run_workload(opdyn, args, spec: dict) -> dict:
    import tracing
    import workloads

    docs = workloads.DOCUMENTS[args.workload](args.seed)
    work_root = ROOT / ".bench_build"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="opdyn-", dir=work_root))
    try:
        tracer = tracing.Tracer() if args.trace else None
        uninstall = tracing.install(tracer) if tracer else None
        scenarios = [opdyn.load_scenario(doc) for doc in docs]
        if uninstall:
            uninstall()
        inputs = workloads.Inputs(scenarios)
        if args.workload == "cli_session":
            inputs.scenario_path = work / "scenario.json"
            inputs.scenario_path.write_text(docs[0], encoding="utf-8")
            inputs.out_dir = work / "out"
        setup = []

        run_pass = workloads.PASSES[args.workload]
        tally = workloads.Tally()
        plain, traced, layers = [], [], []
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k < MIN_PASSES or time.perf_counter() < deadline:
            if tracer and k % 2:
                tracer.segment(f"pass {k}")
                uninstall = tracing.install(tracer)
                try:
                    wall, steps = run_pass(inputs, tally, tracer.region)
                finally:
                    uninstall()
                traced.append((wall, steps))
                layers.append(layer_metrics(*tracer.totals(len(tracer.segments) - 1),
                                            tracer.counts))
            else:
                plain.append(run_pass(inputs, tally))
                if not tracer:
                    setup.append(setup_seconds(docs))
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [w for w, _ in plain]
    if tracer:
        values = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
        values["scenario.load_s"] = tracer.totals(0)[0].get("scenario.load", 0.0)
        values["dynamics.step_call_us"] = step_call_us(opdyn)
        values["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                      - statistics.median(walls))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "steps_per_s": statistics.median(s / w for w, s in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "correct_frac": 1.0 - tally.failed_frac,
        }
        wanted = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in wanted):
        sys.exit(f"error: metrics {sorted(values)} do not match BENCHMARK.json")

    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"{plain[0][1]} trajectory steps per pass")
    print("pass wall times: " + ", ".join(f"{w:.3f}" for w in walls))
    print(f"checks: {tally.failed} of {tally.attempted} runs or commands failed "
          f"(failed_frac {tally.failed_frac:g})")
    for problem in tally.problems[:10]:
        print(f"  failed: {problem}")
    if not args.trace:
        print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup))
    for m in wanted:
        print(f"{m['name']:32s} {values[m['name']]:>16.6g} {m['unit']}")
    if tracer:
        for line in baseline_lines(args.workload, values):
            print(line)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def run_all(args) -> int:
    """Every workload in its own process; one table of their metrics."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, timeout=900)
        results[workload] = json.loads(done.stdout.splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':32s} {'unit':8s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:32s} {unit:8s}" + "".join(
            f"{results[w]['metrics'][name]['value']:>16.6g}" for w in WORKLOADS))
    print(f"{'failed_frac':32s} {'ratio':8s}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>16.6g}" for w in WORKLOADS))
    print(f"{'attempted':32s} {'count':8s}" + "".join(
        f"{results[w]['attempted']:>16d}" for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except OSError as exc:
        sys.exit(f"error: cannot read {spec_path}: {exc}")
    opdyn = _import_opdyn()
    if args.workload == "all":
        return run_all(args)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"opdyn benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"why: {why}")
    print("machine: " + json.dumps(machine_info()))
    result = run_workload(opdyn, args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
