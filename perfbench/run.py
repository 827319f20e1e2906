"""Certified-gap benchmark of the mrflp solvers.

    python3 perfbench/run.py --workload grid-fpd --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One run builds its workload's instance from ``--seed``, writes it as a UAI
file, times the set-up from that file several times, then repeats fixed-
iteration solves for about ``--seconds`` seconds.  Each solve's time is
scaled by host-speed probes run just before and just after it, and the run
reports the median scaled solve; set-up reports its fastest time, scaled by
the fastest probe gap (see NOTES.md).  Every solve's report is
checked (see ``checks.py``), and once per run the local-polytope LP is solved
independently to check that the certified bounds bracket its optimum.  A
failed solve or check is counted, recorded with its class and message, and
the run goes on.

With ``--trace 0`` the result carries the end-to-end metrics of untraced
solves.  With ``--trace 1`` untraced and traced solves alternate, and the
result carries the per-layer metrics of the fastest traced solve, plus exact
work counts from re-solving its last epoch's edge problems.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the instance sizes and every failure.
``--workload all`` runs every workload in its own process, untraced and
traced, and prints each metric by name and unit.
"""

from __future__ import annotations

import os

# one BLAS thread: the layers are single-threaded and timings must not
# depend on how many cores a neighbour leaves free
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import importlib.metadata
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# set-ups before the first solve; one more follows every solve, and the
# fastest of all is reported
SETUP_REPS = 11

# A probe gap's time (see probe_gap) on a quiet host.  The host's speed
# drifts by up to 2x over minutes as other tenants come and go, and solve
# times drift with it.  Reported times are therefore scaled by PROBE_REF_S /
# (probe gap time around them); see NOTES.md for the measurements.
PROBE_REF_S = 0.012
PROBES_PER_GAP = 5

# a run makes at least this many untraced (and as many traced) solves, even
# past --seconds, so that its times are a median or minimum over several
MIN_SOLVES = 3


def _import_program():
    """Import mrflp from this checkout's ``src`` and nowhere else."""
    if not (SRC / "mrflp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'mrflp'}")
    sys.path.insert(0, str(SRC))
    import mrflp

    if SRC not in Path(mrflp.__file__).resolve().parents:
        sys.exit(f"perfbench: imported mrflp from {mrflp.__file__}, not from {SRC}")


_import_program()

import numpy as np  # noqa: E402


import mrflp.solvers  # noqa: E402
from mrflp import DualContext, decompose_by_coloring, decompose_grid, read_uai, write_uai  # noqa: E402
from mrflp.tolerances import EQ_TOL, TRANSPORT_MARGINAL_TOL  # noqa: E402

from checks import check_report, entropic_counts, exact_counts, lp_bracket  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "rel_gap": "1",
    "proj_rel_gap": "1",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
}

# per-layer metrics and units; layers a workload never enters report 0
PER_LAYER = {
    "projections.primal_exact.self_s": "s",
    "projections.primal_exact.calls": "count",
    "projections.primal_exact.call_ms_p50": "ms",
    "transport.exact.pivots": "count",
    "transport.exact.problems": "count",
    "transport.shape_groups": "count",
    "projections.primal_entropic.self_s": "s",
    "projections.primal_entropic.calls": "count",
    "projections.primal_entropic.call_ms_p50": "ms",
    "transport.entropic.self_s": "s",
    "transport.entropic.iters": "count",
    "dualdec.soft_min.self_s": "s",
    "dualdec.soft_min.calls": "count",
    "dualdec.min_sum.self_s": "s",
    "dualdec.min_sum.calls": "count",
    "dualdec.plan_build.self_s": "s",
    "dualdec.free_energy.self_s": "s",
    "projections.dual.self_s": "s",
    "projections.dual.calls": "count",
    "packing.apply.self_s": "s",
    "packing.apply.calls": "count",
    "packing.simplex.self_s": "s",
    "model.certify.self_s": "s",
    "model.certify.calls": "count",
    "solvers.self_s": "s",
    "solvers.iterations": "count",
    "solvers.epochs": "count",
    "solvers.step_halvings": "count",
    "solvers.step_accept_ratio": "1",
    "projections.primal_improve_ratio": "1",
    "fileio.read_uai_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}


_PROBE_TABLE = np.random.default_rng(0).random((64, 4, 4))
_PROBE_COST = np.random.default_rng(1).random((4, 4))


def _probe_reductions() -> float:
    """Interpreter arithmetic and small-array numpy reductions."""
    table = _PROBE_TABLE
    start = time.perf_counter()
    for _ in range(300):
        table.min(axis=2).sum(axis=1)
        acc = 0.0
        for i in range(40):
            acc += i * 0.5
    return time.perf_counter() - start


def _probe_scalar_loop() -> float:
    """Element-wise numpy indexing in Python loops, like the interpreted
    transportation simplex."""
    cost = _PROBE_COST
    u = np.zeros(4)
    v = np.zeros(4)
    basic = np.zeros((4, 4), np.uint8)
    start = time.perf_counter()
    for _ in range(300):
        best = 0.0
        for i in range(4):
            for j in range(4):
                if basic[i, j] == 0:
                    reduced = cost[i, j] - u[i] - v[j]
                    if reduced < best:
                        best = reduced
                u[i] = cost[i, j] * 0.5
    return time.perf_counter() - start


def _probe_ufuncs() -> float:
    """Log-domain scaling on a 4x4 table, like entropic transport."""
    cost = _PROBE_COST
    g = np.zeros(4)
    start = time.perf_counter()
    for _ in range(300):
        top = cost.max(axis=1, keepdims=True)
        f = np.log(np.exp(cost - top).sum(axis=1)) + top[:, 0] - g
        g = np.log(np.exp(cost.T - f).sum(axis=1))
    return time.perf_counter() - start


# None of the probes calls the program, so a faster program does not make
# them faster.  A short probe of one kind of work saw a smaller slowdown
# than the solves did when neighbours were busy; these three together saw
# about the same (see NOTES.md).
PROBES = (_probe_reductions, _probe_scalar_loop, _probe_ufuncs)


def probe_gap(gaps: list) -> None:
    """Append the host's speed now: the sum over the probes of each one's
    fastest time out of ``PROBES_PER_GAP``."""
    gaps.append(sum(min(probe() for _ in range(PROBES_PER_GAP)) for probe in PROBES))


@dataclasses.dataclass
class Solve:
    seconds: float
    traced: bool
    summary: dict | None   # what the metrics need; reports are not kept
    tracer: Tracer | None
    failure: dict | None


def _decomposition(model, instance):
    if instance.forest_of_edge is None:
        return decompose_grid(model)
    return decompose_by_coloring(model, [instance.forest_of_edge[e] for e in model.edges])


def set_up(workload, instance, path):
    """UAI file to a ready solver: ``read_uai``, then for ``nest`` the
    decomposition, the packing and a ``DualContext``; for ``fpd`` the packing."""
    start = time.perf_counter()
    model = read_uai(path)
    read_s = time.perf_counter() - start
    decomposition = None
    if workload.solver == "nest":
        decomposition = _decomposition(model, instance)
        model.packing()
        DualContext(model, decomposition)
    else:
        model.packing()
    return model, decomposition, time.perf_counter() - start, read_s


def _solve(workload, model, decomposition):
    # looked up at call time, so a test can substitute a failing solver
    if workload.solver == "fpd":
        return mrflp.solvers.solve_fpd(model, workload.cfg)
    return mrflp.solvers.solve_nesterov(model, decomposition, workload.cfg)


def attempt(workload, model, decomposition, traced: bool) -> Solve:
    """One timed solve; an exception or failed check becomes a failure."""
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    try:
        if tracer is None:
            report = _solve(workload, model, decomposition)
        else:
            with tracer:
                report = _solve(workload, model, decomposition)
        seconds = time.perf_counter() - start
        problems = check_report(model, report)
        summary = summarize(report)
    except Exception as exc:  # the benchmark keeps running and counts it
        failure = {"op": "solve", "class": type(exc).__name__, "message": str(exc)}
        return Solve(time.perf_counter() - start, traced, None, tracer, failure)
    failure = {"op": "solve", "class": "CheckFailed", "message": "; ".join(problems)} if problems else None
    return Solve(seconds, traced, summary, tracer, failure)


def timed_solves(workload, model, decomposition, seconds: float, trace: bool, between) -> list[Solve]:
    """Solve repeatedly for about ``seconds``, and at least ``MIN_SOLVES``
    times, calling ``between()`` after every solve; with tracing, alternate
    untraced and traced solves, starting untraced."""
    solves: list[Solve] = []
    start = time.perf_counter()
    while True:
        solves.append(attempt(workload, model, decomposition, traced=trace and len(solves) % 2 == 1))
        between()
        typical = statistics.median(s.seconds for s in solves)
        if len(solves) >= (2 if trace else 1) * MIN_SOLVES and time.perf_counter() - start + typical > seconds:
            return solves


def relative(value: float, report) -> float:
    """A gap relative to ``max(1, |dual_bound|)``; gaps below ``EQ_TOL``
    cannot be told from zero, so they count as ``EQ_TOL``."""
    return max(value, EQ_TOL) / max(1.0, abs(report.dual_bound))


def improve_ratio(records) -> float:
    """Share of epochs whose projected point set a new best primal bound."""
    best = np.inf
    improved = 0
    for rec in records:
        if rec.projected_energy == rec.primal_bound and rec.primal_bound < best:
            improved += 1
        best = min(best, rec.primal_bound)
    return improved / len(records)


def summarize(report) -> dict:
    last = report.records[-1]
    return {
        "dual_bound": report.dual_bound,
        "primal_bound": report.primal_bound,
        "rel_gap": relative(report.gap, report),
        "proj_rel_gap": relative(last.projected_energy - last.dual_bound, report),
        "solvers.iterations": last.iteration,
        "solvers.epochs": len(report.records),
        "solvers.step_halvings": report.step_halvings,
        "projections.primal_improve_ratio": improve_ratio(report.records),
    }


def untraced_solve_s(solves, gaps) -> float:
    """Median untraced solve time, among successful solves if any, each
    scaled to the reference host speed by the probes on either side of it.

    ``gaps[k]`` is the probe gap before solve ``k`` and ``gaps[k + 1]`` the
    one after it.  Every solve of a run repeats the same deterministic work,
    so the spread between them is the host's speed, which steps between a
    fast and a slow level as other tenants come and go.
    """
    scaled = [
        (s, s.seconds * PROBE_REF_S / ((gaps[k] + gaps[k + 1]) / 2.0))
        for k, s in enumerate(solves)
        if not s.traced
    ]
    good = [t for s, t in scaled if s.failure is None] or [t for _, t in scaled]
    return statistics.median(good)


def end_to_end(solves, solve_s, setup_s, ok_frac, peak_rss_mb) -> dict:
    good = [s.summary for s in solves if not s.traced and s.failure is None]

    def median(key):
        return statistics.median(g[key] for g in good) if good else None

    values = {
        "solve_s": solve_s,
        "setup_s": setup_s,
        "rel_gap": median("rel_gap"),
        "proj_rel_gap": median("proj_rel_gap"),
        "ok_frac": ok_frac,
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(solves, read_s, counts) -> dict:
    plain = [s.seconds for s in solves if not s.traced]
    traced = [s for s in solves if s.traced and s.failure is None]
    values = {k: 0 if unit == "count" else 0.0 for k, unit in PER_LAYER.items()}
    if traced:
        chosen = min(traced, key=lambda s: s.seconds)
        tracer = chosen.tracer
        for name, entry in tracer.layers().items():
            for key, value in entry.items():
                if f"{name}.{key}" in values:
                    values[f"{name}.{key}"] = value
        values.update({k: v for k, v in chosen.summary.items() if k in values})
        iterations = chosen.summary["solvers.iterations"]
        attempts = tracer.counts.get("dualdec.step_attempts", 0)
        values.update({
            # fpd takes every step it computes
            "solvers.step_accept_ratio": iterations / attempts if attempts else 1.0,
            "trace.solve_s": tracer.total_s,
            "trace.overhead_s": chosen.seconds - min(plain),
        })
    values["fileio.read_uai_s"] = read_s
    values.update(counts)
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def work_counts(model, decomposition, solves, failures) -> tuple[dict, int]:
    """Re-solve the last epoch's edge problems of the chosen traced solve;
    returns the counts and the number of cross-checks made."""
    traced = [s for s in solves if s.traced and s.failure is None]
    shapes = {t.shape for t in model.pairwise}
    counts = {"transport.shape_groups": len(shapes)}
    if not traced:
        return counts, 0
    last = min(traced, key=lambda s: s.seconds).tracer.last
    resolved = []
    if "projections.primal_exact" in last:
        res = exact_counts(model, last["projections.primal_exact"][2])
        counts["transport.exact.pivots"] = res["pivots"]
        counts["transport.exact.problems"] = res["problems"]
        resolved.append(("exact", res))
    if "projections.primal_entropic" in last:
        args, _, projected = last["projections.primal_entropic"]
        res = entropic_counts(model, decomposition, projected, rho=args[3])
        counts["transport.entropic.iters"] = res["iters"]
        resolved.append(("entropic", res))
    for kind, res in resolved:
        if res["max_plan_diff"] > TRANSPORT_MARGINAL_TOL:
            failures.append({"op": "count-cross-check", "class": "CheckFailed",
                             "message": f"{kind} re-solve differs from the projection by {res['max_plan_diff']:.3e}"})
    return counts, len(resolved)


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def instance_record(model) -> dict:
    groups: dict[str, int] = {}
    for t in model.pairwise:
        key = f"{t.shape[0]}x{t.shape[1]}"
        groups[key] = groups.get(key, 0) + 1
    return {"nodes": model.n_nodes, "edges": model.n_edges, "edge_shape_groups": groups}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info)."""
    workload = WORKLOADS[name]
    instance = workload.build(seed, tiny)
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"{name}-{os.getpid()}"
    work_dir.mkdir()
    try:
        path = work_dir / "model.uai"
        write_uai(instance.model, path)
        setup_times, read_times, gaps = [], [], []

        def sample_setup():
            model, decomposition, setup_s, read_s = set_up(workload, instance, path)
            setup_times.append(setup_s)
            read_times.append(read_s)
            return model, decomposition

        def between_solves():
            # set-ups spread over the run, like the solves, so that their
            # fastest sample does not hinge on one moment of the host's load
            sample_setup()
            probe_gap(gaps)

        probe_gap(gaps)
        for _ in range(SETUP_REPS):
            model, decomposition = sample_setup()
        # gaps[1 + k] is the probe gap before solve k
        probe_gap(gaps)
        solves = timed_solves(workload, model, decomposition, seconds, trace, between_solves)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [s.failure for s in solves if s.failure is not None]
    attempted = len(solves)
    good = [s.summary for s in solves if s.failure is None]
    lp = None
    if good:
        # every solve is deterministic, so one bracket check covers them all
        lp = lp_bracket(model, good[0]["dual_bound"], good[0]["primal_bound"])
        attempted += 1
        if not lp["ok"]:
            failures.append({"op": "lp-bracket", "class": "CheckFailed", "message": lp["problem"]})
    counts = {}
    if trace:
        counts, checks = work_counts(model, decomposition, solves, failures)
        attempted += checks
    failed = len(failures)
    ok_frac = 1.0 - failed / attempted
    if trace:
        metrics = per_layer(solves, min(read_times), counts)
    else:
        metrics = end_to_end(
            solves,
            untraced_solve_s(solves, gaps[1:]),
            min(setup_times) * PROBE_REF_S / min(gaps),
            ok_frac,
            peak_rss_mb,
        )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "solve_seconds": [s.seconds for s in solves],
        "setup_seconds": setup_times,
        "probe_gaps_s": gaps,
        "environment": environment(),
        "instance": instance_record(model),
        "lp_check": lp,
        "failures": failures,
    }
    return result, info


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    all_correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: run failed (exit {proc.returncode})\n{proc.stderr}")
                all_correct = False
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            all_correct &= result["correct"]
            lp = info["lp_check"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"lp_check={'ok' if lp and lp['ok'] else lp}")
            for failure in info["failures"]:
                print(f"  failure: {failure}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:40s} {entry['value']!r:>24} {entry['unit']}")
            summary[f"{name}/trace{trace}"] = {"result": result, "info": info}
    print(json.dumps(summary))
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
