"""kuramoto-rc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.

With ``--trace 0`` the workload's study runs once to warm up, then again
and again, each time with a new master seed derived from ``--seed``, until
the next one would end after ``--seconds``; the end-to-end metrics come
from those untraced runs. Set-up time is the median over fresh processes that import the
package and build the workload.

With ``--trace 1`` the study runs once to warm up, once untraced in one
process, once untraced with 2 workers, then traced in one process until ``--seconds``
is used up; the per-layer metrics are (low) medians over the traced runs. The
spans of the first traced run are written to ``.perfbench_out/``.

Every study is checked (see ``workloads``); a traced run is also checked
against the call counts its plan predicts, and every run of one seed must
give the same records digest. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The line
before it holds the informational figures: the records digest, accuracy,
sample counts, layer metrics not listed in BENCHMARK.json, and a manifest
of the machine and software.
"""

import os

# Before numpy is imported, so forked workers inherit one BLAS thread too.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
OUTDIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Import-and-build times of fresh processes, each timed inside itself."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path[:0] = [{str(ROOT)!r}, {str(SRC)!r}]\n"
        "from perfbench import workloads\n"
        f"workloads.prepare({workload!r}, {seed})\n"
        "print(time.perf_counter() - start)\n"
    )
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    """Highest RSS of this process and of any waited-for child (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _repeat(run_once, seconds: float) -> list:
    """Call ``run_once(i)`` for i = 0, 1, ... until the next study would
    likely end after ``seconds``; always at least once."""
    start = time.perf_counter()
    studies = []
    while True:
        studies.append(run_once(len(studies)))
        typical = statistics.median(s.wall_s for s in studies)
        if time.perf_counter() - start + typical > seconds:
            return studies


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if there is
    one at or above the median."""
    n = len(values)
    rank = n - 10  # samples at or below the value
    if rank < 1 or rank < (n + 1) / 2:
        return None
    return {"percentile": 100.0 * rank / n, "value": sorted(values)[rank - 1]}


def untraced_run(args, workloads):
    workload = workloads.build(args.workload)
    setup = setup_seconds(args.workload, args.seed)
    # The first study of a process runs slower; it is checked, not timed.
    first = workload.run(workloads.study_seed(workload, args.seed, 0), workload.workers)
    studies = _repeat(
        lambda i: workload.run(workloads.study_seed(workload, args.seed, i + 1), workload.workers),
        args.seconds,
    )
    walls = [s.wall_s for s in studies]
    records = sum(s.records for s in studies)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "jobs_per_s": (records / sum(walls), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "studies": len(studies),
        "wall_s_samples": walls,
        "wall_s_tail": tail(walls),
        "setup_s_samples": setup,
        "fault_frac": sum(s.faults for s in studies) / records,
        "digest": first.digest,
        **first.accuracy,
    }
    return [first, *studies], metrics, info, []


def traced_run(args, workloads, tracing):
    workload = workloads.build(args.workload)
    seed = workloads.study_seed(workload, args.seed, 0)
    first = workload.run(seed, 1)
    start = time.perf_counter()
    serial = workload.run(seed, 1)
    parallel = workload.run(seed, workloads.PARALLEL)
    tracers = []

    def traced_study(_):
        tracer = tracing.Tracer()
        with tracer.installed():
            study = workload.run(seed, 1)
        tracers.append(tracer)
        return study

    traced = _repeat(traced_study, max(args.seconds - (time.perf_counter() - start), 0.0))
    problems = []
    leftover = tracing.leftover_wrappers()
    if leftover:
        problems.append(f"tracing left wrappers behind: {leftover}")
    studies = [first, serial, parallel, *traced]
    digests = {s.digest for s in studies}
    if len(digests) != 1:
        problems.append("records differ between serial, parallel and traced runs")

    plan = workload.plan()
    per_study = [t.layer_metrics() for t in tracers]
    for i, tracer in enumerate(tracers):
        for span, (calls, _) in tracer.layer_stats().items():
            if span in plan and calls != plan[span]:
                problems.append(f"traced run {i}: {span} made {calls} calls, plan has {plan[span]}")
    layer = {
        name: (statistics.median_low(m[name][0] for m in per_study), unit)
        for name, (_, unit) in per_study[0].items()
    }
    traced_wall = statistics.median(s.wall_s for s in traced)
    layer["experiments.serial_wall_s"] = (serial.wall_s, "s")
    layer["experiments.parallel_efficiency"] = (
        serial.wall_s / (workloads.PARALLEL * parallel.wall_s),
        "ratio",
    )
    layer["trace.overhead_frac"] = (traced_wall / serial.wall_s - 1.0, "ratio")
    spans_path = OUTDIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracers[0].write_spans(spans_path)
    info = {
        "traced_studies": len(traced),
        "parallel_wall_s": parallel.wall_s,
        "traced_wall_s": traced_wall,
        "absent": tracers[0].absent,
        "plan": plan,
        "spans": os.path.relpath(spans_path, ROOT),
        "span_count": len(tracers[0].spans),
        "digest": serial.digest,
    }
    return studies, layer, info, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "kuramoto_rc" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"error: {ROOT} holds no src/kuramoto_rc or BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import tracing, workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if args.trace:
        studies, metrics, info, problems = traced_run(args, workloads, tracing)
        wanted = [m["name"] for m in declared["per_layer"]]
    else:
        studies, metrics, info, problems = untraced_run(args, workloads)
        wanted = [m["name"] for m in declared["end_to_end"]]
    for study in studies:
        problems.extend(study.problems)
    info["extra_metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
        if name not in wanted
    }
    info["absent_metrics"] = [name for name in wanted if name not in metrics]
    info["problems"] = problems
    info["manifest"] = manifest(args)
    for name in wanted:
        if name in metrics:
            value, unit = metrics[name]
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(s.records for s in studies),
                "failed": sum(s.faults for s in studies),
                "metrics": {
                    name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted
                    if name in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
