"""potentops benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli-cold,pointer-ladder,library-batch,all}
                             --seed N --seconds S --trace {0,1}

Each workload is one client in a closed loop. A run times whole passes over
the workload's fixed list of operations until S seconds have gone, checks
every output against reference.py, and prints a summary followed, on the
last line of stdout, by one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_RUNS = 5
MIN_PASSES = 2
# op_p90_s needs this many completed operations, so that the tail has samples.
P90_MIN_OPS = 100
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mib", "MiB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "pointer-ladder", "library-batch", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Median wall time from a fresh interpreter to potentops.cli imported
    and the workload's inputs generated (cli-cold: the import alone)."""
    code = "import potentops.cli"
    if workload != "cli-cold":
        code = (f"import sys; sys.path.insert(0, {HERE!r}); import potentops.cli, workloads; "
                f"workloads.INPUTS[{workload!r}]({seed})")
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(samples)


class Measurement:
    """Passes, latencies and failure counts of one run."""

    def __init__(self, rss_usage: int):
        self.rss_usage = rss_usage
        self.peak_rss_mib = None
        self.walls = []
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_pass(self, ops, counted: bool = True) -> float:
        """Run every op once, timing each, then check the outputs outside the
        timed region. Returns the pass's wall time."""
        results = []
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # the named fault or a program error; judged below
                out, err = None, exc
            results.append((op, out, err, time.perf_counter() - t0))
        wall = time.perf_counter() - start
        for op, out, err, latency in results:
            try:
                if err is None:
                    op.check(out)
                    if counted:
                        self.latencies.append(latency)
                else:
                    op.refused(err)
                    self.failed += counted
            except Exception as exc:  # a wrong output of any shape is a check failure
                kind = "" if isinstance(exc, checks.CheckFailure) else f"{type(exc).__name__}: "
                self.errors.append(f"{op.name}: {kind}{exc}")
        if counted:
            self.attempted += len(ops)
            self.walls.append(wall)
        if self.peak_rss_mib is None:
            self.peak_rss_mib = resource.getrusage(self.rss_usage).ru_maxrss / 1024
        return wall

    def run_for(self, ops, seconds: float, after_pass=None) -> list[float]:
        walls = []
        deadline = time.perf_counter() + seconds
        while not self.errors and (len(walls) < MIN_PASSES or time.perf_counter() < deadline):
            walls.append(self.run_pass(ops))
            if after_pass is not None:
                after_pass(len(walls) - 1)
        return walls


def blas_threads() -> dict:
    """OpenBLAS thread counts of the numpy and scipy builds, read through
    their bundled libraries."""
    found = {}
    for pkg in ("numpy", "scipy"):
        module = sys.modules.get(pkg)
        if module is None:
            continue
        libdir = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), f"{pkg}.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    found[pkg] = int(getter())
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS so its thread count can be read

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads()}


def run_workload(args) -> int:
    env = child_env()
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run_workload(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, env: dict, workdir: str) -> int:
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, env)
    import_metrics = tracing.import_times(sys.executable, env, ROOT, SETUP_RUNS) \
        if args.trace else {}

    inputs = workloads.INPUTS[args.workload](args.seed)
    runner = tracer = None
    if args.workload == "cli-cold":
        runner = workloads.CliRunner(ROOT, workdir, env)
        ops = workloads.cli_cold_ops(inputs, runner)
    else:
        import potentops.cli
        import potentops.pps
        import potentops.scenarios
        import potentops.timemachine

        if not os.path.abspath(potentops.cli.__file__).startswith(SRC + os.sep):
            print(f"perfbench: potentops was imported from {potentops.cli.__file__}, "
                  f"not from {SRC}", file=sys.stderr)
            return 2
        lib = types.SimpleNamespace(scenarios=potentops.scenarios, pps=potentops.pps,
                                    timemachine=potentops.timemachine)
        build = workloads.pointer_ladder_ops if args.workload == "pointer-ladder" \
            else workloads.library_batch_ops
        ops = build(inputs, lib)
        tracer = tracing.Tracer()

    # Peak RSS is read after the first pass: later passes of pointer-ladder
    # grow it by steps that vary from run to run (236 -> 237..263 ->
    # 271..287 -> 287..343 MiB over the first passes).
    m = Measurement(resource.RUSAGE_CHILDREN if runner is not None else resource.RUSAGE_SELF)
    # The first in-process pass pays lazy set-up inside numpy and scipy; a
    # shell user of cli-cold pays the cold start every time, so it is kept.
    if args.workload != "cli-cold":
        m.run_pass(ops, counted=False)

    metrics, per_pass, spans = {}, [], []
    if not args.trace:
        m.run_for(ops, args.seconds)
    else:
        plain = m.run_for(ops, args.seconds / 2)
        if runner is not None:
            runner.traced = True
        else:
            tracer.install()
            tracer.keep_spans = True

        def collect(index: int) -> None:
            if runner is not None:
                totals = {}
                for path in runner.trace_files:
                    with open(path, encoding="utf-8") as fh:
                        child = json.load(fh)
                    tracing.add_totals(totals, child["totals"])
                    if index == 0:
                        spans.append({"process": os.path.basename(path), "spans": child["spans"]})
                    os.remove(path)
                runner.trace_files.clear()
            else:
                totals = tracer.take_totals()
                if index == 0:
                    spans.extend(tracer.take_spans())
                    tracer.keep_spans = False
            per_pass.append(totals)

        traced = m.run_for(ops, args.seconds / 2, after_pass=collect)
        for name in per_pass[0] if per_pass else ():
            metrics[name] = statistics.median(p[name] for p in per_pass)
        metrics.update(import_metrics)
        if plain and traced:
            metrics["trace.slowdown"] = statistics.median(traced) / statistics.median(plain)

    env_info = environment()
    if args.trace:
        units = dict(tracing.PER_LAYER)
        missing = [name for name in units if name not in metrics]
        if missing and not m.errors:
            m.errors.append(f"traced run produced no value for {missing}")
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "environment": env_info,
                       "missing_functions": tracer.missing if tracer else [],
                       "per_pass": per_pass, "spans": spans}, fh)
    else:
        units = dict(END_TO_END)
        if m.walls and m.latencies:
            metrics.update({
                "setup_s": setup_s,
                "wall_s": statistics.median(m.walls),
                "op_p50_s": statistics.median(m.latencies),
                "peak_rss_mib": m.peak_rss_mib,
            })

    correct = not m.errors and all(name in metrics for name in units)
    for error in m.errors[:20]:
        print(f"perfbench: CHECK FAILED {error}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(m.walls)}  attempted {m.attempted}  failed {m.failed}  "
          f"correct {correct}")
    print("environment " + json.dumps(env_info, sort_keys=True))
    for name in units:
        if name in metrics:
            print(f"  {name:44s} {metrics[name]:.6g} {units[name]}")
    if not args.trace and len(m.latencies) >= P90_MIN_OPS:
        p90 = statistics.quantiles(m.latencies, n=10)[-1]
        print(f"  {'op_p90_s':44s} {p90:.6g} s  ({len(m.latencies)} completed ops)")
    print(json.dumps({
        "correct": correct, "attempted": m.attempted, "failed": m.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for workload in ("cli-cold", "pointer-ladder", "library-batch"):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "potentops", "cli.py")):
        print(f"perfbench: no potentops sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
