"""nestderiv benchmark: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload cli-tn --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/`` and the CLI runs as ``python -m nestderiv.cli`` subprocesses.  Load
comes from this single process: one job at a time, the next starting when the
previous one ends.  BLAS runs on at most min(2, nproc) threads.

A run sets up (inputs from the seed, plus a fresh-interpreter import of the
package), three times, then runs one untimed warm-up job on the inputs of the
golden seed and compares its summary with ``golden.json``.  It then runs the
workload's jobs round-robin for ``--seconds``, at least one full cycle, and
stops before a job that would end past that time.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, from untraced jobs:

    setup_s       median set-up time (import + input generation) plus warm-up
    peak_rss_mb   peak resident memory: the CLI children on cli-tn, else this process
    ok_frac       jobs whose outputs passed every check / jobs attempted
    pass_s        one pass over the workload's inputs: sum of per-input median times

With ``--trace 1`` the jobs run under spans (see ``tracing.py``) and only
whole cycles run.  The metrics are the median and 90th percentile over inputs
of the per-input median job time, per-layer self times and exact counts per
cycle, the CLI subcommand wall times per cycle, and the tracer's own
bookkeeping time as a share of the traced loop.  Spans are written to
``.perfbench/trace-<workload>-<seed>.json``.

Other modes, not used for measuring:

    --golden check|write   run every job once on the golden seed's inputs and
                           compare with (or rewrite) golden.json
    --size smoke           reduced inputs, for the smoke test
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_REPEATS = 3
WORKLOADS = ("cli-tn", "lib-sweep", "structure")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "pass_s": "s",
}

# per-layer self time per cycle, in seconds, by span name
LAYER_SPANS = {
    "derivation.validate.reject_s": ["derivation.validate.reject"],
    "derivation.validate.s": ["derivation.validate", "derivation.validate.reject"],
    "derivation.table_load.s": ["derivation.table_load"],
    "derivation.table_dump.s": ["derivation.table_dump"],
    "derivation.inner_from.s": ["derivation.inner_from"],
    "derivation.norm_estimate.s": ["derivation.norm_estimate"],
    "construct.build_b.s": ["construct.build_b"],
    "construct.triple_rule_residual.s": ["construct.triple_rule_residual"],
    "construct.verify.s": ["construct.verify"],
    "chain.chain_family.s": ["chain.chain_family"],
    "chain.normalize_chain.s": ["chain.normalize_chain"],
    "chain.implements_on_projection.s": ["chain.implements_on_projection"],
    "algebra.check_structure.s": ["algebra.check_structure"],
}
LAYER_COUNTS = {
    "derivation.validate.pairs": "count",
    "derivation.validate.failing_pairs": "count",
    "derivation.table_bytes": "bytes",
    "algebra.basis_units.count": "count",
}
CLI_COMMANDS = ("generate", "construct", "verify", "chain", "reject")
PER_LAYER = {
    "job_p50_s": "s",
    "job_p90_s": "s",
    **{name: "s" for name in LAYER_SPANS},
    **LAYER_COUNTS,
    **{f"cli.{command}_s": "s" for command in CLI_COMMANDS},
    "cli.import_s": "s",
    "trace.overhead_pct": "%",
}


def set_thread_env() -> dict:
    """Cap BLAS threads before numpy loads; children inherit the cap."""
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(2, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return {"nproc": nproc, "blas_threads_requested": int(threads)}


def environment(base: dict, seed) -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = int(getter())
    return {
        **base,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "seed": seed,
    }


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import nestderiv.cli"], env=env, check=True, timeout=120)
    return perf_counter() - start


class Outcome:
    """Per-input job times and the count of jobs attempted and failed."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.summaries = {}
        self.attempted = 0
        self.failed = 0

    def run(self, job, tracer) -> bool:
        self.attempted += 1
        tracer.begin_job(job.key)
        try:
            seconds, summary = job.run(tracer)
        except Exception as exc:  # a failed job is counted, never fatal
            self.failed += 1
            print(f"FAILED {job.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False
        self.samples[job.key].append(seconds)
        self.summaries[job.key] = summary
        return True

    def fail(self, message):
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)


def run_loop(jobs, seconds, tracer, outcome, whole_cycles) -> tuple:
    """Round-robin closed loop; returns (complete cycles, wall seconds)."""
    start = perf_counter()
    cycles = 0
    while True:
        cycle_start = perf_counter()
        for job in jobs:
            if cycles and not whole_cycles:
                last = outcome.samples[job.key][-1] if outcome.samples[job.key] else 0.0
                if perf_counter() - start + last > seconds:
                    return cycles, perf_counter() - start
            outcome.run(job, tracer)
        cycles += 1
        now = perf_counter()
        if now - start + (now - cycle_start if whole_cycles else 0.0) > seconds:
            return cycles, now - start


def compare(actual, expected, where="") -> list:
    """Differences between two summaries: exact, except floats to rounding."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        diffs = [f"{where}.{k}: missing" for k in expected if k not in actual]
        diffs += [f"{where}.{k}: unexpected" for k in actual if k not in expected]
        for k in expected:
            if k in actual:
                diffs += compare(actual[k], expected[k], f"{where}.{k}")
        return diffs
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        ok = abs(actual - expected) <= 1e-9 * max(1.0, abs(actual), abs(expected))
        return [] if ok else [f"{where}: {actual!r} != {expected!r}"]
    return [] if actual == expected and type(actual) is type(expected) else [f"{where}: {actual!r} != {expected!r}"]


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def percentile(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def input_medians(jobs, outcome) -> list:
    """Median job time of every input that has a sample."""
    return [statistics.median(outcome.samples[j.key]) for j in jobs if outcome.samples[j.key]] or [0.0]


def end_to_end(jobs, outcome, setup_s, peak_rss_mb) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (outcome.attempted - outcome.failed) / outcome.attempted,
        "pass_s": sum(input_medians(jobs, outcome)),
    }


def per_layer(jobs, outcome, tracer, cycles, wall_s, import_s) -> dict:
    medians = input_medians(jobs, outcome)
    values = {"job_p50_s": percentile(medians, 50), "job_p90_s": percentile(medians, 90)}
    self_times = tracer.self_times()
    values.update({name: sum(self_times.get(s, 0.0) for s in spans) / cycles for name, spans in LAYER_SPANS.items()})
    values.update({name: tracer.counts.get(name, 0) / cycles for name in LAYER_COUNTS})
    for command in CLI_COMMANDS:
        keys = [j.key for j in jobs if j.group == command]
        values[f"cli.{command}_s"] = sum(sum(outcome.samples[k]) for k in keys) / cycles
    values["cli.import_s"] = import_s
    values["trace.overhead_pct"] = 100.0 * tracer.overhead_s / wall_s
    return values


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-tn" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(args, workdir) -> int:
    import workloads
    from tracing import NullTracer, Tracer

    golden = load_golden().get(args.size, {}).get(args.workload, {})
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        imports.append(import_seconds())
        jobs = workloads.make_jobs(args.workload, args.seed, args.size, workdir / "inputs")
        setups.append(perf_counter() - start)

    outcome = Outcome()
    warmup = workloads.make_jobs(args.workload, GOLDEN_SEED, args.size, workdir / "golden")[0]
    start = perf_counter()
    passed = outcome.run(warmup, NullTracer())
    warmup_s = perf_counter() - start
    outcome.samples.clear()
    diffs = compare(outcome.summaries[warmup.key], golden.get(warmup.key)) if passed else []
    if diffs:
        outcome.fail(f"warm-up {warmup.key} differs from golden.json: {diffs[:3]}")
    setup_s = statistics.median(setups) + warmup_s

    tracer = Tracer() if args.trace else NullTracer()
    cycles, wall_s = run_loop(jobs, args.seconds, tracer, outcome, whole_cycles=bool(args.trace))

    if args.trace:
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        tracer.dump(trace_dir / f"trace-{args.workload}-{args.seed}.json")
        values, units = per_layer(jobs, outcome, tracer, cycles, wall_s, statistics.median(imports)), PER_LAYER
    else:
        values, units = end_to_end(jobs, outcome, setup_s, peak_rss_mb(args.workload)), END_TO_END

    print("env " + json.dumps(environment(args.env, args.seed), sort_keys=True))
    samples = sum(len(v) for v in outcome.samples.values())
    print(f"samples: {samples} jobs over {len(jobs)} inputs, {cycles} full cycles, {wall_s:.2f} s measured")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def golden_mode(args, workdir) -> int:
    import workloads
    from tracing import NullTracer

    golden = load_golden()
    ok = True
    for name in WORKLOADS:
        outcome = Outcome()
        jobs = workloads.make_jobs(name, GOLDEN_SEED, args.size, workdir / name)
        for job in jobs:
            outcome.run(job, NullTracer())
        ok = ok and outcome.failed == 0
        if args.golden == "write":
            golden.setdefault(args.size, {})[name] = outcome.summaries
            continue
        diffs = compare(outcome.summaries, golden.get(args.size, {}).get(name))
        print(f"{name}: {len(jobs)} jobs, {outcome.failed} failed, {len(diffs)} differences from golden.json")
        for diff in diffs[:10]:
            print(f"  {diff}")
        ok = ok and not diffs
    if args.golden == "write" and ok:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="nestderiv benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--golden", choices=("check", "write"))
    args = parser.parse_args()
    if (args.workload is None) == (args.golden is None):
        parser.error("give exactly one of --workload and --golden")

    if not (ROOT / "src" / "nestderiv" / "__init__.py").is_file():
        print(f"no nestderiv sources under {ROOT / 'src'}: run from a source checkout", file=sys.stderr)
        return 2
    args.env = set_thread_env()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return golden_mode(args, workdir) if args.golden else measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
