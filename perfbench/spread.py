"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads cli-tn,structure] [--out FILE]

For every workload it runs ``run.py`` once per seed (1..runs), sequentially,
and prints each end-to-end metric's median and its spread: the distance
between the first and third quartile of the runs, as a share of the median.
It then makes one traced run on the first seed.  With ``--out`` it also
writes the medians, spreads, per-run values, the traced run's per-layer
values and the environment of the first run as JSON: one trajectory point.
It exits 1 if a run was incorrect or a spread (other than setup_s) is not
below a third of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bounds() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run_once(workload, seed, seconds, trace=0) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def main() -> int:
    spec, bound = bounds()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()

    point = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env = run_once(workload, seed, spec["run_seconds"])
            point.setdefault("env", env)
            steady = steady and result["correct"]
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name in bound:
            values = [r[name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "spread": spread, "bound": bound[name], "values": values}
            flag = "ok" if name == "setup_s" or spread < bound[name] / 3 else "WIDE"
            steady = steady and flag == "ok"
            print(f"  {name:12s} median {median:11.5g}  spread {spread:7.2%}  bound {bound[name]:.0%}  {flag}", flush=True)
        traced, _ = run_once(workload, args.first_seed, spec["run_seconds"], trace=1)
        steady = steady and traced["correct"]
        summary["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        point["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
