"""Compare two checkouts on one benchmark workload, in alternating pairs of runs.

    python3 tools/ab.py PARENT CHANGE --workload lib-sweep --pairs 10 [--seed 1] [--seconds S]

Each pair runs the command of PARENT's ``BENCHMARK.json`` (``perfbench/run.py``)
once in each checkout, the parent first in odd pairs and the change first in
even ones, for ``--seconds`` (default: its ``run_seconds``).  It prints every
end-to-end metric of each pair, then for each metric both sides' medians and
quartiles and the change's wins (a tie counts for neither side).  A gain is
shown when the change wins at least nine pairs in ten and its median is better
by more than the parent's interquartile range.  The change is worse than the
bound when its median is worse than the parent's by more than the metric's
``bound``, a share of the parent's median.  When it is not, but the parent's
interquartile range is wider than that share, the runs cannot tell: the line
says ``unresolved``, unless every run of the change is better than every run
of the parent.  Exits 1 if any run fails, times out or reports incorrect
outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, command, workload, seed, seconds) -> dict | None:
    """{metric: value} of one benchmark run in checkout, or None if it failed or its outputs were incorrect."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True, timeout=600 + 10 * seconds)
    except subprocess.TimeoutExpired as exc:
        print(f"{checkout}: timed out after {exc.timeout:g} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        print(f"{checkout}: exit {proc.returncode}, correct {result.get('correct')}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, metrics) -> list:
    """One line per metric of BENCHMARK.json's end_to_end list, over pairs of (parent, change) metric values."""
    if not pairs:
        return []
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent, change = [p[name] for p, _ in pairs], [c[name] for _, c in pairs]
        wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        gain = pm - cm if lower else cm - pm
        shown = 10 * wins >= 9 * len(pairs) and gain > p3 - p1
        worse = -gain > metric["bound"] * abs(pm)
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        unresolved = p3 - p1 > metric["bound"] * abs(pm) and not beats_all
        verdict = "yes" if worse else "unresolved, the parent's IQR is wider" if unresolved else "no"
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): parent {pm:.6g} [{p1:.6g}, {p3:.6g}], "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}], change wins {wins} of {len(pairs)}; "
            f"gain shown: {'yes' if shown else 'no'}; worse than the {metric['bound']:.0%} bound: {verdict}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating benchmark pairs of a parent and a change checkout")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [metric["name"] for metric in spec["end_to_end"]]
    checkouts = {"parent": args.parent, "change": args.change}
    pairs, failed = [], False
    for number in range(1, args.pairs + 1):
        order = ("parent", "change") if number % 2 else ("change", "parent")
        values = {side: run(checkouts[side], spec["command"], args.workload, args.seed, seconds) for side in order}
        if None in values.values():
            failed = True
            print(f"pair {number}: a run failed", flush=True)
            continue
        pairs.append((values["parent"], values["change"]))
        shown = ", ".join(f"{name} {values['parent'][name]:.6g} / {values['change'][name]:.6g}" for name in names)
        print(f"pair {number} ({order[0]} first, parent / change): {shown}", flush=True)
    print("\n".join(summarize(pairs, spec["end_to_end"])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
