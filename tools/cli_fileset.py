"""Write, or compare, the CLI gate set: the report files of a fixed list of CLI runs.

    python3 tools/cli_fileset.py OUTDIR [--size full|smoke]
    python3 tools/cli_fileset.py --compare A B

The first form runs, in-process through ``nestderiv.cli.main``:
``generate`` on T_16 (seed 5) and on chain (3, 7, 12) (seed 9);
``construct`` and ``chain`` on both tables, with and without
``--generator``; ``construct --k 8 --xi0-index 10 --eta1-index 2`` on T_16;
and ``verify --b`` on T_16, with and without ``--generator``, where b is the
operator of the T_16 ``construct --generator`` report.  Every command must
exit 0.  ``--size smoke`` runs the same commands on T_4 and chain (1, 3, 4).
The package is imported from the ``src`` directory next to ``tools``, so a
copy of this file placed in another checkout writes that checkout's set.

The second form compares two such directories file by file and exits 1
unless they hold the same names with byte-identical contents.  For each
differing JSON file it prints one line per differing key path with both
values, as in ``chain-c.json: family[0].b.data[3][0]: 0.12 != 0.22``, the
first LISTED of them in sorted key order and then ``and N more``.  Every report
is deterministic for fixed arguments, so a change that should not move any
result must leave the set byte-identical.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# differing key paths printed per file before "and N more"
LISTED = 10

# (T_n, its seed, chain table n, its chain, its seed, construct --k/--xi0-index/--eta1-index on T_n)
SIZES = {
    "full": {"t": 16, "t_seed": 5, "c": 12, "chain": "3,7,12", "c_seed": 9, "pick": (8, 10, 2)},
    "smoke": {"t": 4, "t_seed": 5, "c": 4, "chain": "1,3,4", "c_seed": 9, "pick": (2, 3, 1)},
}


def commands(size: str) -> list:
    """The CLI argument lists of the gate set, in run order; outputs are relative paths."""
    spec = SIZES[size]
    k, xi0, eta1 = spec["pick"]
    runs = [
        ["generate", "--n", spec["t"], "--seed", spec["t_seed"], "--out", "t.json"],
        ["generate", "--n", spec["c"], "--chain", spec["chain"], "--seed", spec["c_seed"], "--out", "c.json"],
    ]
    for table in ("t", "c"):
        for command in ("construct", "chain"):
            runs.append([command, "--input", f"{table}.json", "--out", f"{command}-{table}.json"])
            runs.append(
                [command, "--input", f"{table}.json", "--generator", f"{table}.json.generator.json",
                 "--out", f"{command}-{table}-gen.json"]
            )
    runs.append(
        ["construct", "--input", "t.json", "--k", k, "--xi0-index", xi0, "--eta1-index", eta1, "--out", "construct-t-pick.json"]
    )
    runs.append(["verify", "--input", "t.json", "--b", "b.json", "--out", "verify-t.json"])
    runs.append(
        ["verify", "--input", "t.json", "--b", "b.json", "--generator", "t.json.generator.json", "--out", "verify-t-gen.json"]
    )
    return [[str(arg) for arg in run] for run in runs]


def write(outdir: Path, size: str) -> int:
    """Run the gate set into outdir (created if missing); the exit code of the first failing command, else 0."""
    sys.path.insert(0, str(ROOT / "src"))
    from nestderiv import cli

    outdir.mkdir(parents=True, exist_ok=True)
    for argv in commands(size):
        if argv[0] == "verify" and not (outdir / "b.json").exists():
            report = json.loads((outdir / "construct-t-gen.json").read_text())
            (outdir / "b.json").write_text(json.dumps(report["artifacts"]["b"]))
        argv = [str(outdir / arg) if arg.endswith(".json") else arg for arg in argv]
        code = cli.main(argv)
        if code != 0:
            print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)
            return code
    return 0


def compare(a: Path, b: Path) -> list:
    """Names of the files that are not byte-identical in a and b, or present in only one of them."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [
        name for name in names
        if not ((a / name).is_file() and (b / name).is_file() and (a / name).read_bytes() == (b / name).read_bytes())
    ]


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def differences(x, y, path: str = ""):
    """Yield 'path: x != y' for every key path, keys in sorted order, where the JSON values x and y differ."""
    if isinstance(x, dict) and isinstance(y, dict):
        for key in sorted(x.keys() | y.keys()):
            where = f"{path}.{key}" if path else key
            if key not in x or key not in y:
                left, right = (_short(side[key]) if key in side else "missing" for side in (x, y))
                yield f"{where}: {left} != {right}"
            else:
                yield from differences(x[key], y[key], where)
    elif isinstance(x, list) and isinstance(y, list):
        for index, (u, v) in enumerate(zip(x, y)):
            yield from differences(u, v, f"{path}[{index}]")
        if len(x) != len(y):
            yield f"{path or '.'}: length {len(x)} != {len(y)}"
    elif not (type(x) is type(y) and x == y):
        yield f"{path or '.'}: {_short(x)} != {_short(y)}"


def describe(a: Path, b: Path, name: str) -> str:
    """What differs in the file name of directories a and b, one line each: absence, each differing JSON value, or bytes."""
    if not (a / name).is_file() or not (b / name).is_file():
        return f"{name}: only in {a if (a / name).is_file() else b}"
    try:
        found = list(differences(json.loads((a / name).read_text()), json.loads((b / name).read_text())))
    except ValueError:
        return f"{name}: bytes differ (not JSON)"
    if len(found) > LISTED:
        found[LISTED:] = [f"and {len(found) - LISTED} more"]
    return "\n".join(f"{name}: {line}" for line in found or ["bytes differ, JSON values equal"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", type=Path)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        differ = compare(*args.compare)
        for name in differ:
            print(describe(*args.compare, name))
        print(f"{len(differ)} of the files differ")
        return 1 if differ else 0
    if args.outdir is None:
        parser.error("OUTDIR or --compare A B is required")
    return write(args.outdir, args.size)


if __name__ == "__main__":
    sys.exit(main())
