"""Write, or compare, the CLI gate set: the report files of a fixed list of CLI runs.

    python3 tools/cli_fileset.py OUTDIR [--size full|smoke]
    python3 tools/cli_fileset.py --compare A B

The first form runs, in-process through ``nestderiv.cli.main``:
``generate`` on T_16 (seed 5) and on chain (3, 7, 12) (seed 9);
``construct`` and ``chain`` on both tables, with and without
``--generator``; ``construct --k 8 --xi0-index 10 --eta1-index 2`` on T_16
and ``construct --k 1 --xi0-index 5 --eta1-index 2`` on the chain table;
``verify --b`` on T_16, with and without ``--generator``, where b is the
operator of the T_16 ``construct --generator`` report; and ``construct
--generator --gate-thm13`` and ``chain --generator`` on the T_16 table and
its generator multiplied by 2^600 (``t-big.json``), whose squares would
overflow unless they are scaled; and ``construct --generator --gate-thm13``
and ``chain --generator`` on ``t-diag.json``, the T_n table with one defect
of half its ``validate`` tolerance added to every delta(E_ii), i < d, for p
of rank d at the default k, which a c1 summed over delta(p) would add up d
times, and which enters no chain member.  Every command must exit 0.
``--size smoke`` runs the same commands on T_4 and chain (1, 3, 4), with
the choices ``--k 2 --xi0-index 3 --eta1-index 1`` on T_4 and ``--k 2
--xi0-index 3 --eta1-index 2`` on the chain table.
The package is imported from the ``src`` directory next to ``tools``, so a
copy of this file placed in another checkout writes that checkout's set.

The second form compares two such directories file by file and exits 1
unless they hold the same names with byte-identical contents, or 2, with one
line naming the path, when either is not a directory.  For each
differing JSON file it prints one line per differing key path with both
values, as in ``chain-c.json: family[0].b.data[3][0]: 0.12 != 0.22``, the
first LISTED of them in sorted key order and then ``and N more``.  Two files
that hold equal JSON values in different bytes get one line naming the first
differing line of text and showing it from both, as in ``t.json: bytes
differ, JSON values equal; first at line 3: '  "cols": 3,\\n' != ...``, so a
layout slip of the writer is found at once.  Every report
is deterministic for fixed arguments, so a change that should not move any
result must leave the set byte-identical.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# differing key paths printed per file before "and N more"
LISTED = 10

# the factor of every entry of t-big.json and its generator
BIG = 2.0**600

# (T_n, its seed, chain table n, its chain, its seed, construct --k/--xi0-index/--eta1-index on T_n and on the chain)
SIZES = {
    "full": {"t": 16, "t_seed": 5, "c": 12, "chain": "3,7,12", "c_seed": 9, "pick": (8, 10, 2), "c_pick": (1, 5, 2)},
    "smoke": {"t": 4, "t_seed": 5, "c": 4, "chain": "1,3,4", "c_seed": 9, "pick": (2, 3, 1), "c_pick": (2, 3, 2)},
}


def commands(size: str) -> list:
    """The CLI argument lists of the gate set, in run order; outputs are relative paths."""
    spec = SIZES[size]
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
    for table, pick in (("t", "pick"), ("c", "c_pick")):
        k, xi0, eta1 = spec[pick]
        runs.append(
            ["construct", "--input", f"{table}.json", "--k", k, "--xi0-index", xi0, "--eta1-index", eta1,
             "--out", f"construct-{table}-pick.json"]
        )
    runs.append(["verify", "--input", "t.json", "--b", "b.json", "--out", "verify-t.json"])
    runs.append(
        ["verify", "--input", "t.json", "--b", "b.json", "--generator", "t.json.generator.json", "--out", "verify-t-gen.json"]
    )
    big = ["--input", "t-big.json", "--generator", "t-big.json.generator.json"]
    runs.append(["construct", *big, "--gate-thm13", "--out", "construct-t-big.json"])
    runs.append(["chain", *big, "--out", "chain-t-big.json"])
    diag = ["--input", "t-diag.json", "--generator", "t.json.generator.json"]
    runs.append(["construct", *diag, "--gate-thm13", "--out", "construct-t-diag.json"])
    runs.append(["chain", *diag, "--out", "chain-t-diag.json"])
    return [[str(arg) for arg in run] for run in runs]


def _scaled(matrix: dict) -> dict:
    """A matrix_to_json object with every entry multiplied by BIG."""
    return {**matrix, "data": [[BIG * re, BIG * im] for re, im in matrix["data"]]}


def _diagonal_defect(table_json: dict) -> dict:
    """t-diag.json from t.json, the table with delta(E_ii) + m for every i < d, d the rank of p at the default k.

    m is a matrix from default_rng(0) of operator norm half the tolerance validate reports for t.json.
    """
    from nestderiv.construct import default_choices
    from nestderiv.derivation import DerivationTable, validate

    table = DerivationTable.from_json(table_json)
    alg = table.alg
    rng = np.random.default_rng(0)
    m = rng.standard_normal((alg.n, alg.n)) + 1j * rng.standard_normal((alg.n, alg.n))
    m *= 0.5 * validate(table).tol / np.linalg.norm(m, 2)
    for i in range(alg.chain[default_choices(alg).k - 1]):
        table.values[(i, i)] = table.values[(i, i)] + m
    return table.to_json()


def _write_inputs(outdir: Path, argv: list):
    """Write the input files of argv that no command writes: b.json, t-big.json with its generator, and t-diag.json."""
    if "b.json" in argv and not (outdir / "b.json").exists():
        report = json.loads((outdir / "construct-t-gen.json").read_text())
        (outdir / "b.json").write_text(json.dumps(report["artifacts"]["b"]))
    if "t-big.json" in argv and not (outdir / "t-big.json").exists():
        table = json.loads((outdir / "t.json").read_text())
        for entry in table["entries"]:
            entry["value"] = _scaled(entry["value"])
        (outdir / "t-big.json").write_text(json.dumps(table))
        generator = json.loads((outdir / "t.json.generator.json").read_text())
        (outdir / "t-big.json.generator.json").write_text(json.dumps(_scaled(generator)))
    if "t-diag.json" in argv and not (outdir / "t-diag.json").exists():
        (outdir / "t-diag.json").write_text(json.dumps(_diagonal_defect(json.loads((outdir / "t.json").read_text()))))


def write(outdir: Path, size: str) -> int:
    """Run the gate set into outdir (created if missing); the exit code of the first failing command, else 0."""
    sys.path.insert(0, str(ROOT / "src"))
    from nestderiv import cli

    outdir.mkdir(parents=True, exist_ok=True)
    for argv in commands(size):
        _write_inputs(outdir, argv)
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


def _short_text(text: str) -> str:
    return text if len(text) <= 60 else text[:57] + "..."


def _short(value) -> str:
    return _short_text(json.dumps(value))


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


def _first_line_difference(x: str, y: str) -> str:
    """'line N: X != Y' for the first line, numbered from 1, where the texts x and y differ, each line as a repr.

    A text that ends first shows "end of file" for that line.
    """
    left, right = x.splitlines(keepends=True), y.splitlines(keepends=True)
    index = next((i for i, (u, v) in enumerate(zip(left, right)) if u != v), min(len(left), len(right)))
    line_x, line_y = (
        _short_text(repr(lines[index])) if index < len(lines) else "end of file" for lines in (left, right)
    )
    return f"line {index + 1}: {line_x} != {line_y}"


def describe(a: Path, b: Path, name: str) -> str:
    """What differs in the file name of directories a and b, one line each: absence, each differing JSON value, or bytes.

    Files that hold equal JSON values in different bytes get one line naming
    the first differing line of text, so a layout change is found at once.
    """
    if not (a / name).is_file() or not (b / name).is_file():
        return f"{name}: only in {a if (a / name).is_file() else b}"
    try:
        # decoded as they are, without read_text's newline translation, so a "\r" differs too
        x, y = ((side / name).read_bytes().decode() for side in (a, b))
        found = list(differences(json.loads(x), json.loads(y)))
    except ValueError:
        return f"{name}: bytes differ (not JSON)"
    if not found:
        return f"{name}: bytes differ, JSON values equal; first at {_first_line_difference(x, y)}"
    if len(found) > LISTED:
        found[LISTED:] = [f"and {len(found) - LISTED} more"]
    return "\n".join(f"{name}: {line}" for line in found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", type=Path)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        for path in args.compare:
            if not path.is_dir():
                print(f"not a directory: {path}", file=sys.stderr)
                return 2
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
