"""Batch front end: generate derivation tables, build and verify implementers.

Subcommands:
  generate   write a seeded random inner derivation table (and its generator)
  construct  build b1, c1, c2, b from a table and write the verification report
  verify     verify a supplied operator b against a table without rebuilding
  chain      per-level chain family, normalization, and stabilized operator

Exit codes: 0 success, 1 validation failure, 2 config error, 3 I/O error.
All output is deterministic JSON, byte-identical for equal input files and
flags.  generate refuses, as a config error, a table whose values would take
more than MAX_TABLE_BYTES in memory (256 MiB: T_64 takes 136 MB, T_80 332 MB).
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .algebra import NestAlgebra
from .chain import chain_family, implements_on_projection, normalize_chain, stabilized_b
from .construct import (
    ConstructionArtifacts,
    ConstructionChoices,
    artifacts_to_json,
    build_b,
    default_choices,
    verify,
)
from .derivation import DerivationTable, check_tol, inner_from, validate
from .linalg import basis_vector, matrix_from_json, matrix_to_json, op_norm, scalar_identity_part

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# in-memory bytes of table values (units * n^2 complex entries) above which generate refuses
MAX_TABLE_BYTES = 1 << 28


class ConfigError(ValueError):
    pass


class TableRejected(Exception):
    """The input table fails the product rule (exit code 1)."""


def _write_json(path: str, obj: dict):
    """Atomic write: temp file in the target directory, then rename; an OSError names path, not the temp file."""
    payload = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        raise OSError(exc.errno, exc.strerror, path) from exc


def _read_json(path: str) -> dict:
    """The JSON value of the file at path; ValueError when it is not JSON or is nested too deeply to parse."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply to parse") from exc


def _parse_chain(args, n: int) -> tuple:
    if args.chain is None:
        return tuple(range(1, n + 1))
    try:
        chain = tuple(int(x) for x in args.chain.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad chain {args.chain!r}") from exc
    return chain


def _tolerance(text: str) -> float:
    """argparse type of --tol: a float that passes the table tolerance check."""
    try:
        return check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, as np.random.default_rng requires."""
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _load_table(path: str) -> DerivationTable:
    try:
        return DerivationTable.from_json(_read_json(path))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad derivation table {path}: {exc}") from exc


def _load_validated(args) -> tuple[DerivationTable, float]:
    """The --input table with --tol applied and its scaled tolerance, raising TableRejected unless it validates.

    The scaled tolerance, table.tol * table.value_scale, is verify's default,
    so it is passed on rather than computed again.
    """
    table = _load_table(args.input)
    if args.tol is not None:
        table.tol = args.tol
    report = validate(table)
    if not report.ok:
        u, v = report.worst_pair
        first = ", ".join(f"{u} x {v} ({r:.3e})" for u, v, r in report.failing_pairs[:3])
        raise TableRejected(
            f"max residual {report.max_residual:.3e} at {u} x {v} "
            f"over {len(report.failing_pairs)} pairs (tol {report.tol:.3e}); first failing: {first}"
        )
    return table, report.tol


def _load_matrix(path: str, n: int, what: str) -> np.ndarray:
    """An n x n matrix from a JSON file; malformed content is a config error."""
    try:
        m = matrix_from_json(_read_json(path))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what} matrix {path}: {exc}") from exc
    if m.shape != (n, n):
        raise ConfigError(f"{what} matrix {path} has shape {m.shape}, expected {(n, n)}")
    return m


def _choices_from_args(args, alg: NestAlgebra) -> ConstructionChoices:
    base = default_choices(alg, k=args.k)
    xi0, eta1 = base.xi0, base.eta1
    d = alg.chain[base.k - 1]
    if args.xi0_index is not None:
        if not d <= args.xi0_index < alg.n:
            raise ConfigError(f"--xi0-index must lie in p-perp ({d}..{alg.n - 1})")
        xi0 = basis_vector(alg.n, args.xi0_index)
    if args.eta1_index is not None:
        if not 0 <= args.eta1_index < d:
            raise ConfigError(f"--eta1-index must lie in p (0..{d - 1})")
        eta1 = basis_vector(alg.n, args.eta1_index)
    return ConstructionChoices(k=base.k, xi0=xi0, eta1=eta1)


def _check_table_size(n: int, units: int):
    """ConfigError when units values of n x n complex entries would take more than MAX_TABLE_BYTES."""
    size = units * n * n * 16
    if size > MAX_TABLE_BYTES:
        raise ConfigError(f"a table for n={n} would hold {size} bytes of values, above the limit of {MAX_TABLE_BYTES}")


def cmd_generate(args) -> int:
    # every chain admits at least the n(n+1)/2 units of T_n: checked before the default chain 1..n is built
    _check_table_size(args.n, args.n * (args.n + 1) // 2)
    try:
        alg = NestAlgebra(args.n, _parse_chain(args, args.n))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_table_size(alg.n, alg.unit_count)
    rng = np.random.default_rng(args.seed)
    c = rng.standard_normal((alg.n, alg.n)) + 1j * rng.standard_normal((alg.n, alg.n))
    table = inner_from(alg, c)
    report = validate(table)
    _write_json(args.out, table.to_json())
    generator_path = args.out + ".generator.json"
    _write_json(generator_path, matrix_to_json(c))
    print(f"wrote {args.out} (validation residual {report.max_residual:.3e})")
    print(f"wrote {generator_path}")
    return EXIT_OK


def _verify_and_write(args, table: DerivationTable, tol: float, artifacts: ConstructionArtifacts, extra: dict) -> int:
    """Verify artifacts at tol, write the report plus extra to --out, and gate the exit code on the theorems."""
    generator = None
    if args.generator:
        generator = _load_matrix(args.generator, table.alg.n, "generator")
    verification = verify(table, artifacts, tol=tol, generator=generator)
    _write_json(args.out, {**verification.to_json(), **extra})
    print(f"wrote {args.out}")
    gated = ("thm11", "thm12", "thm13") if args.gate_thm13 else ("thm11", "thm12")
    failures = [failure for failure in map(verification.failure, gated) if failure]
    if failures:
        print(f"verification failed: {'; '.join(failures)}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_construct(args) -> int:
    table, tol = _load_validated(args)
    try:
        choices = _choices_from_args(args, table.alg)
        artifacts = build_b(table, choices)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return _verify_and_write(args, table, tol, artifacts, {"artifacts": artifacts_to_json(artifacts)})


def cmd_verify(args) -> int:
    table, tol = _load_validated(args)
    try:
        choices = _choices_from_args(args, table.alg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    b = _load_matrix(args.b, table.alg.n, "operator b")
    zero = np.zeros_like(b)
    # supplied b stands in for every stage; components are not re-derived
    artifacts = ConstructionArtifacts(b1=b, c1=zero, b2=b, c2=zero, b=b, choices=choices)
    return _verify_and_write(args, table, tol, artifacts, {})


def cmd_chain(args) -> int:
    table, _ = _load_validated(args)
    try:
        family = chain_family(table)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    normalized = normalize_chain(family)
    b_top = stabilized_b(normalized)
    top_k = max(m.k for m in normalized.members)
    out = normalized.to_json()
    out["stabilized"] = {
        "k": top_k,
        "b": matrix_to_json(b_top),
        "implements_residual": implements_on_projection(table, b_top, top_k),
        "norm": op_norm(b_top),
    }
    if len(normalized.members) == 1:
        out["note"] = "single interior projection: consistency pairs are vacuous"
    if args.generator:
        c = _load_matrix(args.generator, table.alg.n, "generator")
        lam, residual = scalar_identity_part((b_top - c)[: table.alg.chain[top_k - 1], :][:, : table.alg.chain[top_k - 1]])
        out["stabilized"]["gauge_on_p"] = {"lambda": [lam.real, lam.imag], "residual": residual}
    _write_json(args.out, out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nestderiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded random inner derivation table")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--chain", help="comma-separated invariant dimensions, default 1..n")
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    def common(p):
        p.add_argument("--input", required=True, help="derivation table JSON")
        p.add_argument("--k", type=int, default=None, help="interior chain index of p (1-based)")
        p.add_argument("--xi0-index", type=int, default=None, dest="xi0_index")
        p.add_argument("--eta1-index", type=int, default=None, dest="eta1_index")
        p.add_argument("--tol", type=_tolerance, default=None)
        p.add_argument("--generator", help="generator matrix JSON, enables gauge and norm bounds")
        p.add_argument("--gate-thm13", action="store_true", dest="gate_thm13")
        p.add_argument("--out", required=True)

    con = sub.add_parser("construct", help="build b and write the verification report")
    common(con)
    con.set_defaults(func=cmd_construct)

    ver = sub.add_parser("verify", help="verify a provided operator b against a table")
    common(ver)
    ver.add_argument("--b", required=True, help="operator matrix JSON")
    ver.set_defaults(func=cmd_verify)

    cha = sub.add_parser("chain", help="chain family, normalization, stabilized operator")
    cha.add_argument("--input", required=True)
    cha.add_argument("--tol", type=_tolerance, default=None)
    cha.add_argument("--generator")
    cha.add_argument("--out", required=True)
    cha.set_defaults(func=cmd_chain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TableRejected as exc:
        print(f"table failed validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
