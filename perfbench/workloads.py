"""The benchmark workloads: inputs made from a seed, jobs, and output checks.

A workload is a list of jobs over inputs generated from the seed.  Each job
times its own calls into the package and returns ``(seconds, summary)``:
the summary holds the job's verdicts, failing-pair counts and residual
maxima, which golden checks compare against ``golden.json``.  A job raises
``CheckFailed`` when an output is wrong.

Jobs call only public functions of the package's modules (``algebra``,
``derivation``, ``construct``, ``chain``) or run its CLI as
``python -m nestderiv.cli``.  Under a ``Tracer`` the in-process calls are
wrapped in spans; a CLI job then also replays its subcommand in-process
through the same public calls, since spans cannot cross the subprocess.
"""

import hashlib
import json
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from nestderiv import algebra, chain, construct, derivation, linalg

# Input sizes per profile.  "full" is what the benchmark measures; "smoke" is
# a reduced run for the smoke test.  A table is O(n^4): keep n well below 96.
SIZES = {
    "full": {
        "cli-tn": [("T16", 16, None), ("C16", 16, (4, 8, 12, 16))],
        "lib-sweep": {"reps": 8, "dims": (3, 10)},
        "structure": [("T8", 8, None), ("T9", 9, None), ("T10", 10, None), ("C8", 8, (2, 5, 8)), ("C9", 9, (2, 5, 9))],
    },
    "smoke": {
        "cli-tn": [("T5", 5, None), ("C6", 6, (2, 4, 6))],
        "lib-sweep": {"reps": 4, "dims": (3, 5)},
        "structure": [("T4", 4, None), ("C5", 5, (2, 5))],
    },
}

CORRUPTION = 1e-3  # size of the perturbation of one entry, as in acceptance criterion 5
CLI_TIMEOUT_S = 60


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass
class Job:
    key: str  # names the input; stable across seeds
    group: str  # CLI subcommand for cli-tn, the workload name otherwise
    run: Callable  # run(tracer) -> (seconds, summary)


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _rng(*words) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(str(w).encode()) for w in words])


def _generator(rng, n) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _algebra(n, chain_dims) -> algebra.NestAlgebra:
    return algebra.NestAlgebra.triangular(n) if chain_dims is None else algebra.NestAlgebra(n, chain_dims)


def _tol(c) -> float:
    """Residual tolerance of the acceptance suite: 1e-8 (1 + |c|)."""
    return 1e-8 * (1.0 + linalg.op_norm(c))


def _corrupt(table, rng):
    """Perturb one entry straddling an interior projection by CORRUPTION."""
    alg = table.alg
    interior = [k for k in range(1, alg.num_levels + 1) if alg.chain[k - 1] < alg.n]
    d = alg.chain[int(rng.choice(interior)) - 1]
    i, j = int(rng.integers(d)), d + int(rng.integers(alg.n - d))
    m = _generator(rng, alg.n)
    table.values[(i, j)] = table.values[(i, j)] + CORRUPTION * m / linalg.op_norm(m)


# ---------------------------------------------------------------- checks


RESIDUALS = ("residual_pSp", "residual_corner", "residual_full", "rule_max")


def check_report(report: dict, tol: float) -> dict:
    """Pass flags, residuals, norm bounds and gauge of a verification report."""
    expect(all(report["pass"].values()), f"pass flags {report['pass']}")
    worst = max(report[name] for name in RESIDUALS)
    expect(worst <= tol, f"residual {worst:.3e} > {tol:.3e}")
    norms = report["norms"]
    expect(norms["delta_lower"] <= norms["delta_upper"] * (1 + 1e-9), "sampled derivation norm above 2 dist(c, CI)")
    expect(report["gauge"]["residual"] <= tol, f"b - c not scalar: {report['gauge']['residual']:.3e}")
    summary = {"pass": report["pass"], **{name: report[name] for name in RESIDUALS}}
    summary.update({f"norm_{name}": norms[name] for name in ("b1", "b2", "b")})
    return summary


def check_scalars(pairs, tol: float) -> dict:
    """Pairwise scalars (lambda, residual) of a normalized chain family."""
    worst = max((max(abs(lam), residual) for lam, residual in pairs), default=0.0)
    expect(worst <= tol, f"normalized chain scalar {worst:.3e} > {tol:.3e}")
    return {"pairs": len(pairs), "scalar_max": worst}


def check_structure_report(report) -> dict:
    expect(report.ok and report.commutant_nullity == 1, f"structure: nullity {report.commutant_nullity}, {report.failures[:2]}")
    return {"ok": report.ok, "nullity": report.commutant_nullity, "assertions": report.assertions}


# ------------------------------------------------- traced library calls


def _validate(tracer, table):
    with tracer.span("derivation.validate") as span:
        report = derivation.validate(table)
    if tracer.enabled:
        if not report.ok:
            span[2] = "derivation.validate.reject"
        tracer.count("derivation.validate.pairs", len(table.alg.basis_units()) ** 2)
        tracer.count("derivation.validate.failing_pairs", len(report.failing_pairs))
    return report


def _certify(tracer, table, c):
    """build_b, triple rule, norm bounds, verify and the normalized chain family."""
    choices = construct.default_choices(table.alg)
    with tracer.span("construct.build_b"):
        artifacts = construct.build_b(table, choices)
    with tracer.span("construct.triple_rule_residual"):
        rule = construct.triple_rule_residual(table, choices)
    with tracer.span("derivation.norm_estimate"):
        estimate = derivation.norm_estimate(table, generator=c)
    with tracer.span("construct.verify"):
        report = construct.verify(table, artifacts, generator=c, norms=estimate)
    with tracer.span("chain.chain_family"):
        family = chain.chain_family(table)
    with tracer.span("chain.normalize_chain"):
        normalized = chain.normalize_chain(family)
    return report, rule, normalized


def _check_certified(report, rule, normalized, c) -> dict:
    tol = _tol(c)
    summary = check_report(report.to_json(), tol)
    expect(rule.max_residual <= tol, f"triple rule residual {rule.max_residual:.3e}")
    summary.update(check_scalars(list(normalized.lambdas.values()), tol))
    return summary


# ------------------------------------------------------------ lib-sweep


def _random_chain(rng, n):
    interior = sorted(int(d) for d in rng.choice(np.arange(1, n), size=1 + int(rng.integers(n - 1)), replace=False))
    return (*interior, n)


def lib_sweep(seed, size, workdir):
    """T_n and random chains for every n, one table in four corrupted.

    The chain shapes and the order come from a fixed stream, so every seed
    does the same amount of validation work; the seed gives the values.
    """
    spec = SIZES[size]["lib-sweep"]
    lo, hi = spec["dims"]
    shapes, rng = _rng("lib-sweep", "shapes"), _rng("lib-sweep", seed)
    inputs = [
        (n, None if kind == "T" else _random_chain(shapes, n), f"{kind}{n}-{rep}{'-bad' if rep % 4 == 3 else ''}")
        for n in range(lo, hi + 1)
        for kind in ("T", "C")
        for rep in range(spec["reps"])
    ]
    jobs = []
    for index in shapes.permutation(len(inputs)):
        n, dims, key = inputs[index]
        corrupted = key.endswith("-bad")
        c = _generator(rng, n)
        table = derivation.inner_from(_algebra(n, dims), c)
        if corrupted:
            _corrupt(table, rng)

        def run(tracer, table=table, c=c, corrupted=corrupted):
            start = perf_counter()
            validation = _validate(tracer, table)
            if corrupted:
                elapsed = perf_counter() - start
                expect(not validation.ok, "corrupted table accepted")
                return elapsed, {"ok": False, "failing_pairs": len(validation.failing_pairs), "max_residual": validation.max_residual}
            report, rule, normalized = _certify(tracer, table, c)
            elapsed = perf_counter() - start
            expect(validation.ok, f"valid table rejected: {len(validation.failing_pairs)} failing pairs")
            summary = {"ok": True, "failing_pairs": 0, "max_residual": validation.max_residual}
            summary.update(_check_certified(report, rule, normalized, c))
            return elapsed, summary

        jobs.append(Job(key, "lib-sweep", run))
    return jobs


# ------------------------------------------------------------ structure


def structure(seed, size, workdir):
    rng = _rng("structure", seed)
    jobs = []
    for name, n, dims in SIZES[size]["structure"]:
        alg, check_seed = _algebra(n, dims), int(rng.integers(2**31))

        def run(tracer, alg=alg, check_seed=check_seed):
            start = perf_counter()
            with tracer.span("algebra.check_structure"):
                report = algebra.check_structure(alg, seed=check_seed)
            elapsed = perf_counter() - start
            tracer.count("algebra.basis_units.count", len(alg.basis_units()))
            return elapsed, check_structure_report(report)

        jobs.append(Job(name, "structure", run))
    return jobs


# --------------------------------------------------------------- cli-tn


def _dump_json(path, obj):
    """The CLI's own file format: sorted keys, two-space indent."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def child_env() -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=str(src))


class CliTable:
    """One table's CLI inputs, its five subcommand jobs and their replays."""

    def __init__(self, name, n, dims, rng, workdir: Path):
        self.name, self.n, self.dims = name, n, dims
        self.seed = int(rng.integers(2**31))
        self.dir = workdir
        self.digests = {}
        self.c = _generator(rng, n)
        table = derivation.inner_from(_algebra(n, dims), self.c)
        _dump_json(self.path("table"), table.to_json())
        _dump_json(self.path("generator"), linalg.matrix_to_json(self.c))
        _corrupt(table, rng)
        _dump_json(self.path("bad"), table.to_json())

    def path(self, what) -> Path:
        return self.dir / f"{self.name}.{what}.json"

    def jobs(self):
        return [
            Job(f"{self.name}/{command}", command, getattr(self, command))
            for command in ("construct", "verify", "chain", "reject", "generate")
        ]

    # -- subprocess side

    def _cli(self, *args):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "nestderiv.cli", *map(str, args)],
            cwd=self.dir, env=child_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        return perf_counter() - start, proc

    def _expect_exit(self, proc, code):
        expect(proc.returncode == code, f"exit {proc.returncode}, expected {code}: {proc.stderr.strip()[-300:]}")

    def _same_bytes(self, path) -> bytes:
        """Reports of one job must be byte-identical on every run."""
        data = Path(path).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        expect(self.digests.setdefault(str(path), digest) == digest, f"{Path(path).name} differs between runs")
        return data

    def generate(self, tracer):
        out = self.path("generated")
        chain_args = () if self.dims is None else ("--chain", ",".join(map(str, self.dims)))
        elapsed, proc = self._cli("generate", "--n", self.n, *chain_args, "--seed", self.seed, "--out", out)
        self._expect_exit(proc, 0)
        entries = len(json.loads(self._same_bytes(out))["entries"])
        self._same_bytes(f"{out}.generator.json")
        expect(entries == len(_algebra(self.n, self.dims).basis_units()), f"generated table has {entries} entries")
        self._replay_generate(tracer)
        return elapsed, {"exit": proc.returncode, "entries": entries}

    def construct(self, tracer):
        out = self.path("construct")
        elapsed, proc = self._cli(
            "construct", "--input", self.path("table"), "--generator", self.path("generator"), "--gate-thm13", "--out", out
        )
        self._expect_exit(proc, 0)
        report = json.loads(self._same_bytes(out))
        summary = check_report(report, _tol(self.c))
        _dump_json(self.path("b"), report["artifacts"]["b"])
        self._replay_construct(tracer)
        return elapsed, {"exit": proc.returncode, **summary}

    def verify(self, tracer):
        out = self.path("verify")
        elapsed, proc = self._cli(
            "verify", "--input", self.path("table"), "--b", self.path("b"),
            "--generator", self.path("generator"), "--gate-thm13", "--out", out,
        )
        self._expect_exit(proc, 0)
        summary = check_report(json.loads(self._same_bytes(out)), _tol(self.c))
        self._replay_verify(tracer)
        return elapsed, {"exit": proc.returncode, **summary}

    def chain(self, tracer):
        out = self.path("chain")
        elapsed, proc = self._cli("chain", "--input", self.path("table"), "--generator", self.path("generator"), "--out", out)
        self._expect_exit(proc, 0)
        report = json.loads(self._same_bytes(out))
        tol = _tol(self.c)
        pairs = [
            (complex(*lam["value"]), lam["residual"]) for member in report["family"] for lam in member["lambdas"]
        ]
        summary = check_scalars(pairs, tol)
        stabilized = report["stabilized"]
        expect(stabilized["implements_residual"] <= tol, f"stabilized b residual {stabilized['implements_residual']:.3e}")
        expect(stabilized["gauge_on_p"]["residual"] <= tol, "stabilized b - c not scalar on p")
        self._replay_chain(tracer)
        return elapsed, {"exit": proc.returncode, **summary, "implements_residual": stabilized["implements_residual"]}

    def reject(self, tracer):
        out = self.path("rejected")
        out.unlink(missing_ok=True)
        elapsed, proc = self._cli(
            "construct", "--input", self.path("bad"), "--generator", self.path("generator"), "--gate-thm13", "--out", out
        )
        self._expect_exit(proc, 1)
        expect(not out.exists(), "rejected table still wrote a report")
        self._replay_reject(tracer)
        return elapsed, {"exit": proc.returncode}

    # -- in-process replays, traced runs only

    def _load_table(self, tracer, what):
        path = self.path(what)
        with tracer.span("derivation.table_load"):
            with open(path) as handle:
                table = derivation.DerivationTable.from_json(json.load(handle))
        tracer.count("derivation.table_bytes", path.stat().st_size)
        return table

    def _load_matrix(self, what):
        with open(self.path(what)) as handle:
            return linalg.matrix_from_json(json.load(handle))

    def _write(self, tracer, span, what, to_json):
        path = self.dir / f"{self.name}.replay-{what}.json"
        with tracer.span(span):
            _dump_json(path, to_json())
        if span == "derivation.table_dump":
            tracer.count("derivation.table_bytes", path.stat().st_size)

    def _replay_generate(self, tracer):
        if not tracer.enabled:
            return
        c = _generator(np.random.default_rng(self.seed), self.n)
        with tracer.span("derivation.inner_from"):
            table = derivation.inner_from(_algebra(self.n, self.dims), c)
        _validate(tracer, table)
        self._write(tracer, "derivation.table_dump", "generated", table.to_json)
        self._write(tracer, "cli.report_dump", "generator", lambda: linalg.matrix_to_json(c))

    def _replay_verify_b(self, tracer, b=None):
        """The construct subcommand when b is None, the verify subcommand otherwise."""
        table = self._load_table(tracer, "table")
        expect(_validate(tracer, table).ok, "replay: valid table rejected")
        c = self._load_matrix("generator")
        choices = construct.default_choices(table.alg)
        if b is None:
            with tracer.span("construct.build_b"):
                artifacts = construct.build_b(table, choices)
        else:
            zero = np.zeros_like(b)
            artifacts = construct.ConstructionArtifacts(b1=b, c1=zero, b2=b, c2=zero, b=b, choices=choices)
        with tracer.span("derivation.norm_estimate"):
            estimate = derivation.norm_estimate(table, generator=c)
        with tracer.span("construct.verify"):
            report = construct.verify(table, artifacts, generator=c, norms=estimate)
        self._write(tracer, "cli.report_dump", "construct" if b is None else "verify", report.to_json)

    def _replay_construct(self, tracer):
        if tracer.enabled:
            self._replay_verify_b(tracer)

    def _replay_verify(self, tracer):
        if tracer.enabled:
            self._replay_verify_b(tracer, self._load_matrix("b"))

    def _replay_chain(self, tracer):
        if not tracer.enabled:
            return
        table = self._load_table(tracer, "table")
        expect(_validate(tracer, table).ok, "replay: valid table rejected")
        with tracer.span("chain.chain_family"):
            family = chain.chain_family(table)
        with tracer.span("chain.normalize_chain"):
            normalized = chain.normalize_chain(family)
        top = chain.stabilized_b(normalized)
        with tracer.span("chain.implements_on_projection"):
            chain.implements_on_projection(table, top, max(m.k for m in normalized.members))
        self._write(tracer, "cli.report_dump", "chain", normalized.to_json)

    def _replay_reject(self, tracer):
        if not tracer.enabled:
            return
        table = self._load_table(tracer, "bad")
        expect(not _validate(tracer, table).ok, "replay: corrupted table accepted")


def cli_tn(seed, size, workdir):
    rng = _rng("cli-tn", seed)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for name, n, dims in SIZES[size]["cli-tn"]:
        jobs.extend(CliTable(name, n, dims, rng, workdir).jobs())
    return jobs


MAKERS = {"cli-tn": cli_tn, "lib-sweep": lib_sweep, "structure": structure}


def make_jobs(workload, seed, size, workdir: Path):
    """Generate the workload's inputs from the seed and return its jobs."""
    return MAKERS[workload](seed, size, workdir)
