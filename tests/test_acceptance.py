"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The randomized sweeps are fully seeded and deterministic.
"""

import time

import numpy as np
import pytest

from nestderiv.algebra import NestAlgebra, check_structure
from nestderiv.chain import chain_family, normalize_chain
from nestderiv.construct import (
    ConstructionChoices,
    build_b,
    build_c2,
    triple_rule_residual,
    two_projection_b,
    verify,
)
from nestderiv.derivation import DerivationTable, evaluate, inner_from, norm_estimate
from nestderiv.linalg import op_norm, scalar_identity_part

from conftest import basis_vec, random_complex, unit
from oracles import oracle_b1, oracle_build_c2, oracle_c1, oracle_c2, oracle_triple_rule

SWEEP_SEEDS = range(100)
SWEEP_DIMS = range(2, 13)


def report_line(number, label, ok):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} [{status}]: {label}")
    return ok


def choices_for(alg, k, xi0_index=None, eta1_index=0):
    d = alg.chain[k - 1]
    xi0 = basis_vec(alg.n, d if xi0_index is None else xi0_index)
    return ConstructionChoices(k=k, xi0=xi0, eta1=basis_vec(alg.n, eta1_index))


@pytest.fixture(scope="module")
def sweep():
    """100 seeded inner derivations on T_n, n in 2..12, verified at every interior k."""
    t_start = time.time()
    runs = []
    dims = list(SWEEP_DIMS)
    for seed in SWEEP_SEEDS:
        n = dims[seed % len(dims)]
        rng = np.random.default_rng(1000 + seed)
        alg = NestAlgebra.triangular(n)
        c = random_complex(rng, (n, n))
        table = inner_from(alg, c)
        est = norm_estimate(table, generator=c)
        scale = 1e-8 * (1 + op_norm(c))
        reports = {}
        for k in range(1, n):
            artifacts = build_b(table, choices_for(alg, k))
            reports[k] = verify(table, artifacts, generator=c, norms=est)
        two_proj = []
        for k in range(1, n + 1):
            p = alg.lattice_projection(k)
            dp = evaluate(table, p)
            b = two_projection_b(table, k)
            two_proj.append(op_norm(dp - (b @ p - p @ b)))
        runs.append(
            {"seed": seed, "n": n, "c": c, "scale": scale, "est": est, "reports": reports, "two_proj": two_proj}
        )
    elapsed = time.time() - t_start
    return {"runs": runs, "elapsed": elapsed}


def test_criterion_1_implementation_identity(sweep):
    ok = True
    for run in sweep["runs"]:
        for report in run["reports"].values():
            worst = max(report.residual_pSp, report.residual_corner, report.residual_full, report.rule_max)
            if worst > run["scale"]:
                ok = False
    ok = ok and sweep["elapsed"] <= 60.0
    assert report_line(
        1,
        f"implementation residuals <= 1e-8*(1+|c|) over the sweep, {sweep['elapsed']:.1f}s <= 60s",
        ok,
    )


def test_criterion_2_gauge_law(sweep):
    ok = all(
        report.gauge[1] <= run["scale"]
        for run in sweep["runs"]
        for report in run["reports"].values()
    )
    assert report_line(2, "b - c is scalar (gauge residual <= 1e-8*(1+|c|))", ok)


def test_criterion_3_norm_bounds(sweep):
    ok = True
    for run in sweep["runs"]:
        upper = run["est"].upper
        if run["est"].lower > upper + 1e-9:
            ok = False
        for report in run["reports"].values():
            if report.norms["b1"] > upper + 1e-8 or report.norms["b"] > 4 * upper + 1e-8:
                ok = False
    assert report_line(3, "|b1| <= |delta|_upper and |b| <= 4|delta|_upper; lower <= upper", ok)


def test_criterion_4_hand_derived_oracles():
    ok = True

    # n=2, c = E_21 (lower-left): b1 = E_21, c1 = c2 = 0, b = c
    alg2 = NestAlgebra.triangular(2)
    ch2 = choices_for(alg2, 1)
    c = unit(2, 1, 0)
    art = build_b(inner_from(alg2, c), ch2)
    ok &= np.allclose(art.b1, oracle_b1(c, 1, 1), atol=1e-12) and np.allclose(art.b1, unit(2, 1, 0), atol=1e-12)
    ok &= np.allclose(art.c1, oracle_c1(c, 1), atol=1e-12) and not art.c1.any()
    ok &= np.allclose(art.c2, oracle_c2(c, 1, 1, 0), atol=1e-12) and not art.c2.any()
    ok &= np.allclose(art.b, c, atol=1e-12)

    # n=2, c = diag(1, 2): b1 = -E_11, b = -E_11, gauge lambda = -2
    cd = np.diag([1.0, 2.0]).astype(complex)
    art = build_b(inner_from(alg2, cd), ch2)
    ok &= np.allclose(art.b1, oracle_b1(cd, 1, 1), atol=1e-12) and np.allclose(art.b1, -unit(2, 0, 0), atol=1e-12)
    ok &= np.allclose(art.b, -unit(2, 0, 0), atol=1e-12)
    lam, residual = scalar_identity_part(art.b - cd)
    ok &= abs(lam - (-2.0)) < 1e-12 and residual < 1e-12

    # n=2, c = E_12 (upper-right): b1 = 0, c1 = E_12, b = c
    cu = unit(2, 0, 1)
    art = build_b(inner_from(alg2, cu), ch2)
    ok &= np.allclose(art.b1, oracle_b1(cu, 1, 1), atol=1e-12) and not art.b1.any()
    ok &= np.allclose(art.c1, oracle_c1(cu, 1), atol=1e-12) and np.allclose(art.c1, unit(2, 0, 1), atol=1e-12)
    ok &= np.allclose(art.b, cu, atol=1e-12)

    # n=3, c = E_32: b1 = c1 = 0, c2 = E_32, b = c
    alg3 = NestAlgebra.triangular(3)
    c3 = unit(3, 2, 1)
    art = build_b(inner_from(alg3, c3), choices_for(alg3, 1))
    ok &= not art.b1.any() and not art.c1.any()
    ok &= np.allclose(art.c2, oracle_c2(c3, 1, 1, 0), atol=1e-12) and np.allclose(art.c2, unit(3, 2, 1), atol=1e-12)
    ok &= np.allclose(art.b, c3, atol=1e-12)

    # Theorem 13 identity at n=2 for c = E_21: zero residual both ways
    rule = triple_rule_residual(inner_from(alg2, unit(2, 1, 0)), ch2)
    ok &= rule.max_residual < 1e-12
    ok &= oracle_triple_rule(unit(2, 1, 0), 1, 1, 0, 1, 0) < 1e-12

    assert report_line(4, "five worked instances match independent oracle to 1e-12", ok)


def test_criterion_5_failure_detection():
    eps = 1e-3
    detected = 0
    trials = 100
    for t in range(trials):
        rng = np.random.default_rng(5000 + t)
        n = 3 + t % 8
        alg = NestAlgebra.triangular(n)
        c = random_complex(rng, (n, n))
        table = inner_from(alg, c)
        k = 1 + int(rng.integers(n - 1))
        d = alg.chain[k - 1]
        i = int(rng.integers(d))
        j = d + int(rng.integers(n - d))
        m = random_complex(rng, (n, n))
        m /= op_norm(m)
        table.values[(i, j)] = table.values[(i, j)] + eps * m
        artifacts = build_b(table, choices_for(alg, k))
        report = verify(table, artifacts)
        if report.rule_max >= 1e-4 and report.residual_full >= 1e-4:
            detected += 1

    partial_ok = True
    for t in range(trials):
        rng = np.random.default_rng(6000 + t)
        n = 4 + t % 7
        alg = NestAlgebra.triangular(n)
        c = random_complex(rng, (n, n))
        table = inner_from(alg, c)
        # pick k with room for a corrupted unit the construction never reads
        k = max(2, min(n - 2, n // 2))
        d = alg.chain[k - 1]
        i = 1 + int(rng.integers(d - 1))  # avoid eta1 row 0
        j = d + 1 + int(rng.integers(n - d - 1))  # avoid xi0 column d
        m = random_complex(rng, (n, n))
        m /= op_norm(m)
        table.values[(i, j)] = table.values[(i, j)] + eps * m
        artifacts = build_b(table, choices_for(alg, k))
        report = verify(table, artifacts)
        scale = 1e-8 * (1 + op_norm(c))
        if report.residual_pSp > scale or report.residual_corner > scale:
            partial_ok = False
        if report.rule_max < 1e-4 or report.residual_full < 1e-4:
            partial_ok = False

    ok = detected >= 95 and partial_ok
    assert report_line(
        5, f"corruption detected on {detected}/100 trials; partial guarantees intact", ok
    )


def test_criterion_6_two_projection_implementer(sweep):
    worst = max(max(run["two_proj"]) for run in sweep["runs"])
    ok = worst <= 1e-10
    assert report_line(6, f"two-projection implementer residual {worst:.2e} <= 1e-10", ok)


def test_criterion_7_chain_machinery():
    ok = True
    for n in range(3, 9):
        rng = np.random.default_rng(700 + n)
        alg = NestAlgebra.triangular(n)
        c = random_complex(rng, (n, n))
        table = inner_from(alg, c)
        upper = norm_estimate(table, generator=c).upper
        family = chain_family(table)
        for lam, _ in family.lambdas.values():
            if abs(lam) > upper + 1e-8:
                ok = False
        normalized = normalize_chain(family)
        for lam, _ in normalized.lambdas.values():
            if abs(lam) > 1e-8 * (1 + op_norm(c)):
                ok = False
    assert report_line(7, "chain scalars bounded pre-normalization and zero after", ok)


def test_criterion_8_c2_basis_independence():
    ok = True
    for n, k in [(5, 2), (6, 3), (8, 4)]:
        rng = np.random.default_rng(800 + n)
        alg = NestAlgebra.triangular(n)
        c = random_complex(rng, (n, n))
        table = inner_from(alg, c)
        choices = choices_for(alg, k)
        d = alg.chain[k - 1]
        reference = build_c2(table, choices)
        for _ in range(10):
            u, _ = np.linalg.qr(random_complex(rng, (n - d, n - d)))
            basis = []
            for col in range(n - d):
                xi = np.zeros(n, dtype=complex)
                xi[d:] = u[:, col]
                basis.append(xi)
            rotated = oracle_build_c2(table, choices, basis=basis)
            if op_norm(rotated - reference) > 1e-8 * (1 + op_norm(c)):
                ok = False
    assert report_line(8, "c2 agrees under 10 random rotations of the p-perp basis", ok)


def test_criterion_9_structure_suite():
    total_assertions = 0
    failures = []
    for n in range(2, 9):
        rng = np.random.default_rng(900 + n)
        algebras = [NestAlgebra.triangular(n)]
        for _ in range(10):
            if n == 1:
                break
            interior = sorted(rng.choice(range(1, n), size=int(rng.integers(0, n)), replace=False).tolist())
            algebras.append(NestAlgebra(n, tuple(interior) + (n,)))
        for idx, alg in enumerate(algebras):
            report = check_structure(alg, seed=97 + idx)
            total_assertions += report.assertions
            failures.extend(failures_with_context(alg, report))
    ok = total_assertions >= 1000 and not failures
    assert report_line(9, f"structure suite: {total_assertions} assertions, {len(failures)} failures", ok)


def failures_with_context(alg, report):
    return [f"{alg.chain}: {f}" for f in report.failures]
