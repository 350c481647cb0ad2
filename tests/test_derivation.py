import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestderiv.algebra import NestAlgebra
from nestderiv.derivation import (
    DerivationTable,
    EvaluationDomainError,
    commutator_residuals,
    distance_to_scalars,
    evaluate,
    inner_from,
    norm_estimate,
    unit_commutators,
    validate,
)
from nestderiv.linalg import matrix_to_json, op_norm

from conftest import random_complex, unit
from oracles import (
    oracle_commutator_residuals,
    oracle_distance_to_scalars,
    oracle_enclosing_disk_radius,
    oracle_validate,
)


def zero_table(alg):
    return DerivationTable(alg, {u: np.zeros((alg.n, alg.n), dtype=complex) for u in alg.basis_units()})


@st.composite
def algebras(draw, max_n=8):
    """T_n or a random chain, n <= max_n."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        return NestAlgebra.triangular(n)
    interior = draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else set()
    return NestAlgebra(n, (*sorted(interior), n))


@st.composite
def tables(draw):
    """Valid inner, one-entry-corrupted inner and fully random tables, n <= 7."""
    alg = draw(algebras(max_n=7))
    n = alg.n
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    units = alg.basis_units()
    kind = draw(st.sampled_from(["valid", "corrupted", "random"]))
    if kind == "random":
        return DerivationTable(alg, {u: random_complex(rng, (n, n)) for u in units})
    table = inner_from(alg, random_complex(rng, (n, n)))
    if kind == "corrupted":
        u = units[draw(st.integers(min_value=0, max_value=len(units) - 1))]
        size = 10.0 ** draw(st.integers(min_value=-12, max_value=0))
        table.values[u] = table.values[u] + size * random_complex(rng, (n, n))
    return table


class TestUnitCommutators:
    @given(algebras(), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_products_and_per_unit_oracle(self, alg, seed, inner):
        rng = np.random.default_rng(seed)
        n = alg.n
        x, b = random_complex(rng, (n, n)), random_complex(rng, (n, n))
        stacked = unit_commutators(alg, x)
        for r, u in enumerate(alg.basis_units()):
            e = unit(n, u.i, u.j)
            assert np.array_equal(stacked[r], x @ e - e @ x)
        if inner:
            table = inner_from(alg, random_complex(rng, (n, n)))
        else:
            table = DerivationTable(alg, {u: random_complex(rng, (n, n)) for u in alg.basis_units()})
        assert np.array_equal(commutator_residuals(table, b), oracle_commutator_residuals(table, b))
        for k in range(1, alg.num_levels + 1):
            p = alg.lattice_projection(k)
            assert np.array_equal(commutator_residuals(table, b, p), oracle_commutator_residuals(table, b, p))


class TestDerivationTable:
    def test_rejects_malformed_input(self):
        alg = NestAlgebra.triangular(3)
        values = {u: np.zeros((3, 3)) for u in alg.basis_units()}
        for key in [(9, 9), (2, 0), (-1, 0)]:  # out of range, below the pattern, negative
            with pytest.raises(ValueError, match="not basis units"):
                DerivationTable(alg, {**values, key: np.zeros((3, 3))})
        for tol in [float("inf"), float("nan"), 0.0, -1.0]:
            with pytest.raises(ValueError, match="tol"):
                DerivationTable(alg, values, tol=tol)

        obj = inner_from(alg, np.eye(3)).to_json()
        assert len(DerivationTable.from_json(obj).values) == 6
        duplicate = {**obj, "entries": obj["entries"] + obj["entries"][:1]}
        with pytest.raises(ValueError, match="duplicate entry for unit \\(0, 0\\)"):
            DerivationTable.from_json(duplicate)
        for entries in [5, {"a": 1}, [{"i": 0, "j": 0, "value": {**matrix_to_json(np.eye(3)), "data": [1] * 9}}]]:
            with pytest.raises(ValueError, match="malformed"):
                DerivationTable.from_json({**obj, "entries": entries})
        with pytest.raises(ValueError, match="tol"):
            DerivationTable.from_json({**obj, "tol": 0})


class TestValidate:
    def test_zero_table_valid(self):
        report = validate(zero_table(NestAlgebra.triangular(3)))
        assert report.ok and report.max_residual == 0.0

    def test_inner_table_valid(self, rng):
        alg = NestAlgebra(4, (2, 4))
        table = inner_from(alg, random_complex(rng, (4, 4)))
        report = validate(table)
        assert report.ok
        assert report.max_residual < 1e-12 * table.value_scale

    def test_perturbed_table_invalid(self, rng):
        alg = NestAlgebra.triangular(2)
        table = inner_from(alg, random_complex(rng, (2, 2)))
        table.values[(0, 1)] = table.values[(0, 1)] + 1e-3 * unit(2, 0, 0)
        report = validate(table)
        assert not report.ok
        assert report.max_residual == pytest.approx(1e-3, rel=0.5)

    @given(tables())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_pair_oracle(self, table):
        report = validate(table)
        residuals, failing = oracle_validate(table)
        assert [(u, v) for u, v, _ in report.failing_pairs] == [(u, v) for u, v, _ in failing]
        for (_, _, got), (_, _, want) in zip(report.failing_pairs, failing):
            assert math.isclose(got, want, rel_tol=1e-12)
        assert math.isclose(report.max_residual, max(residuals.values()), rel_tol=1e-12)
        assert math.isclose(residuals[report.worst_pair], report.max_residual, rel_tol=1e-12)

    @pytest.mark.parametrize("chain", [None, (6, 12), (3, 7, 12), (1, 2, 11, 12), (2, 4, 6, 8, 10, 12)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_inner_tables_validate_to_rounding_at_n12(self, chain, seed):
        # an exactly-zero residual must come out zero, not as the sqrt(eps)
        # noise of a squared (Gram-matrix) norm
        alg = NestAlgebra.triangular(12) if chain is None else NestAlgebra(12, chain)
        table = inner_from(alg, random_complex(np.random.default_rng(seed), (12, 12)))
        report = validate(table)
        assert report.ok
        assert report.max_residual <= 1e-14 * table.value_scale

    def test_missing_entry_rejected(self):
        alg = NestAlgebra.triangular(2)
        with pytest.raises(ValueError):
            DerivationTable(alg, {(0, 0): np.zeros((2, 2))})


class TestInnerFrom:
    def test_identity_generator_gives_zero(self):
        alg = NestAlgebra.triangular(3)
        table = inner_from(alg, np.eye(3))
        assert all(not v.any() for v in table.values.values())

    def test_lower_unit_generator(self):
        # c = E_21 (1-based): delta(E_11) = c, delta(E_12) = E_22 - E_11, delta(E_22) = -c
        alg = NestAlgebra.triangular(2)
        c = unit(2, 1, 0)
        table = inner_from(alg, c)
        assert np.array_equal(table.values[(0, 0)], c)
        assert np.array_equal(table.values[(0, 1)], unit(2, 1, 1) - unit(2, 0, 0))
        assert np.array_equal(table.values[(1, 1)], -c)

    def test_diagonal_generator(self):
        alg = NestAlgebra.triangular(2)
        table = inner_from(alg, np.diag([1.0, 2.0]))
        assert np.array_equal(table.values[(0, 1)], -unit(2, 0, 1))
        assert not table.values[(0, 0)].any()
        assert not table.values[(1, 1)].any()


class TestEvaluate:
    def test_zero_element(self, rng):
        alg = NestAlgebra.triangular(3)
        table = inner_from(alg, random_complex(rng, (3, 3)))
        assert not evaluate(table, np.zeros((3, 3))).any()

    def test_matches_commutator_on_algebra(self, rng):
        alg = NestAlgebra(5, (2, 3, 5))
        c = random_complex(rng, (5, 5))
        table = inner_from(alg, c)
        for _ in range(10):
            a = random_complex(rng, (5, 5))
            a[~alg.pattern_mask()] = 0
            assert op_norm(evaluate(table, a) - (c @ a - a @ c)) < 1e-12 * table.value_scale

    def test_outside_algebra_rejected(self, rng):
        alg = NestAlgebra.triangular(2)
        table = inner_from(alg, random_complex(rng, (2, 2)))
        with pytest.raises(EvaluationDomainError):
            evaluate(table, unit(2, 1, 0))

    def test_on_chain_projection(self, rng):
        alg = NestAlgebra.triangular(4)
        table = inner_from(alg, random_complex(rng, (4, 4)))
        p = alg.lattice_projection(2)
        expected = table.values[(0, 0)] + table.values[(1, 1)]
        assert op_norm(evaluate(table, p) - expected) < 1e-14


class TestDerivationInvariants:
    def test_vanishes_on_identity_and_scalars(self, rng):
        alg = NestAlgebra.triangular(4)
        table = inner_from(alg, random_complex(rng, (4, 4)))
        tol = 1e-12 * table.value_scale
        assert op_norm(evaluate(table, np.eye(4))) < tol
        assert op_norm(evaluate(table, (2.5 - 1j) * np.eye(4))) < tol

    def test_projection_corners_vanish(self, rng):
        # p delta(p) p = pperp delta(p) pperp = 0
        alg = NestAlgebra(6, (1, 4, 6))
        table = inner_from(alg, random_complex(rng, (6, 6)))
        tol = 1e-12 * table.value_scale
        for k in (1, 2):
            p = alg.lattice_projection(k)
            pperp = np.eye(6) - p
            dp = evaluate(table, p)
            assert op_norm(p @ dp @ p) < tol
            assert op_norm(pperp @ dp @ pperp) < tol

    def test_gauge_invariance_of_inner_tables(self, rng):
        alg = NestAlgebra.triangular(3)
        c = random_complex(rng, (3, 3))
        t1 = inner_from(alg, c)
        t2 = inner_from(alg, c + (3.7 + 0.2j) * np.eye(3))
        for u in alg.basis_units():
            assert np.allclose(t1.values[u], t2.values[u], atol=1e-13)


class TestNormEstimate:
    def test_zero_table(self):
        alg = NestAlgebra.triangular(2)
        est = norm_estimate(zero_table(alg), samples=4, seed=0, generator=np.zeros((2, 2)))
        assert est.lower == 0.0
        assert est.upper == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_generator_upper(self):
        alg = NestAlgebra.triangular(2)
        table = inner_from(alg, np.diag([1.0, 2.0]))
        est = norm_estimate(table, samples=8, seed=0, generator=np.diag([1.0, 2.0]))
        assert est.upper == pytest.approx(1.0, abs=1e-9)

    def test_lower_unit_generator_bounds(self):
        alg = NestAlgebra.triangular(2)
        c = unit(2, 1, 0)
        table = inner_from(alg, c)
        est = norm_estimate(table, samples=16, seed=0, generator=c)
        assert est.upper == pytest.approx(2.0, abs=1e-9)
        # a = E_12 gives delta(a) = E_22 - E_11 of norm 1
        assert est.lower >= 1.0 - 1e-9
        assert est.lower <= est.upper + 1e-9

    def test_lower_below_upper(self, rng):
        for n in (3, 5):
            alg = NestAlgebra.triangular(n)
            c = random_complex(rng, (n, n))
            est = norm_estimate(inner_from(alg, c), samples=16, seed=7, generator=c)
            assert est.lower <= est.upper + 1e-9


class TestDistanceToScalars:
    def test_diagonal(self):
        lam, dist = distance_to_scalars(np.diag([1.0, 2.0]).astype(complex))
        assert abs(lam - 1.5) < 1e-5
        assert dist == pytest.approx(0.5, abs=1e-9)

    def test_already_scalar(self):
        lam, dist = distance_to_scalars((2 + 1j) * np.eye(3))
        assert abs(lam - (2 + 1j)) < 1e-8
        assert dist < 1e-9

    def test_never_above_trace_center(self, rng):
        for _ in range(5):
            c = random_complex(rng, (4, 4))
            lam, dist = distance_to_scalars(c)
            assert dist <= op_norm(c - (np.trace(c) / 4) * np.eye(4)) + 1e-12

    def test_kink_minimum_is_reached(self):
        # the smallest disk around the spectrum {1+i, -1-i} has radius sqrt(2)
        _, dist = distance_to_scalars(np.diag([1 + 1j, -1 - 1j, 1 + 1j]))
        assert abs(dist - math.sqrt(2)) <= 1e-12

    def test_normal_matrix_is_enclosing_disk_radius(self, rng):
        for n in range(1, 9):
            for _ in range(3):
                z = random_complex(rng, n)
                q, _ = np.linalg.qr(random_complex(rng, (n, n)))
                _, dist = distance_to_scalars(q @ np.diag(z) @ q.conj().T)
                radius = oracle_enclosing_disk_radius(z)
                assert abs(dist - radius) <= 1e-10 * max(1.0, radius)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_nested_golden_section_oracle(self, n, seed, log_scale):
        c = 10.0**log_scale * random_complex(np.random.default_rng(seed), (n, n))
        lam, dist = distance_to_scalars(c)
        best = oracle_distance_to_scalars(c)
        assert dist <= best + 1e-12 * max(1.0, best)
        assert dist >= best - 1e-9 * max(1.0, best)
        assert op_norm(c - lam * np.eye(n)) == dist


def test_json_roundtrip(rng):
    alg = NestAlgebra(3, (1, 3))
    table = inner_from(alg, random_complex(rng, (3, 3)))
    table.tol = 1e-8
    restored = DerivationTable.from_json(table.to_json())
    assert restored.alg == alg
    assert restored.tol == 1e-8
    for u in alg.basis_units():
        assert np.allclose(restored.values[u], table.values[u], atol=1e-15)
