import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestderiv import derivation, linalg
from nestderiv.algebra import NestAlgebra
from nestderiv.chain import implements_on_projection
from nestderiv.derivation import (
    DerivationTable,
    EvaluationDomainError,
    distance_to_scalars,
    evaluate,
    inner_from,
    norm_estimate,
    rank_one_images,
    unit_commutators,
    unit_defects,
    validate,
)
from nestderiv.linalg import DimensionError, matrix_to_json, op_norm

from conftest import algebras, random_complex, unit
from oracles import (
    oracle_batched_validate,
    oracle_commutator_residuals,
    oracle_distance_to_scalars,
    oracle_enclosing_disk_radius,
    oracle_evaluate,
    oracle_largest_unit,
    oracle_norm_estimate,
    oracle_validate,
    oracle_value_scale,
)


def zero_table(alg):
    return DerivationTable(alg, {u: np.zeros((alg.n, alg.n), dtype=complex) for u in alg.basis_units()})


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


@st.composite
def norm_tables(draw):
    """Inner, zero and mutated-after-inner_from tables on T_n and random chains, n <= 10."""
    alg = draw(algebras(max_n=10))
    n = alg.n
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["inner", "zero", "mutated"]))
    if kind == "zero":
        return zero_table(alg)
    table = inner_from(alg, 10.0 ** draw(st.integers(min_value=-3, max_value=3)) * random_complex(rng, (n, n)))
    if kind == "mutated":
        units = alg.basis_units()
        u = units[draw(st.integers(min_value=0, max_value=len(units) - 1))]
        table.values[u] = table.values[u] + random_complex(rng, (n, n))
    return table


class TestUnitCommutators:
    @given(algebras(), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    # residual @ p gave the top level of T_3 a -0.0 zero and a norm one bit off: 4.9242909147453995 for 4.9242909147454
    @example(alg=NestAlgebra.triangular(3), seed=12788426, inner=True)
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
        defects = unit_defects(table, b)
        assert defects.tobytes() == (table.stacked() - unit_commutators(alg, b)).tobytes()
        assert linalg._max_op_norm(defects)[0] == max(oracle_commutator_residuals(table, b))
        for k in range(1, alg.num_levels + 1):
            p = alg.lattice_projection(k)
            assert implements_on_projection(table, b, k) == max(oracle_commutator_residuals(table, b, p))


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
        with pytest.raises(ValueError, match="^7 entries, expected one for each of the 6 basis units$"):
            DerivationTable.from_json({**obj, "entries": obj["entries"] + obj["entries"][:1]})
        duplicate = {**obj, "entries": obj["entries"][:-1] + obj["entries"][:1]}
        with pytest.raises(ValueError, match="duplicate entry for unit \\(0, 0\\)"):
            DerivationTable.from_json(duplicate)
        bad_value = {"i": 0, "j": 0, "value": {**matrix_to_json(np.eye(3)), "data": [1] * 9}}
        for entries in [5, {str(r): 1 for r in range(6)}, [bad_value, *obj["entries"][1:]]]:
            with pytest.raises(ValueError, match="malformed"):
                DerivationTable.from_json({**obj, "entries": entries})
        with pytest.raises(ValueError, match="tol"):
            DerivationTable.from_json({**obj, "tol": 0})
        for tol in (True, "1e-9", None):
            with pytest.raises(ValueError, match=f"^tol must be a number, got {tol!r}$"):
                DerivationTable.from_json({**obj, "tol": tol})

    @given(norm_tables(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_value_scale_matches_every_value_normed(self, table, tied):
        """The scan in Frobenius order stops early yet returns the maximum over all values, to the bit."""
        if tied:
            # the same value under many units: equal Frobenius norms, one of them the maximum
            units = table.alg.basis_units()
            for u in units[1:]:
                table.values[u] = table.values[units[0]].copy()
        assert table.value_scale == oracle_value_scale(table)

    def test_value_scale_stops_at_the_frobenius_bound(self, rng, svd_batches):
        alg = NestAlgebra.triangular(8)
        table = inner_from(alg, random_complex(rng, (8, 8)))
        units = alg.basis_units()
        table.values[units[7]] = 100.0 * table.values[units[7]]
        scale = table.value_scale
        # a row of the dominant value is longer than any other value's Frobenius norm: only it is normed
        assert svd_batches == [1] and len(units) == 36
        assert scale == oracle_value_scale(table)

    def test_value_scale_finds_a_maximum_below_larger_frobenius_norms(self, svd_batches):
        # eight values of Frobenius norm 2 and operator norm 1 come first; the maximum, 1.0005, is the ninth
        alg = NestAlgebra.triangular(4)
        units = alg.basis_units()
        values = {u: np.eye(4) for u in units[:8]}
        values[units[8]] = 1.0005 * unit(4, 0, 0)
        values[units[9]] = np.zeros((4, 4))
        table = DerivationTable(alg, values)
        assert table.value_scale == 1.0005
        # all nine values of nonzero norm can reach the largest row norm, 1.0005; the zero values are not normed
        assert svd_batches == [9]
        assert table.value_scale == oracle_value_scale(table)

    def test_value_scale_where_squares_overflow(self, rng):
        # squares of entries near 1e200 are inf, so no row, column or Frobenius norm prunes: every value is normed
        table = inner_from(NestAlgebra.triangular(5), 1e200 * random_complex(rng, (5, 5)))
        exact = max(np.linalg.norm(v, 2) for v in table.values.values())
        assert table.value_scale == oracle_value_scale(table) == exact > 1e199

    def test_values_stored_in_basis_order(self, rng):
        alg = NestAlgebra(5, (2, 3, 5))
        units = alg.basis_units()
        given = {tuple(u): random_complex(rng, (5, 5)) for u in reversed(units)}
        assert list(DerivationTable(alg, given).values) == units
        obj = inner_from(alg, random_complex(rng, (5, 5))).to_json()
        obj["entries"].reverse()
        table = DerivationTable.from_json(obj)
        assert list(table.values) == units
        a = random_complex(rng, (5, 5))
        a[~alg.pattern_mask()] = 0
        assert np.array_equal(evaluate(table, a), oracle_evaluate(table, a))

    def test_assignment_is_checked_and_leaves_the_table_unchanged(self, rng):
        alg = NestAlgebra.triangular(4)
        table = inner_from(alg, random_complex(rng, (4, 4)))
        before = table.stacked().copy()
        inf = np.zeros((4, 4))
        inf[1, 2] = np.inf
        cases = [
            ((3, 0), np.zeros((4, 4)), KeyError),  # below the pattern
            ((4, 4), np.zeros((4, 4)), KeyError),  # out of range
            ((-1, 3), np.zeros((4, 4)), KeyError),  # negative, which would wrap onto unit (3, 3)
            ((0, 1, 2), np.zeros((4, 4)), KeyError),
            ("01", np.zeros((4, 4)), KeyError),
            ((0.5, 1), np.zeros((4, 4)), KeyError),
            ((0, 1), inf, ValueError),
            ((0, 1), np.full((4, 4), np.nan), ValueError),
            ((0, 1), np.zeros((3, 3)), DimensionError),
            ((0, 1), np.zeros(4), DimensionError),
        ]
        for key, value, error in cases:
            with pytest.raises(error):
                table.values[key] = value
            assert np.array_equal(table.stacked(), before)
            assert (key in table.values) == (error is not KeyError)
        with pytest.raises(TypeError):
            del table.values[(0, 1)]
        assert len(table.values) == 10 and validate(table).ok
        assert DerivationTable.from_json(table.to_json()).stacked().tobytes() == before.tobytes()

    def test_equality_compares_algebra_tolerance_and_values(self, rng):
        alg = NestAlgebra.triangular(3)
        c = random_complex(rng, (3, 3))
        table = inner_from(alg, c)
        assert table == inner_from(alg, c)
        assert not table != inner_from(alg, c)
        changed = inner_from(alg, c)
        changed.values[(0, 2)] = changed.values[(0, 2)] + 1e-15
        assert table != changed
        looser = inner_from(alg, c)
        looser.tol = 1e-8
        assert table != looser
        # zero tables of the same size on two chains differ by their algebras
        first, second = (zero_table(NestAlgebra(3, chain)) for chain in ((1, 3), (2, 3)))
        assert first != second and first == zero_table(NestAlgebra(3, (1, 3)))
        assert table != "table"
        assert table.values == inner_from(alg, c).values and table.values != changed.values
        # n = 1: one value, compared as a 1 x 1 array
        one = NestAlgebra.triangular(1)
        assert DerivationTable(one, {(0, 0): [[2.0]]}) == DerivationTable(one, {(0, 0): [[2.0 + 0j]]})
        assert DerivationTable(one, {(0, 0): [[2.0]]}) != DerivationTable(one, {(0, 0): [[3.0]]})

    def test_stacked_and_values_share_the_table_array(self, rng):
        alg = NestAlgebra(6, (2, 3, 6))
        table = inner_from(alg, random_complex(rng, (6, 6)))
        stacked = table.stacked()
        assert stacked.shape == (len(alg.basis_units()), 6, 6)
        assert np.shares_memory(stacked, table.stacked())
        for u in alg.basis_units():
            assert np.shares_memory(table.values[u], stacked)
            assert not table.values[u].flags.writeable
        assert not stacked.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stacked[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table.values[(0, 0)][0, 0] = 1.0
        # an assignment writes the row that earlier views see; a table built from another's values copies them
        copy = DerivationTable(alg, table.values)
        table.values[(0, 4)] = np.eye(6)
        assert np.array_equal(stacked[alg.unit_rows()[0, 4]], np.eye(6))
        assert not np.shares_memory(copy.stacked(), stacked) and not np.array_equal(copy.values[(0, 4)], np.eye(6))


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

    @given(tables(), st.sampled_from([None, 1e-15, 1e-9, 1e-3]))
    @settings(max_examples=80, deadline=None)
    def test_matches_unpruned_validate_exactly(self, table, tol):
        """Every failing residual, the maximum and the worst pair as when every pair is normed, to the bit."""
        if tol is not None:
            table.tol = tol
        report, want = validate(table), oracle_batched_validate(table)
        assert report.failing_pairs == want.failing_pairs
        assert (report.max_residual, report.worst_pair, report.tol) == (want.max_residual, want.worst_pair, want.tol)

    def test_pairs_that_cannot_fail_or_reach_the_maximum_are_not_normed(self, rng, svd_batches):
        alg = NestAlgebra.triangular(10)
        table = inner_from(alg, random_complex(rng, (10, 10)))
        table.values[(2, 5)] = table.values[(2, 5)] + 1e-3 * random_complex(rng, (10, 10))
        table.value_scale
        scale = sum(svd_batches)
        # validate reads the stored value_scale, so its only SVDs are of pairs
        report = validate(table)
        normed = sum(svd_batches) - scale
        want = oracle_batched_validate(table)
        assert report.failing_pairs == want.failing_pairs and report.max_residual == want.max_residual
        # of the 220 pairs with j == k, those that fail and few others are normed
        ui, uj = alg.unit_index()
        assert int(np.count_nonzero(uj[:, None] == ui[None, :])) == 220
        failing = sum(u[1] == v[0] for u, v, _ in report.failing_pairs)
        assert 0 < failing <= normed < 220 // 4

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

    def test_non_finite_entry_below_the_pattern_rejected(self, rng):
        # such an element lies outside S at any tolerance, and its operator norm cannot be computed
        alg = NestAlgebra.triangular(3)
        table = inner_from(alg, random_complex(rng, (3, 3)))
        for bad in (np.nan, np.inf):
            a = unit(3, 0, 2)
            a[2, 0] = bad
            with pytest.raises(EvaluationDomainError):
                evaluate(table, a)
            # a non-finite entry inside the pattern with a finite one below it: no operator norm either
            a = np.eye(3, dtype=complex)
            a[0, 1], a[2, 0] = bad, 1.0
            with pytest.raises(EvaluationDomainError):
                evaluate(table, a)

    def test_domain_contract(self, rng):
        alg = NestAlgebra(5, (2, 3, 5))
        table = inner_from(alg, random_complex(rng, (5, 5)))
        a = random_complex(rng, (5, 5))
        a[~alg.pattern_mask()] = 0
        size = table.tol * max(1.0, op_norm(a))
        near = a.copy()
        near[4, 0] = 0.5 * size
        assert np.array_equal(evaluate(table, near), evaluate(table, a))
        far = a.copy()
        far[4, 0] = 2.0 * size
        with pytest.raises(EvaluationDomainError):
            evaluate(table, far)
        # below 1 the tolerance is tol itself, not tol * norm
        tiny = 1e-3 * unit(5, 0, 4)
        tiny[3, 1] = 0.5 * table.tol
        assert np.array_equal(evaluate(table, tiny), evaluate(table, 1e-3 * unit(5, 0, 4)))
        tiny[3, 1] = 2.0 * table.tol
        with pytest.raises(EvaluationDomainError):
            evaluate(table, tiny)
        for shape in [(4, 4), (5, 4), (6, 6)]:
            with pytest.raises(DimensionError):
                evaluate(table, np.zeros(shape))

    @given(norm_tables(), st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["dense", "sparse", "unit", "near"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_unit_oracle(self, table, seed, kind):
        alg = table.alg
        n = alg.n
        rng = np.random.default_rng(seed)
        a = random_complex(rng, (n, n))
        if kind == "sparse":
            a[rng.random((n, n)) < 0.7] = 0
        elif kind == "unit":
            u = alg.basis_units()[rng.integers(len(alg.basis_units()))]
            a = complex(*rng.standard_normal(2)) * unit(n, u.i, u.j)
        a[~alg.pattern_mask()] = 0
        if kind == "near" and not alg.pattern_mask().all():
            below = np.argwhere(~alg.pattern_mask())
            i, j = below[rng.integers(len(below))]
            a[i, j] = 0.5 * table.tol * max(1.0, op_norm(a))
        assert np.array_equal(evaluate(table, a), oracle_evaluate(table, a))
        units = alg.basis_units()
        u = units[seed % len(units)]
        table.values[u] = table.values[u] + random_complex(rng, (n, n))
        assert np.array_equal(evaluate(table, a), oracle_evaluate(table, a))

    @given(norm_tables(), st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_rank_one_images_have_the_bits_of_evaluate(self, table, seed, rows):
        """Row m of rank_one_images is evaluate at eta_m xi_m^H, signs of zero included, for every kind of row mixed."""
        alg = table.alg
        n = alg.n
        rng = np.random.default_rng(seed)
        eye = np.eye(n, dtype=complex)
        etas, xis = random_complex(rng, (rows, n)), random_complex(rng, (rows, n))
        for m in range(rows):
            kind = rng.integers(5)
            if kind == 0:  # one-hot, as the construction's canonical choices
                etas[m], xis[m] = eye[rng.integers(n)], eye[rng.integers(n)]
            elif kind == 1:
                etas[m][rng.random(n) < 0.6] = 0
                xis[m][rng.random(n) < 0.6] = 0
            elif kind == 2:
                etas[m] = 0
        # keep each element in the algebra: eta within the rows, xi within the columns, of one admissible block
        mask = alg.pattern_mask()
        for m in range(rows):
            a = np.outer(etas[m], xis[m].conj())
            if np.any(a[~mask]):
                r = rng.integers(n)
                etas[m] = np.where(np.arange(n) == r, etas[m], 0)
                xis[m] = np.where(mask[r], xis[m], 0)
        images = rank_one_images(table, etas, xis)
        assert images.shape == (rows, n, n)
        for m in range(rows):
            assert images[m].tobytes() == evaluate(table, np.outer(etas[m], xis[m].conj())).tobytes()

    @given(norm_tables(), st.integers(min_value=0, max_value=2**32 - 1), st.lists(st.sampled_from(["dense", "one", "zero"]), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    @example(table=DerivationTable(NestAlgebra.triangular(1), {(0, 0): [[0.3 + 0.7j]]}), seed=0, kinds=["one", "zero", "dense"])
    def test_evaluate_and_rank_one_images_have_the_bits_of_the_per_unit_loop(self, table, seed, kinds):
        """Both against oracle_evaluate, byte for byte: rows with one live unit, all-zero rows and -0.0 entries, n = 1-10."""
        alg = table.alg
        n = alg.n
        rng = np.random.default_rng(seed)
        values = table.stacked().copy()
        values[rng.random(values.shape) < 0.3] = complex(-0.0, -0.0)
        for u, value in zip(alg.basis_units(), values):
            table.values[u] = value
        mask = alg.pattern_mask()
        etas, xis = random_complex(rng, (len(kinds), n)), random_complex(rng, (len(kinds), n))
        for m, kind in enumerate(kinds):
            # the rows 0..r share row r's admissible columns, so eta there and xi in them give an element of the algebra
            r = rng.integers(n)
            if kind == "one":
                etas[m] = np.where(np.arange(n) == r, etas[m], 0.0)
                xis[m] = np.where(np.arange(n) == rng.choice(np.flatnonzero(mask[r])), xis[m], 0.0)
            elif kind == "zero":
                etas[m] = 0.0
            else:
                etas[m, r + 1 :] = 0.0
                xis[m, ~mask[r]] = 0.0
        # zeros of either sign in both factors
        etas[etas == 0] = complex(-0.0, -0.0)
        xis[(xis == 0) & (rng.random(xis.shape) < 0.5)] = complex(-0.0, 0.0)
        images = rank_one_images(table, etas, xis)
        for m in range(len(kinds)):
            a = np.outer(etas[m], xis[m].conj())
            expected = oracle_evaluate(table, a).tobytes()
            assert images[m].tobytes() == expected
            assert evaluate(table, a).tobytes() == expected
            if kinds[m] == "zero":
                assert expected == bytes(16 * n * n)

    def test_rank_one_images_rejects_nan_below_the_pattern(self, rng):
        # a NaN entry below the pattern is not within any bound
        alg = NestAlgebra.triangular(3)
        table = inner_from(alg, random_complex(rng, (3, 3)))
        with pytest.raises(EvaluationDomainError):
            rank_one_images(table, [[0, 0, np.nan]], [[1, 0, 0]])
        with pytest.raises(EvaluationDomainError):
            rank_one_images(table, [[0, 0, 1], [1, 0, 0]], [[np.nan, 0, 0], [1, 0, 0]])

    def test_rank_one_images_domain_contract(self, rng):
        alg = NestAlgebra(5, (2, 3, 5))
        table = inner_from(alg, random_complex(rng, (5, 5)))
        eye = np.eye(5)
        inside = np.vstack([eye[0], eye[1]]), np.vstack([eye[4], eye[3]])
        # eta xi^H has 10 at (0, 1), in the pattern, and 10 eps at (4, 1), below it; its norm is about 10
        for eps, raises in [(0.5 * table.tol, False), (2.0 * table.tol, True)]:
            etas = np.vstack([inside[0], eye[0] + eps * eye[4]])
            xis = np.vstack([inside[1], 10.0 * eye[1]])
            if raises:
                with pytest.raises(EvaluationDomainError):
                    rank_one_images(table, etas, xis)
                with pytest.raises(EvaluationDomainError):
                    evaluate(table, np.outer(etas[2], xis[2].conj()))
            else:
                images = rank_one_images(table, etas, xis)
                assert images[2].tobytes() == evaluate(table, 10.0 * unit(5, 0, 1)).tobytes()
                assert np.array_equal(images[:2], rank_one_images(table, *inside))
        # below norm 1 the tolerance is tol itself, not tol * norm
        for eps, raises in [(0.5 * table.tol, False), (2.0 * table.tol, True)]:
            etas, xis = [1e-3 * eye[0] + eps * eye[4]], [eye[0]]
            if raises:
                with pytest.raises(EvaluationDomainError):
                    rank_one_images(table, etas, xis)
            else:
                assert rank_one_images(table, etas, xis)[0].tobytes() == evaluate(table, 1e-3 * unit(5, 0, 0)).tobytes()
        assert rank_one_images(table, np.zeros((0, 5)), np.zeros((0, 5))).shape == (0, 5, 5)
        for etas, xis in [(np.zeros((2, 4)), np.zeros((2, 4))), (np.zeros((2, 5)), np.zeros((3, 5))), (np.zeros(5), np.zeros(5))]:
            with pytest.raises(DimensionError):
                rank_one_images(table, etas, xis)

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
        est = norm_estimate(zero_table(alg), generator=np.zeros((2, 2)))
        assert est.lower == 0.0
        assert est.upper == pytest.approx(0.0, abs=1e-9)
        # the first unit in basis order, every value tied at 0
        assert est.witness.tobytes() == unit(2, 0, 0).tobytes()

    def test_diagonal_generator_upper(self):
        alg = NestAlgebra.triangular(2)
        table = inner_from(alg, np.diag([1.0, 2.0]))
        est = norm_estimate(table, generator=np.diag([1.0, 2.0]))
        assert est.upper == pytest.approx(1.0, abs=1e-9)

    def test_lower_unit_generator_bounds(self):
        alg = NestAlgebra.triangular(2)
        c = unit(2, 1, 0)
        table = inner_from(alg, c)
        est = norm_estimate(table, generator=c)
        assert est.upper == pytest.approx(2.0, abs=1e-9)
        # a = E_12 gives delta(a) = E_22 - E_11 of norm 1
        assert est.lower >= 1.0 - 1e-9
        assert est.lower <= est.upper + 1e-9

    @given(norm_tables(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_sequential_oracle(self, table, seed):
        """The oracle's ascent from the largest unit, bit for bit; seed draws the generator and a change."""
        n = table.alg.n
        rng = np.random.default_rng(seed)
        c = random_complex(rng, (n, n))
        est = norm_estimate(table, generator=c)
        lower, witness = oracle_norm_estimate(table)
        assert est.lower == lower and est.witness.tobytes() == witness.tobytes()
        assert est.upper == 2.0 * distance_to_scalars(c)[1]
        if not any(v.any() for v in table.values.values()):
            assert est.lower == 0.0
        # a table changed in place between calls is read afresh
        units = table.alg.basis_units()
        u = units[seed % len(units)]
        table.values[u] = table.values[u] + random_complex(rng, (n, n))
        est = norm_estimate(table)
        lower, witness = oracle_norm_estimate(table)
        assert est.lower == lower and est.witness.tobytes() == witness.tobytes()

    @given(norm_tables())
    @settings(max_examples=40, deadline=None)
    def test_witness_reaches_lower_from_the_largest_unit(self, table):
        """lower is op_norm(delta(witness)) to the bit, witness unit-norm on the pattern, lower >= the start's norm."""
        est = norm_estimate(table)
        mask = table.alg.pattern_mask()
        assert est.lower == op_norm(evaluate(table, est.witness))
        assert abs(op_norm(est.witness) - 1.0) <= 1e-12
        assert not np.any(est.witness[~mask])
        start, e = oracle_largest_unit(table)
        assert est.lower >= start == op_norm(evaluate(table, e))

    def test_draws_nothing_at_random(self, rng, monkeypatch):
        table = inner_from(NestAlgebra(8, (2, 5, 8)), random_complex(rng, (8, 8)))
        first = norm_estimate(table)

        def refuse(*args, **kwargs):
            raise AssertionError("norm_estimate drew a random number")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        second = norm_estimate(table)
        assert second.lower == first.lower and second.witness.tobytes() == first.witness.tobytes()

    def test_start_is_the_first_largest_unit(self, rng, monkeypatch):
        """With the ascent off, the witness is the start: the largest Frobenius norm, the first on a tie."""
        monkeypatch.setattr(derivation, "_ASCENT_STEPS", 0)
        alg = NestAlgebra(6, (2, 3, 6))
        units = alg.basis_units()
        value = random_complex(rng, (6, 6))
        cases = {
            "every value tied": ({u: value for u in units}, units[0]),
            "two tied, later units": ({u: value if r in (3, 5) else 0.5 * value for r, u in enumerate(units)}, units[3]),
            # the same Frobenius norm, a different operator norm: the tie still goes to the first
            "tied, the second larger": (
                {u: np.diag([1.0, 1, 1, 1, 0, 0]) if r == 2 else np.diag([2.0, 0, 0, 0, 0, 0]) if r == 4 else 0 * value
                 for r, u in enumerate(units)},
                units[2],
            ),
            "one largest": ({u: (2.0 if r == 7 else 1.0) * value for r, u in enumerate(units)}, units[7]),
        }
        for name, (values, first) in cases.items():
            table = DerivationTable(alg, values)
            est = norm_estimate(table)
            assert est.witness.tobytes() == unit(6, first.i, first.j).tobytes(), name
            assert est.lower == op_norm(evaluate(table, est.witness)) == oracle_largest_unit(table)[0], name

    def test_overflowing_squares_give_a_finite_exact_lower(self, rng, monkeypatch):
        """Values near 1e200 would square to inf: scaled by a power of two, the largest unit starts, and lower stays exact."""
        alg = NestAlgebra.triangular(5)
        c = random_complex(rng, (5, 5))
        c[4] *= 4.0
        c[:, 4] *= 4.0
        table = inner_from(alg, 2.0**664 * c)
        with np.errstate(over="ignore"):
            assert np.isinf((np.abs(table.stacked()) ** 2).sum(axis=(1, 2))).all()
        est = norm_estimate(table)
        lower, witness = oracle_norm_estimate(table)
        assert math.isfinite(est.lower) and est.lower > 1e200
        assert est.lower == lower and est.witness.tobytes() == witness.tobytes()
        assert est.lower == op_norm(evaluate(table, est.witness))
        # with the ascent off the witness is the start: E_44, as at scale 1, not E_00, the first unit whose squares overflow
        monkeypatch.setattr(derivation, "_ASCENT_STEPS", 0)
        start = norm_estimate(table).witness
        assert start.tobytes() == norm_estimate(inner_from(alg, c)).witness.tobytes() == unit(5, 4, 4).tobytes()

    def test_generator_must_be_n_by_n(self, rng):
        alg = NestAlgebra.triangular(5)
        c = random_complex(rng, (5, 5))
        table = inner_from(alg, c)
        for shape in ((1, 1), (3, 3), (5, 4), (6, 6)):
            with pytest.raises(DimensionError, match="generator must be 5x5"):
                norm_estimate(table, generator=random_complex(rng, shape))
        with pytest.raises(DimensionError):
            norm_estimate(table, generator=c[0])
        assert norm_estimate(table, generator=c.tolist()).upper == norm_estimate(table, generator=c).upper

    def test_ascent_stops_within_its_step_cap(self, rng, monkeypatch):
        alg = NestAlgebra.triangular(6)
        table = inner_from(alg, random_complex(rng, (6, 6)))
        images = []
        image = derivation._image
        monkeypatch.setattr(derivation, "_image", lambda *args: images.append(1) or image(*args))
        est = norm_estimate(table)
        monkeypatch.undo()
        # at most one candidate per step length per step
        assert 0 < len(images) <= derivation._ASCENT_STEPS * len(derivation._ASCENT_TRIALS)
        assert est.lower > oracle_largest_unit(table)[0]

    def test_lower_below_upper(self, rng):
        for alg in (NestAlgebra.triangular(3), NestAlgebra.triangular(5), NestAlgebra(8, (2, 5, 8)), NestAlgebra(8, (4, 8))):
            c = random_complex(rng, (alg.n, alg.n))
            est = norm_estimate(inner_from(alg, c), generator=c)
            assert est.lower <= est.upper * (1 + 1e-12)


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

    @pytest.mark.parametrize("n", [4, 5])
    def test_entries_whose_squares_overflow_are_scaled_by_a_power_of_two(self, rng, n):
        c = random_complex(rng, (n, n))
        _, dist = distance_to_scalars(c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, big = distance_to_scalars(2.0**664 * c)
        assert abs(big - 2.0**664 * dist) <= 1e-12 * 2.0**664 * max(1.0, dist)


@given(
    algebras(max_n=6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=-600, max_value=600),
)
@example(NestAlgebra.triangular(4), 0, 600)
@example(NestAlgebra.triangular(4), 0, -600)
@settings(max_examples=30, deadline=None)
def test_results_scale_with_a_power_of_two(alg, seed, k):
    """2^k T against T, T an inner table with one unit corrupted by 1e-3 and c its generator."""
    rng = np.random.default_rng(seed)
    n, units = alg.n, alg.basis_units()
    c = random_complex(rng, (n, n))
    table = inner_from(alg, c)
    u, m = units[rng.integers(len(units))], random_complex(rng, (n, n))
    table.values[u] = table.values[u] + 1e-3 * m / op_norm(m)
    s = 2.0**k
    scaled = DerivationTable(alg, dict(zip(units, s * table.stacked())))

    report, big = validate(table), validate(scaled)
    assert big.max_residual == pytest.approx(s * report.max_residual, rel=1e-12)
    # the tolerance scales with the table at every k, so the same pairs fail
    assert scaled.value_scale == pytest.approx(s * table.value_scale, rel=1e-12)
    assert [pair[:2] for pair in big.failing_pairs] == [pair[:2] for pair in report.failing_pairs]

    d, dk = distance_to_scalars(c)[1], distance_to_scalars(s * c)[1]
    if k >= 0 or k <= -420:
        # relative to max(1, d), the scale of c's own certified gap
        assert abs(dk - s * d) <= 1e-11 * s * max(1.0, d)
    else:
        # 2^k c is not scaled up, so each distance is within its own gap, 1e-12 * max(1, distance), of the minimum
        assert abs(dk - s * d) <= 1e-12 * max(1.0, dk) + 1e-12 * s * max(1.0, d)

    est = norm_estimate(scaled)
    assert op_norm(evaluate(scaled, est.witness)) == est.lower


class TestStampfliCertificate:
    """distance_to_scalars' Newton iteration, its dual lower bound and its ellipsoid fallback."""

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_dual_bound_below_every_shift(self, n, seed, log_scale):
        rng = np.random.default_rng(seed)
        c = 10.0**log_scale * random_complex(rng, (n, n))
        x = random_complex(rng, n)
        x /= np.linalg.norm(x)
        lam = 10.0**log_scale * complex(*rng.standard_normal(2))
        bound = derivation._dual_bound(c, x)
        assert bound <= op_norm(c - lam * np.eye(n)) * (1 + 1e-12)
        assert bound == pytest.approx(derivation._dual_bound(c - lam * np.eye(n), x), rel=1e-9, abs=1e-12 * 10.0**log_scale)

    def test_gaussian_c_certified_in_few_svds(self, monkeypatch):
        rng = np.random.default_rng(2024)
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for trial in range(40):
            n = 2 + trial % 11
            calls.clear()
            distance_to_scalars(random_complex(rng, (n, n)))
            assert len(calls) <= 12, (n, len(calls))

    def test_normal_c_falls_back_to_ellipsoid(self, rng, monkeypatch):
        ellipsoid = derivation._ellipsoid_min
        calls = []
        monkeypatch.setattr(derivation, "_ellipsoid_min", lambda c, eye: calls.append(1) or ellipsoid(c, eye))
        for n in range(2, 9):
            z = random_complex(rng, n)
            q, _ = np.linalg.qr(random_complex(rng, (n, n)))
            calls.clear()
            _, dist = distance_to_scalars(q @ np.diag(z) @ q.conj().T)
            assert calls == [1]
            radius = oracle_enclosing_disk_radius(z)
            assert abs(dist - radius) <= 1e-10 * max(1.0, radius)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=-6.0, max_value=6.0),
        st.sampled_from(["complex", "real", "triangular"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_above_ellipsoid_by_more_than_the_gap(self, n, seed, log_scale, kind):
        c = 10.0**log_scale * random_complex(np.random.default_rng(seed), (n, n))
        if kind == "real":
            c = c.real.astype(complex)
        elif kind == "triangular":
            c = np.triu(c)
        eye = np.eye(n)
        _, dist = distance_to_scalars(c)
        ellipsoid = op_norm(c - derivation._ellipsoid_min(c, eye) * eye)
        assert dist <= ellipsoid + 1e-12 * max(1.0, dist)


@given(norm_tables(), st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([None, 1, 2, 5]))
@settings(max_examples=60, deadline=None)
def test_image_has_the_bits_of_the_per_unit_sum(table, seed, chunk_units):
    """Bit for bit, signs of zero included, also when the units span several reductions."""
    alg = table.alg
    if chunk_units is not None:
        derivation._IMAGE_BYTES, saved = chunk_units * 16 * alg.n**2, derivation._IMAGE_BYTES
    rng = np.random.default_rng(seed)
    a = random_complex(rng, (alg.n, alg.n))
    a[rng.random((alg.n, alg.n)) < 0.3] = 0.0
    a[~alg.pattern_mask()] = 0.0
    ui, uj = alg.unit_index()
    try:
        # every unit, zero coefficients included: each adds a signed zero, which leaves the sum as it is
        got = derivation._image(a[ui, uj], table.stacked())
    finally:
        if chunk_units is not None:
            derivation._IMAGE_BYTES = saved
    assert got.tobytes() == oracle_evaluate(table, a).tobytes()


def test_image_sums_onto_positive_zeros():
    # -1 * (0 + 0j) has real part -0.0; added onto +0.0, as the per-unit sum does, it gives +0.0
    table = zero_table(NestAlgebra.triangular(2))
    a = np.array([[-1.0, -2.0], [0.0, -1.0]], dtype=complex)
    ui, uj = table.alg.unit_index()
    got = derivation._image(a[ui, uj], table.stacked())
    assert got.tobytes() == oracle_evaluate(table, a).tobytes()
    assert all(math.copysign(1.0, x) == 1.0 for x in got.view(float).ravel())


def test_evaluate_gathers_no_copy_of_the_table(rng):
    # a dense element's units form one run, read as slices of the table's 8.65 MB array, not gathered from it
    alg = NestAlgebra.triangular(32)
    table = inner_from(alg, random_complex(rng, (32, 32)))
    a = np.triu(random_complex(rng, (32, 32)))
    expected = evaluate(table, a)
    tracemalloc.start()
    try:
        got = evaluate(table, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == expected.tobytes()
    assert peak < 1 << 20


def test_json_roundtrip(rng):
    alg = NestAlgebra(3, (1, 3))
    table = inner_from(alg, random_complex(rng, (3, 3)))
    table.tol = 1e-8
    # assigned values, with a numpy-integer key and signed zeros, are written out like the others
    value = random_complex(rng, (3, 3))
    table.values[(1, 2)] = value
    table.values[np.int64(0), np.int64(0)] = -0.0 * value
    restored = DerivationTable.from_json(table.to_json())
    assert restored.alg == alg
    assert restored.tol == 1e-8
    assert np.array_equal(restored.values[(1, 2)], value)
    assert restored.stacked().tobytes() == table.stacked().tobytes()
