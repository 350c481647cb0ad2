from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestderiv.algebra import MatrixUnit, NestAlgebra, _commutant_blocks, _commutant_nullity, check_structure
from nestderiv.linalg import DimensionError, op_norm

from conftest import algebras, random_complex, unit
from oracles import oracle_check_structure, oracle_commutant_gram, oracle_commutant_nullity, oracle_commutant_system


class TestNestAlgebra:
    def test_chain_validation(self):
        with pytest.raises(ValueError):
            NestAlgebra(3, (3, 2))
        with pytest.raises(ValueError):
            NestAlgebra(3, (1, 2))  # must end at n
        with pytest.raises(ValueError):
            NestAlgebra(2, (2, 2))

    def test_rejects_non_integer_dimensions(self):
        for n, chain in [(3, (1, 2.9, 3)), (3.5, (1, 2, 3.5)), (3.5, (1, 2, 3)), (float("inf"), (1, float("inf")))]:
            with pytest.raises(ValueError, match="must be integers"):
                NestAlgebra(n, chain)
        alg = NestAlgebra(3.0, (1.0, 3.0))
        assert alg == NestAlgebra(3, (1, 3))
        assert type(alg.n) is int and all(type(d) is int for d in alg.chain)

    @pytest.mark.parametrize("chain", [(1,), (2,), (1, 2), (1, 2, 3, 4, 5), (2, 5, 9), (1, 4, 6, 7), (3, 10)])
    def test_pattern_mask_is_cached_and_read_only(self, chain):
        alg = NestAlgebra(chain[-1], chain)
        n = alg.n
        mask = alg.pattern_mask()
        expected = [[alg.block_of(i) <= alg.block_of(j) for j in range(n)] for i in range(n)]
        assert mask.dtype == bool and np.array_equal(mask, expected)
        assert NestAlgebra(n, chain).pattern_mask() is mask
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = False
        assert np.array_equal(alg.pattern_mask(), expected)

    @pytest.mark.parametrize("chain", [(1,), (1, 2, 3, 4, 5, 6), (2, 5, 9), (3, 4, 8), (6,)])
    def test_unit_index_is_cached_and_read_only(self, chain):
        alg = NestAlgebra(chain[-1], chain)
        ui, uj = alg.unit_index()
        units = alg.basis_units()
        assert [tuple(u) for u in units] == list(zip(ui.tolist(), uj.tolist()))
        assert all(type(u) is MatrixUnit for u in units)
        assert NestAlgebra(alg.n, chain).unit_index()[0] is ui
        # unit_rows inverts the index: the basis-order row of each unit, -1 off the pattern
        rows = alg.unit_rows()
        assert np.array_equal(rows[ui, uj], np.arange(len(ui)))
        assert np.array_equal(rows >= 0, alg.pattern_mask())
        assert NestAlgebra(alg.n, chain).unit_rows() is rows
        for index in (ui, uj, rows):
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 1
        # basis_units still hands out a list of its own
        units.pop()
        assert len(alg.basis_units()) == len(ui)

    def test_interior_levels(self):
        assert NestAlgebra(3, (3,)).interior_levels == []
        assert NestAlgebra(5, (2, 3, 5)).interior_levels == [1, 2]
        assert NestAlgebra.triangular(4).interior_levels == [1, 2, 3]

    def test_maximal_triangular_flag(self):
        assert NestAlgebra.triangular(4).is_maximal_triangular
        assert not NestAlgebra(3, (2, 3)).is_maximal_triangular

    def test_contains_t2(self):
        alg = NestAlgebra.triangular(2)
        assert alg.contains(unit(2, 0, 1))
        assert not alg.contains(unit(2, 1, 0))

    def test_contains_block_chain(self):
        alg = NestAlgebra(3, (2, 3))
        bad = np.zeros((3, 3), dtype=complex)
        bad[2, 0] = 1.0
        assert not alg.contains(bad)
        assert alg.contains(unit(3, 0, 2))
        assert alg.contains(unit(3, 1, 0))  # inside the leading 2x2 block
        with pytest.raises(DimensionError):
            alg.contains(np.zeros((2, 2)))

    def test_lattice_projection(self):
        t3 = NestAlgebra.triangular(3)
        assert np.array_equal(t3.lattice_projection(1), np.diag([1, 0, 0]).astype(complex))
        alg = NestAlgebra(3, (2, 3))
        assert np.array_equal(alg.lattice_projection(1), np.diag([1, 1, 0]).astype(complex))
        assert np.array_equal(alg.lattice_projection(2), np.eye(3))
        for k in (0, 3):
            with pytest.raises(IndexError):
                alg.lattice_projection(k)
        for r in (-1, 3):
            with pytest.raises(IndexError):
                alg.block_of(r)

    def test_basis_units_t2(self):
        assert NestAlgebra.triangular(2).basis_units() == [
            MatrixUnit(0, 0),
            MatrixUnit(0, 1),
            MatrixUnit(1, 1),
        ]

    def test_basis_units_full_algebra(self):
        # chain (n) is the whole matrix algebra
        assert len(NestAlgebra(2, (2,)).basis_units()) == 4

    def test_basis_units_chain_1_3(self):
        units = set(map(tuple, NestAlgebra(3, (1, 3)).basis_units()))
        assert units == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)}

    def test_projection_properties(self):
        alg = NestAlgebra(5, (2, 3, 5))
        for k in range(1, 4):
            p = alg.lattice_projection(k)
            assert np.array_equal(p, p @ p)
            assert np.array_equal(p, p.conj().T)
            assert alg.contains(p)


class TestStructuralInvariants:
    @pytest.mark.parametrize("chain", [(1, 2, 3, 4), (2, 4), (1, 3, 4), (4,)])
    def test_unit_products_stay_admissible(self, chain):
        alg = NestAlgebra(4, chain)
        units = alg.basis_units()
        admissible = set(map(tuple, units))
        for u in units:
            for v in units:
                prod = alg.unit_matrix(u) @ alg.unit_matrix(v)
                if u.j == v.i:
                    assert (u.i, v.j) in admissible
                    assert np.array_equal(prod, alg.unit_matrix(MatrixUnit(u.i, v.j)))
                else:
                    assert not prod.any()

    def test_diagonal_commutes_with_lattice(self, rng):
        alg = NestAlgebra(5, (1, 3, 5))
        d = np.diag(random_complex(rng, 5))
        for k in range(1, 4):
            p = alg.lattice_projection(k)
            assert op_norm(p @ d - d @ p) == 0.0

    def test_pperp_unit_p_vanishes(self):
        alg = NestAlgebra(6, (2, 3, 6))
        for k in range(1, 4):
            p = alg.lattice_projection(k)
            pperp = np.eye(6) - p
            for u in alg.basis_units():
                assert not (pperp @ alg.unit_matrix(u) @ p).any()


class TestCheckStructure:
    def test_t2_passes(self):
        report = check_structure(NestAlgebra.triangular(2), seed=3)
        assert report.ok, report.failures

    def test_full_algebra_commutant_is_scalar(self):
        report = check_structure(NestAlgebra(3, (3,)))
        assert report.commutant_nullity == 1

    def test_block_inclusion_example(self, rng):
        alg = NestAlgebra(3, (1, 3))
        p = alg.lattice_projection(1)
        m = random_complex(rng, (3, 3))
        assert alg.contains(p @ m @ (np.eye(3) - p))

    @pytest.mark.parametrize("chain", [(1,), (3,), tuple(range(1, 5)), (2, 5, 8), tuple(range(1, 8)), tuple(range(1, 13))])
    def test_commutant_matches_per_unit_kron_oracle(self, chain):
        # the Gram matrix is exact integer arithmetic on both sides; the residuals come from different
        # factorizations (eigh of the Laplacian block against an SVD of the system), so they are compared
        # with a bound, not bitwise
        alg = NestAlgebra(chain[-1], chain)
        n = alg.n
        system = oracle_commutant_system(alg)
        gram = system.conj().T @ system
        assert np.array_equal(oracle_commutant_gram(alg), gram.real)
        assert not gram.imag.any()
        # the package keeps G's diagonal and its block on the diagonal coordinates x[p, p], p (n + 1) in vec order
        weights, laplacian = _commutant_blocks(alg)
        diag = np.arange(n) * (n + 1)
        assert np.array_equal(weights.ravel(order="F"), np.diag(gram.real))
        assert np.array_equal(laplacian, gram.real[np.ix_(diag, diag)])
        # and G has no other nonzero entry
        blocks = np.diag(weights.ravel(order="F").astype(float))
        blocks[np.ix_(diag, diag)] = laplacian
        assert np.array_equal(blocks, gram.real)
        nullity, residual = _commutant_nullity(alg)
        oracle_nullity, oracle_residual = oracle_commutant_nullity(alg, 1e-10)
        assert nullity == oracle_nullity
        assert residual <= 1e-12 and oracle_residual <= 1e-12

    @given(algebras(max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_commutant_gram_has_an_integer_gap(self, alg):
        # the nullity threshold of 1 rests on every nonzero eigenvalue of G being >= 2
        eigenvalues = np.linalg.eigvalsh(oracle_commutant_gram(alg))
        assert _commutant_nullity(alg)[0] == 1
        assert abs(eigenvalues[0]) <= 1e-12
        assert eigenvalues[1:].min(initial=np.inf) >= 2 - 1e-12

    @given(algebras(max_n=10), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_check_structure_matches_per_vector_oracle(self, alg, seed):
        report = check_structure(alg, seed=seed)
        expected = oracle_check_structure(alg, trials=50, seed=seed)
        assert (report.assertions, report.failures, report.commutant_nullity) == (
            expected.assertions,
            expected.failures,
            expected.commutant_nullity,
        )

    @pytest.mark.parametrize("chain", [(1, 2, 3, 4, 5, 6), (2, 5, 8), (1, 4, 6, 7)])
    def test_check_structure_lists_failures_as_the_oracle(self, chain, monkeypatch):
        # a mask missing some admissible positions makes both p m pperp and the orbit maps fail in some trials;
        # the basis units are cached first from the true mask, so the commutant is the algebra's own
        alg = NestAlgebra(chain[-1], chain)
        alg.unit_index()
        mask = alg.pattern_mask().copy()
        mask[0, -1] = mask[1, chain[0]] = False
        monkeypatch.setattr(NestAlgebra, "pattern_mask", lambda self: mask)
        report = check_structure(alg, seed=4)
        expected = oracle_check_structure(alg, trials=50, seed=4)
        assert (report.assertions, report.failures, report.commutant_nullity) == (
            expected.assertions,
            expected.failures,
            expected.commutant_nullity,
        )
        assert any("p m pperp" in f for f in report.failures) and any("orbit" in f for f in report.failures)

    @given(algebras(max_n=10), st.integers(min_value=0, max_value=2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_check_structure_reads_a_flipped_mask_as_the_oracle(self, alg, seed, data):
        # check_structure looks the trials up in the mask, the oracle builds their matrices and calls contains;
        # the basis units are cached first from the true mask, so the commutant is the algebra's own
        alg.unit_index()
        mask = alg.pattern_mask().copy()
        position = st.tuples(st.integers(0, alg.n - 1), st.integers(0, alg.n - 1))
        for i, j in data.draw(st.lists(position, min_size=1, max_size=3, unique=True)):
            mask[i, j] = not mask[i, j]
        with mock.patch.object(NestAlgebra, "pattern_mask", lambda self: mask):
            report = check_structure(alg, seed=seed)
            expected = oracle_check_structure(alg, trials=50, seed=seed)
        assert (report.assertions, report.failures, report.commutant_nullity) == (
            expected.assertions,
            expected.failures,
            expected.commutant_nullity,
        )

    def test_t32_without_the_kronecker_system(self):
        # the dense (units * n^2, n^2) system needed about 9 GB here
        report = check_structure(NestAlgebra.triangular(32))
        assert report.ok, report.failures
        assert report.commutant_nullity == 1

    def test_t64_with_the_default_trials(self):
        # the dense n^2 x n^2 Gram matrix and its eigenvectors took 134 MB each here
        report = check_structure(NestAlgebra.triangular(64))
        assert report.ok, report.failures
        assert report.commutant_nullity == 1

    @pytest.mark.parametrize("chain", [(1, 2, 3), (2, 3), (1, 4, 5), tuple(range(1, 13))])
    def test_random_chains_pass(self, chain):
        alg = NestAlgebra(chain[-1], chain)
        report = check_structure(alg, seed=11)
        assert report.ok, report.failures
