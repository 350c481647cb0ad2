import numpy as np
import pytest

from nestderiv.algebra import MatrixUnit, NestAlgebra, _commutant_nullity, check_structure
from nestderiv.linalg import op_norm

from conftest import random_complex, unit
from oracles import oracle_commutant_nullity


class TestNestAlgebra:
    def test_chain_validation(self):
        with pytest.raises(ValueError):
            NestAlgebra(3, (3, 2))
        with pytest.raises(ValueError):
            NestAlgebra(3, (1, 2))  # must end at n
        with pytest.raises(ValueError):
            NestAlgebra(2, (2, 2))

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

    def test_lattice_projection(self):
        t3 = NestAlgebra.triangular(3)
        assert np.array_equal(t3.lattice_projection(1), np.diag([1, 0, 0]).astype(complex))
        alg = NestAlgebra(3, (2, 3))
        assert np.array_equal(alg.lattice_projection(1), np.diag([1, 1, 0]).astype(complex))
        assert np.array_equal(alg.lattice_projection(2), np.eye(3))
        with pytest.raises(IndexError):
            alg.lattice_projection(3)

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
        report = check_structure(NestAlgebra.triangular(2), trials=20, seed=3)
        assert report.ok, report.failures

    def test_full_algebra_commutant_is_scalar(self):
        report = check_structure(NestAlgebra(3, (3,)), trials=5, seed=0)
        assert report.commutant_nullity == 1

    def test_block_inclusion_example(self, rng):
        alg = NestAlgebra(3, (1, 3))
        p = alg.lattice_projection(1)
        m = random_complex(rng, (3, 3))
        assert alg.contains(p @ m @ (np.eye(3) - p))

    @pytest.mark.parametrize("chain", [(1,), (3,), tuple(range(1, 5)), (2, 5, 8), tuple(range(1, 8))])
    def test_commutant_matches_per_unit_kron_oracle(self, chain):
        alg = NestAlgebra(chain[-1], chain)
        assert _commutant_nullity(alg, 1e-10) == oracle_commutant_nullity(alg, 1e-10)

    @pytest.mark.parametrize("chain", [(1, 2, 3), (2, 3), (1, 4, 5), tuple(range(1, 13))])
    def test_random_chains_pass(self, chain):
        alg = NestAlgebra(chain[-1], chain)
        report = check_structure(alg, trials=30, seed=11)
        assert report.ok, report.failures
