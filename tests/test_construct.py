import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestderiv import construct, derivation
from nestderiv.algebra import NestAlgebra
from nestderiv.construct import (
    ConstructionArtifacts,
    ConstructionChoices,
    build_b,
    build_b1,
    build_c1,
    build_c2,
    default_choices,
    triple_rule_residual,
    two_projection_b,
    verify,
)
from nestderiv.derivation import (
    DerivationTable,
    distance_to_scalars,
    inner_from,
    norm_estimate,
    unit_defects,
    validate,
)
from nestderiv.linalg import DimensionError, op_norm, scalar_identity_part

from conftest import basis_vec, random_complex, unit


def zero_table(alg):
    return DerivationTable(alg, {u: np.zeros((alg.n, alg.n), dtype=complex) for u in alg.basis_units()})


def choices_for(alg, k):
    d = alg.chain[k - 1]
    return ConstructionChoices(k=k, xi0=basis_vec(alg.n, d), eta1=basis_vec(alg.n, 0))


from oracles import (
    oracle_b1,
    oracle_batched_rule,
    oracle_build_b1,
    oracle_build_c2,
    oracle_c1,
    oracle_c2,
    oracle_evaluate,
    oracle_norm_estimate,
    oracle_row_c1,
    oracle_rule_max,
    oracle_three_pass_verify,
    oracle_verify_residuals,
)


@st.composite
def construction_tables(draw):
    """(table, generator) on T_n or a random chain with an interior level, n <= 9.

    Tables are inner (Gaussian generator scaled by 10^-3..10^3, or small
    integers with exact zeros), optionally with one unit mutated, and
    optionally with every exact zero of a value stored as -0.0.  The generator
    is None for a mutated table.
    """
    n = draw(st.integers(min_value=2, max_value=9))
    if draw(st.booleans()):
        alg = NestAlgebra.triangular(n)
    else:
        interior = draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1))
        alg = NestAlgebra(n, (*sorted(interior), n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        c = (rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))).astype(complex)
    else:
        c = 10.0 ** draw(st.integers(min_value=-3, max_value=3)) * random_complex(rng, (n, n))
    table = inner_from(alg, c)
    if draw(st.booleans()):
        units = alg.basis_units()
        u = units[draw(st.integers(min_value=0, max_value=len(units) - 1))]
        table.values[u] = table.values[u] + random_complex(rng, (n, n))
        c = None
    if draw(st.booleans()):
        for u, value in table.values.items():
            table.values[u] = np.where(value.real == 0, -0.0, value.real) + 1j * np.where(value.imag == 0, -0.0, value.imag)
    return table, c

# --- worked instances -------------------------------------------------------


class TestBuildB1:
    def test_zero_table(self):
        alg = NestAlgebra.triangular(2)
        assert not build_b1(zero_table(alg), choices_for(alg, 1)).any()

    def test_n2_lower_unit_generator(self):
        alg = NestAlgebra.triangular(2)
        c = unit(2, 1, 0)
        b1 = build_b1(inner_from(alg, c), choices_for(alg, 1))
        assert np.allclose(b1, unit(2, 1, 0), atol=1e-12)
        assert np.allclose(b1, oracle_b1(c, 1, 1), atol=1e-12)

    def test_n2_diagonal_generator(self):
        alg = NestAlgebra.triangular(2)
        c = np.diag([1.0, 2.0]).astype(complex)
        b1 = build_b1(inner_from(alg, c), choices_for(alg, 1))
        assert np.allclose(b1, -unit(2, 0, 0), atol=1e-12)
        assert np.allclose(b1, oracle_b1(c, 1, 1), atol=1e-12)

    def test_kills_pperp_and_implements_on_p(self, rng):
        alg = NestAlgebra.triangular(5)
        c = random_complex(rng, (5, 5))
        table = inner_from(alg, c)
        for k in range(1, 5):
            d = alg.chain[k - 1]
            choices = choices_for(alg, k)
            b1 = build_b1(table, choices)
            assert not b1[:, d:].any()
            p = alg.lattice_projection(k)
            for u in alg.basis_units():
                e = alg.unit_matrix(u)
                lhs = (table.values[u] - (b1 @ e - e @ b1)) @ p
                assert op_norm(lhs) < 1e-10 * table.value_scale

    def test_invalid_choices_rejected(self):
        alg = NestAlgebra.triangular(3)
        table = zero_table(alg)
        # each check named by its message: without it, rank_one_images would raise a ValueError of its own
        cases = {
            "xi0 must lie in p-perp": ConstructionChoices(k=2, xi0=basis_vec(3, 0), eta1=basis_vec(3, 0)),
            "eta1 must lie in p": ConstructionChoices(k=1, xi0=basis_vec(3, 2), eta1=basis_vec(3, 2)),
            "not an interior chain index": ConstructionChoices(k=3, xi0=basis_vec(3, 2), eta1=basis_vec(3, 0)),
            "must be unit vectors": ConstructionChoices(k=1, xi0=2 * basis_vec(3, 1), eta1=basis_vec(3, 0)),
            "must have the algebra dimension": ConstructionChoices(k=1, xi0=basis_vec(4, 2), eta1=basis_vec(3, 0)),
        }
        for message, choices in cases.items():
            with pytest.raises(ValueError, match=message):
                build_b1(table, choices)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_choices_rejected(self, bad):
        # a vector with a non-finite entry has a NaN or infinite norm, which is not within 1e-12 of 1
        alg = NestAlgebra.triangular(4)
        table = zero_table(alg)
        vectors = {"xi0": np.array([0, 0, bad, 0]), "eta1": np.array([1, bad, 0, 0])}
        for name, vector in vectors.items():
            fields = {"xi0": basis_vec(4, 2), "eta1": basis_vec(4, 0), name: vector}
            with pytest.raises(ValueError, match="unit vectors"):
                build_b(table, ConstructionChoices(k=2, **fields))


class TestBuildC1:
    def test_zero_table(self):
        alg = NestAlgebra.triangular(2)
        assert not build_c1(zero_table(alg), choices_for(alg, 1)).any()

    def test_n2_lower_unit_generator(self):
        alg = NestAlgebra.triangular(2)
        c = unit(2, 1, 0)
        c1 = build_c1(inner_from(alg, c), choices_for(alg, 1))
        assert not c1.any()
        assert np.allclose(c1, oracle_c1(c, 1), atol=1e-12)

    def test_n2_upper_unit_generator(self):
        alg = NestAlgebra.triangular(2)
        c = unit(2, 0, 1)
        c1 = build_c1(inner_from(alg, c), choices_for(alg, 1))
        assert np.allclose(c1, unit(2, 0, 1), atol=1e-12)
        assert np.allclose(c1, oracle_c1(c, 1), atol=1e-12)

    def test_structure(self, rng):
        alg = NestAlgebra(4, (2, 4))
        table = inner_from(alg, random_complex(rng, (4, 4)))
        choices = choices_for(alg, 1)
        c1 = build_c1(table, choices)
        p = alg.lattice_projection(1)
        assert not (c1 @ p).any()
        assert np.allclose(c1, p @ c1 @ (np.eye(4) - p), atol=1e-14)


class TestBuildC2:
    def test_zero_table(self):
        alg = NestAlgebra.triangular(3)
        assert not build_c2(zero_table(alg), choices_for(alg, 1)).any()

    def test_n2_both_terms_cancel(self, rng):
        alg = NestAlgebra.triangular(2)
        c2 = build_c2(inner_from(alg, unit(2, 1, 0)), choices_for(alg, 1))
        assert op_norm(c2) < 1e-14
        # cancellation is generic at n=2: q_a = q_1 there
        c2r = build_c2(inner_from(alg, random_complex(rng, (2, 2))), choices_for(alg, 1))
        assert op_norm(c2r) < 1e-12

    def test_n3_single_contribution(self):
        alg = NestAlgebra.triangular(3)
        c = unit(3, 2, 1)
        c2 = build_c2(inner_from(alg, c), choices_for(alg, 1))
        assert np.allclose(c2, unit(3, 2, 1), atol=1e-12)
        assert np.allclose(c2, oracle_c2(c, 1, 1, 0), atol=1e-12)

    def test_structure(self, rng):
        alg = NestAlgebra.triangular(5)
        table = inner_from(alg, random_complex(rng, (5, 5)))
        choices = choices_for(alg, 2)
        c2 = build_c2(table, choices)
        p = alg.lattice_projection(2)
        assert op_norm(c2 @ p) < 1e-13
        assert op_norm(p @ c2) < 1e-13

    def test_basis_independence(self, rng):
        # the per-vector sum over a rotated orthonormal basis of p-perp gives the same map
        alg = NestAlgebra.triangular(6)
        table = inner_from(alg, random_complex(rng, (6, 6)))
        choices = choices_for(alg, 3)
        d = 3
        reference = build_c2(table, choices)
        for _ in range(3):
            u, _ = np.linalg.qr(random_complex(rng, (3, 3)))
            basis = []
            for col in range(3):
                xi = np.zeros(6, dtype=complex)
                xi[d:] = u[:, col]
                basis.append(xi)
            rotated = oracle_build_c2(table, choices, basis=basis)
            assert op_norm(rotated - reference) < 1e-10 * table.value_scale

    def test_no_entry_in_p_rows_or_columns(self, rng):
        # so [b, E_u] = [b2, E_u] for every pSp unit u, which verify relies on
        for chain in [(1, 2, 3, 4, 5, 6), (2, 5, 7), (1, 4)]:
            alg = NestAlgebra(chain[-1], chain)
            n = alg.n
            table = inner_from(alg, random_complex(rng, (n, n)))
            for k in alg.interior_levels:
                d = alg.chain[k - 1]
                choices = choices_for(alg, k)
                for _ in range(3):
                    basis = np.zeros((n - d, n), dtype=complex)
                    basis[:, d:] = np.linalg.qr(random_complex(rng, (n - d, n - d)))[0].T
                    for c2 in (build_c2(table, choices), oracle_build_c2(table, choices, basis=basis)):
                        assert not c2[:d].any() and not c2[:, :d].any()


class TestBuildB:
    def test_zero_table(self):
        alg = NestAlgebra.triangular(3)
        art = build_b(zero_table(alg), choices_for(alg, 1))
        for m in (art.b1, art.c1, art.b2, art.c2, art.b):
            assert not m.any()

    def test_n2_recovers_generator(self):
        alg = NestAlgebra.triangular(2)
        c = unit(2, 1, 0)
        art = build_b(inner_from(alg, c), choices_for(alg, 1))
        assert np.allclose(art.b, c, atol=1e-12)

    def test_n3_recovers_generator(self):
        alg = NestAlgebra.triangular(3)
        c = unit(3, 2, 1)
        art = build_b(inner_from(alg, c), choices_for(alg, 1))
        assert np.allclose(art.b1, 0, atol=1e-14)
        assert np.allclose(art.c1, 0, atol=1e-14)
        assert np.allclose(art.b, c, atol=1e-12)

    def test_component_relations(self, rng):
        alg = NestAlgebra.triangular(4)
        table = inner_from(alg, random_complex(rng, (4, 4)))
        choices = choices_for(alg, 2)
        art = build_b(table, choices)
        assert np.array_equal(art.b2, art.b1 + art.c1)
        assert np.array_equal(art.b, art.b2 + art.c2)

    def test_every_entry_point_validates_the_choices(self):
        alg = NestAlgebra.triangular(3)
        table = zero_table(alg)
        art = build_b(table, choices_for(alg, 1))
        bad = ConstructionChoices(k=2, xi0=basis_vec(3, 0), eta1=basis_vec(3, 0))
        for entry in (build_b1, build_c1, build_c2, build_b, triple_rule_residual):
            with pytest.raises(ValueError, match="p-perp"):
                entry(table, bad)
        with pytest.raises(ValueError, match="p-perp"):
            verify(table, ConstructionArtifacts(art.b1, art.c1, art.b2, art.c2, art.b, bad))

    def test_one_rank_one_images_call_per_values_and_choices(self, rng, monkeypatch):
        # the six entry points share one _corner kernel, kept with the table's values, and each checks its choices;
        # c1 reads table rows, so construct calls evaluate itself nowhere ("direct").  A kernel computed evaluates
        # each of the n + 1 rank-one elements of its one rank_one_images call; a kept one evaluates none
        alg = NestAlgebra(7, (2, 5, 7))
        table = inner_from(alg, random_complex(rng, (7, 7)))
        choices, other = choices_for(alg, 2), choices_for(alg, 1)
        calls = {}
        images, validate = construct.rank_one_images, ConstructionChoices.validate

        def count(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(construct, "rank_one_images", count("images", images))
        monkeypatch.setattr(derivation, "evaluate", count("evaluate", derivation.evaluate))
        monkeypatch.setattr(construct, "evaluate", count("direct", construct.evaluate))
        monkeypatch.setattr(ConstructionChoices, "validate", count("validate", validate))
        calls.update(images=0, validate=0, evaluate=0, direct=0)
        art = build_b(table, choices)
        entries = {
            build_b1: (table, choices),
            build_c1: (table, choices),
            build_c2: (table, choices),
            triple_rule_residual: (table, choices),
            verify: (table, art),
        }
        for entry, args in entries.items():
            entry(*args)
        assert calls == {"images": 1, "validate": 6, "evaluate": 8, "direct": 0}
        entries[build_b] = (table, choices)
        for entry, args in entries.items():
            if entry is build_c1:
                continue
            # a write, even of the value already there, drops the kernel; so does a call with other choices
            table.values[(0, 0)] = table.values[(0, 0)]
            for call in (lambda: entry(*args), lambda: build_b1(table, other), lambda: entry(*args)):
                calls.update(images=0, validate=0, evaluate=0, direct=0)
                call()
                assert calls == {"images": 1, "validate": 1, "evaluate": 8, "direct": 0}, entry.__name__
            calls.update(images=0, validate=0, evaluate=0, direct=0)
            entry(*args)
            assert calls == {"images": 0, "validate": 1, "evaluate": 0, "direct": 0}, entry.__name__


def _bits(result):
    """An entry point's result as bytes of its arrays, or the repr of its numbers, which tells every float apart."""
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, ConstructionArtifacts):
        return [x.tobytes() for x in (result.b1, result.c1, result.b2, result.c2, result.b)] + [repr(result.choices.k)]
    return repr(result)


class TestStoredQuantities:
    """value_scale and the _corner kernel, kept with a table's values, against the same calls on a fresh copy."""

    @given(
        construction_tables(),
        st.lists(
            st.tuples(
                st.sampled_from(["write", "reject", "mutate", "build_b", "build_b1", "build_c1", "build_c2", "rule",
                                 "verify", "validate", "value_scale"]),
                st.integers(min_value=0, max_value=1),
            ),
            max_size=12,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_entry_point_gives_the_bits_of_a_freshly_built_table(self, table_and_c, steps, seed):
        """Through accepted and rejected writes, and in-place changes to returned arrays and to choices.xi0 and eta1."""
        table, _ = table_and_c
        alg, n = table.alg, table.alg.n
        units = alg.basis_units()
        rng = np.random.default_rng(seed)
        # the default choices at the first interior level and random unit vectors at the last
        k = alg.interior_levels[-1]
        d = alg.chain[k - 1]
        xi0, eta1 = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        xi0[d:], eta1[:d] = random_complex(rng, n - d), random_complex(rng, d)
        pool = [
            default_choices(alg, alg.interior_levels[0]),
            ConstructionChoices(k=k, xi0=xi0 / np.linalg.norm(xi0), eta1=eta1 / np.linalg.norm(eta1)),
        ]
        art = build_b(table, pool[0])
        returned = []
        entries = {
            "build_b": build_b,
            "build_b1": build_b1,
            "build_c1": build_c1,
            "build_c2": build_c2,
            "rule": triple_rule_residual,
            "verify": lambda t, choices: verify(t, art),
            "validate": lambda t, choices: validate(t),
            "value_scale": lambda t, choices: t.value_scale,
        }
        for step, index in steps:
            choices = pool[index]
            u = units[int(rng.integers(len(units)))]
            if step == "write":
                table.values[u] = table.values[u] + random_complex(rng, (n, n))
            elif step == "reject":
                with pytest.raises(ValueError):
                    table.values[u] = np.full((n, n), np.nan)
                with pytest.raises(DimensionError):
                    table.values[u] = np.zeros((n + 1, n + 1))
            elif step == "mutate":
                for x in (art.b1, art.c2, art.b, *returned):
                    x += 1.0
                # other unit vectors of p-perp and p, in place
                rank = alg.chain[choices.k - 1]
                for part in (choices.xi0[rank:], choices.eta1[:rank]):
                    part[:] = np.roll(part, 1)
            else:
                fresh = DerivationTable(alg, dict(table.values.items()), table.tol)
                got = entries[step](table, choices)
                assert _bits(got) == _bits(entries[step](fresh, choices)), step
                if step == "build_b":
                    art = got
                elif isinstance(got, np.ndarray):
                    returned.append(got)


@st.composite
def levels(draw):
    """(alg, k): T_n or a random chain with an interior level, n = 2..12, and one of its interior levels."""
    n = draw(st.integers(min_value=2, max_value=12))
    if draw(st.booleans()):
        alg = NestAlgebra.triangular(n)
    else:
        interior = draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1))
        alg = NestAlgebra(n, (*sorted(interior), n))
    return alg, draw(st.sampled_from(alg.interior_levels))


class TestDefectBound:
    """b's largest unit defect against validate's largest pair residual, on inner tables with noise."""

    @given(
        levels(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["aligned", "gaussian", "unit"]),
        st.floats(min_value=-10.0, max_value=-7.0),
    )
    # one defect shared by the diagonal units of p: b's defect was 3.9 times the largest pair residual when c1
    # summed the d values of delta(p)
    @example((NestAlgebra.triangular(16), 8), 0, "aligned", -9.0)
    @settings(max_examples=100, deadline=None)
    def test_residual_full_is_at_most_twice_the_largest_pair_residual(self, level, seed, noise, exponent):
        alg, k = level
        n, d = alg.n, alg.chain[k - 1]
        rng = np.random.default_rng(seed)
        table = inner_from(alg, random_complex(rng, (n, n)))
        size = 10.0**exponent * table.value_scale

        def defect():
            m = random_complex(rng, (n, n))
            return size * m / op_norm(m)

        units = alg.basis_units()
        if noise == "aligned":
            m = defect()
            hit = [(i, i) for i in range(d)]
        elif noise == "gaussian":
            hit = units
        else:
            hit = [units[rng.integers(len(units))]]
        for u in hit:
            table.values[u] = table.values[u] + (m if noise == "aligned" else defect())
        b = build_b(table, default_choices(alg, k)).b
        residual_full = np.linalg.norm(unit_defects(table, b), 2, axis=(1, 2)).max()
        assert residual_full <= 2.0 * validate(table).max_residual


class TestDefaultChoices:
    def test_midpoint_projection(self):
        alg = NestAlgebra.triangular(5)
        assert default_choices(alg).k == 3  # d_k = ceil(5/2)
        alg2 = NestAlgebra.triangular(4)
        assert default_choices(alg2).k == 2

    def test_no_interior_rejected(self):
        with pytest.raises(ValueError, match="no interior invariant projection"):
            default_choices(NestAlgebra(3, (3,)))

    # a float equal to an interior index, or a string, is not an index either
    @pytest.mark.parametrize("k", [0, 3, 99, -1, 1.0, np.float64(2.0), "2"])
    def test_non_interior_k_rejected(self, k):
        alg = NestAlgebra.triangular(3)
        with pytest.raises(ValueError, match="not an interior chain index"):
            default_choices(alg, k)
        with pytest.raises(ValueError, match="not an interior chain index"):
            build_b(zero_table(alg), ConstructionChoices(k=k, xi0=basis_vec(3, 2), eta1=basis_vec(3, 0)))

    def test_integer_k_of_any_type_accepted(self):
        alg = NestAlgebra.triangular(3)
        table = inner_from(alg, np.arange(9.0).reshape(3, 3))
        for k in (np.int64(2), np.int32(2)):
            choices = default_choices(alg, k)
            assert choices.k == 2 and build_b(table, choices).b.tobytes() == build_b(table, default_choices(alg, 2)).b.tobytes()


class TestTwoProjection:
    def test_zero_table(self):
        alg = NestAlgebra.triangular(2)
        assert not two_projection_b(zero_table(alg), 1).any()

    def test_lower_unit_generator(self):
        alg = NestAlgebra.triangular(2)
        table = inner_from(alg, unit(2, 1, 0))
        b = two_projection_b(table, 1)
        assert np.allclose(b, unit(2, 1, 0), atol=1e-14)
        p = alg.lattice_projection(1)
        assert np.allclose(b @ p - p @ b, table.values[(0, 0)] + 0 * p, atol=1e-14)

    def test_upper_unit_generator_sign(self):
        alg = NestAlgebra.triangular(2)
        table = inner_from(alg, unit(2, 0, 1))
        b = two_projection_b(table, 1)
        p = alg.lattice_projection(1)
        delta_p = -unit(2, 0, 1)
        assert np.allclose(b, unit(2, 0, 1), atol=1e-14)
        assert np.allclose(b @ p - p @ b, delta_p, atol=1e-14)

    def test_implements_on_every_chain_projection(self, rng):
        alg = NestAlgebra(6, (1, 3, 4, 6))
        table = inner_from(alg, random_complex(rng, (6, 6)))
        for k in range(1, 5):
            p = alg.lattice_projection(k)
            dp = sum(table.values[(i, i)] for i in range(alg.chain[k - 1]))
            b = two_projection_b(table, k)
            assert op_norm(dp - (b @ p - p @ b)) < 1e-12 * table.value_scale


class TestTripleRule:
    def test_zero_table(self):
        alg = NestAlgebra.triangular(3)
        assert triple_rule_residual(zero_table(alg), choices_for(alg, 1)).max_residual == 0.0

    def test_n2_identity(self):
        alg = NestAlgebra.triangular(2)
        rule = triple_rule_residual(inner_from(alg, unit(2, 1, 0)), choices_for(alg, 1))
        assert rule.max_residual < 1e-14

    def test_corrupted_value_detected(self, rng):
        alg = NestAlgebra.triangular(2)
        table = inner_from(alg, random_complex(rng, (2, 2)))
        eps = 1e-3
        m = random_complex(rng, (2, 2))
        m /= op_norm(m)
        table.values[(0, 1)] = table.values[(0, 1)] + eps * m
        rule = triple_rule_residual(table, choices_for(alg, 1))
        # exact expansion at n=2: residual = eps * |m[1,0]|
        assert rule.max_residual == pytest.approx(eps * abs(m[1, 0]), abs=1e-12)
        assert rule.max_residual > 1e-4

    def test_corruption_blind_spot_at_n2(self, rng):
        # only the lower-left entry of the perturbation survives the rule at
        # n=2; an E_22-shaped corruption cancels exactly on both sides
        alg = NestAlgebra.triangular(2)
        table = inner_from(alg, random_complex(rng, (2, 2)))
        table.values[(0, 1)] = table.values[(0, 1)] + 1e-3 * unit(2, 1, 1)
        rule = triple_rule_residual(table, choices_for(alg, 1))
        assert rule.max_residual < 1e-14 * table.value_scale

    @pytest.mark.parametrize("chain", [(1, 2, 3, 4, 5, 6, 7), (2, 5, 9), (3, 4, 8), (1, 6)])
    def test_max_matches_per_pair_oracle(self, rng, chain):
        alg = NestAlgebra(chain[-1], chain)
        n = alg.n
        table = inner_from(alg, random_complex(rng, (n, n)))
        u = alg.basis_units()[int(rng.integers(len(alg.basis_units())))]
        table.values[u] = table.values[u] + 1e-3 * random_complex(rng, (n, n))
        for k in alg.interior_levels:
            d = alg.chain[k - 1]
            for xi0, eta1 in [(d, 0), (n - 1, d - 1)]:
                choices = ConstructionChoices(k=k, xi0=basis_vec(n, xi0), eta1=basis_vec(n, eta1))
                assert triple_rule_residual(table, choices).max_residual == oracle_rule_max(table, choices)


class TestRankOneConstruction:
    """The construction through rank_one_images against the per-vector evaluate loops it replaced."""

    @given(construction_tables(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_hot_choices_have_the_bits_of_the_loops(self, table_and_c, seed):
        table, c = table_and_c
        alg = table.alg
        n = alg.n
        rng = np.random.default_rng(seed)
        for k in alg.interior_levels:
            d = alg.chain[k - 1]
            choices = ConstructionChoices(
                k=k, xi0=basis_vec(n, int(rng.integers(d, n))), eta1=basis_vec(n, int(rng.integers(d)))
            )
            p = alg.lattice_projection(k)
            b1 = oracle_build_b1(table, choices)
            c1 = oracle_row_c1(table, d)
            c2 = oracle_build_c2(table, choices)
            art = build_b(table, choices)
            assert art.b1.tobytes() == b1.tobytes()
            assert art.c1.tobytes() == c1.tobytes()
            assert art.c2.tobytes() == c2.tobytes()
            assert art.b.tobytes() == ((b1 + c1) + c2).tobytes()
            if c is not None:
                # the rows of c1 are those of -p delta(p) p-perp for a derivation; a mutated unit need not obey
                # delta(E_ii) = delta(E_ii) E_ii + E_ii delta(E_ii), on which the identity rests
                scale = 1.0 + op_norm(c)
                assert op_norm(art.c1 - (-p @ oracle_evaluate(table, p) @ (np.eye(n) - p))) <= 1e-12 * scale
            rule = oracle_rule_max(table, choices)
            assert triple_rule_residual(table, choices).max_residual == rule
            report = verify(table, art)
            assert report.rule_max == rule
            self.assert_residuals_as_unpruned(table, art, report)

    @staticmethod
    def assert_residuals_as_unpruned(table, art, report):
        """Each residual, its worst unit and the triple rule's as when every unit (pair) is normed, to the bit."""
        for name, (value, unit) in oracle_verify_residuals(table, art).items():
            assert (getattr(report, name), report.worst_units[name]) == (value, unit)
        rule = triple_rule_residual(table, art.choices)
        assert (rule.max_residual, rule.unit) == oracle_batched_rule(table, art.choices)
        assert (report.rule_max, report.worst_units["rule_max"]) == (rule.max_residual, rule.unit)

    @given(construction_tables(), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_verify_residuals_match_the_unpruned_norms(self, table_and_c, seed, foreign_b):
        """Also for a b that implements nothing, random or zero; small-integer generators give tied residuals."""
        table, _ = table_and_c
        rng = np.random.default_rng(seed)
        n = table.alg.n
        for k in table.alg.interior_levels:
            art = build_b(table, default_choices(table.alg, k))
            if foreign_b:
                b = random_complex(rng, (n, n)) if seed % 2 else np.zeros((n, n), dtype=complex)
                art = ConstructionArtifacts(b1=b, c1=0 * b, b2=b, c2=0 * b, b=b, choices=art.choices)
            self.assert_residuals_as_unpruned(table, art, verify(table, art))

    @given(construction_tables(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_unit_choices_match_the_loops(self, table_and_c, seed):
        table, c = table_and_c
        alg = table.alg
        n = alg.n
        rng = np.random.default_rng(seed)
        scale = 1.0 + (op_norm(c) if c is not None else table.value_scale)
        for k in alg.interior_levels:
            d = alg.chain[k - 1]
            xi0, eta1 = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
            xi0[d:], eta1[:d] = random_complex(rng, n - d), random_complex(rng, d)
            choices = ConstructionChoices(k=k, xi0=xi0 / np.linalg.norm(xi0), eta1=eta1 / np.linalg.norm(eta1))
            art = build_b(table, choices)
            assert op_norm(art.b1 - oracle_build_b1(table, choices)) <= 1e-12 * scale
            assert op_norm(art.c2 - oracle_build_c2(table, choices)) <= 1e-12 * scale
            assert abs(triple_rule_residual(table, choices).max_residual - oracle_rule_max(table, choices)) <= 1e-12 * scale


class TestVerify:
    @given(construction_tables())
    @settings(max_examples=30, deadline=None)
    def test_norm_bounds_are_the_sequential_oracles(self, table_and_c):
        table, c = table_and_c
        norms = verify(table, build_b(table, default_choices(table.alg)), generator=c).norms
        assert norms["delta_lower"] == oracle_norm_estimate(table)[0]
        assert norms["delta_upper"] == (None if c is None else 2.0 * distance_to_scalars(c)[1])

    def test_one_commutator_array_per_call(self, rng, monkeypatch):
        # b2's pSp defects are b's, so verify forms the commutators of b alone
        calls = []

        def counted(alg, x, inner=derivation.unit_commutators):
            calls.append(x)
            return inner(alg, x)

        for module in (derivation, construct):
            monkeypatch.setattr(module, "unit_commutators", counted, raising=False)
        alg = NestAlgebra(6, (2, 3, 6))
        table = inner_from(alg, random_complex(rng, (6, 6)))
        art = build_b(table, default_choices(alg))
        calls.clear()
        verify(table, art)
        assert len(calls) == 1 and calls[0] is art.b

    @given(construction_tables(), st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["built", "zero", "integer"]))
    @settings(max_examples=60, deadline=None)
    def test_report_is_the_three_pass_formulas(self, table_and_c, seed, b):
        """Every field, to the bit; a zero or small-integer b ties the maxima of the three parts."""
        table, c = table_and_c
        n = table.alg.n
        rng = np.random.default_rng(seed)
        for k in table.alg.interior_levels:
            art = build_b(table, default_choices(table.alg, k))
            if b != "built":
                x = np.zeros((n, n), dtype=complex) if b == "zero" else rng.integers(-1, 2, (n, n)).astype(complex)
                art = ConstructionArtifacts(b1=art.b1, c1=art.c1, b2=x + art.c1, c2=art.c2, b=x, choices=art.choices)
            assert repr(verify(table, art, generator=c)) == repr(oracle_three_pass_verify(table, art, generator=c))

    def test_generator_must_be_n_by_n(self, rng):
        # a 1 x 1 generator used to broadcast into the gauge and give delta_upper 0.0, below delta_lower
        alg = NestAlgebra.triangular(5)
        c = random_complex(rng, (5, 5))
        table = inner_from(alg, c)
        art = build_b(table, default_choices(alg))
        estimate = norm_estimate(table)
        for shape in ((1, 1), (3, 3), (5, 1)):
            for norms in (None, estimate):
                with pytest.raises(DimensionError, match="generator must be 5x5"):
                    verify(table, art, generator=random_complex(rng, shape), norms=norms)
        report = verify(table, art, generator=c)
        assert report.norms["delta_lower"] <= report.norms["delta_upper"]

    def test_zero_table(self):
        alg = NestAlgebra.triangular(3)
        table = zero_table(alg)
        art = build_b(table, choices_for(alg, 1))
        report = verify(table, art, generator=np.zeros((3, 3)))
        assert report.residual_full == 0.0
        assert report.gauge[0] == 0 and report.gauge[1] == 0
        assert report.thm11_ok and report.thm12_ok and report.thm13_ok

    def test_zero_table_validates_and_verifies_with_tol_0(self):
        # the tolerance is relative to the table's largest value, so a zero table gets 0 and its residuals are 0.0
        alg = NestAlgebra(5, (2, 5))
        table = zero_table(alg)
        check = validate(table)
        assert table.value_scale == 0.0 and check.ok and check.tol == 0.0 and check.max_residual == 0.0
        report = verify(table, build_b(table, choices_for(alg, 1)))
        assert report.tol == 0.0 and report.thm11_ok and report.thm12_ok and report.thm13_ok

    def test_n2_gauge_examples(self):
        alg = NestAlgebra.triangular(2)
        c = unit(2, 1, 0)
        art = build_b(inner_from(alg, c), choices_for(alg, 1))
        report = verify(inner_from(alg, c), art, generator=c)
        assert report.residual_full < 1e-12
        assert abs(report.gauge[0]) < 1e-12 and report.gauge[1] < 1e-12

        cd = np.diag([1.0, 2.0]).astype(complex)
        art = build_b(inner_from(alg, cd), choices_for(alg, 1))
        report = verify(inner_from(alg, cd), art, generator=cd)
        assert abs(report.gauge[0] - (-2.0)) < 1e-12
        assert report.gauge[1] < 1e-12

    def test_random_inner_all_theorems(self, rng):
        for n, chain in [(4, None), (6, (2, 3, 6))]:
            alg = NestAlgebra.triangular(n) if chain is None else NestAlgebra(n, chain)
            c = random_complex(rng, (n, n))
            table = inner_from(alg, c)
            est = norm_estimate(table, generator=c)
            interior = [k for k in range(1, alg.num_levels + 1) if alg.chain[k - 1] < n]
            for k in interior:
                art = build_b(table, choices_for(alg, k))
                report = verify(table, art, generator=c, norms=est)
                assert report.thm11_ok and report.thm12_ok and report.thm13_ok
                assert report.gauge[1] < 1e-9 * table.value_scale
                assert report.norms["b1"] <= est.upper + 1e-8
                assert report.norms["b2"] <= 2 * est.upper + 1e-8
                assert report.norms["b"] <= 4 * est.upper + 1e-8

    def test_partial_guarantee_with_unread_corruption(self, rng):
        # corrupting a corner value the construction never reads leaves the
        # pSp and corner residuals at zero while the full/rule residuals blow up
        alg = NestAlgebra.triangular(5)
        table = inner_from(alg, random_complex(rng, (5, 5)))
        k, d = 2, 2
        choices = choices_for(alg, k)  # xi0 = e_2, eta1 = e_0
        m = random_complex(rng, (5, 5))
        m /= op_norm(m)
        table.values[(1, 4)] = table.values[(1, 4)] + 1e-3 * m  # i != 0, j != 2
        art = build_b(table, choices)
        report = verify(table, art)
        scale = table.value_scale
        assert report.residual_pSp <= 1e-10 * scale
        assert report.residual_corner <= 1e-10 * scale
        assert report.residual_full >= 1e-4
        assert report.rule_max >= 1e-4
        # equivalence: both failure signals are of the same order
        assert 0.1 < report.rule_max / report.residual_full < 10

    def test_pass_flags_use_the_table_tolerance(self, rng):
        alg = NestAlgebra.triangular(4)
        table = inner_from(alg, random_complex(rng, (4, 4)))
        assert validate(table).ok
        art = build_b(table, choices_for(alg, 2))
        assert verify(table, art).thm13_ok
        table.tol = 1e-20
        report = verify(table, art)
        assert report.tol == table.scaled_tol == table.tol * table.value_scale
        assert not report.thm13_ok
        # a tolerance that overflows would pass every residual
        table.tol = 1e308
        with pytest.raises(ValueError, match="not finite"):
            verify(table, art)

    def test_b2_implements_on_p_itself(self, rng):
        alg = NestAlgebra.triangular(4)
        table = inner_from(alg, random_complex(rng, (4, 4)))
        for k in range(1, 4):
            art = build_b(table, choices_for(alg, k))
            p = alg.lattice_projection(k)
            dp = sum(table.values[(i, i)] for i in range(alg.chain[k - 1]))
            assert op_norm(dp - (art.b2 @ p - p @ art.b2)) < 1e-10 * table.value_scale

    def test_gauge_scalar_across_choices_is_reported(self, rng):
        # changing xi0/eta1 moves b by (empirically) a scalar for inner tables
        alg = NestAlgebra.triangular(6)
        c = random_complex(rng, (6, 6))
        table = inner_from(alg, c)
        k, d = 3, 3
        b_default = build_b(table, choices_for(alg, k)).b
        alt = ConstructionChoices(k=k, xi0=basis_vec(6, 5), eta1=basis_vec(6, 1))
        b_alt = build_b(table, alt).b
        _, residual = scalar_identity_part(b_default - b_alt)
        assert residual < 1e-9 * table.value_scale
