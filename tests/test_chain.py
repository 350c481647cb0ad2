import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestderiv.algebra import NestAlgebra
from nestderiv.chain import (
    ChainFamily,
    ChainMember,
    chain_family,
    implements_on_projection,
    normalize_chain,
    stabilized_b,
)
from nestderiv import construct, derivation
from nestderiv.construct import ConstructionChoices, build_b1, default_choices
from nestderiv.derivation import DerivationTable, inner_from, norm_estimate
from nestderiv.linalg import op_norm, scalar_identity_part

from conftest import random_complex
from oracles import oracle_chain_members, oracle_pairwise_scalars


def zero_table(alg):
    return DerivationTable(alg, {u: np.zeros((alg.n, alg.n), dtype=complex) for u in alg.basis_units()})


def test_zero_table_family():
    alg = NestAlgebra.triangular(4)
    family = chain_family(zero_table(alg))
    assert len(family.members) == 3
    assert all(not m.b.any() for m in family.members)
    assert all(abs(lam) == 0 and r == 0 for lam, r in family.lambdas.values())
    assert not stabilized_b(normalize_chain(family)).any()


def test_irreducible_chain_rejected(rng):
    alg = NestAlgebra(3, (3,))
    table = inner_from(alg, random_complex(rng, (3, 3)))
    with pytest.raises(ValueError, match="irreducible"):
        chain_family(table)


def test_single_interior_projection_vacuous(rng):
    alg = NestAlgebra.triangular(2)
    table = inner_from(alg, random_complex(rng, (2, 2)))
    family = chain_family(table)
    assert len(family.members) == 1
    assert family.lambdas == {}
    assert normalize_chain(family) is family
    assert np.array_equal(stabilized_b(family), family.members[0].b)
    assert np.array_equal(stabilized_b(family), build_b1(table, default_choices(alg, family.members[0].k)))


def test_differences_are_scalar_on_smaller_projection(rng):
    alg = NestAlgebra.triangular(3)
    table = inner_from(alg, random_complex(rng, (3, 3)))
    family = chain_family(table)
    for (_, _), (_, residual) in family.lambdas.items():
        assert residual < 1e-9 * table.value_scale


def test_prenormalization_scalars_bounded(rng):
    for n in (3, 5, 7):
        alg = NestAlgebra.triangular(n)
        c = random_complex(rng, (n, n))
        table = inner_from(alg, c)
        upper = norm_estimate(table, generator=c).upper
        family = chain_family(table)
        for lam, _ in family.lambdas.values():
            assert abs(lam) <= upper + 1e-8


def test_normalization_zeroes_all_pairs(rng):
    alg = NestAlgebra.triangular(6)
    table = inner_from(alg, random_complex(rng, (6, 6)))
    normalized = normalize_chain(chain_family(table))
    for lam, residual in normalized.lambdas.values():
        assert abs(lam) < 1e-9 * table.value_scale
        assert residual < 1e-9 * table.value_scale


def test_injected_scalar_removed(rng):
    alg = NestAlgebra.triangular(4)
    table = inner_from(alg, random_complex(rng, (4, 4)))
    family = chain_family(table)
    # push the second member off by 0.5 on its projection
    shifted = []
    for m in family.members:
        b = m.b.copy()
        if m.k == family.members[1].k:
            b = b + 0.5 * alg.lattice_projection(m.k)
        shifted.append(ChainMember(k=m.k, b=b))
    lambdas = {
        (ma.k, mb.k): scalar_identity_part((ma.b - mb.b)[: alg.chain[ma.k - 1], : alg.chain[ma.k - 1]])
        for i, ma in enumerate(shifted)
        for mb in shifted[i + 1 :]
    }
    key = (shifted[0].k, shifted[1].k)
    # the 0.5 shift moves the consistency scalar by exactly -0.5
    assert abs(lambdas[key][0] - (family.lambdas[key][0] - 0.5)) < 1e-9 * table.value_scale
    rebuilt = normalize_chain(ChainFamily(alg=alg, members=shifted, lambdas=lambdas))
    for lam, residual in rebuilt.lambdas.values():
        assert abs(lam) < 1e-9 * table.value_scale


def test_stabilized_b_implements_on_top_projection(rng):
    for n in (3, 5):
        alg = NestAlgebra.triangular(n)
        table = inner_from(alg, random_complex(rng, (n, n)))
        normalized = normalize_chain(chain_family(table))
        top_k = max(m.k for m in normalized.members)
        residual = implements_on_projection(table, stabilized_b(normalized), top_k)
        assert residual < 1e-9 * table.value_scale


def test_member_norms_bounded_after_normalization(rng):
    alg = NestAlgebra.triangular(5)
    c = random_complex(rng, (5, 5))
    table = inner_from(alg, c)
    upper = norm_estimate(table, generator=c).upper
    normalized = normalize_chain(chain_family(table))
    for m in normalized.members:
        assert op_norm(m.b) <= 2 * upper + 1e-8


def test_members_are_read_from_the_table_without_the_kernel(rng, monkeypatch):
    # each member's columns are read from table values: no rank_one_images or evaluate call, nor the kernel under both
    alg = NestAlgebra(7, (2, 5, 7))
    table = inner_from(alg, random_complex(rng, (7, 7)))
    expected = [m.b.tobytes() for m in chain_family(table).members]

    def refuse(*args, **kwargs):
        raise AssertionError("chain_family called the general kernel")

    for module in (construct, derivation):
        monkeypatch.setattr(module, "rank_one_images", refuse)
        monkeypatch.setattr(module, "evaluate", refuse)
    monkeypatch.setattr(derivation, "_image", refuse)
    monkeypatch.setattr(ConstructionChoices, "validate", refuse)
    assert [m.b.tobytes() for m in chain_family(table).members] == expected


def test_family_json_schema(rng):
    alg = NestAlgebra.triangular(3)
    table = inner_from(alg, random_complex(rng, (3, 3)))
    obj = chain_family(table).to_json()
    assert {entry["k"] for entry in obj["family"]} == {1, 2}
    first = obj["family"][0]
    assert set(first) == {"k", "b", "lambdas"}
    assert first["lambdas"][0].keys() == {"beta", "value", "residual"}


@given(st.integers(min_value=2, max_value=10), st.data(), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(max_examples=40, deadline=None)
def test_family_has_the_bits_of_the_per_level_loops(n, data, seed, mutated):
    """Members, consistency scalars and normalized scalars against per-level b1 and per-pair scalar parts."""
    if data.draw(st.booleans()):
        alg = NestAlgebra.triangular(n)
    else:
        interior = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1), min_size=1))
        alg = NestAlgebra(n, (*sorted(interior), n))
    rng = np.random.default_rng(seed)
    table = inner_from(alg, random_complex(rng, (n, n)))
    if mutated:
        u = alg.basis_units()[int(rng.integers(len(alg.basis_units())))]
        table.values[u] = table.values[u] + random_complex(rng, (n, n))
    family = chain_family(table)
    ks = [m.k for m in family.members]
    assert ks == alg.interior_levels
    expected = oracle_chain_members(table)
    assert [m.b.tobytes() for m in family.members] == [b.tobytes() for b in expected]
    assert [m.b.tobytes() for m in family.members] == [build_b1(table, default_choices(alg, m.k)).tobytes() for m in family.members]
    assert family.lambdas == oracle_pairwise_scalars(alg, ks, expected)
    normalized = normalize_chain(family)
    assert normalized.lambdas == oracle_pairwise_scalars(alg, ks, [m.b for m in normalized.members])
