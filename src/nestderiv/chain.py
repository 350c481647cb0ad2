"""Per-level implementers along the invariant chain and their normalization.

For every interior chain projection p_a an operator b_a implementing the
derivation on p_a is built.  Any two of them differ by a scalar on the range
of the smaller projection; the normalization pass removes those scalars
against the smallest level, after which the family is consistent and the top
operator is the stabilized implementer (the finite stand-in for a strong
limit, which is meaningless at finite dimension).
"""

from dataclasses import dataclass

import numpy as np

from .algebra import NestAlgebra
from .derivation import DerivationTable, unit_defects
from .linalg import _max_op_norm, matrix_to_json, scalar_identity_part


@dataclass
class ChainMember:
    k: int
    b: np.ndarray


@dataclass
class ChainFamily:
    alg: NestAlgebra
    members: list
    # (k_alpha, k_beta) -> (lambda, residual) for k_alpha < k_beta
    lambdas: dict

    def to_json(self) -> dict:
        out = []
        for m in self.members:
            lams = [
                {"beta": kb, "value": [lam.real, lam.imag], "residual": residual}
                for (ka, kb), (lam, residual) in sorted(self.lambdas.items())
                if ka == m.k
            ]
            out.append({"k": m.k, "b": matrix_to_json(m.b), "lambdas": lams})
        return {"family": out}


def _pairwise_scalars(alg: NestAlgebra, members: list) -> dict:
    """(k_a, k_b) -> scalar part of b_a - b_b compressed to range(p_a), for members in increasing k.

    The differences of b_a with every later member go to scalar_identity_part as one stack.
    """
    lambdas = {}
    for ia, ma in enumerate(members[:-1]):
        d = alg.chain[ma.k - 1]
        later = members[ia + 1 :]
        lams, residuals = scalar_identity_part(ma.b[:d, :d] - np.stack([mb.b[:d, :d] for mb in later]))
        for mb, lam, residual in zip(later, lams.tolist(), residuals.tolist()):
            lambdas[(ma.k, mb.k)] = (lam, residual)
    return lambdas


def chain_family(table: DerivationTable) -> ChainFamily:
    """b_a for every interior chain level plus pairwise consistency scalars.

    Each b_a is build_b1 at default_choices(alg, k), xi0 = e_d for p of
    rank d, read from the table's columns: column i < d of b_a is
    delta(E_id) e_d, column d of the single value delta(E_id).  The columns
    are added onto zeros, so no entry is -0.0, as in build_b1.
    """
    alg = table.alg
    if not alg.interior_levels:
        raise ValueError("irreducible model: construction inapplicable (chain has no interior projection)")
    members = []
    for k in alg.interior_levels:
        d = alg.chain[k - 1]
        b = np.zeros((alg.n, alg.n), dtype=complex)
        b[:, :d] += table.stacked()[alg.unit_rows()[np.arange(d), d], :, d].T
        members.append(ChainMember(k=k, b=b))
    return ChainFamily(alg=alg, members=members, lambdas=_pairwise_scalars(alg, members))


def normalize_chain(family: ChainFamily) -> ChainFamily:
    """Shift each member by a scalar on its projection so differences vanish.

    Against the smallest interior level a0: b_b += lambda_{a0 b} * p_b, which
    zeroes the compression of (b_a0 - b_b) to range(p_a0); the remaining
    pairwise scalars then vanish as well since every p_a dominates p_a0.
    """
    if len(family.members) <= 1:
        return family
    alg = family.alg
    base = family.members[0]
    members = [ChainMember(k=base.k, b=base.b.copy())]
    for m in family.members[1:]:
        lam, _ = family.lambdas[(base.k, m.k)]
        p = alg.lattice_projection(m.k)
        members.append(ChainMember(k=m.k, b=m.b + lam * p))
    return ChainFamily(alg=alg, members=members, lambdas=_pairwise_scalars(alg, members))


def stabilized_b(family: ChainFamily) -> np.ndarray:
    """The top-level operator of a normalized family (the finite 'limit')."""
    return max(family.members, key=lambda m: m.k).b


def implements_on_projection(table: DerivationTable, b: np.ndarray, k: int) -> float:
    """max over basis units u of op_norm((delta(u) - [b, u]) p) for p at level k, by _max_op_norm."""
    defects = unit_defects(table, b)
    defects[:, :, table.alg.lattice_projection(k).diagonal() == 0] = 0.0
    return _max_op_norm(defects)[0]
