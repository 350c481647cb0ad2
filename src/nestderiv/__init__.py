"""Derivations on finite nest/triangular matrix algebras and their implementing operators."""

from .linalg import rank_one, adjoint, op_norm, scalar_identity_part
from .algebra import NestAlgebra, MatrixUnit, check_structure
from .derivation import DerivationTable, inner_from, validate, evaluate, rank_one_images, norm_estimate
from .construct import (
    ConstructionChoices,
    ConstructionArtifacts,
    default_choices,
    build_b1,
    build_c1,
    build_c2,
    build_b,
    two_projection_b,
    triple_rule_residual,
    verify,
)
from .chain import chain_family, normalize_chain, stabilized_b

__all__ = [
    "rank_one",
    "adjoint",
    "op_norm",
    "scalar_identity_part",
    "NestAlgebra",
    "MatrixUnit",
    "check_structure",
    "DerivationTable",
    "inner_from",
    "validate",
    "evaluate",
    "rank_one_images",
    "norm_estimate",
    "ConstructionChoices",
    "ConstructionArtifacts",
    "default_choices",
    "build_b1",
    "build_c1",
    "build_c2",
    "build_b",
    "two_projection_b",
    "triple_rule_residual",
    "verify",
    "chain_family",
    "normalize_chain",
    "stabilized_b",
]
