"""Explicit implementing operators for derivations on a nest algebra.

Given a derivation table and an interior invariant projection p, assembles
the operators b1 (implements on p), c1, b2 = b1 + c1 (implements on pSp),
c2 and b = b2 + c2 (implements on pSp and the complementary corner), the
two-projection implementer (1 - 2p) delta(p), and the triple product rule
residual whose vanishing is equivalent to b implementing the derivation on
all of the algebra.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .algebra import NestAlgebra
from .derivation import (
    DerivationTable,
    NormEstimate,
    _as_operator,
    evaluate,
    norm_estimate,
    rank_one_images,
    unit_defects,
)
from .linalg import _as_matrix, _as_vector, _difference_scalar_part, _max_op_norm, basis_vector, matrix_to_json


@dataclass(frozen=True)
class ConstructionChoices:
    """The free choices of the construction: p index, xi0 in p-perp, eta1 in p."""

    k: int
    xi0: np.ndarray
    eta1: np.ndarray

    def validate(self, alg: NestAlgebra):
        if not (isinstance(self.k, numbers.Integral) and self.k in alg.interior_levels):
            raise ValueError(f"k={self.k} is not an interior chain index for {alg.chain}")
        d = alg.chain[self.k - 1]
        xi0, eta1 = _as_vector(self.xi0), _as_vector(self.eta1)
        if xi0.size != alg.n or eta1.size != alg.n:
            raise ValueError("choice vectors must have the algebra dimension")
        # <= so that the NaN norm of a vector with a NaN entry fails too
        if not (abs(np.linalg.norm(xi0) - 1.0) <= 1e-12 and abs(np.linalg.norm(eta1) - 1.0) <= 1e-12):
            raise ValueError("choice vectors must be unit vectors")
        if np.any(xi0[:d] != 0):
            raise ValueError("xi0 must lie in p-perp (first d coordinates zero)")
        if np.any(eta1[d:] != 0):
            raise ValueError("eta1 must lie in p (last n - d coordinates zero)")
        return d


@dataclass
class ConstructionArtifacts:
    """The constructed operators and the choices that produced them."""

    b1: np.ndarray
    c1: np.ndarray
    b2: np.ndarray
    c2: np.ndarray
    b: np.ndarray
    choices: ConstructionChoices


@dataclass
class RuleResidual:
    """Largest triple-product-rule residual over the (p-perp basis index, p basis index) pairs.

    unit is the basis unit (i, a) of the first pair, a outermost, that reaches it.
    """

    max_residual: float
    unit: tuple | None = None


# the residuals whose maximum each theorem's pass flag compares with tol
_THEOREM_RESIDUALS = {
    "thm11": ("residual_pSp",),
    "thm12": ("residual_pSp", "residual_corner"),
    "thm13": ("residual_full", "rule_max"),
}


@dataclass
class VerificationReport:
    """Residuals, norms and gauge of a verification; worst_units maps each residual to the basis unit reaching it."""

    residual_pSp: float
    residual_corner: float
    residual_full: float
    rule_max: float
    norms: dict
    gauge: tuple | None
    tol: float
    worst_units: dict = field(default_factory=dict)

    @property
    def thm11_ok(self) -> bool:
        return self.failure("thm11") is None

    @property
    def thm12_ok(self) -> bool:
        return self.failure("thm12") is None

    @property
    def thm13_ok(self) -> bool:
        return self.failure("thm13") is None

    def failure(self, theorem: str) -> str | None:
        """None if theorem passes, else its largest residual, the tolerance and the unit reaching that residual."""
        name = max(_THEOREM_RESIDUALS[theorem], key=lambda residual: getattr(self, residual))
        value = getattr(self, name)
        if value <= self.tol:
            return None
        return f"{theorem} {name} {value:.3e} > tol {self.tol:.3e} at unit {self.worst_units.get(name)}"

    def to_json(self) -> dict:
        gauge = None
        if self.gauge is not None:
            lam, residual = self.gauge
            gauge = {"lambda": [float(lam.real), float(lam.imag)], "residual": float(residual)}
        return {
            "residual_pSp": float(self.residual_pSp),
            "residual_corner": float(self.residual_corner),
            "residual_full": float(self.residual_full),
            "rule_max": float(self.rule_max),
            "norms": self.norms,
            "gauge": gauge,
            "pass": {"thm11": self.thm11_ok, "thm12": self.thm12_ok, "thm13": self.thm13_ok},
        }


def default_choices(alg: NestAlgebra, k: int | None = None) -> ConstructionChoices:
    """Reproducible defaults: d_k nearest ceil(n/2), first basis vectors of p-perp and p."""
    interior = alg.interior_levels
    if not interior:
        raise ValueError("algebra has no interior invariant projection")
    if k is None:
        target = (alg.n + 1) // 2
        k = min(interior, key=lambda kk: (abs(alg.chain[kk - 1] - target), kk))
    elif not (isinstance(k, numbers.Integral) and k in interior):
        raise ValueError(f"k={k} is not an interior chain index for {alg.chain}")
    return ConstructionChoices(k=k, xi0=basis_vector(alg.n, alg.chain[k - 1]), eta1=basis_vector(alg.n, 0))


def build_b1(table: DerivationTable, choices: ConstructionChoices) -> np.ndarray:
    """Column-by-column assembly of the p-side implementer (see _corner).

    For each basis vector eta of p, the rank-one a = xi0 (x) eta = eta xi0^H
    lies in the algebra, carries xi0 to eta, and equals a p0 for
    p0 = xi0 (x) xi0; the column of b1 at eta is delta(a) xi0.  Columns in
    p-perp are zero.
    """
    return _corner(table, choices)["b1"].copy()


def build_c1(table: DerivationTable, choices: ConstructionChoices) -> np.ndarray:
    """c1 = -p delta(p) p-perp, read row by row from the diagonal units of p.

    For i < d, E_ii = E_ii^2 gives delta(E_ii) p-perp = E_ii delta(E_ii) p-perp,
    so p delta(p) p-perp is the sum of E_ii delta(E_ii) p-perp over i < d: row
    i of c1 is minus row i of delta(E_ii) in the columns of p-perp, and every
    other entry is zero.  This holds for any derivation into B(H), and each
    row comes from one table value, so no defect that the values share is
    added up.
    """
    return _c1(table, choices.validate(table.alg))


def _c1(table: DerivationTable, d: int) -> np.ndarray:
    """build_c1 for p of rank d, unchecked; the rows are subtracted from zeros, so no entry is -0.0."""
    i = np.arange(d)
    c1 = np.zeros((table.alg.n, table.alg.n), dtype=complex)
    c1[:d, d:] -= table.stacked()[table.alg.unit_rows()[i, i], i, d:]
    return c1


def _corner(table: DerivationTable, choices: ConstructionChoices) -> dict:
    """The corner kernel {"d", "b1", "c2", "rule"} from one rank_one_images call over the corner's rank-one elements.

    b1 has delta(e_i xi0^H) xi0 in column i < d.  With q_a = eta1 e_a^H for e_a
    over the standard basis of p-perp and q1 = eta1 xi0^H, rows[a - d] is
    eta1^H delta(q_a), s = eta1^H delta(q1) xi0, and the row block of c2 at e_a
    is -q_a* delta(q_a) p-perp + q_a* delta(q1) q1* q_a
    = e_a (x) (-rows[a - d] p-perp + s e_a^H).  rule is triple_rule_residual's
    (max_residual, unit), from b1, rows and s.

    The choices are checked on every call.  The kernel is kept in the table's
    values (TableValues._derived), keyed by k and the bytes of xi0 and eta1,
    until a value is written or a call with other choices replaces it.  Its
    arrays are read-only, so callers that hand one out copy it.
    """
    d = choices.validate(table.alg)
    xi0, eta1 = _as_vector(choices.xi0), _as_vector(choices.eta1)
    key = (choices.k, xi0.tobytes(), eta1.tobytes())
    corner = table.values._derived.get("corner")
    if corner is not None and corner["key"] == key:
        return corner

    n = table.alg.n
    eye = np.eye(n)
    basis = eye[d:]
    etas = np.vstack([eye[:d], np.tile(eta1, (n - d + 1, 1))])
    xis = np.vstack([np.tile(xi0, (d, 1)), basis, xi0])
    images = rank_one_images(table, etas, xis)
    b1 = np.zeros((n, n), dtype=complex)
    b1[:, :d] = (images[:d] @ xi0).T
    rows = eta1.conj() @ images[d:n]
    s = eta1.conj() @ images[n] @ xi0

    c2_rows = -rows
    c2_rows[:, :d] = 0.0
    c2_rows += s * basis
    # added onto zeros, so an entry the product leaves at -0.0 is 0.0, as in a sum of per-vector blocks
    c2 = np.zeros((n, n), dtype=complex) + basis.T @ c2_rows

    # the triple rule's right sides on the pairs (a, i), a over p-perp outermost
    pa, pi = np.repeat(np.arange(d, n), d), np.tile(np.arange(d), n - d)
    pairs = np.arange(len(pa))
    rhs = np.zeros((len(pa), n, n), dtype=complex)
    rhs[pairs, :, pa] = b1[:, pi].T
    rhs[pairs, pi, :] += rows[pa - d]
    rhs[pairs, pi, pa] -= s
    worst, index, _ = _max_op_norm(np.subtract(table.stacked()[table.alg.unit_rows()[pi, pa]], rhs, out=rhs))

    for array in (b1, c2):
        array.setflags(write=False)
    corner = {"key": key, "d": d, "b1": b1, "c2": c2, "rule": (worst, (int(pi[index]), int(pa[index])))}
    table.values._derived["corner"] = corner
    return corner


def build_c2(table: DerivationTable, choices: ConstructionChoices) -> np.ndarray:
    """The corner correction, summed over the standard basis of p-perp (see _corner).

    The sum is independent of the orthonormal basis of p-perp it runs over
    (the linearity lemma); the tests check that against the per-vector oracle.
    """
    return _corner(table, choices)["c2"].copy()


def build_b(table: DerivationTable, choices: ConstructionChoices) -> ConstructionArtifacts:
    """Full pipeline: b = b1 + c1 + c2, b1 and c2 from one _corner and c1 from the diagonal units' rows.

    The choices are checked once, by _corner.
    """
    corner = _corner(table, choices)
    b1, c1, c2 = corner["b1"].copy(), _c1(table, corner["d"]), corner["c2"].copy()
    b2 = b1 + c1
    return ConstructionArtifacts(b1=b1, c1=c1, b2=b2, c2=c2, b=b2 + c2, choices=choices)


def two_projection_b(table: DerivationTable, k: int) -> np.ndarray:
    """(1 - 2p) delta(p): implements the derivation on the single projection p."""
    p = table.alg.lattice_projection(k)
    return (np.eye(table.alg.n) - 2.0 * p) @ evaluate(table, p)


def triple_rule_residual(table: DerivationTable, choices: ConstructionChoices) -> RuleResidual:
    """Residual of the triple product rule over all rank-one corner elements.

    For q = xi_a (x) eta with xi_a ranging over the basis of p-perp and eta
    over the basis of p, checks
    delta(q) = delta(q q_a* q1) q1* q_a + q q_a* delta(q_a) - q q_a* delta(q1) q1* q_a.
    With q = E_ia, q q_a* q1 = e_i xi0^H, so the right side is column i of b1
    (delta(e_i xi0^H) xi0) in column a, plus rows[a - d] = eta1^H delta(q_a)
    in row i, minus s = eta1^H delta(q1) xi0 at (i, a), all from the images
    _corner takes.  It is written onto zeros in that order, and the maximum is
    taken by _max_op_norm, in _corner.  Every argument of delta lies in the
    algebra, and if not, the construction itself is broken and an error
    propagates.
    """
    return RuleResidual(*_corner(table, choices)["rule"])


def verify(
    table: DerivationTable,
    artifacts: ConstructionArtifacts,
    generator=None,
    norms: NormEstimate | None = None,
) -> VerificationReport:
    """Residual verification of the implementation claims.

    Measures the commutator residuals of b against the table over the pSp
    units, the complementary corner units and all units, the triple-rule
    residual, the operator norms against the derivation-norm bounds, and
    (when the inner generator is known) the gauge scalar by which b differs
    from it.  b2 is not measured apart: c2 = b - b2 has no entry in p's rows
    or columns, so [b, E_u] = [b2, E_u] for every pSp unit u, and b2 enters
    only through its norm.  The pass flags compare against table.scaled_tol,
    validate's tolerance, which raises ValueError when it is not finite.
    Each residual is a maximum from _max_op_norm, which takes SVDs only of the
    units that can reach it, and worst_units names the first unit in basis
    order that reaches it; for rule_max, the first in triple_rule_residual's
    pair order.  Each defect is normed in one pass: residual_full is the
    largest of the maxima over the pSp units, the corner units and the units
    E_ij with i < d <= j, which hold every unit.  The norms of b1, b2 and b
    come from one stacked SVD, which gives each its own bits.  A generator
    that is not n x n raises DimensionError.  The choices are checked once, by
    the _corner that gives the triple rule, which is computed once for the
    table's values and choices and then kept (see _corner), as value_scale is.
    """
    alg = table.alg
    tol = table.scaled_tol
    corner = _corner(table, artifacts.choices)
    if generator is not None:
        generator = _as_operator(alg, generator, "generator")

    rule_max, rule_unit = corner["rule"]
    d = corner["d"]
    ui, uj = alg.unit_index()
    # pSp, the corner and p S p-perp: every unit, each in one part
    parts = [np.flatnonzero(rows & cols) for rows, cols in ((ui < d, uj < d), (ui >= d, uj >= d), (ui < d, uj >= d))]
    defects = unit_defects(table, artifacts.b)
    maxima = []
    for part in parts:
        value, at, _ = _max_op_norm(defects[part])
        maxima.append((value, int(part[at])))
    (residual_pSp, at_pSp), (residual_corner, at_corner) = maxima[:2]
    # the first unit in basis order among the parts that reach the largest maximum
    residual_full, at_full = max(maxima, key=lambda m: (m[0], -m[1]))

    estimate = norms if norms is not None else norm_estimate(table, generator=generator)
    b1_norm, b2_norm, b_norm = np.linalg.svd(
        np.stack([_as_matrix(x) for x in (artifacts.b1, artifacts.b2, artifacts.b)]), compute_uv=False
    ).max(axis=1)
    norm_data = {
        "b1": float(b1_norm),
        "b2": float(b2_norm),
        "b": float(b_norm),
        "delta_lower": estimate.lower,
        "delta_upper": estimate.upper,
    }

    gauge = None
    if generator is not None:
        gauge = _difference_scalar_part(artifacts.b, generator)

    units = alg.basis_units()
    return VerificationReport(
        residual_pSp=residual_pSp,
        residual_corner=residual_corner,
        residual_full=residual_full,
        rule_max=rule_max,
        norms=norm_data,
        gauge=gauge,
        tol=tol,
        worst_units={
            "residual_pSp": tuple(units[at_pSp]),
            "residual_corner": tuple(units[at_corner]),
            "residual_full": tuple(units[at_full]),
            "rule_max": rule_unit,
        },
    )


def artifacts_to_json(artifacts: ConstructionArtifacts) -> dict:
    return {
        "k": int(artifacts.choices.k),
        "xi0": matrix_to_json(artifacts.choices.xi0.reshape(1, -1)),
        "eta1": matrix_to_json(artifacts.choices.eta1.reshape(1, -1)),
        "b1": matrix_to_json(artifacts.b1),
        "c1": matrix_to_json(artifacts.c1),
        "b2": matrix_to_json(artifacts.b2),
        "c2": matrix_to_json(artifacts.c2),
        "b": matrix_to_json(artifacts.b),
    }
