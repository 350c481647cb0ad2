"""Derivations on a nest algebra, stored as tables on the matrix-unit basis.

A derivation delta is determined by its values delta(E_ij) on the admissible
matrix units; evaluation on a general algebra element is by entrywise
linearity.  Evaluation outside the algebra is an error, never an
extrapolation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import MatrixUnit, NestAlgebra
from .linalg import (
    DimensionError,
    _as_matrix,
    matrix_from_json,
    matrix_to_json,
    op_norm,
)


# complex entries per batch of full residuals in validate
_CHUNK_ENTRIES = 1 << 20

# backstop on the cuts of distance_to_scalars: ~110 reach its gap at a smooth minimum, ~220 at a kink
_MAX_CUTS = 500


class EvaluationDomainError(ValueError):
    """Raised when a derivation is evaluated outside its algebra."""


def check_tol(tol: float) -> float:
    """tol itself if it is finite and > 0; a table tolerance must be both."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    return tol


@dataclass
class DerivationTable:
    """delta given by its values on the basis units of alg."""

    alg: NestAlgebra
    values: dict
    tol: float = 1e-9

    def __post_init__(self):
        n = self.alg.n
        check_tol(self.tol)
        keys = {tuple(k) for k in self.values}
        units = set(map(tuple, self.alg.basis_units()))
        if keys != units:
            raise ValueError(
                f"table entries must be the basis units of chain {self.alg.chain}: "
                f"missing {sorted(units - keys)[:4]}, not basis units {sorted(keys - units)[:4]}"
            )
        clean = {}
        for key, val in self.values.items():
            val = _as_matrix(val)
            if val.shape != (n, n):
                raise DimensionError(f"value for {key} has shape {val.shape}, expected {(n, n)}")
            if not np.all(np.isfinite(val)):
                raise ValueError(f"non-finite value for unit {key}")
            clean[MatrixUnit(*key)] = val
        self.values = clean

    def stacked(self) -> np.ndarray:
        """The values as one (units, n, n) array, units in basis order."""
        return np.stack([self.values[u] for u in self.alg.basis_units()])

    @property
    def value_scale(self) -> float:
        """1 + max operator norm over the table, the residual scale."""
        return 1.0 + float(np.linalg.norm(self.stacked(), 2, axis=(1, 2)).max())

    def to_json(self) -> dict:
        entries = [
            {"i": int(u.i), "j": int(u.j), "value": matrix_to_json(self.values[u])}
            for u in sorted(self.values)
        ]
        return {
            "algebra": {"n": self.alg.n, "chain": list(self.alg.chain)},
            "entries": entries,
            "tol": self.tol,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DerivationTable":
        """Inverse of to_json; malformed content raises KeyError or ValueError."""
        try:
            alg = NestAlgebra(int(obj["algebra"]["n"]), tuple(obj["algebra"]["chain"]))
            values = {}
            for e in obj["entries"]:
                key = (int(e["i"]), int(e["j"]))
                if key != (e["i"], e["j"]):
                    raise ValueError(f"non-integer unit index ({e['i']!r}, {e['j']!r})")
                if key in values:
                    raise ValueError(f"duplicate entry for unit {key}")
                values[key] = matrix_from_json(e["value"])
            tol = float(obj.get("tol", 1e-9))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed table: {exc}") from exc
        return cls(alg, values, tol=tol)


@dataclass
class ValidationReport:
    """Product-rule residuals: failing (u, v, residual) triples and the worst pair (u, v)."""

    max_residual: float
    failing_pairs: list = field(default_factory=list)
    tol: float = 1e-9
    worst_pair: tuple | None = None

    @property
    def ok(self) -> bool:
        return not self.failing_pairs


@dataclass
class NormEstimate:
    """Sampled lower bound and, for known inner generators, analytic upper bound."""

    lower: float
    upper: float | None = None


def unit_commutators(alg: NestAlgebra, x) -> np.ndarray:
    """[x, E_ij] = x E_ij - E_ij x for every basis unit, as one (units, n, n) array in basis order.

    x E_ij is column i of x placed in column j, and E_ij x is row j of x
    placed in row i.  Written in that order onto zeros, every entry is
    bit-identical to x @ E_ij - E_ij @ x.
    """
    x = _as_matrix(x)
    if x.shape != (alg.n, alg.n):
        raise DimensionError(f"operator must be {alg.n}x{alg.n}, got {x.shape}")
    ui, uj = np.array(alg.basis_units()).T
    rows = np.arange(len(ui))
    out = np.zeros((len(ui), alg.n, alg.n), dtype=complex)
    out[rows, :, uj] = x[:, ui].T
    out[rows, ui, :] -= x[uj, :]
    return out


def commutator_residuals(table: DerivationTable, x, p=None) -> np.ndarray:
    """op_norm(delta(E_ij) - [x, E_ij]) per basis unit, in basis order; times p on the right when given."""
    residual = table.stacked() - unit_commutators(table.alg, x)
    if p is not None:
        residual = residual @ p
    return np.linalg.norm(residual, 2, axis=(1, 2))


def inner_from(alg: NestAlgebra, c) -> DerivationTable:
    """The inner derivation d_c(a) = c a - a c, tabulated on the basis units."""
    return DerivationTable(alg, dict(zip(alg.basis_units(), unit_commutators(alg, c))))


def validate(table: DerivationTable) -> ValidationReport:
    """Check the product rule on every ordered pair of basis units.

    For units u = E_ij, v = E_kl: delta(u) v + u delta(v) must equal
    delta(E_il) when j == k and 0 otherwise, in the operator norm, to the
    table tolerance scaled by the magnitude of the stored values.

    When j != k the residual is x e_l^T + e_i y^T with x = delta(u)[:, k] and
    y = delta(v)[j, :], of rank at most two.  In the orthonormal pairs
    (e_i, x off entry i) and (e_l, y off entry l) it is the 2x2 matrix
    [[x_i + y_l, |y_perp|], [|x_perp|, 0]], so its norm is
    (hypot(|x_i + y_l|, a + b) + hypot(|x_i + y_l|, a - b)) / 2 with
    a = |x_perp| and b = |y_perp|.  With the off-row column norms and the
    off-column row norms of every table value computed once, each such pair
    costs O(1): O(n^4) in all.  The O(n^3) pairs with j == k are formed in
    full and normed by batched SVDs of n x n matrices.  No norm is taken of a
    Gram matrix, which would square the residual and turn an exact zero into
    rounding noise of order sqrt(eps).

    failing_pairs is in row-major pair order, units in basis order.
    """
    alg = table.alg
    n = alg.n
    units = alg.basis_units()
    scaled_tol = table.tol * table.value_scale
    ui, uj = np.array(units).T
    values = table.stacked()
    rows = np.arange(len(units))
    coords = np.arange(n)

    # off_row[u, k]: column k of delta(u) without row u.i; off_col[v, j]: row j of delta(v) without column v.j
    power = np.abs(values) ** 2
    off_row = np.sqrt(power.sum(axis=1, where=(coords != ui[:, None])[:, :, None]))
    off_col = np.sqrt(power.sum(axis=2, where=(coords != uj[:, None])[:, None, :]))
    del power
    corner = np.abs(values[rows, ui, :][:, ui] + values[rows, :, uj][:, uj].T)
    a, b = off_row[:, ui], off_col[:, uj].T
    residual = 0.5 * (np.hypot(corner, a + b) + np.hypot(corner, a - b))

    pu, pv = np.nonzero(uj[:, None] == ui[None, :])
    index = np.zeros((n, n), dtype=int)
    index[ui, uj] = rows
    pw = index[ui[pu], uj[pv]]
    step = max(1, _CHUNK_ENTRIES // (n * n))
    for start in range(0, len(pu), step):
        u, v, w = pu[start : start + step], pv[start : start + step], pw[start : start + step]
        batch = np.arange(len(u))
        lhs = np.zeros((len(u), n, n), dtype=complex)
        lhs[batch, :, uj[v]] = values[u, :, uj[u]]
        lhs[batch, ui[u], :] += values[v, ui[v], :]
        lhs -= values[w]
        residual[u, v] = np.linalg.norm(lhs, 2, axis=(1, 2))

    worst = np.unravel_index(np.argmax(residual), residual.shape)
    failing = [
        (tuple(units[r]), tuple(units[c]), float(residual[r, c]))
        for r, c in zip(*np.nonzero(residual > scaled_tol))
    ]
    return ValidationReport(
        max_residual=float(residual[worst]),
        failing_pairs=failing,
        tol=scaled_tol,
        worst_pair=(tuple(units[worst[0]]), tuple(units[worst[1]])),
    )


def evaluate(table: DerivationTable, a) -> np.ndarray:
    """delta(a) = sum over admissible units of a_ij * delta(E_ij).

    a must lie in the algebra (within the table tolerance).
    """
    a = _as_matrix(a)
    alg = table.alg
    if not alg.contains(a, tol=table.tol * max(1.0, op_norm(a))):
        raise EvaluationDomainError("derivation undefined outside S")
    out = np.zeros((alg.n, alg.n), dtype=complex)
    for u, value in table.values.items():
        coeff = a[u.i, u.j]
        if coeff != 0:
            out += coeff * value
    return out


def _random_algebra_element(alg: NestAlgebra, rng) -> np.ndarray:
    mask = alg.pattern_mask()
    a = rng.standard_normal((alg.n, alg.n)) + 1j * rng.standard_normal((alg.n, alg.n))
    a[~mask] = 0.0
    norm = op_norm(a)
    return a / norm if norm > 0 else a


def distance_to_scalars(c):
    """min over lam of op_norm(c - lam I), by a central-cut ellipsoid method on lam = x + iy.

    f(lam) = op_norm(c - lam I) is convex.  With (u, v) the top singular pair
    of c - lam I and z = -v^H u, g = (Re z, Im z) is a subgradient.  The first
    ellipse {x : (x - centre)^T P^-1 (x - centre) <= 1} is the disk of radius
    2 f(trace(c)/n) about trace(c)/n, which holds every minimizer by the
    triangle inequality, and a cut through the centre keeps them all.  So
    sqrt(g^T P g) bounds f(centre) - min f, and the loop stops once that gap
    is at most 1e-12 * max(1, f(centre)).  Returns (lam, distance): the best
    lam visited and op_norm(c - lam I), within that gap of the minimum.
    """
    c = _as_matrix(c)
    n = c.shape[0]
    eye = np.eye(n)
    lam = complex(np.trace(c) / n)
    best = op_norm(c - lam * eye)
    centre = np.array([lam.real, lam.imag])
    P = (2.0 * best) ** 2 * np.eye(2)
    for _ in range(_MAX_CUTS):
        u, s, vh = np.linalg.svd(c - complex(*centre) * eye)
        if s[0] < best:
            lam, best = complex(*centre), s[0]
        z = -vh[0] @ u[:, 0]
        g = np.array([z.real, z.imag])
        gpg = g @ P @ g
        if gpg <= (1e-12 * max(1.0, s[0])) ** 2:
            break
        pg = P @ g / np.sqrt(gpg)
        centre = centre - pg / 3.0
        P = 4.0 / 3.0 * (P - 2.0 / 3.0 * np.outer(pg, pg))
    return lam, op_norm(c - lam * eye)


def norm_estimate(table: DerivationTable, samples: int = 32, seed: int = 0, generator=None) -> NormEstimate:
    """Bounds on the derivation norm over the unit ball of the algebra.

    lower: best sampled op_norm(delta(a)) over unit-norm a in the algebra,
    refined by a short random local ascent.  upper (when the inner generator
    c is known): 2 * min over lam of op_norm(c - lam I), valid because the
    restricted norm is at most the norm of d_c on all of B(H), which is
    exactly that (Stampfli).  It is 2 op_norm(c - lam I) at the lam found by
    distance_to_scalars, so, to rounding, it is never below the norm of d_c
    on B(H) and exceeds it by at most the certified gap
    2e-12 * max(1, dist(c, C I)).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    alg = table.alg
    mask = alg.pattern_mask()

    best_a = None
    lower = 0.0
    for _ in range(samples):
        a = _random_algebra_element(alg, rng)
        val = op_norm(evaluate(table, a))
        if val > lower:
            lower, best_a = val, a

    if best_a is not None:
        step = 0.5
        for _ in range(40):
            perturb = rng.standard_normal((alg.n, alg.n)) + 1j * rng.standard_normal((alg.n, alg.n))
            perturb[~mask] = 0.0
            cand = best_a + step * perturb
            norm = op_norm(cand)
            if norm == 0:
                continue
            cand = cand / norm
            val = op_norm(evaluate(table, cand))
            if val > lower:
                lower, best_a = val, cand
            else:
                step *= 0.8

    upper = None
    if generator is not None:
        _, dist = distance_to_scalars(_as_matrix(generator))
        upper = 2.0 * dist
    return NormEstimate(lower=lower, upper=upper)
