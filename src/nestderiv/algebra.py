"""Finite-dimensional nest/triangular algebra models.

A NestAlgebra is the block upper-triangular algebra determined by a strictly
increasing chain of invariant-subspace dimensions d_1 < ... < d_m = n.  The
chain (1, 2, ..., n) gives the full upper-triangular algebra, the finite
model of a maximal triangular algebra with maximal-abelian diagonal.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import DimensionError, _as_matrix, basis_vector, rank_one, scalar_identity_part


class MatrixUnit(NamedTuple):
    """Indices (i, j) of the matrix unit E_ij, 0-based."""

    i: int
    j: int


@dataclass(frozen=True)
class NestAlgebra:
    """Block upper-triangular algebra of dimension n with invariant chain."""

    n: int
    chain: tuple

    def __post_init__(self):
        chain = tuple(int(d) for d in self.chain)
        object.__setattr__(self, "chain", chain)
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not chain:
            raise ValueError("chain must be non-empty")
        if any(d2 <= d1 for d1, d2 in zip(chain, chain[1:])):
            raise ValueError(f"chain must be strictly increasing, got {chain}")
        if chain[0] < 1 or chain[-1] != self.n:
            raise ValueError(f"chain must lie in 1..n and end at n, got {chain}")

    @classmethod
    def triangular(cls, n: int) -> "NestAlgebra":
        """The full upper-triangular algebra T_n, chain (1, ..., n)."""
        return cls(n, tuple(range(1, n + 1)))

    @property
    def is_maximal_triangular(self) -> bool:
        return self.chain == tuple(range(1, self.n + 1))

    @property
    def num_levels(self) -> int:
        return len(self.chain)

    @property
    def interior_levels(self) -> list:
        """1-based chain indices k of the interior projections (d_k < n): all but the last."""
        return list(range(1, self.num_levels))

    def block_of(self, r: int) -> int:
        """1-based index of the least chain segment containing coordinate r."""
        if not 0 <= r < self.n:
            raise IndexError(f"coordinate {r} out of range 0..{self.n - 1}")
        for k, d in enumerate(self.chain, start=1):
            if r < d:
                return k
        raise AssertionError("unreachable: chain ends at n")

    def pattern_mask(self) -> np.ndarray:
        """Boolean n x n mask of admissible (i, j) positions."""
        blocks = np.array([self.block_of(r) for r in range(self.n)])
        return blocks[:, None] <= blocks[None, :]

    def contains(self, a, tol: float = 1e-12) -> bool:
        """Whether every entry below the block pattern has modulus <= tol."""
        a = _as_matrix(a)
        if a.shape != (self.n, self.n):
            raise DimensionError(f"expected {self.n}x{self.n}, got {a.shape}")
        return bool(np.all(np.abs(a[~self.pattern_mask()]) <= tol))

    def lattice_projection(self, k: int) -> np.ndarray:
        """Diagonal 0/1 projection onto the first d_k coordinates (k 1-based)."""
        if not 1 <= k <= len(self.chain):
            raise IndexError(f"chain index {k} out of range 1..{len(self.chain)}")
        p = np.zeros((self.n, self.n), dtype=complex)
        d = self.chain[k - 1]
        p[np.arange(d), np.arange(d)] = 1.0
        return p

    def basis_units(self) -> list:
        """All admissible matrix units in lexicographic order."""
        mask = self.pattern_mask()
        return [MatrixUnit(i, j) for i in range(self.n) for j in range(self.n) if mask[i, j]]

    def unit_matrix(self, u: MatrixUnit) -> np.ndarray:
        e = np.zeros((self.n, self.n), dtype=complex)
        e[u.i, u.j] = 1.0
        return e


@dataclass
class StructureReport:
    """Outcome of the randomized structural checks."""

    trials: int
    assertions: int = 0
    failures: list = field(default_factory=list)
    commutant_nullity: int = -1

    @property
    def ok(self) -> bool:
        return not self.failures and self.commutant_nullity == 1

    def record(self, passed: bool, label: str):
        self.assertions += 1
        if not passed:
            self.failures.append(label)


def _commutant_nullity(alg: NestAlgebra, tol: float):
    """Numerical commutant {x : [x, u] = 0 for all basis units u}.

    Returns (nullity, residual) where residual measures how far the extracted
    null-space element is from a scalar multiple of I.  The system has
    (units * n^2) >= n^2 rows, so the thin SVD gives all n^2 singular values
    and right singular vectors; the left ones are never formed.
    """
    n = alg.n
    ui, uj = np.array(alg.basis_units()).T
    units = np.arange(len(ui))[:, None]
    coords = np.arange(n)[None, :]
    # system[u, s, r, q, p] is the coefficient of x[p, q] in entry (r, s) of x E_ij - E_ij x for u = E_ij,
    # so the reshape maps column-major vec(x) to the column-major vec(x E_ij - E_ij x) stacked over u.
    # x E_ij is column i of x in column j, E_ij x is row j of x in row i; both hit x[i, i] at (i, i) when i == j
    system = np.zeros((len(ui), n, n, n, n), dtype=complex)
    system[units, uj[:, None], coords, ui[:, None], coords] = 1.0
    system[units, coords, ui[:, None], coords, uj[:, None]] -= 1.0
    _, s, vh = np.linalg.svd(system.reshape(len(ui) * n * n, n * n), full_matrices=False)
    scale = max(1.0, float(s[0]))
    nullity = int(np.sum(s <= tol * scale))
    x = vh[-1].reshape(n, n, order="F")
    _, residual = scalar_identity_part(x)
    return nullity, residual


def check_structure(alg: NestAlgebra, trials: int = 50, seed: int = 0, tol: float = 1e-10) -> StructureReport:
    """Randomized verification of the basic structural facts.

    For random chain projections p and random matrices m: p m p^perp lies in
    the algebra; for each unit vector eta in p the rank-one map xi0 (x) eta is
    in the algebra and carries xi0 to eta (so the orbit of xi0 covers range p);
    and the commutant is trivial (only scalars commute with every basis unit).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    report = StructureReport(trials=trials)
    n = alg.n
    interior = alg.interior_levels

    for t in range(trials):
        if not interior:
            break
        k = int(rng.choice(interior))
        p = alg.lattice_projection(k)
        pperp = np.eye(n) - p
        d = alg.chain[k - 1]

        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        report.record(alg.contains(p @ m @ pperp), f"trial {t}: p m pperp not in algebra (k={k})")

        xi0 = basis_vector(n, d + int(rng.integers(n - d)))
        for i in range(d):
            eta = basis_vector(n, i)
            a = rank_one(xi0, eta)
            ok = alg.contains(a) and np.allclose(a @ xi0, eta, atol=1e-14)
            report.record(ok, f"trial {t}: orbit of xi0 misses basis vector {i} of p")

    nullity, residual = _commutant_nullity(alg, tol)
    report.commutant_nullity = nullity
    report.record(nullity == 1, f"commutant nullity {nullity} != 1")
    report.record(residual <= 1e-8, f"commutant element not scalar (residual {residual:.2e})")
    return report
