"""Finite-dimensional nest/triangular algebra models.

A NestAlgebra is the block upper-triangular algebra determined by a strictly
increasing chain of invariant-subspace dimensions d_1 < ... < d_m = n.  The
chain (1, 2, ..., n) gives the full upper-triangular algebra, the finite
model of a maximal triangular algebra with maximal-abelian diagonal.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import DimensionError, _as_matrix, scalar_identity_part

# random trials check_structure draws
_TRIALS = 50


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
        for d in (self.n, *self.chain):
            if not math.isfinite(d) or int(d) != d:
                raise ValueError(f"dimension and chain entries must be integers, got n={self.n!r}, chain={self.chain!r}")
        chain = tuple(int(d) for d in self.chain)
        object.__setattr__(self, "n", int(self.n))
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
        """Boolean n x n mask of admissible (i, j) positions, read-only and built once per chain."""
        return _pattern_mask(self)

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

    @property
    def unit_count(self) -> int:
        """The number of basis units, sum over k of (d_k - d_{k-1})(n - d_{k-1}), without building the basis."""
        return sum((d - below) * (self.n - below) for below, d in zip((0, *self.chain), self.chain))

    def basis_units(self) -> list:
        """All admissible matrix units in lexicographic order, as a new list."""
        return list(_basis(self)[0])

    def unit_index(self) -> tuple:
        """(ui, uj): row and column indices of the basis units in basis order, read-only and built once per chain."""
        return _basis(self)[1]

    def unit_rows(self) -> np.ndarray:
        """n x n array: the basis-order row of unit (i, j), -1 outside the pattern; read-only and built once per chain."""
        return _basis(self)[2]

    def unit_matrix(self, u: MatrixUnit) -> np.ndarray:
        e = np.zeros((self.n, self.n), dtype=complex)
        e[u.i, u.j] = 1.0
        return e


@functools.lru_cache(maxsize=256)
def _pattern_mask(alg: NestAlgebra) -> np.ndarray:
    blocks = np.array([alg.block_of(r) for r in range(alg.n)])
    mask = blocks[:, None] <= blocks[None, :]
    mask.setflags(write=False)
    return mask


@functools.lru_cache(maxsize=256)
def _basis(alg: NestAlgebra) -> tuple:
    """The basis units as a tuple, their read-only (ui, uj) index arrays and the read-only (i, j) -> row map."""
    ui, uj = np.nonzero(alg.pattern_mask())
    rows = np.full((alg.n, alg.n), -1)
    rows[ui, uj] = np.arange(len(ui))
    for a in (ui, uj, rows):
        a.setflags(write=False)
    return tuple(MatrixUnit(i, j) for i, j in zip(ui.tolist(), uj.tolist())), (ui, uj), rows


@dataclass
class StructureReport:
    """Outcome of the randomized structural checks."""

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


def _commutant_blocks(alg: NestAlgebra) -> tuple:
    """The two diagonal blocks of the Gram matrix G = A^T A of the commutator system A vec(x) = (vec(x E_u - E_u x))_u.

    For u = E_ij the entry (r, j) of x E_ij - E_ij x is x[r, i] for r != i,
    the entry (i, s) is -x[j, s] for s != j, and the entry (i, j) is
    x[i, i] - x[j, j].  Each row of A therefore adds 1 to the diagonal of G
    at x[r, i] (r != i) or at x[j, s] (s != j), and for i != j the pair
    (x[i, i], x[j, j]) gets [[1, -1], [-1, 1]].  No row couples an
    off-diagonal coordinate with another coordinate, so G is block-diagonal:
    a diagonal on the n^2 - n coordinates x[p, q], p != q, and on the n
    coordinates x[p, p] the Laplacian of the multigraph with an edge per unit
    E_ij, i != j.  Every entry of A is 0 or +-1, so both blocks are exact
    integers.

    Returns (weights, laplacian): G's diagonal as an n x n array, entry
    (p, q) at coordinate x[p, q], and the n x n Laplacian block.
    """
    n = alg.n
    ui, uj = alg.unit_index()
    # x[p, q] with p != q: one row per unit E_qj (entry (p, j)) and per unit E_ip (entry (i, q))
    weights = np.bincount(ui, minlength=n)[None, :] + np.bincount(uj, minlength=n)[:, None]
    off = ui != uj
    laplacian = np.zeros((n, n))
    np.add.at(laplacian, (ui[off], uj[off]), -1.0)
    np.add.at(laplacian, (uj[off], ui[off]), -1.0)
    degree = np.bincount(ui[off], minlength=n) + np.bincount(uj[off], minlength=n)
    laplacian[np.diag_indices(n)] = degree
    np.fill_diagonal(weights, degree)
    return weights, laplacian


def _commutant_nullity(alg: NestAlgebra):
    """Numerical commutant {x : [x, u] = 0 for all basis units u}.

    Returns (nullity, residual) where nullity is the dimension of the null
    space of the commutator system, read off the two diagonal blocks of its
    Gram matrix G (_commutant_blocks), and residual measures how far the
    eigenvector of G's smallest eigenvalue is from a scalar multiple of I.

    The nullity counts eigenvalues of G below 1: the off-diagonal weights
    below 1 plus the eigenvalues below 1 of the Laplacian, from one eigh of an
    n x n matrix, so O(n^3) time and O(n^2) memory; G itself is never formed.
    G is an integer PSD matrix.  Each off-diagonal weight is >= 2, from the
    diagonal units E_pp and E_qq.  The Laplacian is that of a multigraph that
    contains K_n, since every i < j is admissible, so its nonzero eigenvalues
    are >= n.  Every nonzero eigenvalue of G is thus >= 2 (n >= 2), while
    eigh returns the zero ones at about 1e-14.  For the same reason the
    smallest eigenvalue of G is the Laplacian's, and its eigenvector v is the
    null vector diag(v) in matrix form.
    """
    n = alg.n
    weights, laplacian = _commutant_blocks(alg)
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    nullity = int(np.sum(weights[~np.eye(n, dtype=bool)] < 1)) + int(np.sum(eigenvalues < 1.0))
    _, residual = scalar_identity_part(np.diag(eigenvectors[:, 0]))
    return nullity, residual


def check_structure(alg: NestAlgebra, seed: int = 0) -> StructureReport:
    """Randomized verification of the basic structural facts.

    For random chain projections p and random matrices m: p m p^perp lies in
    the algebra; for each unit vector eta in p the rank-one map xi0 (x) eta is
    in the algebra and carries xi0 to eta (so the orbit of xi0 covers range p);
    and the commutant is trivial (only scalars commute with every basis unit).

    Each of the _TRIALS trials draws, in this stream order, its chain level k,
    the real and imaginary parts of m and the index of xi0.  No matrix is
    built for a trial: p is the 0/1 diagonal on the first d = d_k coordinates,
    so p m p^perp is m's block [:d, d:] with zeros elsewhere, to the bit, and
    lies in the algebra when that block's entries below the pattern have
    modulus <= 1e-12.  xi0 = e_x and eta = e_i are basis vectors, so
    xi0 (x) eta is the matrix unit E_ix: it lies in the algebra exactly when
    pattern_mask[i, x] holds, and it carries e_x to e_i by definition.
    Failures are listed in trial order.
    """
    rng = np.random.default_rng(seed)
    report = StructureReport()
    n = alg.n
    interior = alg.interior_levels
    mask = alg.pattern_mask()
    for t in range(_TRIALS if interior else 0):
        k = interior[int(rng.integers(len(interior)))]
        d = alg.chain[k - 1]
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = d + int(rng.integers(n - d))
        corner = m[:d, d:][~mask[:d, d:]]
        report.record(np.all(np.abs(corner) <= 1e-12), f"trial {t}: p m pperp not in algebra (k={k})")
        report.assertions += d
        for i in np.flatnonzero(~mask[:d, x]).tolist():
            report.failures.append(f"trial {t}: orbit of xi0 misses basis vector {i} of p")

    nullity, residual = _commutant_nullity(alg)
    report.commutant_nullity = nullity
    report.record(nullity == 1, f"commutant nullity {nullity} != 1")
    report.record(residual <= 1e-8, f"commutant element not scalar (residual {residual:.2e})")
    return report
