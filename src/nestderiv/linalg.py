"""Dense complex matrix helpers: rank-one maps, operator norm, scalar part, JSON codec.

The inner product <.,.> is linear in the first slot and conjugate-linear in the
second, so the rank-one map xi (x) eta sends zeta to <zeta, xi> eta and has
matrix eta * xi^H.
"""

import math

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


def _as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise DimensionError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def rank_one(xi, eta) -> np.ndarray:
    """Matrix of the rank-one operator zeta -> <zeta, xi> eta, i.e. eta * xi^H."""
    xi = _as_vector(xi)
    eta = _as_vector(eta)
    if xi.shape != eta.shape:
        raise DimensionError(f"vector lengths differ: {xi.size} vs {eta.size}")
    return np.outer(eta, xi.conj())


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


def basis_vector(n: int, i: int) -> np.ndarray:
    """The i-th standard basis vector of C^n (0-based)."""
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def op_norm(a) -> float:
    """Operator 2-norm (largest singular value), by a full SVD."""
    a = _as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def scalar_identity_part(a):
    """Split a square matrix into its trace-centred scalar part plus remainder.

    Returns (lam, residual) with lam = trace(a)/n and
    residual = op_norm(a - lam*I), which is zero if and only if a is scalar.
    Scalar-ness is the caller's call via residual <= tol.  lam need not
    minimize op_norm(a - lam*I); derivation.distance_to_scalars finds that
    minimum.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("scalar_identity_part requires a square matrix")
    n = a.shape[0]
    lam = complex(np.trace(a) / n)
    residual = op_norm(a - lam * np.eye(n))
    return lam, residual


def matrix_to_json(a) -> dict:
    """Row-major JSON encoding {"rows", "cols", "data": [[re, im], ...]}."""
    a = _as_matrix(a)
    data = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_json; rejects dimensions that are not non-negative integers and non-finite entries."""
    rows, cols = obj["rows"], obj["cols"]
    for d in (rows, cols):
        if not math.isfinite(d) or int(d) != d or d < 0:
            raise ValueError(f"matrix dimensions must be non-negative integers, got {rows!r} x {cols!r}")
    rows, cols = int(rows), int(cols)
    data = obj["data"]
    if len(data) != rows * cols:
        raise DimensionError(f"expected {rows * cols} entries, got {len(data)}")
    flat = np.array([complex(re, im) for re, im in data])
    if not np.all(np.isfinite(flat)):
        raise ValueError("non-finite matrix entry")
    return flat.reshape(rows, cols)
