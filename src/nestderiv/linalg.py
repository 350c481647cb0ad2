"""Dense complex matrix helpers: rank-one maps, operator norms, scalar part, JSON codec.

The inner product <.,.> is linear in the first slot and conjugate-linear in the
second, so the rank-one map xi (x) eta sends zeta to <zeta, xi> eta and has
matrix eta * xi^H.
"""

import itertools
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
    """Operator 2-norm (largest singular value), by an SVD without singular vectors.

    The same singular values np.linalg.norm(a, 2) takes the maximum of,
    without its axis bookkeeping, which costs as much as the SVD at small n.
    """
    a = _as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).max())


# the least floor and threshold whose decisive squares keep full precision
_EXACT_POWER = 2.0**-400


def _exact_scale(moduli) -> float:
    """The power of two to divide an array by before a closed-form sum of its squares, from the array's moduli.

    1.0 when the largest finite modulus is 0 or lies in [_EXACT_POWER,
    1 / _EXACT_POWER]; otherwise the largest power of two at most it, which
    brings it into [1, 2) (2^1024 is not a float).  Division by it, and
    multiplication back, are exact in the normal range.
    """
    top = float(moduli.max(initial=0.0))
    if not math.isfinite(top):
        top = float(moduli.max(initial=0.0, where=np.isfinite(moduli)))
    if top == 0 or _EXACT_POWER <= top <= 1 / _EXACT_POWER:
        return 1.0
    return math.ldexp(1.0, math.frexp(top)[1] - 1)


def _max_op_norm(stack, threshold: float = math.inf) -> tuple:
    """(maximum, first argmax, norms) of the operator norms of a (count, n, n) stack.

    An operator norm is at most the Frobenius norm F and at least the norm of
    each row and column, so floor, the largest row or column norm in the
    stack, is at most the maximum.  One batched SVD norms every entry whose
    F * (1 + 1e-10), the factor covering rounding, exceeds floor or threshold.
    Every other entry has a smaller norm than the maximum, or a zero one, so
    the maximum and its first index are those of the whole stack, to the bit.
    norms holds the operator norm of every entry normed and 0.0 for the
    others, each of whose norms is at most threshold and below the maximum, or
    zero.  An empty stack gives (0.0, None, an empty norms).

    The squares |x|^2 take one float array half the stack's size.  They
    decide nothing when an entry past about 1e154 squares to inf, a NaN makes floor
    NaN, or floor or threshold lies below _EXACT_POWER, where squares of the
    entries that matter could underflow: then every entry that is not exactly
    zero is normed, as an unpruned norm would, but an entry with an infinite
    part gets the norm inf without an SVD, and a NaN entry raises
    np.linalg.LinAlgError as it does there.  The squares only prune, so such
    a stack costs SVDs, never a wrong result, and is not scaled by
    _exact_scale as closed-form sums are: that would add a reduction per call.
    """
    norms = np.zeros(len(stack))
    if not len(stack):
        return 0.0, None, norms
    with np.errstate(over="ignore"):
        power = np.abs(stack)
        power *= power
        rows, cols = power.sum(axis=2), power.sum(axis=1)
        frobenius = np.sqrt(rows.sum(axis=1))
    floor = math.sqrt(max(rows.max(), cols.max()))
    bound = min(floor, threshold)
    if math.isfinite(floor) and bound >= _EXACT_POWER:
        normed = np.flatnonzero(frobenius * (1 + 1e-10) > bound)
    else:
        infinite = np.isinf(stack).any(axis=(1, 2))
        norms[infinite] = math.inf
        normed = np.flatnonzero(stack.reshape(len(stack), -1).any(axis=1) & ~infinite)
    if len(normed):
        # the singular values whose maximum is np.linalg.norm(stack, 2, axis=(1, 2))
        norms[normed] = np.linalg.svd(stack[normed], compute_uv=False).max(axis=1)
    index = int(np.argmax(norms))
    return float(norms[index]), index, norms


def scalar_identity_part(a):
    """Split a square matrix, or each of an (m, n, n) stack, into its trace-centred scalar part plus remainder.

    Returns (lam, residual) with lam = trace(a)/n and
    residual = op_norm(a - lam*I), which is zero if and only if a is scalar:
    a complex and a float for one matrix, two arrays of length m for a stack.
    Scalar-ness is the caller's call via residual <= tol.  lam need not
    minimize op_norm(a - lam*I); derivation.distance_to_scalars finds that
    minimum.  A matrix whose trace or a - lam*I overflows is divided by
    _exact_scale's power of two and the results multiplied back, so its
    residual may be inf, and a stack that holds one is split matrix by matrix.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1] or a.shape[-1] == 0:
        raise DimensionError(f"scalar_identity_part requires a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.trace(a, axis1=-2, axis2=-1) / n
        shifted = a - lam[..., None, None] * np.eye(n)
    if not np.isfinite(shifted).all():
        if a.ndim == 3:
            lam, residual = zip(*map(scalar_identity_part, a))
            return np.array(lam), np.array(residual)
        scale = _exact_scale(np.abs(a))
        if scale != 1.0:
            lam, residual = scalar_identity_part(a / scale)
            return lam * scale, residual * scale
    residual = np.linalg.svd(shifted, compute_uv=False).max(axis=-1)
    if a.ndim == 2:
        return complex(lam), float(residual)
    return lam, residual


def _difference_scalar_part(b, c):
    """scalar_identity_part(b - c), taken of b and c divided by _exact_scale's power of two when b - c overflows.

    A finite b - c is split as it is, to the bit.  Otherwise the parts of lam
    and the residual of the scaled difference are multiplied back, so a
    difference past the float range still gets its scalar part, and the
    residual is inf only when it is past the range itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        difference = b - c
    if np.isfinite(difference).all():
        return scalar_identity_part(difference)
    scale = _exact_scale(np.abs(np.stack([b, c])))
    lam, residual = scalar_identity_part(b / scale - c / scale)
    return complex(lam.real * scale, lam.imag * scale), residual * scale


def matrix_to_json(a) -> dict:
    """Row-major JSON encoding {"rows", "cols", "data": [[re, im], ...]}."""
    a = np.ascontiguousarray(_as_matrix(a))
    # one tolist() of the interleaved parts gives the Python floats float(z.real), float(z.imag) give, -0.0 included
    data = a.view(float).reshape(-1, 2).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def _is_number_type(kind: type) -> bool:
    """Whether kind is a type a JSON number decodes to, int or float; bool is an int to Python, not to JSON."""
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _json_number(x, what: str):
    """x when it is a JSON number; ValueError naming what for a bool, a string or any other value."""
    if not _is_number_type(type(x)):
        raise ValueError(f"{what} must be a number, got {x!r}")
    return x


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of matrix_to_json; rejects dimensions that are not non-negative integers and entries not finite numbers.

    data that is not a list of lists raises TypeError; a wrong count
    DimensionError; a list that is not a pair, a part that is not a JSON
    number (a bool or a string) or a non-finite part ValueError; an integer
    part beyond the float range OverflowError.
    """
    rows, cols = obj["rows"], obj["cols"]
    for d in (rows, cols):
        if not _is_number_type(type(d)) or not math.isfinite(d) or int(d) != d or d < 0:
            raise ValueError(f"matrix dimensions must be non-negative integers, got {rows!r} x {cols!r}")
    rows, cols = int(rows), int(cols)
    data = obj["data"]
    if not isinstance(data, list):
        raise TypeError(f"matrix data must be a list of [re, im] pairs, got {type(data).__name__}")
    if len(data) != rows * cols:
        raise DimensionError(f"expected {rows * cols} entries, got {len(data)}")
    # the pairs' types and lengths, then their parts' types, each in one C-level pass; np.fromiter would read
    # true and false as 1 and 0
    kinds = set(map(type, data))
    if not kinds <= {list}:
        raise TypeError(f"matrix entries must be pairs of numbers, got entries of type {sorted(k.__name__ for k in kinds)}")
    lengths = set(map(len, data))
    if not lengths <= {2}:
        raise ValueError(f"matrix entries must be pairs of numbers, got lists of length {sorted(lengths)}")
    parts = list(itertools.chain.from_iterable(data))
    kinds = set(map(type, parts))
    if not all(map(_is_number_type, kinds)):
        raise ValueError(f"matrix entries must be pairs of numbers, got parts of type {sorted(k.__name__ for k in kinds)}")
    flat = np.fromiter(parts, dtype=float, count=len(parts))
    if not np.isfinite(flat).all():
        raise ValueError("non-finite matrix entry")
    return flat.view(complex).reshape(rows, cols)
