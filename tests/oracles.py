"""Independent recomputation of the constructed operators for inner tables.

Everything here expands the commutator d_c(E_ij) = c E_ij - E_ij c entrywise
from the definition and assembles the expected operators directly from their
defining formulas, without calling the package's evaluation or construction
paths.  Inputs are small integer matrices so the arithmetic is exact.
"""

import itertools

import numpy as np


def oracle_delta(c, i, j):
    """d_c(E_ij) by direct entry placement: column i of c minus row j of c."""
    n = c.shape[0]
    out = np.zeros((n, n), dtype=complex)
    out[:, j] += c[:, i]
    out[i, :] -= c[j, :]
    return out


def oracle_b1(c, d, x0):
    """Column i (< d) is d_c(E_{i,x0}) applied to the basis vector x0."""
    n = c.shape[0]
    b1 = np.zeros((n, n), dtype=complex)
    for i in range(d):
        b1[:, i] = oracle_delta(c, i, x0)[:, x0]
    return b1


def oracle_c1(c, d):
    """-p d_c(p) pperp with p the projection onto the first d coordinates."""
    n = c.shape[0]
    dp = np.zeros((n, n), dtype=complex)
    for i in range(d):
        dp += oracle_delta(c, i, i)
    out = -dp.copy()
    out[d:, :] = 0
    out[:, :d] = 0
    return out


def oracle_c2(c, d, x0, h1):
    """Row block at each basis vector of pperp from the corner correction formula.

    With q_a = E_{h1,a} as a rank-one map, q_a* X places row h1 of X at row a,
    and q1* q_a = E_{x0,a}; the two terms reduce to row arithmetic.
    """
    n = c.shape[0]
    c2 = np.zeros((n, n), dtype=complex)
    dq1 = oracle_delta(c, h1, x0)
    for a in range(d, n):
        dqa = oracle_delta(c, h1, a)
        row = -dqa[h1, :].copy()
        row[:d] = 0
        row[a] += dq1[h1, x0]
        c2[a, :] = row
    return c2


def oracle_triple_rule(c, d, x0, h1, alpha, i):
    """Residual of the triple product rule for q = E_{i,alpha}, exact arithmetic."""
    n = c.shape[0]

    def e(r, s):
        m = np.zeros((n, n), dtype=complex)
        m[r, s] = 1.0
        return m

    q = e(i, alpha)
    q_a = e(h1, alpha)
    q1 = e(h1, x0)
    lhs = oracle_delta(c, i, alpha)
    rhs = (
        oracle_delta(c, i, x0) @ q1.conj().T @ q_a
        + q @ q_a.conj().T @ oracle_delta(c, h1, alpha)
        - q @ q_a.conj().T @ oracle_delta(c, h1, x0) @ q1.conj().T @ q_a
    )
    return np.linalg.norm(lhs - rhs, 2)


def oracle_validate(table):
    """Product-rule check one pair at a time, one SVD per ordered pair of units.

    Returns (residuals, failing): residuals maps every (u, v) to the operator
    norm of delta(u) v + u delta(v) - [j == k] delta(E_il), in loop order over
    units in basis order; failing lists the (u, v, residual) triples above
    table.tol * (1 + max operator norm of a table value), in the same order.
    """
    alg = table.alg
    n = alg.n
    units = alg.basis_units()
    scale = 1.0 + max(np.linalg.norm(v, 2) for v in table.values.values())

    def e(r, s):
        m = np.zeros((n, n), dtype=complex)
        m[r, s] = 1.0
        return m

    residuals = {}
    for u in units:
        du = table.values[u]
        for v in units:
            lhs = du @ e(v.i, v.j) + e(u.i, u.j) @ table.values[v]
            if u.j == v.i:
                lhs = lhs - table.values[(u.i, v.j)]
            residuals[(tuple(u), tuple(v))] = float(np.linalg.norm(lhs, 2))
    failing = [(u, v, r) for (u, v), r in residuals.items() if r > table.tol * scale]
    return residuals, failing


def oracle_commutator_residuals(table, b, p=None):
    """op_norm(delta(E_ij) - (b E_ij - E_ij b)), times p on the right when given, one unit at a time.

    Returns the per-unit residuals as a list in basis order.
    """
    alg = table.alg
    residuals = []
    for u in alg.basis_units():
        e = np.zeros((alg.n, alg.n), dtype=complex)
        e[u.i, u.j] = 1.0
        residual = table.values[u] - (b @ e - e @ b)
        if p is not None:
            residual = residual @ p
        residuals.append(float(np.linalg.norm(residual, 2)))
    return residuals


def golden_min(f, lo, hi, tol):
    """Golden-section minimizer of a unimodal f on [lo, hi]; returns argmin."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 > f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def oracle_distance_to_scalars(c):
    """min over lam = x + iy of op_norm(c - lam I), by nested golden-section search.

    f(x, y) is convex, so g(x) = min_y f(x, y) is convex too: the outer search
    minimizes g over x, each g(x) an inner search over y.  Both run on the
    square of half-width 2 f(trace(c)/n) about trace(c)/n, which holds the
    minimizer.  Returns the value of f at the point found, an upper bound on
    the minimum within about 1e-10 * max(1, minimum) of it, f being
    1-Lipschitz in lam.
    """
    n = c.shape[0]
    eye = np.eye(n)
    centre = complex(np.trace(c) / n)
    radius = 2.0 * np.linalg.norm(c - centre * eye, 2)
    tol = 1e-11 * max(1.0, radius)

    def f(x, y):
        return np.linalg.norm(c - complex(x, y) * eye, 2)

    def inner(x):
        return golden_min(lambda y: f(x, y), centre.imag - radius, centre.imag + radius, tol)

    x = golden_min(lambda x: f(x, inner(x)), centre.real - radius, centre.real + radius, tol)
    return f(x, inner(x))


def oracle_enclosing_disk_radius(points):
    """Radius of the smallest disk holding the complex points, by brute force.

    The smallest disk has two points on a diameter or three on its boundary,
    so it is the smallest of those candidate disks that holds every point.
    """
    points = np.asarray(points, dtype=complex)
    if len(points) == 1:
        return 0.0
    candidates = [((a + b) / 2, abs(a - b) / 2) for a, b in itertools.combinations(points, 2)]
    for a, b, c in itertools.combinations(points, 3):
        # circumcentre of a, b, c, from |z - a| = |z - b| = |z - c|
        d = 2 * (a.real * (b.imag - c.imag) + b.real * (c.imag - a.imag) + c.real * (a.imag - b.imag))
        if d == 0:
            continue
        z = -1j * (abs(a) ** 2 * (b - c) + abs(b) ** 2 * (c - a) + abs(c) ** 2 * (a - b)) / d
        candidates.append((z, abs(z - a)))
    return min(r for z, r in candidates if np.all(np.abs(points - z) <= r * (1 + 1e-12) + 1e-15))


def oracle_commutant_nullity(alg, tol):
    """(nullity, scalar residual) of the commutant from the Kronecker system built one unit at a time.

    The rows of unit E are e^T kron I - I kron e, the map vec(x) -> vec(x e - e x)
    in column-major vec; the system is stacked in basis order and solved as in
    algebra._commutant_nullity.
    """
    n = alg.n
    eye = np.eye(n)
    rows = []
    for u in alg.basis_units():
        e = alg.unit_matrix(u)
        rows.append(np.kron(e.T, eye) - np.kron(eye, e))
    _, s, vh = np.linalg.svd(np.vstack(rows), full_matrices=False)
    nullity = int(np.sum(s <= tol * max(1.0, float(s[0]))))
    x = vh[-1].reshape(n, n, order="F")
    return nullity, float(np.linalg.norm(x - np.trace(x) / n * eye, 2))
