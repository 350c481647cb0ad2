"""Independent recomputation of the constructed operators for inner tables.

Everything here expands the commutator d_c(E_ij) = c E_ij - E_ij c entrywise
from the definition and assembles the expected operators directly from their
defining formulas, without calling the package's evaluation or construction
paths.  Inputs are small integer matrices so the arithmetic is exact.

The later oracles are the package's earlier one-element-at-a-time loops
(validation, evaluation, norm estimate, construction, chain scalars,
structure check), kept as references for the batched paths; the
construction loops call ``evaluate`` as they did.
"""

import itertools

import numpy as np

from nestderiv.algebra import StructureReport
from nestderiv.linalg import basis_vector, rank_one


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


def oracle_commutant_system(alg):
    """The Kronecker commutator system, built one unit at a time.

    The rows of unit E are e^T kron I - I kron e, the map vec(x) -> vec(x e - e x)
    in column-major vec; the rows are stacked in basis order.
    """
    eye = np.eye(alg.n)
    return np.vstack([np.kron(e.T, eye) - np.kron(eye, e) for e in map(alg.unit_matrix, alg.basis_units())])


def oracle_commutant_gram(alg):
    """Gram matrix G = A^T A of the commutator system A vec(x) = (vec(x E_u - E_u x))_u, dense n^2 x n^2.

    vec is column-major, so x[p, q] is coordinate p + q n.  For u = E_ij the
    entry (r, j) of x E_ij - E_ij x is x[r, i] for r != i, the entry (i, s) is
    -x[j, s] for s != j, and the entry (i, j) is x[i, i] - x[j, j].  Each row
    of A therefore adds 1 to the diagonal of G at x[r, i] (r != i) or at
    x[j, s] (s != j), and for i != j the pair (x[i, i], x[j, j]) gets
    [[1, -1], [-1, 1]].  Every entry of A is 0 or +-1, so G is an exact
    integer matrix; it is assembled from index arithmetic, the package's
    earlier route before it kept only G's two diagonal blocks.
    """
    n = alg.n
    ui, uj = alg.unit_index()
    # x[p, q] with p != q: one row per unit E_qj (entry (p, j)) and per unit E_ip (entry (i, q))
    weight = np.bincount(ui, minlength=n)[None, :] + np.bincount(uj, minlength=n)[:, None]
    # x[p, p]: degree of p in the multigraph with an edge per unit E_ij, i != j
    off = ui != uj
    np.fill_diagonal(weight, np.bincount(ui[off], minlength=n) + np.bincount(uj[off], minlength=n))
    gram = np.diag(weight.ravel(order="F").astype(float))
    diag = np.arange(n) * (n + 1)
    ii, jj = diag[ui[off]], diag[uj[off]]
    np.add.at(gram, (ii, jj), -1.0)
    np.add.at(gram, (jj, ii), -1.0)
    return gram


def oracle_commutant_nullity(alg, tol):
    """(nullity, scalar residual) of the commutant from a thin SVD of the Kronecker system.

    The nullity counts singular values <= tol * max(1, largest one), and the
    residual is that of the last right singular vector, the package's earlier
    route.
    """
    n = alg.n
    _, s, vh = np.linalg.svd(oracle_commutant_system(alg), full_matrices=False)
    nullity = int(np.sum(s <= tol * max(1.0, float(s[0]))))
    x = vh[-1].reshape(n, n, order="F")
    return nullity, float(np.linalg.norm(x - np.trace(x) / n * np.eye(n), 2))


def oracle_check_structure(alg, trials=50, seed=0):
    """check_structure with one rank_one/contains/allclose check per basis vector of p, and the SVD commutant."""
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

    nullity, residual = oracle_commutant_nullity(alg, 1e-10)
    report.commutant_nullity = nullity
    report.record(nullity == 1, f"commutant nullity {nullity} != 1")
    report.record(residual <= 1e-8, f"commutant element not scalar (residual {residual:.2e})")
    return report


def oracle_evaluate(table, a):
    """delta(a) by the per-unit loop over the table, after the SVD-sized domain check on every call.

    Raises EvaluationDomainError when an entry below the pattern exceeds
    table.tol * max(1, op_norm(a)); the sum runs over the table in its stored
    order, skipping zero coefficients.
    """
    from nestderiv.derivation import EvaluationDomainError

    a = np.asarray(a, dtype=complex)
    alg = table.alg
    if not alg.contains(a, tol=table.tol * max(1.0, float(np.linalg.norm(a, 2)))):
        raise EvaluationDomainError("derivation undefined outside S")
    out = np.zeros((alg.n, alg.n), dtype=complex)
    for u, value in table.values.items():
        coeff = a[u.i, u.j]
        if coeff != 0:
            out += coeff * value
    return out


def oracle_norm_estimate(table, samples=32, seed=0):
    """norm_estimate's sampled lower bound, one sample at a time.

    Each sample is drawn real part then imaginary part, masked to the pattern,
    normalized and evaluated through oracle_evaluate; the best one is refined
    by 40 steps of random local ascent drawn from the same stream.
    """
    rng = np.random.default_rng(seed)
    alg = table.alg
    n = alg.n
    mask = alg.pattern_mask()

    def norm(a):
        return float(np.linalg.norm(a, 2))

    best_a = None
    lower = 0.0
    for _ in range(samples):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a[~mask] = 0.0
        size = norm(a)
        a = a / size if size > 0 else a
        val = norm(oracle_evaluate(table, a))
        if val > lower:
            lower, best_a = val, a

    if best_a is not None:
        step = 0.5
        for _ in range(40):
            perturb = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            perturb[~mask] = 0.0
            cand = best_a + step * perturb
            size = norm(cand)
            if size == 0:
                continue
            cand = cand / size
            val = norm(oracle_evaluate(table, cand))
            if val > lower:
                lower, best_a = val, cand
            else:
                step *= 0.8
    return lower


def oracle_rule_max(table, choices):
    """triple_rule_residual's maximum taken one corner pair at a time, one SVD per pair."""
    from nestderiv.derivation import evaluate

    alg = table.alg
    n = alg.n
    d = alg.chain[choices.k - 1]
    q1 = np.outer(choices.eta1, choices.xi0.conj())
    q1s = q1.conj().T
    dq1 = evaluate(table, q1)
    worst = 0.0
    for a in range(d, n):
        q_a = np.outer(choices.eta1, np.eye(n)[a])
        qas = q_a.conj().T
        dqa = evaluate(table, q_a)
        for i in range(d):
            q = np.outer(np.eye(n)[i], np.eye(n)[a]).astype(complex)
            rhs = evaluate(table, q @ qas @ q1) @ q1s @ q_a + q @ qas @ dqa - q @ qas @ dq1 @ q1s @ q_a
            worst = max(worst, float(np.linalg.norm(evaluate(table, q) - rhs, 2)))
    return worst


def oracle_build_b1(table, choices):
    """build_b1 one column at a time: delta(rank_one(xi0, e_i) @ p0) @ xi0 through evaluate, p0 = xi0 xi0^H."""
    from nestderiv.derivation import evaluate

    n = table.alg.n
    d = table.alg.chain[choices.k - 1]
    xi0 = np.asarray(choices.xi0, dtype=complex)
    p0 = np.outer(xi0, xi0.conj())
    b1 = np.zeros((n, n), dtype=complex)
    for i in range(d):
        a = np.outer(np.eye(n, dtype=complex)[i], xi0.conj()) @ p0
        b1[:, i] = evaluate(table, a) @ xi0
    return b1


def oracle_build_c2(table, choices, basis=None):
    """build_c2 one basis vector xi of p-perp at a time, through evaluate and products of rank-one maps.

    With q = eta1 xi^H and q1 = eta1 xi0^H, adds
    (xi xi^H) (-q^H delta(q) pperp + q^H delta(q1) q1^H q) onto zeros.
    """
    from nestderiv.derivation import evaluate

    alg = table.alg
    n = alg.n
    d = alg.chain[choices.k - 1]
    xi0 = np.asarray(choices.xi0, dtype=complex)
    eta1 = np.asarray(choices.eta1, dtype=complex)
    pperp = np.eye(n) - alg.lattice_projection(choices.k)
    if basis is None:
        basis = np.eye(n, dtype=complex)[d:]
    q1 = np.outer(eta1, xi0.conj())
    dq1 = evaluate(table, q1)
    c2 = np.zeros((n, n), dtype=complex)
    for xi in basis:
        xi = np.asarray(xi, dtype=complex)
        q = np.outer(eta1, xi.conj())
        qs = q.conj().T
        c2 += np.outer(xi, xi.conj()) @ (-qs @ evaluate(table, q) @ pperp + qs @ dq1 @ q1.conj().T @ q)
    return c2


def oracle_chain_members(table):
    """The b1 of every interior level with its default choices, in increasing k, from oracle_build_b1."""
    from nestderiv.construct import default_choices

    return [oracle_build_b1(table, default_choices(table.alg, k)) for k in table.alg.interior_levels]


def oracle_pairwise_scalars(alg, ks, bs):
    """(k_a, k_b) -> scalar_identity_part of (b_a - b_b) compressed to range(p_a), one pair at a time."""
    from nestderiv.linalg import scalar_identity_part

    lambdas = {}
    for ia, (ka, ba) in enumerate(zip(ks, bs)):
        d = alg.chain[ka - 1]
        for kb, bb in zip(ks[ia + 1 :], bs[ia + 1 :]):
            lambdas[(ka, kb)] = scalar_identity_part((ba - bb)[:d, :d])
    return lambdas


def oracle_value_scale(table):
    """1 + the largest operator norm over every table value, one SVD per value."""
    return 1.0 + max(float(np.linalg.norm(v, 2)) for v in table.values.values())
