"""Independent recomputation of the constructed operators for inner tables.

Everything here expands the commutator d_c(E_ij) = c E_ij - E_ij c entrywise
from the definition and assembles the expected operators directly from their
defining formulas, without calling the package's evaluation or construction
paths.  Inputs are small integer matrices so the arithmetic is exact.

The later oracles are the package's earlier one-element-at-a-time loops
(validation, evaluation, norm estimate, construction, chain scalars,
structure check), kept as references for the batched paths; the
construction loops call ``evaluate`` as they did.  The ``oracle_batched_*``
and ``oracle_verify_residuals`` routes norm every pair or unit by one
batched SVD, as the package did before its maxima were pruned, and must
agree with it to the bit.
"""

import itertools
import math

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
    table.tol times the largest operator norm of a table value, in the same order.
    """
    alg = table.alg
    n = alg.n
    units = alg.basis_units()
    scale = max(np.linalg.norm(v, 2) for v in table.values.values())

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

    The diagonal projection p is applied by zeroing the columns outside it,
    which keeps the signs of the zeros of the residual; residual @ p would turn
    +0.0 entries into -0.0, which moves LAPACK's Householder signs and the last
    bit of the norm.  Each masked residual is checked to equal residual @ p in
    value.  Returns the per-unit residuals as a list in basis order.
    """
    alg = table.alg
    residuals = []
    for u in alg.basis_units():
        e = np.zeros((alg.n, alg.n), dtype=complex)
        e[u.i, u.j] = 1.0
        residual = table.values[u] - (b @ e - e @ b)
        if p is not None:
            masked = residual.copy()
            masked[:, np.diag(p) == 0] = 0.0
            assert np.array_equal(masked, residual @ p)
            residual = masked
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
    report = StructureReport()
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


def oracle_largest_unit(table):
    """(value, a): norm_estimate's start, the matrix unit whose table value has the largest Frobenius norm.

    The squared Frobenius norms are taken one value at a time and scanned in
    basis order keeping strict gains, so the first of equal maxima wins.  When
    the largest modulus m in the table is not 0 and lies outside
    [2^-400, 2^400], the moduli are divided by 2^e, 2^e <= m < 2^(e + 1),
    before they are squared.  value is the norm of oracle_evaluate at that unit.
    """
    alg = table.alg
    top = max(float(np.abs(value).max()) for value in table.values.values())
    scale = 2.0 ** (math.frexp(top)[1] - 1) if top and not 2.0**-400 <= top <= 2.0**400 else 1.0
    best, best_unit = -1.0, None
    for u, value in table.values.items():
        square = float(((np.abs(value) / scale) ** 2).sum())
        if square > best:
            best, best_unit = square, u
    a = np.zeros((alg.n, alg.n), dtype=complex)
    a[best_unit.i, best_unit.j] = 1.0
    return float(np.linalg.norm(oracle_evaluate(table, a), 2)), a


def oracle_norm_estimate(table):
    """(lower, witness) of norm_estimate, the ascent taken one unit and one candidate at a time.

    From oracle_largest_unit's a, when its value is positive: at most 8 steps,
    each along the polar factor of the gradient conj(u^H delta(E_ij) v) on the
    pattern, (u, v) the top singular pair of delta(a), masked to the pattern;
    lengths 1, 1/4 and 1/16 in turn, each candidate renormalized and evaluated
    through oracle_evaluate, the first that gains kept; stop at a step where
    none gains or after one that gains less than 1e-6 relative.
    """
    alg = table.alg
    mask = alg.pattern_mask()
    lower, a = oracle_largest_unit(table)
    if lower <= 0:
        return lower, a
    for _ in range(8):
        u, _, vh = np.linalg.svd(oracle_evaluate(table, a))
        weights = np.outer(u[:, 0].conj(), vh[0].conj())
        gradient = np.zeros_like(a)
        for unit, value in table.values.items():
            gradient[unit.i, unit.j] = np.einsum("ij,ij->", value, weights).conj()
        w, _, zh = np.linalg.svd(gradient)
        direction = w @ zh
        direction[~mask] = 0.0
        for length in (1.0, 0.25, 0.0625):
            cand = a + length * direction
            size = float(np.linalg.norm(cand, 2))
            if size == 0:
                continue
            cand = cand / size
            val = float(np.linalg.norm(oracle_evaluate(table, cand), 2))
            if val > lower:
                break
        else:
            break
        gain = val - lower
        a, lower = cand, val
        if gain < 1e-6 * lower:
            break
    return lower, a


def oracle_batched_validate(table):
    """validate with every pair normed: the package's route before _max_op_norm pruned the pairs with j == k.

    The pairs with j != k take the closed form; the pairs with j == k are formed in
    full and normed by one batched SVD.  Returns a ValidationReport.
    """
    from nestderiv.derivation import ValidationReport

    alg = table.alg
    n = alg.n
    units = alg.basis_units()
    ui, uj = alg.unit_index()
    values = table.stacked()
    scaled_tol = table.tol * oracle_value_scale(table)
    rows = np.arange(len(units))
    coords = np.arange(n)
    power = np.abs(values) ** 2
    off_row = np.sqrt(power.sum(axis=1, where=(coords != ui[:, None])[:, :, None]))
    off_col = np.sqrt(power.sum(axis=2, where=(coords != uj[:, None])[:, None, :]))
    corner = np.abs(values[rows, ui, :][:, ui] + values[rows, :, uj][:, uj].T)
    a, b = off_row[:, ui], off_col[:, uj].T
    residual = 0.5 * (np.hypot(corner, a + b) + np.hypot(corner, a - b))
    u, v = np.nonzero(uj[:, None] == ui[None, :])
    w = alg.unit_rows()[ui[u], uj[v]]
    batch = np.arange(len(u))
    lhs = np.zeros((len(u), n, n), dtype=complex)
    lhs[batch, :, uj[v]] = values[u, :, uj[u]]
    lhs[batch, ui[u], :] += values[v, ui[v], :]
    lhs -= values[w]
    residual[u, v] = np.linalg.norm(lhs, 2, axis=(1, 2))
    worst = np.unravel_index(np.argmax(residual), residual.shape)
    failing = [
        (tuple(units[r]), tuple(units[c]), float(residual[r, c])) for r, c in zip(*np.nonzero(residual > scaled_tol))
    ]
    return ValidationReport(
        max_residual=float(residual[worst]),
        failing_pairs=failing,
        tol=scaled_tol,
        worst_pair=(tuple(units[worst[0]]), tuple(units[worst[1]])),
    )


def oracle_verify_residuals(table, artifacts):
    """verify's residuals with every unit normed, each with the first basis unit reaching it.

    Returns {name: (value, unit)} for residual_pSp (over b2's defects on the
    pSp units, then b's, the first unit of b2's that reaches it if any),
    residual_corner and residual_full (b's), from one batched SVD of every
    unit's defect delta(E_ij) - [x, E_ij].
    """
    from nestderiv.derivation import unit_commutators

    alg = table.alg
    units = alg.basis_units()
    d = alg.chain[artifacts.choices.k - 1]
    ui, uj = alg.unit_index()

    def norms(x):
        return np.linalg.norm(table.stacked() - unit_commutators(alg, x), 2, axis=(1, 2))

    def first_max(per_unit, part):
        rows = np.flatnonzero(part)
        top = int(np.argmax(per_unit[rows]))
        return float(per_unit[rows[top]]), tuple(units[rows[top]])

    residual_b, residual_b2 = norms(artifacts.b), norms(artifacts.b2)
    psp = (ui < d) & (uj < d)
    over_b2, over_b = first_max(residual_b2, psp), first_max(residual_b, psp)
    return {
        "residual_pSp": over_b if over_b[0] > over_b2[0] else over_b2,
        "residual_corner": first_max(residual_b, (ui >= d) & (uj >= d)),
        "residual_full": first_max(residual_b, np.ones(len(units), dtype=bool)),
    }


def oracle_three_pass_verify(table, artifacts, generator=None):
    """verify as three _max_op_norm passes over b's defects (pSp, corner, then every unit) and op_norm one at a time.

    The triple rule and the tolerance come from oracle_batched_rule and
    oracle_value_scale, so nothing is read from what the table keeps.
    Returns a VerificationReport.
    """
    from nestderiv.construct import VerificationReport
    from nestderiv.derivation import norm_estimate, unit_defects
    from nestderiv.linalg import _max_op_norm, op_norm, scalar_identity_part

    alg = table.alg
    units = alg.basis_units()
    d = alg.chain[artifacts.choices.k - 1]
    ui, uj = alg.unit_index()
    psp, corner = np.flatnonzero((ui < d) & (uj < d)), np.flatnonzero((ui >= d) & (uj >= d))
    defects = unit_defects(table, artifacts.b)
    residual_pSp, at_pSp, _ = _max_op_norm(defects[psp])
    residual_corner, at_corner, _ = _max_op_norm(defects[corner])
    residual_full, at_full, _ = _max_op_norm(defects)
    rule_max, rule_unit = oracle_batched_rule(table, artifacts.choices)
    estimate = norm_estimate(table, generator=generator)
    return VerificationReport(
        residual_pSp=residual_pSp,
        residual_corner=residual_corner,
        residual_full=residual_full,
        rule_max=rule_max,
        norms={
            "b1": op_norm(artifacts.b1),
            "b2": op_norm(artifacts.b2),
            "b": op_norm(artifacts.b),
            "delta_lower": estimate.lower,
            "delta_upper": estimate.upper,
        },
        gauge=None if generator is None else scalar_identity_part(artifacts.b - generator),
        tol=table.tol * oracle_value_scale(table),
        worst_units={
            "residual_pSp": tuple(units[psp[at_pSp]]),
            "residual_corner": tuple(units[corner[at_corner]]),
            "residual_full": tuple(units[at_full]),
            "rule_max": rule_unit,
        },
    )


def oracle_batched_rule(table, choices):
    """triple_rule_residual's (maximum, unit (i, a) of the first pair reaching it) with every pair normed by one batched SVD."""
    from nestderiv.derivation import rank_one_images

    alg = table.alg
    n = alg.n
    d = alg.chain[choices.k - 1]
    xi0, eta1 = np.asarray(choices.xi0, dtype=complex), np.asarray(choices.eta1, dtype=complex)
    eye = np.eye(n)
    images = rank_one_images(
        table, np.vstack([eye[:d], np.tile(eta1, (n - d + 1, 1))]), np.vstack([np.tile(xi0, (d, 1)), eye[d:], xi0])
    )
    cols = images[:d] @ xi0
    rows = eta1.conj() @ images[d:n]
    s = eta1.conj() @ images[n] @ xi0
    pa, pi = np.repeat(np.arange(d, n), d), np.tile(np.arange(d), n - d)
    pairs = np.arange(len(pa))
    rhs = np.zeros((len(pa), n, n), dtype=complex)
    rhs[pairs, :, pa] = cols[pi]
    rhs[pairs, pi, :] += rows[pa - d]
    rhs[pairs, pi, pa] -= s
    residuals = np.linalg.norm(table.stacked()[alg.unit_rows()[pi, pa]] - rhs, 2, axis=(1, 2))
    top = int(np.argmax(residuals))
    return float(residuals[top]), (int(pi[top]), int(pa[top]))


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


def oracle_row_c1(table, d):
    """c1 one entry at a time: entry (i, a), i < d <= a, is 0.0 minus entry (i, a) of delta(E_ii)."""
    n = table.alg.n
    c1 = np.zeros((n, n), dtype=complex)
    for i in range(d):
        for a in range(d, n):
            c1[i, a] = 0.0 - table.values[(i, i)][i, a]
    return c1


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
    """The largest operator norm over every table value, one SVD per value."""
    return max(float(np.linalg.norm(v, 2)) for v in table.values.values())
