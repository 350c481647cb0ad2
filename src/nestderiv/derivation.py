"""Derivations on a nest algebra, stored as tables on the matrix-unit basis.

A derivation delta is determined by its values delta(E_ij) on the admissible
matrix units; evaluation on a general algebra element is by entrywise
linearity.  Evaluation outside the algebra is an error, never an
extrapolation.
"""

import math
import operator
from collections.abc import MutableMapping
from dataclasses import dataclass

import numpy as np

from .algebra import NestAlgebra
from .linalg import (
    DimensionError,
    _as_matrix,
    _exact_scale,
    _json_number,
    _max_op_norm,
    matrix_from_json,
    matrix_to_json,
    op_norm,
)


# complex entries per batch of full residuals in validate
_CHUNK_ENTRIES = 1 << 20

# bytes of terms per np.add.reduce in _image
_IMAGE_BYTES = 1 << 18

# SVDs the Newton iteration of distance_to_scalars may spend before it falls back: ~4 certify a smooth minimum,
# and with the final op_norm a certified call takes at most 12
_NEWTON_SVDS = 11

# backstop on the cuts of the fallback ellipsoid method: ~110 reach its gap at a smooth minimum, ~220 at a kink
_MAX_CUTS = 500

# first-order steps norm_estimate's ascent takes at most, and the relative gain of a step below which it stops
_ASCENT_STEPS = 8
_ASCENT_GAIN = 1e-6

# step lengths the ascent tries along each direction, in turn
_ASCENT_TRIALS = (1.0, 0.25, 0.0625)


class EvaluationDomainError(ValueError):
    """Raised when a derivation is evaluated outside its algebra."""


def check_tol(tol: float) -> float:
    """tol itself if it is finite and > 0; a table tolerance must be both."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    return tol


class TableValues(MutableMapping):
    """The values of a table: each basis unit of alg mapped to its row of one (units, n, n) complex array.

    The rows are in basis order.  Reading a unit gives a read-only view of its
    row.  Assigning a unit checks what the table constructor checks, a basis
    unit key (KeyError), an n x n value (DimensionError) and finite entries
    (ValueError), before it writes the row, so a rejected value leaves the
    table as it was.  A unit cannot be deleted.

    _derived holds quantities computed from the values: the maximum of
    DerivationTable.value_scale and the corner kernel of construct._corner.
    Every write that is accepted empties it, so nothing stored is older than
    the values; a rejected one raises before it writes and keeps it.
    """

    def __init__(self, alg: NestAlgebra):
        self._alg = alg
        self._array = np.zeros((len(alg.unit_index()[0]), alg.n, alg.n), dtype=complex)
        self._view = self._array.view()
        self._view.setflags(write=False)
        self._derived = {}

    def _row(self, unit) -> int:
        """The row of the basis unit (i, j); KeyError for any other key."""
        n = self._alg.n
        try:
            i, j = (operator.index(x) for x in unit)
        except (TypeError, ValueError):
            i = j = n
        row = int(self._alg.unit_rows()[i, j]) if 0 <= i < n and 0 <= j < n else -1
        if row < 0:
            raise KeyError(f"{unit!r} is not a basis unit of chain {self._alg.chain}")
        return row

    def __getitem__(self, unit) -> np.ndarray:
        return self._view[self._row(unit)]

    def __setitem__(self, unit, value):
        row = self._row(unit)
        value = _as_matrix(value)
        n = self._alg.n
        if value.shape != (n, n):
            raise DimensionError(f"value for {tuple(unit)} has shape {value.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite value for unit {tuple(unit)}")
        self._array[row] = value
        self._derived.clear()

    def __delitem__(self, unit):
        raise TypeError("a table holds a value for every basis unit; assign the unit a new value instead")

    def __iter__(self):
        return iter(self._alg.basis_units())

    def __len__(self) -> int:
        return len(self._array)

    def __eq__(self, other):
        """Values of the same algebra, equal entry by entry (Mapping's comparison would compare arrays with ==)."""
        if not isinstance(other, TableValues):
            return NotImplemented
        return self._alg == other._alg and np.array_equal(self._array, other._array)


@dataclass
class DerivationTable:
    """delta given by its values on the basis units of alg.

    values may be given as any mapping from the basis units to n x n
    matrices; it is stored as a TableValues.
    """

    alg: NestAlgebra
    values: MutableMapping
    tol: float = 1e-9

    def __post_init__(self):
        check_tol(self.tol)
        given = {tuple(k): v for k, v in self.values.items()}
        basis = self.alg.basis_units()
        units = set(map(tuple, basis))
        if given.keys() != units:
            raise ValueError(
                f"table entries must be the basis units of chain {self.alg.chain}: "
                f"missing {sorted(units - given.keys())[:4]}, not basis units {sorted(given.keys() - units)[:4]}"
            )
        values = TableValues(self.alg)
        for u in basis:
            values[u] = given[u]
        self.values = values

    def stacked(self) -> np.ndarray:
        """The values as one read-only (units, n, n) array, units in basis order: the table's own array, not a copy."""
        return self.values._view

    @property
    def value_scale(self) -> float:
        """The largest operator norm over the table values, the residual scale.

        scaled_tol is table.tol times this, so every tolerance scales with the
        table at any size, and a zero table gets tolerance 0.  The maximum
        comes from _max_op_norm, which norms only the values whose Frobenius
        norm can reach it, and is the one over all values, to the bit.  It is
        computed once and kept with the values until one of them is written.
        """
        derived = self.values._derived
        if "value_scale" not in derived:
            derived["value_scale"] = _max_op_norm(self.stacked())[0]
        return derived["value_scale"]

    @property
    def scaled_tol(self) -> float:
        """tol * value_scale, every residual's tolerance; ValueError when it is not finite, as then none could fail."""
        scaled_tol = self.tol * self.value_scale
        if not math.isfinite(scaled_tol):
            raise ValueError(f"tol * value_scale = {self.tol!r} * {self.value_scale!r} is not finite")
        return scaled_tol

    def to_json(self) -> dict:
        entries = [
            {"i": int(u.i), "j": int(u.j), "value": matrix_to_json(value)}
            for u, value in self.values.items()
        ]
        return {
            "algebra": {"n": self.alg.n, "chain": list(self.alg.chain)},
            "entries": entries,
            "tol": self.tol,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DerivationTable":
        """Inverse of to_json; malformed content raises KeyError or ValueError.

        n, the chain entries, the unit indices, tol and every matrix dimension
        and entry part must be JSON numbers: a bool or a string is rejected,
        not read as 1, 0 or the number it spells.  Each value is written
        through TableValues, which checks it there once: a basis unit, n x n
        and finite.  An entry for a unit seen before is rejected here.
        """
        try:
            n, chain = obj["algebra"]["n"], obj["algebra"]["chain"]
            alg = NestAlgebra(_json_number(n, "n"), tuple(_json_number(d, "a chain entry") for d in chain))
            entries = obj["entries"]
            # counted before any n x n array is built, so a small file that declares a large algebra fails at once
            if len(entries) != alg.unit_count:
                raise ValueError(f"{len(entries)} entries, expected one for each of the {alg.unit_count} basis units")
            values, seen = TableValues(alg), set()
            for e in entries:
                key = (int(_json_number(e["i"], "a unit index")), int(_json_number(e["j"], "a unit index")))
                if key != (e["i"], e["j"]):
                    raise ValueError(f"non-integer unit index ({e['i']!r}, {e['j']!r})")
                # every entry is a distinct basis unit, and there are as many entries as units, so no unit is missing
                if key in seen:
                    raise ValueError(f"duplicate entry for unit {key}")
                seen.add(key)
                values[key] = matrix_from_json(e["value"])
            tol = check_tol(float(_json_number(obj.get("tol", 1e-9), "tol")))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed table: {exc}") from exc
        # the values are checked above, so the constructor's second table array is not built
        table = cls.__new__(cls)
        table.alg, table.values, table.tol = alg, values, tol
        return table


@dataclass
class ValidationReport:
    """Product-rule residuals: failing (u, v, residual) triples and the worst pair (u, v)."""

    max_residual: float
    failing_pairs: list
    tol: float
    worst_pair: tuple

    @property
    def ok(self) -> bool:
        return not self.failing_pairs


@dataclass(eq=False)
class NormEstimate:
    """Bounds on the derivation norm.

    lower is op_norm(delta(witness)), witness a unit-norm element of the
    algebra reached by a deterministic ascent from a matrix unit; upper, when
    the inner generator is known, is analytic.
    """

    lower: float
    upper: float | None = None
    witness: np.ndarray | None = None


def _as_operator(alg: NestAlgebra, x, name: str = "operator") -> np.ndarray:
    """x as an n x n complex matrix on the space of alg; DimensionError for any other shape."""
    x = _as_matrix(x)
    if x.shape != (alg.n, alg.n):
        raise DimensionError(f"{name} must be {alg.n}x{alg.n}, got {x.shape}")
    return x


def unit_commutators(alg: NestAlgebra, x) -> np.ndarray:
    """[x, E_ij] = x E_ij - E_ij x for every basis unit, as one (units, n, n) array in basis order.

    x E_ij is column i of x placed in column j, and E_ij x is row j of x
    placed in row i.  Written in that order onto zeros, every entry is
    bit-identical to x @ E_ij - E_ij @ x.  An entry past the float range is
    inf, as the products give it, without a warning.
    """
    x = _as_operator(alg, x)
    ui, uj = alg.unit_index()
    rows = np.arange(len(ui))
    out = np.zeros((len(ui), alg.n, alg.n), dtype=complex)
    out[rows, :, uj] = x[:, ui].T
    with np.errstate(over="ignore"):
        out[rows, ui, :] -= x[uj, :]
    return out


def unit_defects(table: DerivationTable, x) -> np.ndarray:
    """delta(E_u) - [x, E_u] for every basis unit u, in basis order, written over unit_commutators' array."""
    out = unit_commutators(table.alg, x)
    return np.subtract(table.stacked(), out, out=out)


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
    full, a chunk at a time, and each chunk goes through _max_op_norm with the
    scaled tolerance as its threshold: a pair is normed by SVD only if its
    Frobenius norm can reach that tolerance or the chunk's maximum.  Every pair
    that fails is among them, so failing_pairs, max_residual and worst_pair
    are those of a norm taken for every pair, to the bit.  No norm is taken of
    a Gram matrix, which would square the residual and turn an exact zero into
    rounding noise of order sqrt(eps).  The closed form squares the values, so
    every residual is taken of the values divided by linalg._exact_scale's
    power of two and multiplied back, and scales with the table.

    failing_pairs is in row-major pair order, units in basis order.
    """
    alg = table.alg
    n = alg.n
    units = alg.basis_units()
    ui, uj = alg.unit_index()
    values = table.stacked()
    scaled_tol = table.scaled_tol
    rows = np.arange(len(units))
    coords = np.arange(n)

    power = np.abs(values)
    scale = _exact_scale(power)
    if scale != 1.0:
        values = values / scale
        power = np.abs(values)
    power *= power
    # off_row[u, k]: column k of delta(u) without row u.i; off_col[v, j]: row j of delta(v) without column v.j
    off_row = np.sqrt(power.sum(axis=1, where=(coords != ui[:, None])[:, :, None]))
    off_col = np.sqrt(power.sum(axis=2, where=(coords != uj[:, None])[:, None, :]))
    del power
    corner = np.abs(values[rows, ui, :][:, ui] + values[rows, :, uj][:, uj].T)
    a, b = off_row[:, ui], off_col[:, uj].T
    residual = 0.5 * (np.hypot(corner, a + b) + np.hypot(corner, a - b))

    pu, pv = np.nonzero(uj[:, None] == ui[None, :])
    pw = alg.unit_rows()[ui[pu], uj[pv]]
    step = max(1, _CHUNK_ENTRIES // (n * n))
    for start in range(0, len(pu), step):
        u, v, w = pu[start : start + step], pv[start : start + step], pw[start : start + step]
        batch = np.arange(len(u))
        lhs = np.zeros((len(u), n, n), dtype=complex)
        lhs[batch, :, uj[v]] = values[u, :, uj[u]]
        lhs[batch, ui[u], :] += values[v, ui[v], :]
        lhs -= values[w]
        # a pair left unnormed gets 0.0: its residual is below both the tolerance and the chunk's maximum
        residual[u, v] = _max_op_norm(lhs, scaled_tol / scale)[2]
    if scale != 1.0:
        residual *= scale

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


def _image(coeffs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum over u of coeffs[u] * values[u]: the one kernel that sums table values.

    The units with a nonzero coefficient are taken a chunk at a time: a run of
    consecutive units is read as a slice of values, any other chunk gathered.
    Each chunk's terms, coefficient times value, go to one np.add.reduce with
    the running sum as its first row, the first chunk's being zeros, so the
    terms are added onto zeros one unit at a time in the order of values.  A
    zero coefficient would add a signed zero, which leaves such a sum as it
    is, so skipping it keeps the bits.
    """
    n = values.shape[1]
    step = max(1, _IMAGE_BYTES // (16 * n * n))
    live = np.flatnonzero(coeffs)
    total = np.zeros((n, n), dtype=complex)
    for start in range(0, len(live), step):
        units = live[start : start + step]
        first, last = units[0], units[-1]
        chunk = values[first : last + 1] if last - first == len(units) - 1 else values[units]
        terms = np.empty((len(units) + 1, n, n), dtype=complex)
        terms[0] = total
        np.multiply(coeffs[units, None, None], chunk, out=terms[1:])
        total = np.add.reduce(terms, axis=0)
    return total


def evaluate(table: DerivationTable, a) -> np.ndarray:
    """delta(a) = sum over admissible units of a_ij * delta(E_ij), by _image in basis order.

    a must lie in the algebra (within the table tolerance).  An a with a nonzero entry below the pattern and a
    non-finite entry anywhere raises EvaluationDomainError at any tolerance.
    """
    a = _as_matrix(a)
    alg = table.alg
    if a.shape != (alg.n, alg.n):
        raise DimensionError(f"expected {alg.n}x{alg.n}, got {a.shape}")
    # entries below the pattern that are all exactly zero pass at any tolerance, so only others need the SVD;
    # a non-finite entry of a, inside the pattern or not, would make the SVD raise LinAlgError
    below = a[~alg.pattern_mask()]
    if np.any(below) and not (np.all(np.isfinite(a)) and alg.contains(a, tol=table.tol * max(1.0, op_norm(a)))):
        raise EvaluationDomainError("derivation undefined outside S")
    ui, uj = alg.unit_index()
    return _image(a[ui, uj], table.stacked())


def rank_one_images(table: DerivationTable, etas, xis) -> np.ndarray:
    """delta(eta_m xi_m^H) for every row m of etas and xis, as one (rows, n, n) array.

    Row m is evaluate(table, a_m) with a_m = eta_m xi_m^H formed as np.outer
    forms it, so it has evaluate's bits and its domain rule.
    """
    alg = table.alg
    etas, xis = _as_matrix(etas), _as_matrix(xis)
    if etas.shape != xis.shape or etas.shape[1] != alg.n:
        raise DimensionError(f"etas and xis must both be (rows, {alg.n}), got {etas.shape} and {xis.shape}")
    images = np.empty((len(etas), alg.n, alg.n), dtype=complex)
    for m, (eta, xi) in enumerate(zip(etas, xis)):
        images[m] = evaluate(table, np.outer(eta, xi.conj()))
    return images


def _dual_bound(a, x) -> float:
    """|(a - mu I) x| with mu = x^H a x, for a unit vector x: a lower bound on min over lam of op_norm(a - lam I).

    mu minimizes |(a - lam I) x| over lam, and |(a - lam I) x| is at most
    op_norm(a - lam I).  The bound is the same for a and every shift a - lam I.
    """
    r = a @ x
    return float(np.linalg.norm(r - (x.conj() @ r) * x))


def _newton_step(u, s, vh):
    """The Newton step on lam for f(lam) = sigma_1(c - lam I), from c - lam I = U S V^H, or None.

    With w = U^H v_1 and w' = V^H u_1, the gradient in (Re lam, Im lam) is
    (-Re w_1, Im w_1).  The Hessian is second-order perturbation of the top
    eigenvalue of the Hermitian dilation [[0, c - lam I], [(c - lam I)^H, 0]],
    whose eigenpairs are +-sigma_j, (u_j; +-v_j)/sqrt(2): H_pq = 2 sum over
    (j, s) != (1, +) of Re(conj(h_p) h_q) / (sigma_1 - s sigma_j), with
    h_x = -(w_j + s w'_j)/2 and h_y = -i (w_j - s w'_j)/2.  The step is cut
    to length sigma_1 - sigma_2: each singular value moves by at most |step|
    (Weyl), so that is the scale on which sigma_1 stays simple and the
    quadratic model can hold.  None at a kink (sigma_1 - sigma_2 at rounding
    level, as for a normal c), at a singular Hessian and at a non-finite step.
    """
    if len(s) == 1 or s[0] - s[1] <= 1e-13 * s[0]:
        return None
    sign = np.array([[1.0], [-1.0]])
    w, w_adj = u.conj().T @ vh[0].conj(), vh @ u[:, 0]
    h = np.stack([-(w + sign * w_adj), -1j * (w - sign * w_adj)]) / 2.0
    spread = s[0] - sign * s
    spread[0, 0] = np.inf  # the (1, +) term is the top eigenvalue itself
    hessian = 2.0 * np.einsum("pjk,qjk->pq", h.conj(), h / spread).real
    det = hessian[0, 0] * hessian[1, 1] - hessian[0, 1] ** 2
    if not det > 1e-14 * np.trace(hessian) ** 2:
        return None
    step = complex(*np.linalg.solve(hessian, [w[0].real, -w[0].imag]))
    if not np.isfinite(step):
        return None
    reach = s[0] - s[1]
    return step if abs(step) <= reach else step * (reach / abs(step))


def _newton_min(c, eye):
    """A lam with op_norm(c - lam I) certified within 1e-12 * max(1, f) of the minimum, or None.

    Damped Newton from trace(c)/n: each _newton_step is halved until
    f(lam) = op_norm(c - lam I) decreases.  The top right singular vector of
    every SVD taken gives a _dual_bound, and the iteration stops once f at the
    current lam is within the gap of the best of them.  None (fall back) when
    _newton_step has no step or _NEWTON_SVDS SVDs are spent.
    """
    lam = complex(np.trace(c) / c.shape[0])
    shifted = c - lam * eye
    u, s, vh = np.linalg.svd(shifted)
    lower = _dual_bound(shifted, vh[0].conj())
    step, svds = None, 1
    while s[0] - lower > 1e-12 * max(1.0, s[0]):
        if step is None:
            step = _newton_step(u, s, vh)
        if step is None or svds == _NEWTON_SVDS:
            return None
        trial = lam + step
        shifted = c - trial * eye
        u_t, s_t, vh_t = np.linalg.svd(shifted)
        svds += 1
        lower = max(lower, _dual_bound(shifted, vh_t[0].conj()))
        if s_t[0] < s[0]:
            lam, u, s, vh, step = trial, u_t, s_t, vh_t, None
        else:
            step /= 2.0
    return lam


def _ellipsoid_min(c, eye):
    """A lam with op_norm(c - lam I) within 1e-12 * max(1, f) of the minimum, by central cuts on lam = x + iy.

    With (u, v) the top singular pair of c - lam I and z = -v^H u,
    g = (Re z, Im z) is a subgradient of the convex f(lam) = op_norm(c - lam I).
    The first ellipse {x : (x - centre)^T P^-1 (x - centre) <= 1} is the disk
    of radius 2 f(trace(c)/n) about trace(c)/n, which holds every minimizer by
    the triangle inequality, and a cut through the centre keeps them all.  So
    sqrt(g^T P g) bounds f(centre) - min f, and the loop stops once that gap
    is at most 1e-12 * max(1, f(centre)).  Returns the best lam visited.
    """
    n = c.shape[0]
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
    return lam


def distance_to_scalars(c):
    """(lam, op_norm(c - lam I)) within 1e-12 * max(1, distance) of min over lam of op_norm(c - lam I).

    A damped Newton iteration on lam (_newton_min) runs first and stops only
    when a dual lower bound certifies the gap: for a unit vector x and
    mu = x^H c x, op_norm((c - mu I) x) is at most the distance, and it equals
    it at the top right singular vector of a smooth minimum.  That takes about
    4 SVDs.  Where the minimum is a kink (a normal c), or the iteration
    otherwise fails to certify within _NEWTON_SVDS SVDs, the central-cut
    ellipsoid method (_ellipsoid_min) answers instead, with its own
    certificate, at about 110 SVDs (about 220 at a kink).  A c that
    linalg._exact_scale divides by a power of two s, so that the squares in
    the certificates neither overflow nor underflow, gets lam and the
    distance multiplied back, and a gap of 1e-12 * max(s, distance).
    """
    c = _as_matrix(c)
    scale = _exact_scale(np.abs(c))
    if scale != 1.0:
        lam, dist = distance_to_scalars(c / scale)
        return lam * scale, dist * scale
    eye = np.eye(c.shape[0])
    lam = _newton_min(c, eye)
    if lam is None:
        lam = _ellipsoid_min(c, eye)
    return lam, op_norm(c - lam * eye)


def _ascend(table: DerivationTable, a: np.ndarray, image: np.ndarray, lower: float) -> tuple:
    """(lower, a) after a first-order ascent of op_norm(delta(a)) over unit-norm a on the pattern.

    Starts from a with delta(a) = image and op_norm(image) = lower > 0.  With
    (u, v) the top singular pair of delta(a), a -> Re u^H delta(a) v is linear,
    equal to the norm at a and at most the norm elsewhere; its gradient on the
    pattern is G_ij = conj(u^H delta(E_ij) v), one einsum over the table.  A
    step moves a along the polar factor of G (the maximizer of Re <x, G> over
    the operator-norm unit ball, as in Higham's p-norm estimator), masked to
    the pattern, by each length of _ASCENT_TRIALS in turn, renormalizes, and
    keeps the first candidate whose norm is larger.  The ascent stops after
    _ASCENT_STEPS steps, at a step where no length gains, or after a step that
    gains less than _ASCENT_GAIN relative.  lower is op_norm(_image(a)), which
    is what op_norm(evaluate(table, a)) gives, bit for bit, and it never falls
    below its start.
    """
    values = table.stacked()
    mask = table.alg.pattern_mask()
    ui, uj = table.alg.unit_index()
    for _ in range(_ASCENT_STEPS):
        u, _, vh = np.linalg.svd(image)
        gradient = np.zeros_like(a)
        gradient[ui, uj] = np.einsum("kij,ij->k", values, np.outer(u[:, 0].conj(), vh[0].conj())).conj()
        w, _, zh = np.linalg.svd(gradient)
        direction = w @ zh
        direction[~mask] = 0.0
        for length in _ASCENT_TRIALS:
            cand = a + length * direction
            size = op_norm(cand)
            if size == 0:
                continue
            cand = cand / size
            # cand lies in the pattern by construction, so it needs no domain check
            cand_image = _image(cand[ui, uj], values)
            value = op_norm(cand_image)
            if value > lower:
                break
        else:
            break
        gain = value - lower
        a, image, lower = cand, cand_image, value
        if gain < _ASCENT_GAIN * lower:
            break
    return lower, a


def norm_estimate(table: DerivationTable, generator=None) -> NormEstimate:
    """Bounds on the derivation norm over the unit ball of the algebra.

    lower: op_norm(delta(a)) at a unit-norm a of the algebra, returned as the
    witness.  The ascent starts from the basis unit E_u whose value has the
    largest Frobenius norm (the first in basis order on a tie; the squares
    are taken of the moduli divided by the power of two linalg._exact_scale
    gives, so they neither overflow nor underflow), at op_norm(delta(E_u)),
    with delta(E_u) the stored value added onto zeros, and a first-order
    ascent (_ascend) of at most _ASCENT_STEPS steps raises it.  Nothing is
    drawn at random, and lower is at least op_norm(delta(E_u)).
    upper (when the inner generator c is known): 2 * min over lam of
    op_norm(c - lam I), valid because the restricted norm is at most the norm
    of d_c on all of B(H), which is exactly that (Stampfli).  It is
    2 op_norm(c - lam I) at the lam found by distance_to_scalars, so, to
    rounding, it is never below the norm of d_c on B(H) and exceeds it by at
    most the certified gap 2e-12 * max(s, dist(c, C I)), s the power of two
    distance_to_scalars divides c by (1 for c in range).  The certificate is a
    dual lower bound, |(c - mu I) x| with mu = x^H c x for unit x, met by a
    Newton iteration in about 4 SVDs; a kink (a normal c) falls back to the
    ellipsoid method's own certificate.  A generator that is not n x n raises
    DimensionError.
    """
    alg = table.alg
    if generator is not None:
        generator = _as_operator(alg, generator, "generator")
    power = np.abs(table.stacked())
    scale = _exact_scale(power)
    if scale != 1.0:
        power /= scale
    power *= power
    start = int(np.argmax(power.sum(axis=(1, 2))))  # the first of equal maxima
    ui, uj = alg.unit_index()
    witness = np.zeros((alg.n, alg.n), dtype=complex)
    witness[ui[start], uj[start]] = 1.0
    # added onto zeros, as evaluate adds it, so a -0.0 entry of the value is +0.0 in delta(E_u)
    image = np.zeros((alg.n, alg.n), dtype=complex) + table.stacked()[start]
    lower = op_norm(image)
    if lower > 0:
        lower, witness = _ascend(table, witness, image, lower)

    upper = None
    if generator is not None:
        _, dist = distance_to_scalars(generator)
        upper = 2.0 * dist
    return NormEstimate(lower=lower, upper=upper, witness=witness)
