import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestderiv.linalg import (
    DimensionError,
    _difference_scalar_part,
    _max_op_norm,
    adjoint,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    rank_one,
    scalar_identity_part,
)

from conftest import basis_vec, random_complex


class TestRankOne:
    def test_standard_basis_gives_matrix_unit(self):
        # rank_one(e2, e1) in n=2 is E_12 (1-based), i.e. single 1 at row 0, col 1
        m = rank_one(basis_vec(2, 1), basis_vec(2, 0))
        expected = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(m, expected)

    def test_zero_left_vector_annihilates(self):
        m = rank_one(np.zeros(3), basis_vec(3, 0))
        assert np.array_equal(m, np.zeros((3, 3)))

    def test_complex_entry_convention(self):
        # xi = (1, i)/sqrt(2), eta = e1: applying to e1 gives (1/sqrt 2, 0)
        # and the (0, 1) entry is -i/sqrt 2 (conjugate-linear second slot)
        s = 1 / np.sqrt(2)
        xi = np.array([s, 1j * s])
        m = rank_one(xi, basis_vec(2, 0))
        applied = m @ basis_vec(2, 0)
        assert np.allclose(applied, [s, 0], atol=1e-15)
        assert abs(m[0, 1] - (-1j * s)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            rank_one(np.ones(2), np.ones(3))

    def test_composition_rule(self, rng):
        # (eta (x) xi2)(xi1 (x) eta) = xi1 (x) xi2 for unit eta
        for _ in range(20):
            n = int(rng.integers(2, 8))
            eta = random_complex(rng, n)
            eta /= np.linalg.norm(eta)
            xi1 = random_complex(rng, n)
            xi2 = random_complex(rng, n)
            lhs = rank_one(eta, xi2) @ rank_one(xi1, eta)
            assert op_norm(lhs - rank_one(xi1, xi2)) < 1e-12

    def test_adjoint_of_rank_one(self, rng):
        xi = random_complex(rng, 5)
        eta = random_complex(rng, 5)
        assert op_norm(adjoint(rank_one(xi, eta)) - rank_one(eta, xi)) < 1e-14


class TestOpNorm:
    def test_single_unit_entry(self):
        m = np.zeros((2, 2), dtype=complex)
        m[1, 0] = 1.0
        assert op_norm(m) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        assert op_norm(np.diag([3.0, 4.0j])) == pytest.approx(4.0, abs=1e-14)

    def test_jordan_block_golden_ratio(self):
        m = np.array([[1, 1], [0, 1]], dtype=complex)
        assert op_norm(m) == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-9)

    def test_submultiplicative_and_unitary_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = random_complex(rng, (n, n))
            b = random_complex(rng, (n, n))
            assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9
            u, _ = np.linalg.qr(random_complex(rng, (n, n)))
            assert abs(op_norm(u @ a) - op_norm(a)) < 1e-9
            assert abs(op_norm(a @ u) - op_norm(a)) < 1e-9


class TestScalarIdentityPart:
    def test_scalar_matrix(self):
        lam, residual = scalar_identity_part(3.0 * np.eye(4))
        assert lam == pytest.approx(3.0)
        assert residual == pytest.approx(0.0, abs=1e-14)

    def test_zero(self):
        lam, residual = scalar_identity_part(np.zeros((3, 3)))
        assert lam == 0 and residual == 0

    def test_diag_1_2(self):
        lam, residual = scalar_identity_part(np.diag([1.0, 2.0]))
        assert lam == pytest.approx(1.5)
        assert residual == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_stack_splits_each_matrix_with_its_bits(self, rng, n):
        stack = random_complex(rng, (4, n, n))
        lams, residuals = scalar_identity_part(stack)
        assert lams.shape == residuals.shape == (4,)
        single = [scalar_identity_part(a) for a in stack]
        assert all(type(lam) is complex and type(residual) is float for lam, residual in single)
        assert lams.tobytes() == np.array([lam for lam, _ in single]).tobytes()
        assert residuals.tobytes() == np.array([residual for _, residual in single]).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 3), (1, 2, 2, 2), (0, 0), (2, 0, 0)])
    def test_not_square_or_a_stack_of_squares(self, shape):
        with pytest.raises(DimensionError):
            scalar_identity_part(np.zeros(shape))

    def test_overflowing_trace_is_taken_of_the_scaled_matrix(self):
        # the trace of 4e308 overflows; divided by 2^1023 it is exact, and so is the scalar part multiplied back
        assert scalar_identity_part(1e308 * np.eye(4)) == (1e308, 0.0)
        lam, residual = scalar_identity_part(np.full((4, 4), 1e308 - 1e308j))
        assert lam == 1e308 - 1e308j and residual == math.inf
        # 2^1023 times a matrix whose trace is 4.5: the scalar part and residual of that matrix, multiplied back
        a = np.array([[1.5, 1, 0], [0, 1.5, 1j], [1, 0, 1.5]])
        lam, residual = scalar_identity_part(2.0**1023 * a)
        assert (lam, residual) == (2.0**1023 * 1.5, 2.0**1023 * scalar_identity_part(a)[1])
        # a stack that holds such a matrix is split: every matrix gets the bits it gets alone
        stack = np.stack([a, 1e308 * np.eye(3), np.full((3, 3), 1e308 - 1e308j)])
        lams, residuals = scalar_identity_part(stack)
        single = [scalar_identity_part(m) for m in stack]
        assert lams.tobytes() == np.array([lam for lam, _ in single]).tobytes()
        assert residuals.tobytes() == np.array([residual for _, residual in single]).tobytes()
        assert residuals[1:].tolist() == [0.0, math.inf]

    def test_difference_past_the_float_range_is_taken_of_the_scaled_operands(self, rng):
        # b - c holds 2e308; divided by 2^1023 it is diag(2.22.., 2^-1023, ..), whose scalar part multiplied back is
        # lam = 5e307 with residual 1.5e308, both finite
        b, c = np.diag([1e308, 1.0, 1.0, 1.0]), np.diag([-1e308, 0.0, 0.0, 0.0])
        lam, residual = _difference_scalar_part(b, c)
        assert lam == pytest.approx(5e307, rel=1e-15) and residual == pytest.approx(1.5e308, rel=1e-15)
        # a finite difference is split as it is, to the bit, in the range and outside it
        for scale in (1.0, 2.0**600, 2.0**-600):
            b, c = scale * random_complex(rng, (5, 5)), scale * random_complex(rng, (5, 5))
            assert repr(_difference_scalar_part(b, c)) == repr(scalar_identity_part(b - c))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_adjoint_involution(n, seed):
    a = random_complex(np.random.default_rng(seed), (n, n))
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_json_roundtrip(rng):
    a = random_complex(rng, (3, 3))
    obj = matrix_to_json(a)
    assert json.loads(json.dumps(obj)) == obj
    assert np.array_equal(matrix_from_json(obj), a)


def test_json_rejects_nonfinite():
    obj = {"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}
    with pytest.raises(ValueError):
        matrix_from_json(obj)


@st.composite
def norm_stacks(draw):
    """(count, n, n) stacks of rank-one (op = F), flat-spectrum (op = F / sqrt(n)), zero and Gaussian entries.

    Scales span 1e-3..1e3, or are 1e-200, 1e-160, 1e160 or 1e200, whose
    squares underflow or overflow; some entries are copies of another one, so
    maxima can tie; count may be zero, and one stack in ten holds a NaN.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    stack = np.zeros((count, n, n), dtype=complex)
    for r in range(count):
        kind = draw(st.sampled_from(["rank-one", "flat", "zero", "gaussian", "copy"]))
        scale = 10.0 ** draw(st.one_of(st.integers(min_value=-3, max_value=3), st.sampled_from([-200, -160, 160, 200])))
        if kind == "rank-one":
            stack[r] = scale * np.outer(random_complex(rng, n), random_complex(rng, n))
        elif kind == "flat":
            stack[r] = scale * np.linalg.qr(random_complex(rng, (n, n)))[0]
        elif kind == "gaussian":
            stack[r] = scale * random_complex(rng, (n, n))
        elif kind == "copy" and r:
            stack[r] = stack[int(rng.integers(r))]
    if count and draw(st.integers(min_value=0, max_value=9)) == 0:
        stack[int(rng.integers(count)), int(rng.integers(n)), int(rng.integers(n))] = np.nan
    return stack


@given(norm_stacks(), st.sampled_from(["inf", "zero", "an entry's norm", "half the maximum"]))
@settings(max_examples=150, deadline=None)
def test_max_op_norm_matches_the_unpruned_norms(stack, where):
    if np.isnan(stack).any():
        # the unpruned norm raises on a NaN entry, and so does the kernel
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.norm(stack, 2, axis=(1, 2))
        with pytest.raises(np.linalg.LinAlgError):
            _max_op_norm(stack)
        return
    exact = np.linalg.norm(stack, 2, axis=(1, 2)) if len(stack) else np.zeros(0)
    threshold = {
        "inf": np.inf,
        "zero": 0.0,
        "an entry's norm": exact[len(exact) // 2] if len(exact) else 1.0,
        "half the maximum": 0.5 * exact.max(initial=0.0),
    }[where]
    best, index, norms = _max_op_norm(stack, threshold)
    if not len(stack):
        assert (best, index, len(norms)) == (0.0, None, 0)
        return
    assert best == exact.max() and index == int(np.argmax(exact))
    with np.errstate(over="ignore"):
        frobenius = np.linalg.norm(stack, axis=(1, 2))
    reach = frobenius * (1 + 1e-10) > threshold
    assert np.array_equal(norms[reach], exact[reach])
    # an entry left unnormed holds 0.0 and has a norm below threshold and below the maximum, or a zero norm
    unnormed = norms != exact
    assert not np.any(norms[unnormed])
    assert np.all((exact[unnormed] < threshold) & ((exact[unnormed] < best) | (exact[unnormed] == 0)))
    assert np.array_equal(norms > threshold, exact > threshold)


def test_max_op_norm_gives_an_infinite_entry_the_norm_inf(svd_batches):
    # an SVD of an infinite entry gives NaN, and LAPACK prints a DLASCL error for it
    stack = np.stack([np.eye(3), np.diag([1.0, -np.inf, 0.0]), 2.0 * np.eye(3), np.full((3, 3), complex(0.0, np.inf))])
    best, index, norms = _max_op_norm(stack)
    assert (best, index) == (math.inf, 1)
    assert norms.tolist() == [1.0, math.inf, 2.0, math.inf]
    assert svd_batches == [2]


def test_max_op_norm_norms_only_what_can_reach_the_floor_or_threshold(svd_batches):
    # flat entries of F = 2 and op = 1, and one rank-one entry of op = F = 3, whose column of norm 3 is the floor
    stack = np.stack([np.eye(4)] * 30 + [np.diag([3.0, 0, 0, 0])]).astype(complex)
    best, index, norms = _max_op_norm(stack)
    assert (best, index) == (3.0, 30) and svd_batches == [1]
    assert np.count_nonzero(norms) == 1
    # every entry whose F reaches the threshold is normed, here all of them
    _, _, above = _max_op_norm(stack, 0.99)
    assert svd_batches == [1, 31]
    assert np.array_equal(above, np.linalg.norm(stack, 2, axis=(1, 2)))
