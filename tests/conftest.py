import numpy as np
import pytest
from hypothesis import strategies as st

from nestderiv.algebra import NestAlgebra


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def basis_vec(n, i):
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@st.composite
def algebras(draw, max_n=8):
    """T_n or a random chain, n <= max_n."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        return NestAlgebra.triangular(n)
    interior = draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else set()
    return NestAlgebra(n, (*sorted(interior), n))
