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


@pytest.fixture
def svd_batches(monkeypatch):
    """A list that records, while the test runs, the matrices of each np.linalg.svd call without singular vectors."""
    batches = []
    svd = np.linalg.svd

    def counting(a, *args, compute_uv=True, **kwargs):
        if not compute_uv:
            batches.append(len(a) if a.ndim == 3 else 1)
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return batches


@st.composite
def algebras(draw, max_n=8):
    """T_n or a random chain, n <= max_n."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        return NestAlgebra.triangular(n)
    interior = draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else set()
    return NestAlgebra(n, (*sorted(interior), n))
