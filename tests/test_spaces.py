"""Grid layouts and the structural permutations."""

import numpy as np
import pytest

from isoflow.errors import InvalidInput, InvalidRegion
from isoflow.spaces import (CellGrid1D, HardyCoeffSpace, LRegionIndex, QuadrantGrid2D,
                            TorusGrid2D, lambda_reorder, region_injection, w_unitary)


def is_permutation_matrix(m):
    """Exact integer check: one 1 per row and column, all else 0."""
    if not np.array_equal(m, m.astype(bool).astype(complex)):
        return False
    return (np.array_equal(np.count_nonzero(m, axis=0), np.ones(m.shape[1], dtype=int))
            and np.array_equal(np.count_nonzero(m, axis=1), np.ones(m.shape[0], dtype=int)))


def test_w_unitary_examples():
    w = w_unitary(2, 2, 1)
    # grid cell 2 = degree 1, interval cell 0
    assert w[HardyCoeffSpace(1, 2, 1).index(1, 0), CellGrid1D(2, 2).index(2)] == 1.0
    assert np.array_equal(w_unitary(1, 3, 2), np.eye(6))
    w3 = w_unitary(3, 2, 1)
    assert w3[HardyCoeffSpace(2, 2, 1).index(2, 1), CellGrid1D(2, 3).index(5)] == 1.0


def test_w_unitary_is_identity_under_the_fixed_layouts():
    # coefficient index n*m*r + j*r + rho == grid index (n*m + j)*r + rho
    for T, m, r in [(1, 1, 1), (2, 3, 2), (4, 2, 3)]:
        grid, coeff = CellGrid1D(m, T, r), HardyCoeffSpace(T - 1, m, r)
        for k in range(grid.cells):
            n, j = divmod(k, m)
            for rho in range(r):
                assert coeff.index(n, j, rho) == grid.index(k, rho)
        assert np.array_equal(w_unitary(T, m, r), np.eye(grid.dim))


def test_w_unitary_is_permutation_and_unitary():
    for T, m, r in [(2, 2, 1), (4, 4, 2), (3, 2, 3)]:
        w = w_unitary(T, m, r)
        assert is_permutation_matrix(w)
        assert np.array_equal(w @ w.conj().T, np.eye(w.shape[0]))


def test_lambda_reorder_examples():
    assert np.array_equal(lambda_reorder(1, 4), np.eye(4))
    assert np.array_equal(lambda_reorder(4, 1), np.eye(4))
    lam = lambda_reorder(2, 2)
    assert lam[2, 1] == 1.0  # fiber-major (rho=0, k=1) -> cell-major (k=1, rho=0)
    lam32 = lambda_reorder(3, 2)
    assert np.array_equal(lam32 @ lam32.conj().T, np.eye(6))
    assert is_permutation_matrix(lam32)


def test_region_injection_quadrant_into_torus():
    region = LRegionIndex(1, 2)
    j = region_injection(region.quadrant_cells(), region.parent.dim)
    assert j.shape == (16, 4)
    assert np.array_equal(j.conj().T @ j, np.eye(4))
    for col in range(4):
        assert np.count_nonzero(j[:, col]) == 1


def test_region_injection_trivial_cases():
    assert np.array_equal(region_injection(range(3), 3), np.eye(3))
    empty = region_injection((), 4)
    assert empty.shape == (4, 0)


def test_region_injection_rejects_escaping_indices():
    with pytest.raises(InvalidRegion):
        region_injection((5,), 4)
    with pytest.raises(InvalidRegion):
        region_injection((0, 7), (0, 1, 2))


def test_l_region_counts():
    for m, T in [(1, 2), (1, 3), (2, 2)]:
        region = LRegionIndex(m, T)
        assert len(region.l_cells()) == 3 * (m * T) ** 2
        assert len(region.quadrant_cells()) == (m * T) ** 2
        assert set(region.l_cells()) | set(region.quadrant_cells()) == set(range(region.parent.dim))


def test_grid_index_validation():
    with pytest.raises(InvalidInput):
        CellGrid1D(0, 2)
    with pytest.raises(InvalidInput):
        QuadrantGrid2D(1, 2).index(5, 0)
    grid = TorusGrid2D(4)
    assert grid.index(5, -1) == grid.index(1, 3)  # modular arithmetic
