"""Grid layouts and the fiber reordering permutation."""

import numpy as np
import pytest

from isoflow.errors import InvalidInput
from isoflow.spaces import (CellGrid1D, HardyCoeffSpace, LRegionIndex, QuadrantGrid2D,
                            TorusGrid2D, lambda_reorder)


def is_permutation_matrix(m):
    """Exact integer check: one 1 per row and column, all else 0."""
    if not np.array_equal(m, m.astype(bool).astype(complex)):
        return False
    return (np.array_equal(np.count_nonzero(m, axis=0), np.ones(m.shape[1], dtype=int))
            and np.array_equal(np.count_nonzero(m, axis=1), np.ones(m.shape[0], dtype=int)))


def test_coefficient_index_equals_grid_index():
    """The interval-stacking permutation W is the identity under the fixed layouts."""
    for T, m, r in [(1, 1, 1), (2, 3, 2), (4, 2, 3), (3, 2, 1)]:
        grid, coeff = CellGrid1D(m, T, r), HardyCoeffSpace(T - 1, m, r)
        for n in range(T):
            for j in range(m):
                for rho in range(r):
                    assert coeff.index(n, j, rho) == grid.index(n * m + j, rho)


def test_lambda_reorder_examples():
    assert np.array_equal(lambda_reorder(1, 4), np.eye(4))
    assert np.array_equal(lambda_reorder(4, 1), np.eye(4))
    lam = lambda_reorder(2, 2)
    assert lam[2, 1] == 1.0  # fiber-major (rho=0, k=1) -> cell-major (k=1, rho=0)
    lam32 = lambda_reorder(3, 2)
    assert np.array_equal(lam32 @ lam32.conj().T, np.eye(6))
    assert is_permutation_matrix(lam32)


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
