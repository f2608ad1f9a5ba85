"""Grid layouts and the L-region cell arrays."""

import numpy as np
import pytest

from isoflow.errors import InvalidInput
from isoflow.spaces import CellGrid1D, HardyCoeffSpace, LRegionIndex, QuadrantGrid2D, TorusGrid2D


def test_coefficient_index_equals_grid_index():
    """The interval-stacking permutation W is the identity under the fixed layouts."""
    for T, m, r in [(1, 1, 1), (2, 3, 2), (4, 2, 3), (3, 2, 1)]:
        grid, coeff = CellGrid1D(m, T, r), HardyCoeffSpace(T - 1, m, r)
        for n in range(T):
            for j in range(m):
                for rho in range(r):
                    assert coeff.index(n, j, rho) == grid.index(n * m + j, rho)


def test_l_region_counts():
    for m, T in [(1, 2), (1, 3), (2, 2)]:
        region = LRegionIndex(m, T)
        l_cells, quadrant = region.l_cells(), region.quadrant_cells()
        assert len(l_cells) == 3 * (m * T) ** 2
        assert len(quadrant) == (m * T) ** 2
        assert set(l_cells.tolist()) | set(quadrant.tolist()) == set(range(region.parent.dim))
        for cells in (l_cells, quadrant):
            assert cells.dtype == np.int64 and not cells.flags.writeable


@pytest.mark.parametrize("build, message", [
    (lambda: CellGrid1D(2.0, 4), "m must be a positive integer, got 2.0"),
    (lambda: HardyCoeffSpace(3.0, 2), "top degree must be a nonnegative integer, got 3.0"),
    (lambda: QuadrantGrid2D(2, 2.0), "T must be a positive integer, got 2.0"),
    (lambda: TorusGrid2D(4, 1.0), "r must be a positive integer, got 1.0"),
    (lambda: LRegionIndex(1.0, 2), "m must be a positive integer, got 1.0"),
], ids=["CellGrid1D", "HardyCoeffSpace", "QuadrantGrid2D", "TorusGrid2D", "LRegionIndex"])
def test_a_whole_float_size_is_refused(build, message):
    """A size is an integer: 2.0 would give a float dim, which numpy refuses later
    with a TypeError that names no parameter."""
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        build()


def test_grid_index_validation():
    with pytest.raises(InvalidInput):
        CellGrid1D(0, 2)
    with pytest.raises(InvalidInput):
        QuadrantGrid2D(1, 2).index(5, 0)
    grid = TorusGrid2D(4)
    assert grid.index(5, -1) == grid.index(1, 3)  # modular arithmetic
