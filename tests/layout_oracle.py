"""The scalar index rules of the layouts in ``isoflow.spaces``, one cell at a time.

The package computes whole image arrays by these rules and never maps a
single index; the per-cell references of the constructor tests do, and read
them here.  Each function raises IndexError on a coordinate outside its
layout, except the torus rule, which is modulo n on both axes.
"""


def _check(inside: bool, coords) -> None:
    if not inside:
        raise IndexError(f"index {coords} out of range")


def grid_index(grid, k: int, rho: int = 0) -> int:
    """``CellGrid1D``: cell k, fiber rho."""
    _check(0 <= k < grid.cells and 0 <= rho < grid.r, (k, rho))
    return k * grid.r + rho


def coeff_index(space, n: int, j: int, rho: int = 0) -> int:
    """``HardyCoeffSpace``: degree n, interval cell j, fiber rho."""
    _check(0 <= n <= space.d and 0 <= j < space.m and 0 <= rho < space.r, (n, j, rho))
    return n * space.block + j * space.r + rho


def quadrant_index(grid, k1: int, k2: int, rho: int = 0) -> int:
    """``QuadrantGrid2D``: axis-1 major."""
    _check(0 <= k1 < grid.side and 0 <= k2 < grid.side and 0 <= rho < grid.r, (k1, k2, rho))
    return (k1 * grid.side + k2) * grid.r + rho


def torus_index(grid, k1: int, k2: int, rho: int = 0) -> int:
    """``TorusGrid2D``: the quadrant rule with both axes taken modulo n."""
    _check(0 <= rho < grid.r, (k1, k2, rho))
    return ((k1 % grid.n) * grid.n + (k2 % grid.n)) * grid.r + rho
