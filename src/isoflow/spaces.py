"""Index conventions for the discretized function spaces.

All spaces are coordinate spaces indexed by cells of a uniform grid with
``m`` cells per unit length plus an inner fiber coordinate.  The layouts
are fixed once and for all here; reports and golden files depend on them:

* 1-D cell grid on [0, T):       ``index(k, rho) = k*r + rho`` with cell
  ``k`` in ``[0, m*T)``.
* coefficient space of degrees 0..d over the m-cell interval: degree
  block ``n`` occupies ``m*r`` consecutive coordinates, interval-cell
  major then fiber: ``index(n, j, rho) = n*m*r + j*r + rho``.  This is
  the grid index ``(n*m + j)*r + rho`` of cell ``n*m + j``, so the
  interval-stacking permutation W of the Berger-Coburn-Lebow model,
  which sends grid cell ``n*m + j`` to degree ``n``, interval cell ``j``,
  is the identity and is never built.
* quadrant grid on [0, T)^2:     axis-1 major,
  ``index(k1, k2, rho) = (k1*m*T + k2)*r + rho``.
* torus grid, n cells per cyclic axis: same lexicographic rule with all
  axis arithmetic modulo n.

For the two-sided constructions the torus has ``n = 2*m*T`` cells per
axis and axis index ``k`` represents the physical cell ``k - m*T`` of the
window [-T, T); cyclic translations are then exactly unitary and the
wrap-affected cells are excluded from faithful sets by the callers.
Each layout reads its sizes with ``numlin._read_count``, the package's one
rule for a count, so a whole float is refused naming its parameter, and
then prices its ambient with ``numlin._check_cells``.  The constructors of
``semigroups`` compute whole image arrays by these rules; no layout maps a
single index, since no code path of the package asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numlin import _check_cells, _read_count

__all__ = [
    "CellGrid1D",
    "HardyCoeffSpace",
    "QuadrantGrid2D",
    "TorusGrid2D",
    "LRegionIndex",
]


@dataclass(frozen=True)
class CellGrid1D:
    """Uniform cell grid on [0, T) with fiber dimension r."""

    m: int
    T: int
    r: int = 1

    def __post_init__(self) -> None:
        for name in ("m", "T", "r"):
            _read_count(getattr(self, name), name)
        _check_cells(self.dim)

    @property
    def cells(self) -> int:
        return self.m * self.T

    @property
    def dim(self) -> int:
        return self.cells * self.r


@dataclass(frozen=True)
class HardyCoeffSpace:
    """Coefficient space of degrees 0..d with m-cell interval fibers."""

    d: int
    m: int
    r: int = 1

    def __post_init__(self) -> None:
        for name in ("m", "r"):
            _read_count(getattr(self, name), name)
        _read_count(self.d, "top degree", 0)
        _check_cells(self.dim)

    @property
    def block(self) -> int:
        """Coordinates per degree block."""
        return self.m * self.r

    @property
    def dim(self) -> int:
        return (self.d + 1) * self.block


@dataclass(frozen=True)
class QuadrantGrid2D:
    """Cell grid on the quadrant [0, T)^2, axis-1 major."""

    m: int
    T: int
    r: int = 1

    def __post_init__(self) -> None:
        for name in ("m", "T", "r"):
            _read_count(getattr(self, name), name)
        _check_cells(self.dim)

    @property
    def side(self) -> int:
        return self.m * self.T

    @property
    def dim(self) -> int:
        return self.side * self.side * self.r


@dataclass(frozen=True)
class TorusGrid2D:
    """Cyclic grid with n cells per axis; index arithmetic is modulo n."""

    n: int
    r: int = 1

    def __post_init__(self) -> None:
        for name in ("n", "r"):
            _read_count(getattr(self, name), name)
        _check_cells(self.dim)

    @property
    def dim(self) -> int:
        return self.n * self.n * self.r


@dataclass(frozen=True)
class LRegionIndex:
    """The window [-T, T)^2 with the quadrant [0, T)^2 removed.

    Lives inside a parent torus with ``n = 2*m*T`` cells per axis; axis
    index ``k`` stands for the physical cell ``k - m*T``.  The selected
    (L-shaped) cells and the removed quadrant cells are reported as
    sorted, read-only ``int64`` arrays of flat parent indices, which fixes
    the coordinate order of every operator built on them.
    """

    m: int
    T: int
    r: int = 1
    parent: TorusGrid2D = field(init=False)

    def __post_init__(self) -> None:
        for name in ("m", "T", "r"):
            _read_count(getattr(self, name), name)
        object.__setattr__(self, "parent", TorusGrid2D(2 * self.m * self.T, self.r))

    @property
    def half(self) -> int:
        """Cells per half axis, i.e. m*T."""
        return self.m * self.T

    def _cells(self, in_quadrant: bool) -> np.ndarray:
        """The parent coordinates inside (or outside) the removed quadrant."""
        n = self.parent.n
        quadrant = np.zeros((n, n, self.r), dtype=bool)
        quadrant[self.half:, self.half:] = True
        cells = (quadrant == in_quadrant).ravel().nonzero()[0]
        cells.flags.writeable = False
        return cells

    def quadrant_cells(self) -> np.ndarray:
        return self._cells(True)

    def l_cells(self) -> np.ndarray:
        return self._cells(False)
