"""Exact linear algebra on coordinate subspaces, and the one spectral norm.

Every operator in this package is a 0/1 partial permutation, held as its
image array (the row of each column's single 1, -1 for a zero column),
and every subspace is a coordinate subspace, the span of distinct
standard basis vectors, held as its sorted ``int64`` array of ``cells``.
Intersection, complement and difference are index-array operations and
the gap is 0.0 or 1.0 in closed form.  A residual of two such operators
is exactly 0 or at least 1, so a check passes when it is exactly 0, with
no tolerance.  ``_from_image`` is the one
materializer that turns an image or a cell array into a matrix, and
``spectral_norm`` the one dense factorization; it runs on the small block
where two images differ, and repeated calls on identical input bits
return identical output bits.

Zero-dimensional subspaces are ordinary values throughout, never errors.
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidInput

__all__ = [
    "Subspace",
    "intersect",
    "complement",
    "subtract",
    "spectral_norm",
]


_BUDGET = 2**28  # bytes that one array quadratic in the dimension may take


def _check_budget(entries: int, itemsize: int, what: str) -> None:
    """Raise InvalidInput, before anything is allocated, when ``entries`` values of
    ``itemsize`` bytes each would exceed ``_BUDGET``; ``what`` names the array."""
    need = entries * itemsize
    if need > _BUDGET:
        raise InvalidInput(f"{what} needs {need:,} bytes, over the budget of {_BUDGET:,}")


def _from_image(image, rows: int | None = None) -> np.ndarray:
    """0/1 matrix with a 1 at (image[j], j) for every j with image[j] >= 0.

    ``rows`` defaults to the number of columns.  A matrix over ``_BUDGET``
    bytes raises InvalidInput before it is allocated.
    """
    image = np.asarray(image, dtype=np.int64)
    rows = image.size if rows is None else rows
    _check_budget(rows * image.size, 16, f"a dense {rows} x {image.size} matrix")
    matrix = np.zeros((rows, image.size), dtype=np.complex128)
    live = np.flatnonzero(image >= 0)
    matrix[image[live], live] = 1.0
    return matrix


def _index_array(values) -> np.ndarray:
    """An array as it is; any other iterable read entry by entry with
    ``operator.index``, so that a float raises InvalidInput, not truncated."""
    if isinstance(values, np.ndarray):
        return values
    try:
        return np.fromiter(map(operator.index, values), dtype=np.int64)
    except TypeError:
        raise InvalidInput("indices must be integers") from None


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of an integer array (a sort and a neighbour test)."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _positions(cells: np.ndarray, ambient: int) -> np.ndarray:
    """Local coordinate of each ambient index in ``cells``, -1 outside.

    The extra last slot is -1 too, so gathering an image through it sends
    a zero column (-1) to -1.
    """
    position = np.full(ambient + 1, -1, dtype=np.int64)
    position[cells] = np.arange(len(cells))
    return position


def _unit_columns_norm(rows: np.ndarray) -> float:
    """Spectral norm of a matrix whose column j is +-e_rows[j].

    Columns on distinct rows are orthogonal, so the norm is the square
    root of the largest number of columns on one row; 0.0 for no columns.
    """
    return float(np.sqrt(np.bincount(rows).max())) if rows.size else 0.0


class Subspace:
    """The span of the standard basis vectors of C^ambient at a set of cells.

    ``cells`` is a strictly increasing, read-only ``int64`` array, validated
    in O(k).  ``basis`` is ``_from_image(cells, ambient)``, so local
    coordinate i is cell ``cells[i]``; the matrix is built the first time
    something reads ``basis`` and is kept from then on.  Cells that set
    algebra computes from checked cells are increasing by construction, so
    the results of ``intersect``, ``complement`` and ``subtract`` come from
    ``_derived`` and skip the O(k) check.  ``gap`` is 0.0 or 1.0: the
    difference of two coordinate projectors is diagonal, +-1 on the
    symmetric difference.
    """

    def __init__(self, ambient: int, cells):
        self.ambient = ambient
        self.cells = cells
        self.__post_init__()

    def __post_init__(self) -> None:
        cells = _index_array(self.cells)
        if (cells.ndim != 1 or (cells.size and cells.dtype.kind not in "iu")
                or (cells.size and not 0 <= cells[0] <= cells[-1] < self.ambient)
                or (cells[1:] <= cells[:-1]).any()):
            raise InvalidInput("cells must be strictly increasing indices of the ambient space")
        cells = cells.astype(np.int64, copy=False).view()
        cells.flags.writeable = False
        self.cells = cells

    @classmethod
    def _derived(cls, ambient: int, cells: np.ndarray) -> "Subspace":
        """A subspace computed from checked ones, built without checks.

        ``cells`` is a fresh, strictly increasing ``int64`` array of indices
        of the ambient space, as set algebra on checked cells gives; it is
        marked read-only in place.  ``__post_init__`` does not run.
        """
        made = cls.__new__(cls)
        cells.flags.writeable = False
        made.ambient, made.cells = ambient, cells
        return made

    @cached_property
    def basis(self) -> np.ndarray:
        return _from_image(self.cells, self.ambient)

    @property
    def dim(self) -> int:
        return self.cells.size

    def gap(self, other: "Subspace") -> float:
        """Spectral distance between the two orthogonal projectors."""
        if other.ambient != self.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        return 0.0 if np.array_equal(self.cells, other.cells) else 1.0

    @classmethod
    def from_cells(cls, ambient: int, cells) -> "Subspace":
        """Span of the standard basis vectors at ``cells``, given in any order."""
        return cls(ambient, np.sort(_index_array(cells)))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, np.arange(ambient))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, np.empty(0, dtype=np.int64))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; exactly 0.0 for an exactly zero matrix."""
    arr = np.asarray(m)
    if arr.size == 0 or not arr.any():
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces: the cells they share."""
    if s1.ambient != s2.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace._derived(s1.ambient, np.intersect1d(s1.cells, s2.cells, assume_unique=True))


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement within the ambient space: the cells outside."""
    outside = np.ones(s.ambient, dtype=bool)
    outside[s.cells] = False
    return Subspace._derived(s.ambient, np.flatnonzero(outside))


def subtract(big: Subspace, small: Subspace) -> Subspace:
    """Orthogonal difference ``big (-) small`` for ``small`` contained in ``big``."""
    if big.ambient != small.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    at = _positions(big.cells, big.ambient)[small.cells]
    if (at < 0).any():
        raise InvalidInput("subtrahend is not contained in the minuend")
    return Subspace._derived(big.ambient, np.delete(big.cells, at))
