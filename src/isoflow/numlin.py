"""Exact linear algebra on coordinate subspaces, and the one component finder.

Every operator in this package is a 0/1 partial permutation, held as its
image array (the row of each column's single 1, -1 for a zero column),
and every subspace is a coordinate subspace, the span of distinct
standard basis vectors, held as its sorted ``int64`` array of ``cells``.
Intersection, complement and difference are index-array operations and
the gap is 0.0 or 1.0 in closed form.  A residual of two such operators
is exactly 0 or at least 1, so a check passes when it is exactly 0, with
no tolerance.  Nothing here builds a dense matrix or factors one.

``_components`` finds the classes of a set of equations x_a = x_b by
hook-and-shortcut; the commutant solvers and the closed-form difference
norm of ``semigroups._image_residual`` both use it.  ``_check_budget``
prices an array quadratic in the dimension before it is allocated, and
``_check_cells`` an ambient before its first index array.

The index kernels of the package call numpy's C entry points, not its
Python convenience wrappers: on the 10 to 2,000 cells of a bundled
scenario a call costs its dispatch rather than its work.  On 100-entry
arrays (Python 3.11, numpy 2.4, a shared 2-vCPU host), ``np.flatnonzero``
takes 1.3 us against 0.26 us for ``.nonzero()[0]``; a bool ``.any()`` or
``.all()`` 0.9 us against 0.28 us for ``np.count_nonzero``;
``np.array_equal`` 1.9 us against 0.8 us for ``_equal`` (a shape test,
then ``count_nonzero(a != b)``); ``np.intersect1d`` with ``assume_unique``
4.7 us against 1.5 us for the mask gather of ``intersect``; ``np.delete``
3.4 us against 1.8 us for the mask gather of ``subtract``; and
``np.cumsum`` and ``np.searchsorted`` twice their methods.  ``.min()`` and
``.max()`` are ``np.minimum.reduce`` and ``np.maximum.reduce``, a few
percent faster.  On millions of cells an early-exiting ``.any()`` beats
``count_nonzero`` by about 0.1 ms, which the comparison building its mask
outweighs many times, so no kernel forks on size.

Zero-dimensional subspaces are ordinary values throughout, never errors.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatch, InvalidInput

__all__ = [
    "Subspace",
    "intersect",
    "complement",
    "subtract",
]


_BUDGET = 2**28  # bytes that one array quadratic in the dimension may take


def _check_budget(entries: int, itemsize: int, what: str) -> None:
    """Raise InvalidInput, before anything is allocated, when ``entries`` values of
    ``itemsize`` bytes each would exceed ``_BUDGET``; ``what`` names the array."""
    need = entries * itemsize
    if need > _BUDGET:
        raise InvalidInput(f"{what} needs {need:,} bytes, over the budget of {_BUDGET:,}")


def _check_cells(cells: int) -> None:
    """``_check_budget`` for an ambient of ``cells`` cells, one ``int64`` index each."""
    _check_budget(cells, 8, f"an ambient of {cells:,} cells")


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal`` for two arrays: equal shapes, then no entry that differs."""
    return a.shape == b.shape and not np.count_nonzero(a != b)


def _index_array(values) -> np.ndarray:
    """An array as it is, a range as its ``arange``; any other iterable read
    entry by entry with ``operator.index``, so that a float raises
    InvalidInput, not truncated."""
    if isinstance(values, np.ndarray):
        return values
    if isinstance(values, range):  # a range holds only ints
        return np.arange(values.start, values.stop, values.step, dtype=np.int64)
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


def _mask(cells: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of length n that is True at the index array ``cells``."""
    mask = np.zeros(n, dtype=bool)
    mask[cells] = True
    return mask


def _positions(cells: np.ndarray, ambient: int) -> np.ndarray:
    """Local coordinate of each ambient index in ``cells``, -1 outside.

    The extra last slot is -1 too, so gathering an image through it sends
    a zero column (-1) to -1.
    """
    position = np.full(ambient + 1, -1, dtype=np.int64)
    position[cells] = np.arange(len(cells))
    return position


def _roots(lab: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Root of each of ``nodes``, found by pointer-chasing only from them.

    Each pass halves the paths it walks (``lab[at] = lab[lab[at]]``), which
    moves no index out of its class.
    """
    at, parent = nodes, lab[nodes]
    while True:
        grand = lab[parent]
        if _equal(grand, parent):
            return parent
        lab[at] = grand
        at, parent = grand, lab[grand]


def _components(blocks, size: int) -> tuple[np.ndarray, int]:
    """Classes of the equations x_a = x_b on indices 0..size-1, and the rounds taken.

    ``blocks`` yields pairs (lhs, rhs) of equal-shape index arrays, each a
    block of equations lhs = rhs.  The result labels every index with the
    smallest index of its class.  Each block looks up the roots of its
    ends with ``_roots`` and runs hook-and-shortcut rounds until its
    equations hold: a round keeps the equations whose two ends still carry
    different roots, hooks each larger root onto the smallest root it
    meets with ``np.minimum.at``, and shortcuts ``lab[ends] =
    lab[lab[ends]]`` until nothing changes.  Hooks go only from one root
    of the block's first round to another, so shortcutting those roots
    keeps every one of them pointing at a root.  Indices outside the ends
    are left as they are, and one ``lab = lab[lab]`` loop at the end points
    every index at its root.  Classes only merge, so an equation that held
    after an earlier block still holds; and a root never hooks onto a
    larger index, so every root is its class minimum.
    """
    lab = np.arange(size)
    rounds = 0
    for lhs, rhs in blocks:
        a, b = _roots(lab, lhs.ravel()), _roots(lab, rhs.ravel())
        differ = a != b
        if not np.count_nonzero(differ):
            continue
        a, b = a[differ], b[differ]
        ends = np.concatenate([a, b])
        while a.size:
            np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
            parent = lab[ends]
            while True:
                grand = lab[parent]
                if _equal(grand, parent):
                    break
                lab[ends] = parent = grand
            rounds += 1
            a, b = lab[a], lab[b]
            differ = a != b
            a, b = a[differ], b[differ]
    while True:
        grand = lab[lab]
        if _equal(grand, lab):
            return lab, rounds
        lab = grand


class Subspace:
    """The span of the standard basis vectors of C^ambient at a set of cells.

    ``cells`` is a strictly increasing, read-only ``int64`` array, validated
    in O(k); local coordinate i is cell ``cells[i]``.  Cells that set
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
                or np.count_nonzero(cells[1:] <= cells[:-1])):
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

    @property
    def dim(self) -> int:
        return self.cells.size

    def gap(self, other: "Subspace") -> float:
        """Spectral distance between the two orthogonal projectors."""
        if other.ambient != self.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        return 0.0 if _equal(self.cells, other.cells) else 1.0

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


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces: the cells they share."""
    if s1.ambient != s2.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace._derived(s1.ambient, s1.cells[_mask(s2.cells, s1.ambient)[s1.cells]])


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement within the ambient space: the cells outside."""
    outside = np.ones(s.ambient, dtype=bool)
    outside[s.cells] = False
    return Subspace._derived(s.ambient, outside.nonzero()[0])


def subtract(big: Subspace, small: Subspace) -> Subspace:
    """Orthogonal difference ``big (-) small`` for ``small`` contained in ``big``."""
    if big.ambient != small.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    at = _positions(big.cells, big.ambient)[small.cells]
    if np.count_nonzero(at < 0):
        raise InvalidInput("subtrahend is not contained in the minuend")
    keep = np.ones(big.dim, dtype=bool)
    keep[at] = False
    return Subspace._derived(big.ambient, big.cells[keep])
