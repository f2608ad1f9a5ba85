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
hook-and-shortcut rounds (Shiloach & Vishkin, J. Algorithms 3(1), 1982);
the commutant solvers and the closed-form difference norm of
``semigroups._image_residual`` both use it.  ``_check_budget``
prices an array quadratic in the dimension before it is allocated, and
``_check_cells`` an ambient before its first index array.  ``_read_count``
is the one rule for a count (a size, a time grid, a step, a bound): every
module reads its count arguments by it, ``Subspace`` its ambient too, and
``_read_steps`` reads a list of sampled step counts by it; ``_count_need``
words what a count must be, for it and for the config reader of
``catalog``.  ``_BLOCK`` is the one block size of the package's blocked
passes: the commutation check of ``duality.ExtensionSetup``, the table
pass of ``decompose.bcl_check`` and the equations of
``commutant._exact_commutant``.

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
outweighs many times, so no kernel forks on size to choose between them.
The one fork on size is the shortcut of ``_components``, which walks the
smaller of the label array and the block's equations.  The one-block
systems of the benchmark's commutant scenarios have more equations than
labels (1,344 to 2,352 against 197 to 785), so they shortcut the labels.

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
_BLOCK = 32768  # entries per block of a blocked pass: cells, table cells or equations


def _check_budget(entries: int, itemsize: int, what: str) -> None:
    """Raise InvalidInput, before anything is allocated, when ``entries`` values of
    ``itemsize`` bytes each would exceed ``_BUDGET``; ``what`` names the array."""
    need = entries * itemsize
    if need > _BUDGET:
        raise InvalidInput(f"{what} needs {need:,} bytes, over the budget of {_BUDGET:,}")


def _check_cells(cells: int) -> None:
    """``_check_budget`` for an ambient of ``cells`` cells, one ``int64`` index each."""
    _check_budget(cells, 8, f"an ambient of {cells:,} cells")


def _count_need(lowest: int) -> str:
    """What a count of at least ``lowest`` must be, as its refusal words it."""
    return ({0: "a nonnegative integer", 1: "a positive integer"}.get(lowest)
            or f"an integer >= {lowest}")


def _read_count(value, name: str, lowest: int = 1) -> int:
    """``value`` as an int when it is an int or a numpy integer of at least
    ``lowest``; anything else, a whole float or ``Fraction`` too, raises
    InvalidInput naming ``name``."""
    if isinstance(value, (int, np.integer)) and value >= lowest:
        return int(value)
    raise InvalidInput(f"{name} must be {_count_need(lowest)}, got {value!r}")


def _read_steps(steps) -> list[int]:
    """The sampled step counts as a list of ints, each read by ``_read_count``
    before the caller builds any map; an empty list raises InvalidInput."""
    steps = [_read_count(j, "step count", 0) for j in steps]
    if not steps:
        raise InvalidInput("no sample times given")
    return steps


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
    ends with ``_roots``, keeps the equations whose two roots differ, and
    runs hook-and-shortcut rounds until they hold: a round hooks each
    larger root onto the smallest root it meets with ``np.minimum.at``,
    shortcuts, and keeps the equations whose ends still carry different
    roots.  The shortcut walks the smaller of two index sets.  When the
    kept equations are at least as many as the labels, it is ``lab =
    lab[lab]`` to a fixpoint over the whole label array.  Otherwise it is
    ``lab[ends] = lab[lab[ends]]`` to a fixpoint over the block's
    first-round roots only: hooks go only from one of those roots to
    another, so shortcutting them keeps every one pointing at a root, and
    indices outside are left for one ``lab = lab[lab]`` loop at the end.
    Before any hook, and after a block on the label-array path, every index
    points at its root: a block that starts so reads its roots with one
    gather, and when the last block that hooked took that path the loop at
    the end is skipped.  Classes only merge, so an equation that held after
    an earlier block still holds; and a root never hooks onto a larger
    index, so on either path every root is its class minimum and the labels
    are the same.

    Both choices are measured on ``commutant_e m=200 r=1`` (489 blocks of
    32,600 equations, 40,001 labels; x86-64, glibc 2.36).  Shortcutting the
    label array from half as many kept equations as labels took it from
    0.155 to 0.186 s.  A block's arrays stay bound until the next block
    replaces them: a variant that freed them at the end of each block had a
    transient peak of 2.51 MB against 3.49, but glibc then trimmed the heap
    top after every block and faulted it back in during the next: 1.7 to
    5.5 times the minor page faults on ``commutant_mz d=80`` to ``d=300``
    and ``commutant_e m=100`` to ``m=250``, and 10 to 15 % more time on
    ``commutant_mz d=120`` and ``d=250`` (59 and 250 blocks).
    """
    lab = np.arange(size)
    rounds = 0
    flat = True  # every index points at its root
    for lhs, rhs in blocks:
        if flat:
            a, b = lab[lhs.ravel()], lab[rhs.ravel()]
        else:
            a, b = _roots(lab, lhs.ravel()), _roots(lab, rhs.ravel())
        differ = a != b
        if not np.count_nonzero(differ):
            continue
        a, b = a[differ], b[differ]
        flat = whole = a.size >= size
        if not whole:
            ends = np.concatenate([a, b])
        while a.size:
            np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
            if whole:
                lab = _shortcut(lab)
            else:
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
    return (lab if flat else _shortcut(lab)), rounds


def _shortcut(lab: np.ndarray) -> np.ndarray:
    """``lab = lab[lab]`` until every index points at its root."""
    while True:
        grand = lab[lab]
        if _equal(grand, lab):
            return lab
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
        self.ambient = _read_count(self.ambient, "ambient", 0)
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
