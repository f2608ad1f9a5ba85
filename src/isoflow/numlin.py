"""Deterministic complex linear algebra on subspaces, exact where the data is.

Everything downstream (grids, operator families, decompositions) reduces to
a handful of subspace primitives implemented here on complex128 arrays.
Two rules shape the implementation:

* Determinism.  Factorizations are delegated to LAPACK on fixed-layout
  inputs, reduction orders are fixed, and repeated calls on identical input
  bits return identical output bits.

* Exactness.  The constructors in this package produce 0/1 partial
  permutations.  Each computes its image array (the row of each column's
  single 1, -1 for a zero column) by index arithmetic, and ``_from_image``
  is the one materializer that turns an image into a matrix;
  ``semigroups.WindowedMap`` keeps the image and calls it only when its
  matrix is read.  A coordinate subspace (the span of distinct standard
  basis vectors) is held as its sorted ``int64`` array of ``cells``, and
  its basis matrix is built by ``_from_image`` only when something reads
  it.  When both operands are coordinate subspaces, intersection,
  complement and difference are index-array operations and the gap is 0.0
  or 1.0 in closed form, so identities that hold exactly are reported as
  exactly zero, not as 1e-16 noise.  Exactness follows from how a value
  is held, never from its entries: a dense operand gives a result held as
  an orthonormal basis, even when its columns happen to be unit vectors.

Zero-dimensional subspaces are ordinary values throughout, never errors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "Subspace",
    "as_matrix",
    "orthonormal_basis",
    "intersect",
    "complement",
    "subtract",
    "residual_norm",
    "spectral_norm",
]

_ORTHO_ATOL = 1e-12  # entrywise bound for basis*.basis - I


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used by every rank/residual/angle decision.

    rank_rel:  relative singular-value cutoff against the largest one.
    resid_abs: absolute bound under which a residual counts as zero.
    angle:     principal-angle cosine above which directions count as shared.
    """

    rank_rel: float = 1e-10
    resid_abs: float = 1e-10
    angle: float = 1.0 - 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel", "resid_abs", "angle"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise InvalidInput(f"tolerance {name} must lie strictly in (0, 1), got {value!r}")


DEFAULT_TOL = Tolerances()


def as_matrix(a) -> np.ndarray:
    """Validate and normalize a dense operator matrix to complex128.

    Raises InvalidInput for non-2D input or non-finite entries.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise InvalidInput(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInput("matrix has non-finite entries")
    return arr


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
    """A subspace of C^ambient.

    A coordinate subspace, the span of the standard basis vectors at a set
    of cells, is held as ``cells``: a strictly increasing, read-only
    ``int64`` array, validated in O(k).  Its ``basis`` is
    ``_from_image(cells, ambient)``, so local coordinate i is cell
    ``cells[i]`` in every code path; the matrix is built the first time
    something reads ``basis`` and is kept from then on.  Any other
    subspace is held as an orthonormal column ``basis``, validated by its
    Gram matrix, and its ``cells`` is None.  A subspace is given by a
    basis or by cells, never both.  Cells that set algebra computes from
    checked cells are increasing by construction, so the results of
    ``intersect``, ``complement`` and ``subtract`` come from ``_derived``
    and skip the O(k) check.

    Where both operands are coordinate subspaces, the set operations work
    on the cell arrays and ``gap`` is 0.0 or 1.0: the difference of two
    coordinate projectors is diagonal, +-1 on the symmetric difference.
    """

    def __init__(self, ambient: int, basis=None, cells=None):
        self.ambient = ambient
        self._basis = basis
        self.cells = cells
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.cells is not None:
            if self._basis is not None:
                raise InvalidInput("a subspace takes a basis or cells, not both")
            cells = _index_array(self.cells)
            if (cells.ndim != 1 or (cells.size and cells.dtype.kind not in "iu")
                    or (cells.size and not 0 <= cells[0] <= cells[-1] < self.ambient)
                    or (cells[1:] <= cells[:-1]).any()):
                raise InvalidInput("cells must be strictly increasing indices of the ambient space")
            cells = cells.astype(np.int64, copy=False).view()
            cells.flags.writeable = False
            self.cells = cells
            return
        if self._basis is None:
            raise InvalidInput("a subspace needs a basis or cells")
        basis = np.asarray(self._basis, dtype=np.complex128)
        self._basis = basis
        if basis.ndim != 2 or basis.shape[0] != self.ambient:
            raise InvalidInput(f"basis shape {basis.shape} incompatible with ambient {self.ambient}")
        if not 0 <= basis.shape[1] <= self.ambient:
            raise InvalidInput("basis has more columns than the ambient dimension")
        if basis.size and not np.isfinite(basis).all():
            raise InvalidInput("basis has non-finite entries")
        gram = basis.conj().T @ basis
        if gram.size and np.abs(gram - np.eye(basis.shape[1])).max() > _ORTHO_ATOL:
            raise InvalidInput("basis columns are not orthonormal to 1e-12")

    @classmethod
    def _derived(cls, ambient: int, cells: np.ndarray) -> "Subspace":
        """A coordinate subspace computed from checked ones, built without checks.

        ``cells`` is a fresh, strictly increasing ``int64`` array of indices
        of the ambient space, as set algebra on checked cells gives; it is
        marked read-only in place.  ``__post_init__`` does not run.
        """
        made = cls.__new__(cls)
        cells.flags.writeable = False
        made.ambient, made._basis, made.cells = ambient, None, cells
        return made

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            self._basis = _from_image(self.cells, self.ambient)
        return self._basis

    @property
    def dim(self) -> int:
        return self.cells.size if self.cells is not None else self._basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def gap(self, other: "Subspace") -> float:
        """Spectral distance between the two orthogonal projectors."""
        if other.ambient != self.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        if self.cells is not None and other.cells is not None:
            return 0.0 if np.array_equal(self.cells, other.cells) else 1.0
        return residual_norm(self.projector(), other.projector())

    @classmethod
    def from_cells(cls, ambient: int, cells) -> "Subspace":
        """Span of the standard basis vectors at ``cells``, given in any order."""
        return cls(ambient, cells=np.sort(_index_array(cells)))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, cells=np.arange(ambient))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, cells=np.empty(0, dtype=np.int64))


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; exactly 0.0 for an exactly zero matrix."""
    arr = np.asarray(m)
    if arr.size == 0 or not arr.any():
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def residual_norm(a, b) -> float:
    """Spectral norm of A - B, exactly 0.0 when the entries agree bitwise."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    if np.array_equal(a, b):
        return 0.0
    return spectral_norm(a - b)


def orthonormal_basis(m, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the column space of ``m``, held as a basis.

    One thin SVD; the rank is the number of singular values >= rank_rel *
    sigma_max.  An exactly zero matrix spans ``Subspace.zero``.
    """
    mat = as_matrix(m)
    if not mat.any():
        return Subspace.zero(mat.shape[0])
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s >= tol.rank_rel * s[0]))
    return Subspace(mat.shape[0], u[:, :rank])


def intersect(s1: Subspace, s2: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Numerical intersection of two subspaces.

    Keeps the directions whose principal-angle cosine is >= tol.angle.
    The cosines and the principal vectors in s1 come from the SVD of
    Q1* Q2 (Bjorck & Golub 1973).  Near cosine 1 that SVD cannot resolve
    an angle, so angles under pi/4 are decided by their sines, the
    singular values of the part of the smaller basis outside the larger
    span (Knyazev & Argentati 2002).  Two cell-held operands intersect by
    set arithmetic; any other pair gives a basis-held result.
    """
    if s1.ambient != s2.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    if s1.cells is not None and s2.cells is not None:
        return Subspace._derived(s1.ambient,
                                 np.intersect1d(s1.cells, s2.cells, assume_unique=True))
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(s1.ambient)
    u, cosines, _ = np.linalg.svd(s1.basis.conj().T @ s2.basis, full_matrices=False)
    big, small = (s1.basis, s2.basis) if s1.dim >= s2.dim else (s2.basis, s1.basis)
    outside = small - big @ (big.conj().T @ small)
    sines = np.linalg.svd(outside, compute_uv=False)[::-1]  # ascending, paired with the cosines
    sine_bound = np.sqrt((1.0 - tol.angle) * (1.0 + tol.angle))  # the sine of the angle bound
    keep = np.where(cosines**2 >= 0.5, sines <= sine_bound, cosines >= tol.angle)
    basis = s1.basis @ u[:, keep]  # descending cosine, fixed order
    return Subspace(s1.ambient, basis)


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement within the ambient space."""
    if s.cells is not None:
        outside = np.ones(s.ambient, dtype=bool)
        outside[s.cells] = False
        return Subspace._derived(s.ambient, np.flatnonzero(outside))
    if s.dim == 0:
        return Subspace.full(s.ambient)
    if s.dim == s.ambient:
        return Subspace.zero(s.ambient)
    _, _, vh = np.linalg.svd(s.basis.conj().T, full_matrices=True)
    return Subspace(s.ambient, vh[s.dim:].conj().T)


def subtract(big: Subspace, small: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthogonal difference ``big (-) small`` for ``small`` contained in ``big``."""
    if big.ambient != small.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    if big.cells is not None and small.cells is not None:
        at = _positions(big.cells, big.ambient)[small.cells]
        if (at < 0).any():
            raise InvalidInput("subtrahend is not contained in the minuend")
        return Subspace._derived(big.ambient, np.delete(big.cells, at))
    if small.dim == 0:
        return big
    residual = big.basis - small.projector() @ big.basis
    return orthonormal_basis(residual, tol)

