"""Dense reference formulas for the exact operators and subspaces of isoflow.

isoflow holds every operator as the image of a 0/1 partial permutation and
every subspace as a cell array.  The formulas here do the same operations
on dense complex matrices and orthonormal bases, written from their
definitions, and the tests compare the exact results against them:

* ``DenseMap``: a matrix with a faithful mask over its columns and one over
  its rows, with ``compose`` by the support rule
  faithful(A o B) = { i in faithful(B) : supp(B e_i) subset faithful(A) }
  (and its row-wise mirror for the adjoint window) and ``adjoint`` as the
  conjugate transpose with the two masks swapped;
* ``compress``, ``direct_sum``, ``tensor_with_identity``, ``pair_residual``
  and ``isometry_defect``, the dense forms of the helpers of the same names
  in ``isoflow.semigroups``;
* ``orthonormal_basis``, ``projector`` and ``residual_norm`` for spans;
* ``from_image``, the materializer of an image or a cell array, with
  ``matrix``, ``basis`` and ``indicators``, the dense forms of a
  ``WindowedMap``, a ``Subspace`` and a ``CommutantBasis``, and
  ``spectral_norm``, the one SVD;
* ``fiber_form_verdict``, the Kronecker formula for the structure verdict
  of ``commutant._fiber_form``.
"""

import numpy as np

from isoflow.errors import DimensionMismatch


def from_image(image, rows: int | None = None) -> np.ndarray:
    """0/1 complex matrix with a 1 at (image[j], j) for every j with image[j] >= 0.

    ``rows`` defaults to the number of columns.
    """
    image = np.asarray(image, dtype=np.int64)
    out = np.zeros((image.size if rows is None else rows, image.size), dtype=np.complex128)
    live = np.flatnonzero(image >= 0)
    out[image[live], live] = 1.0
    return out


def matrix(x) -> np.ndarray:
    """The dense matrix of a ``WindowedMap``."""
    return from_image(x.image, x.codomain_dim)


def basis(s) -> np.ndarray:
    """The ambient x dim matrix whose column i is the unit vector at ``s.cells[i]``."""
    return from_image(s.cells, s.ambient)


def indicators(c) -> tuple[np.ndarray, ...]:
    """The 0/1 class indicators of a ``CommutantBasis``, in label order."""
    return tuple((c.labels == k).astype(np.complex128) for k in range(c.dim))


def spectral_norm(m) -> float:
    """Largest singular value; exactly 0.0 for an exactly zero matrix."""
    arr = np.asarray(m)
    if arr.size == 0 or not arr.any():
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def _mask(window, n: int) -> np.ndarray:
    """Boolean mask of length n from a mask or any iterable of indices."""
    window = np.asarray(window if isinstance(window, np.ndarray) else sorted(window))
    if window.dtype == bool:
        return window.copy()
    mask = np.zeros(n, dtype=bool)
    mask[window.astype(np.int64)] = True
    return mask


def _escapes(matrix: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Mask of the columns with a nonzero entry in some row outside ``window``."""
    return matrix[~window].any(axis=0)


class DenseMap:
    """A dense complex matrix with its two exactness windows as boolean masks."""

    def __init__(self, matrix, faithful, adj_faithful):
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        rows, cols = self.matrix.shape
        self.faithful_mask = _mask(faithful, cols)
        self.adj_faithful_mask = _mask(adj_faithful, rows)

    @classmethod
    def of(cls, x) -> "DenseMap":
        """The dense twin of an image-backed ``WindowedMap``."""
        return cls(matrix(x), x.faithful_mask, x.adj_faithful_mask)

    @classmethod
    def full(cls, matrix) -> "DenseMap":
        """A matrix that represents its operator exactly everywhere."""
        rows, cols = np.shape(matrix)
        return cls(matrix, np.ones(cols, dtype=bool), np.ones(rows, dtype=bool))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def faithful(self) -> frozenset:
        return frozenset(np.flatnonzero(self.faithful_mask).tolist())

    @property
    def adj_faithful(self) -> frozenset:
        return frozenset(np.flatnonzero(self.adj_faithful_mask).tolist())

    def compose(self, other: "DenseMap") -> "DenseMap":
        """self o other, both windows shrunk by the support rule."""
        kept = other.faithful_mask & ~_escapes(other.matrix, self.faithful_mask)
        adj_kept = self.adj_faithful_mask & ~_escapes(self.matrix.T, other.adj_faithful_mask)
        return DenseMap(self.matrix @ other.matrix, kept, adj_kept)

    def __matmul__(self, other: "DenseMap") -> "DenseMap":
        return self.compose(other)

    def adjoint(self) -> "DenseMap":
        return DenseMap(self.matrix.conj().T, self.adj_faithful_mask, self.faithful_mask)


def compress(u: DenseMap, cells) -> DenseMap:
    """Compression to the coordinate span of ``cells`` (increasing): a column is
    trusted when it is trusted for u and its support stays inside the cells."""
    cells = np.asarray(cells, dtype=np.int64)
    inside = _mask(cells, u.shape[0])
    escapes = _escapes(u.matrix, inside)[cells]
    return DenseMap(u.matrix[np.ix_(cells, cells)], u.faithful_mask[cells] & ~escapes,
                    u.adj_faithful_mask[cells])


def direct_sum(*parts: DenseMap) -> DenseMap:
    """Block-diagonal direct sum with the concatenated masks."""
    rows = sum(p.shape[0] for p in parts)
    cols = sum(p.shape[1] for p in parts)
    matrix = np.zeros((rows, cols), dtype=np.complex128)
    r = c = 0
    for part in parts:
        matrix[r:r + part.shape[0], c:c + part.shape[1]] = part.matrix
        r, c = r + part.shape[0], c + part.shape[1]
    return DenseMap(matrix, np.concatenate([p.faithful_mask for p in parts]),
                    np.concatenate([p.adj_faithful_mask for p in parts]))


def tensor_with_identity(part: DenseMap, fiber: int, side: str = "right") -> DenseMap:
    """part (x) I_fiber (side "right") or I_fiber (x) part (side "left")."""
    eye = np.eye(fiber, dtype=np.complex128)
    if side == "right":
        return DenseMap(np.kron(part.matrix, eye), np.repeat(part.faithful_mask, fiber),
                        np.repeat(part.adj_faithful_mask, fiber))
    return DenseMap(np.kron(eye, part.matrix), np.tile(part.faithful_mask, fiber),
                    np.tile(part.adj_faithful_mask, fiber))


def pair_residual(x: DenseMap, y: DenseMap) -> tuple[float, int] | None:
    """Spectral norm of x - y on the columns faithful for both, with their count."""
    columns = np.flatnonzero(x.faithful_mask & y.faithful_mask)
    if not columns.size:
        return None
    return spectral_norm(x.matrix[:, columns] - y.matrix[:, columns]), columns.size


def residual_norm(a, b) -> float:
    """Spectral norm of A - B, exactly 0.0 when the entries agree bitwise."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.0 if np.array_equal(a, b) else spectral_norm(a - b)


def isometry_defect(matrix, cols=slice(None)) -> float:
    """Spectral norm of the Gram matrix of the chosen columns minus I."""
    block = np.asarray(matrix, dtype=np.complex128)[:, cols]
    return residual_norm(block.conj().T @ block, np.eye(block.shape[1]))


def orthonormal_basis(m, rank_rel: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column space of ``m``, by one thin SVD with a rank cut."""
    m = np.asarray(m, dtype=np.complex128)
    if not m.any():
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :int(np.sum(s >= rank_rel * s[0]))]


def projector(basis) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal columns."""
    basis = np.asarray(basis, dtype=np.complex128)
    return basis @ basis.conj().T


def fiber_form_verdict(labels: np.ndarray, blocks: int) -> str:
    """"fiber_scalar" when the label array equals I_blocks (x) its leading block,
    with -1 off the diagonal blocks, built by ``np.kron``; "other" otherwise."""
    fiber = labels.shape[0] // blocks
    tiled = np.kron(np.eye(blocks, dtype=np.int64), labels[:fiber, :fiber] + 1) - 1
    return "fiber_scalar" if np.array_equal(labels, tiled) else "other"
