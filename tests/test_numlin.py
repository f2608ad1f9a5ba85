"""Subspace primitives against independent brute-force oracles.

The cell-set algebra of ``isoflow.numlin`` is checked against dense
projector formulas, and the dense oracle's own ``orthonormal_basis`` and
``residual_norm`` (``tests/dense_oracle.py``), and the SVD ``nullspace``
oracle of the commutant tests, against independent constructions.
"""

import numpy as np
import pytest

from dense_oracle import basis, orthonormal_basis, projector, residual_norm
from isoflow.errors import DimensionMismatch, InvalidInput
from isoflow.numlin import Subspace, complement, intersect, subtract

RNG = np.random.default_rng(20240817)


def random_complex(rows, cols):
    return RNG.standard_normal((rows, cols)) + 1j * RNG.standard_normal((rows, cols))


# --- oracles ---------------------------------------------------------------

def gram_elimination_basis(m, tol=1e-10):
    """Classical Gram elimination: independent orthonormalization oracle."""
    basis = []
    for j in range(m.shape[1]):
        v = m[:, j].astype(np.complex128)
        for q in basis:
            v = v - np.vdot(q, v) * q
        norm = np.linalg.norm(v)
        if norm > tol * max(1.0, np.linalg.norm(m[:, j])):
            basis.append(v / norm)
    if not basis:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    return np.column_stack(basis)


def nullspace(m, rank_rel=1e-10):
    """Orthonormal basis matrix of the numerical null space of ``m``, by SVD.

    Directions are the right singular vectors with singular value below
    rank_rel * sigma_max.  The exactly-zero matrix maps to the identity
    basis.  ``test_commutant`` checks the exact commutant solver against it.
    """
    mat = np.asarray(m, dtype=np.complex128)
    ambient = mat.shape[1]
    if mat.size == 0 or not mat.any():
        return np.eye(ambient, dtype=np.complex128)
    # rows >= cols leaves vh square, so the thin factorization is complete
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    rank = int(np.sum(s >= rank_rel * s[0]))
    return vh[rank:].conj().T


def stacked_nullspace_intersection(b1, b2):
    """Intersection oracle: solve b1 x = b2 y via one stacked nullspace."""
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return np.zeros((b1.shape[0], 0), dtype=np.complex128)
    stacked = np.hstack([b1, -b2])
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    coeffs = vh[rank:].conj().T[:b1.shape[1], :]
    vectors = b1 @ coeffs
    return gram_elimination_basis(vectors)


def random_cells(ambient):
    return Subspace(ambient, np.flatnonzero(RNG.random(ambient) < 0.5))


# --- the dense oracle's orthonormal_basis -------------------------------------------

def test_orthonormal_identity_exact():
    basis = orthonormal_basis(np.eye(3))
    assert basis.shape == (3, 3)
    assert residual_norm(projector(basis), np.eye(3)) < 1e-12


def test_orthonormal_zero_matrix():
    assert orthonormal_basis(np.zeros((4, 2))).shape == (4, 0)


def test_orthonormal_rank_two_columns():
    m = np.array([[1, 2, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    basis = orthonormal_basis(m)
    oracle = gram_elimination_basis(m)
    assert basis.shape[1] == oracle.shape[1] == 2
    assert residual_norm(projector(basis), projector(oracle)) < 1e-12


def test_orthonormal_output_is_orthonormal():
    for _ in range(10):
        basis = orthonormal_basis(random_complex(7, 4))
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(basis.shape[1])).max() < 1e-12


# --- intersect ---------------------------------------------------------------

def e_span(ambient, cells):
    return Subspace(ambient, cells)


def test_intersect_idempotent():
    s = e_span(4, (0, 1))
    out = intersect(s, s)
    assert out.dim == 2
    assert out.gap(s) == 0.0 and np.array_equal(out.cells, s.cells)


def test_intersect_overlap_single_line():
    out = intersect(e_span(4, (0, 1)), e_span(4, (1, 2)))
    assert out.dim == 1
    assert out.cells == (1,)
    oracle = stacked_nullspace_intersection(basis(e_span(4, (0, 1))), basis(e_span(4, (1, 2))))
    assert residual_norm(projector(basis(out)), projector(oracle)) < 1e-10


def test_intersect_orthogonal_lines():
    out = intersect(e_span(4, (0,)), e_span(4, (1,)))
    assert out.dim == 0


def test_intersect_symmetric():
    for _ in range(6):
        s1, s2 = random_cells(6), random_cells(6)
        a = intersect(s1, s2)
        b = intersect(s2, s1)
        assert np.array_equal(a.cells, b.cells)
        oracle = stacked_nullspace_intersection(basis(s1), basis(s2))
        assert residual_norm(projector(basis(a)), projector(oracle)) < 1e-10


def test_intersect_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(e_span(4, (0,)), e_span(5, (0,)))


# --- complement --------------------------------------------------------------

def test_complement_coordinate_cases():
    out = complement(e_span(2, (0,)))
    assert out.cells == (1,)
    assert complement(e_span(3, (0, 1, 2))).dim == 0
    assert complement(e_span(3, ())).dim == 3


def test_complement_twice_restores_projector():
    for _ in range(8):
        s = random_cells(7)
        once = complement(s)
        assert residual_norm(projector(basis(once)), np.eye(7) - projector(basis(s))) == 0.0
        assert np.array_equal(complement(once).cells, s.cells)


def test_complement_dimension_count():
    for k in range(6):
        s = Subspace(5, range(k))
        assert s.dim + complement(s).dim == 5


def test_subtract_cells_and_general():
    """A fixed case, and random cell sets against the projector difference
    P_big - P_small, which is the projector of the difference."""
    big = e_span(5, (0, 1, 3))
    small = e_span(5, (1,))
    assert tuple(subtract(big, small).cells) == (0, 3)
    for _ in range(8):
        big = random_cells(9)
        small = Subspace(9, big.cells[RNG.random(big.dim) < 0.5])
        left = subtract(big, small)
        assert residual_norm(projector(basis(left)),
                             projector(basis(big)) - projector(basis(small))) == 0.0
    with pytest.raises(InvalidInput):
        subtract(e_span(5, (0, 1)), e_span(5, (2,)))


# --- nullspace ----------------------------------------------------------------

def test_nullspace_zero_and_identity():
    assert nullspace(np.zeros((2, 2))).shape[1] == 2
    assert nullspace(np.eye(3)).shape[1] == 0


def test_nullspace_rank_one_example():
    out = nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert out.shape[1] == 1
    oracle = np.array([[1.0], [-1.0]]) / np.sqrt(2)  # eigenvector of M*M for eigenvalue 0
    assert residual_norm(projector(out), projector(oracle)) < 1e-12


def test_nullspace_matches_eigen_oracle():
    for _ in range(6):
        m = random_complex(5, 7)
        m[:, 3] = m[:, 0] + m[:, 1]  # force rank deficiency
        out = nullspace(m)
        gram = m.conj().T @ m
        eigvals, eigvecs = np.linalg.eigh((gram + gram.conj().T) / 2)
        null = eigvals < 1e-10 * eigvals.max()  # a relative cut above the Gram's float noise
        assert out.shape[1] == int(np.sum(null)) == 2
        assert out.shape[1] == 7 - np.linalg.matrix_rank(
            m, tol=1e-10 * np.linalg.svd(m, compute_uv=False)[0])
        assert residual_norm(projector(out), projector(eigvecs[:, null])) < 1e-10


def test_nullspace_product_small():
    cutoff_factor = 10
    for _ in range(8):
        m = random_complex(6, 6)
        m[:, 5] = 2 * m[:, 0]
        out = nullspace(m)
        if out.shape[1]:
            smax = np.linalg.svd(m, compute_uv=False)[0]
            prod = np.linalg.svd(m @ out, compute_uv=False)[0]
            assert prod <= cutoff_factor * 1e-10 * smax


@pytest.mark.parametrize("rows,cols", [(9, 5), (3, 6)])
def test_nullspace_thin_and_full_factorizations_agree(rows, cols):
    """Tall input takes the thin SVD; it must give the full SVD's null space."""
    m = random_complex(rows, cols)
    m[:, 2] = m[:, 0] - 1j * m[:, 1]  # rank deficient whatever the shape
    out = nullspace(m)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s >= 1e-10 * s[0]))
    full = vh[rank:].conj().T
    assert out.shape[1] == full.shape[1] >= 1
    assert residual_norm(projector(out), projector(full)) <= 1e-12


# --- the dense oracle's residual_norm ------------------------------------------------

def test_residual_norm_examples():
    a = np.eye(2)
    assert residual_norm(a, a.copy()) == 0.0
    assert residual_norm(np.eye(2), np.zeros((2, 2))) == 1.0
    assert abs(residual_norm(np.diag([3.0, 1.0]), np.diag([1.0, 1.0])) - 2.0) < 1e-15


def test_residual_norm_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        residual_norm(np.eye(2), np.eye(3))


def test_residual_norm_triangle_inequality():
    for _ in range(10):
        a, b, c = (random_complex(4, 4) for _ in range(3))
        lhs = residual_norm(a, c)
        rhs = residual_norm(a, b) + residual_norm(b, c)
        assert lhs <= rhs + 1e-12


# --- types ----------------------------------------------------------------------

def test_subspace_rejects_non_orthonormal():
    """A subspace is a cell array: a basis matrix, orthonormal or not, is refused,
    and so are cells out of order, repeated or outside the ambient space."""
    for cells in (np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), (1, 0), (0, 0), (0, 2), (-1,),
                  (0.0, 1.0)):
        with pytest.raises(InvalidInput):
            Subspace(2, cells)


def test_coordinate_results_take_from_cells_form():
    """Local coordinate i of a coordinate result is always cell cells[i]."""
    results = [
        intersect(Subspace(3, [0, 1, 2]), Subspace(3, [0, 2])),
        complement(Subspace(4, [1, 3])),
        subtract(Subspace.full(4), Subspace(4, [1, 3])),
    ]
    for got in results:
        assert got.cells is not None and got.dim == 2
        assert np.array_equal(basis(got), basis(Subspace(got.ambient, got.cells)))
