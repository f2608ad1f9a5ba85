"""Subspace primitives against independent brute-force oracles."""

import numpy as np
import pytest

from isoflow.errors import DimensionMismatch, InvalidInput
from isoflow.numlin import (DEFAULT_TOL, Subspace, Tolerances, as_matrix, complement,
                            intersect, orthonormal_basis, residual_norm, subtract)

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


def nullspace(m, tol=DEFAULT_TOL):
    """Orthonormal basis of the numerical null space of ``m``, by SVD.

    Directions are the right singular vectors with singular value below
    rank_rel * sigma_max.  The exactly-zero matrix maps to the full space
    with the identity basis.  ``test_commutant`` checks the exact
    commutant solver against it.
    """
    mat = as_matrix(m)
    ambient = mat.shape[1]
    if mat.size == 0 or not mat.any():
        return Subspace.full(ambient)
    # rows >= cols leaves vh square, so the thin factorization is complete
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    rank = int(np.sum(s >= tol.rank_rel * s[0]))
    return Subspace(ambient, vh[rank:].conj().T)


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


def projector(basis):
    return basis @ basis.conj().T


# --- orthonormal_basis ------------------------------------------------------

def test_orthonormal_identity_exact():
    """A dense identity is held as a basis: no entry is read to find cells."""
    sub = orthonormal_basis(np.eye(3))
    assert sub.dim == 3 and sub.cells is None
    assert residual_norm(sub.projector(), np.eye(3)) < 1e-12


def test_orthonormal_zero_matrix():
    sub = orthonormal_basis(np.zeros((4, 2)))
    assert sub.dim == 0 and sub.ambient == 4


def test_orthonormal_rank_two_columns():
    m = np.array([[1, 2, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    sub = orthonormal_basis(m)
    oracle = gram_elimination_basis(m)
    assert sub.dim == oracle.shape[1] == 2
    assert residual_norm(projector(sub.basis), projector(oracle)) < 1e-12


def test_orthonormal_output_is_orthonormal():
    for _ in range(10):
        m = random_complex(7, 4)
        sub = orthonormal_basis(m)
        gram = sub.basis.conj().T @ sub.basis
        assert np.abs(gram - np.eye(sub.dim)).max() < 1e-12


def test_orthonormal_rejects_nonfinite():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidInput):
        orthonormal_basis(bad)


# --- intersect ---------------------------------------------------------------

def e_span(ambient, cells):
    return Subspace.from_cells(ambient, cells)


def test_intersect_idempotent():
    s = e_span(4, (0, 1))
    out = intersect(s, s)
    assert out.dim == 2
    assert residual_norm(out.projector(), s.projector()) == 0.0


def test_intersect_overlap_single_line():
    out = intersect(e_span(4, (0, 1)), e_span(4, (1, 2)))
    assert out.dim == 1
    assert out.cells == (1,)
    oracle = stacked_nullspace_intersection(e_span(4, (0, 1)).basis, e_span(4, (1, 2)).basis)
    assert residual_norm(out.projector(), projector(oracle)) < 1e-10


def test_intersect_orthogonal_lines():
    out = intersect(e_span(4, (0,)), e_span(4, (1,)))
    assert out.dim == 0


def test_intersect_general_bases_match_oracle():
    for _ in range(8):
        b1 = orthonormal_basis(random_complex(8, 3)).basis
        shared = b1[:, :1]
        b2 = orthonormal_basis(np.hstack([shared, random_complex(8, 2)])).basis
        got = intersect(Subspace(8, b1), Subspace(8, b2))
        oracle = stacked_nullspace_intersection(b1, b2)
        assert got.dim == oracle.shape[1]
        assert residual_norm(got.projector(), projector(oracle)) < 1e-8


@pytest.mark.parametrize("angle", [DEFAULT_TOL.angle, np.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("factor, shared", [(0.5, 2), (0.9, 2), (1.1, 1), (2.0, 1)])
def test_intersect_planes_at_known_angles(angle, factor, shared):
    """Two planes share one line and meet at theta along a second one.  The
    second direction counts as shared exactly when cos(theta) >= angle; at
    the tightest bound the cosines are 1 - O(1e-16), so only the sines tell
    the two sides apart."""
    tol = Tolerances(angle=angle)
    theta = factor * np.arccos(angle)
    q, _ = np.linalg.qr(random_complex(5, 5))
    line, tilted = q[:, 0], np.cos(theta) * q[:, 1] + np.sin(theta) * q[:, 2]
    s1 = Subspace(5, q[:, :2])
    for s2 in (Subspace(5, np.stack([line, tilted], axis=1)),
               Subspace(5, np.stack([line, tilted, q[:, 3]], axis=1))):
        for got, host in ((intersect(s1, s2, tol), s1), (intersect(s2, s1, tol), s2)):
            assert got.dim == shared
            assert residual_norm(host.projector() @ got.basis, got.basis) < 1e-12
            if shared == 1:
                assert got.gap(Subspace(5, line[:, None])) < 1e-12


def test_intersect_symmetric():
    for _ in range(6):
        s1 = orthonormal_basis(random_complex(6, 3))
        s2 = orthonormal_basis(random_complex(6, 4))
        a = intersect(s1, s2)
        b = intersect(s2, s1)
        assert a.dim == b.dim
        if a.dim:
            assert residual_norm(a.projector(), b.projector()) < 1e-8


def test_intersect_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(e_span(4, (0,)), e_span(5, (0,)))


# --- complement --------------------------------------------------------------

def test_complement_coordinate_cases():
    out = complement(e_span(2, (0,)))
    assert out.cells == (1,)
    assert complement(e_span(3, (0, 1, 2))).dim == 0
    assert complement(e_span(3, ())).dim == 3


def test_complement_diagonal_line():
    basis = np.array([[1.0], [1.0]]) / np.sqrt(2)
    out = complement(Subspace(2, basis))
    oracle = np.array([[1.0], [-1.0]]) / np.sqrt(2)
    assert residual_norm(out.projector(), projector(oracle)) < 1e-12


def test_complement_twice_restores_projector():
    for _ in range(8):
        s = orthonormal_basis(random_complex(7, 3))
        twice = complement(complement(s))
        assert residual_norm(twice.projector(), s.projector()) <= 1e-10


def test_complement_dimension_count():
    for cols in range(5):
        s = orthonormal_basis(random_complex(5, cols)) if cols else Subspace.zero(5)
        assert s.dim + complement(s).dim == 5


def test_subtract_cells_and_general():
    big = e_span(5, (0, 1, 3))
    small = e_span(5, (1,))
    assert tuple(subtract(big, small).cells) == (0, 3)
    dense_big = orthonormal_basis(random_complex(6, 4))
    dense_small = Subspace(6, dense_big.basis[:, :2])
    left = subtract(dense_big, dense_small)
    assert left.dim == 2
    assert residual_norm(dense_small.projector() @ left.basis,
                         np.zeros((6, 2))) < 1e-10


# --- nullspace ----------------------------------------------------------------

def test_nullspace_zero_and_identity():
    assert nullspace(np.zeros((2, 2))).dim == 2
    assert nullspace(np.eye(3)).dim == 0


def test_nullspace_rank_one_example():
    out = nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert out.dim == 1
    oracle = np.array([[1.0], [-1.0]]) / np.sqrt(2)  # eigenvector of M*M for eigenvalue 0
    assert residual_norm(out.projector(), projector(oracle)) < 1e-12


def test_nullspace_matches_eigen_oracle():
    for _ in range(6):
        m = random_complex(5, 7)
        m[:, 3] = m[:, 0] + m[:, 1]  # force rank deficiency
        out = nullspace(m)
        gram = m.conj().T @ m
        eigvals, eigvecs = np.linalg.eigh((gram + gram.conj().T) / 2)
        oracle_dim = int(np.sum(eigvals < (1e-10 * np.sqrt(eigvals.max())) ** 2 * 10))
        assert out.dim >= 1
        assert out.dim == 7 - np.linalg.matrix_rank(m, tol=1e-10 * np.linalg.svd(m, compute_uv=False)[0])
        del oracle_dim, eigvecs


def test_nullspace_product_small():
    cutoff_factor = 10
    for _ in range(8):
        m = random_complex(6, 6)
        m[:, 5] = 2 * m[:, 0]
        out = nullspace(m)
        if out.dim:
            smax = np.linalg.svd(m, compute_uv=False)[0]
            prod = np.linalg.svd(m @ out.basis, compute_uv=False)[0]
            assert prod <= cutoff_factor * DEFAULT_TOL.rank_rel * smax


@pytest.mark.parametrize("rows,cols", [(9, 5), (3, 6)])
def test_nullspace_thin_and_full_factorizations_agree(rows, cols):
    """Tall input takes the thin SVD; it must give the full SVD's null space."""
    m = random_complex(rows, cols)
    m[:, 2] = m[:, 0] - 1j * m[:, 1]  # rank deficient whatever the shape
    out = nullspace(m)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s >= DEFAULT_TOL.rank_rel * s[0]))
    full = vh[rank:].conj().T
    assert out.dim == full.shape[1] >= 1
    assert residual_norm(out.projector(), projector(full)) <= 1e-12


# --- residual_norm -------------------------------------------------------------

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

def test_tolerances_validation():
    with pytest.raises(InvalidInput):
        Tolerances(rank_rel=0.0)
    with pytest.raises(InvalidInput):
        Tolerances(angle=1.5)


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(InvalidInput):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_subspace_rejects_cells_that_disagree_with_basis():
    basis = np.zeros((4, 2), dtype=np.complex128)
    basis[1, 0] = basis[3, 1] = 1.0
    with pytest.raises(InvalidInput):  # a basis and cells together, even when they agree
        Subspace(4, basis, (1, 3))
    for cells in [(0, 3), (1,), (1, 2, 3)]:
        with pytest.raises(InvalidInput):
            Subspace(4, basis, cells)
    basis[3, 1] = 1j
    with pytest.raises(InvalidInput):
        Subspace(4, basis, (1, 3))


def test_subspace_rejects_basis_out_of_cells_order():
    swapped = np.eye(3)[:, [2, 0]]
    for cells in [(0, 2), (2, 0)]:
        with pytest.raises(InvalidInput):
            Subspace(3, swapped, cells)
    with pytest.raises(InvalidInput):
        Subspace(3, np.eye(3)[:, [1, 1]], (1, 1))
    assert Subspace(3, swapped).cells is None


def test_coordinate_results_take_from_cells_form():
    """Local coordinate i of a coordinate result is always cell cells[i]."""
    results = [
        intersect(Subspace.from_cells(3, [2, 0, 1]), Subspace.from_cells(3, [0, 2])),
        complement(Subspace.from_cells(4, [3, 1])),
        subtract(Subspace.full(4), Subspace.from_cells(4, [3, 1])),
    ]
    for got in results:
        assert got.cells is not None and got.dim == 2
        assert np.array_equal(got.basis, Subspace.from_cells(got.ambient, got.cells).basis)


def test_dense_operands_give_basis_held_results():
    """A basis-held operand gives a basis-held result, even when that result
    is a coordinate span: exactness comes from how a value is held."""
    swapped = np.eye(3)[:, [2, 0]]
    results = [
        (orthonormal_basis(swapped), (0, 2)),
        (intersect(Subspace(3, swapped), Subspace.full(3)), (0, 2)),
        (complement(Subspace(4, np.eye(4)[:, [1, 3]])), (0, 2)),
        (subtract(Subspace(3, np.eye(3)), Subspace.from_cells(3, [1])), (0, 2)),
        (nullspace(np.diag([0.0, 1.0, 0.0])), (0, 2)),
    ]
    for got, cells in results:
        assert got.cells is None and got.dim == 2
        assert got.gap(Subspace.from_cells(got.ambient, cells)) < 1e-12


# --- coordinate cells ------------------------------------------------------------

def test_coordinate_cells_of_unit_columns_in_any_order():
    """``from_cells`` sorts the cells it is given; its basis columns follow them."""
    sub = Subspace.from_cells(5, [4, 0, 2])
    assert tuple(sub.cells) == (0, 2, 4)
    assert np.array_equal(sub.basis, np.eye(5)[:, [0, 2, 4]])
    assert tuple(Subspace.from_cells(4, []).cells) == ()


@pytest.mark.parametrize("case", ["phase", "shared_row", "zero_column", "two_nonzeros"])
def test_coordinate_cells_rejects_non_coordinate_columns(case):
    """Columns that are not distinct unit vectors span a basis-held subspace,
    the span that the Gram elimination oracle finds."""
    basis = np.zeros((4, 2), dtype=np.complex128)
    basis[0, 0] = basis[1, 1] = 1.0
    if case == "phase":
        basis[1, 1] = 1j
    elif case == "shared_row":
        basis[:, 1] = 0.0
        basis[0, 1] = 1.0
    elif case == "zero_column":
        basis[:, 1] = 0.0
    else:
        basis[:, 1] = 0.0
        basis[2, 1] = basis[3, 1] = np.sqrt(0.5)
    sub = orthonormal_basis(basis)
    oracle = gram_elimination_basis(basis)
    assert sub.cells is None and sub.dim == oracle.shape[1]
    assert residual_norm(sub.projector(), projector(oracle)) < 1e-12
