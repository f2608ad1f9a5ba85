"""Every partial-permutation constructor against a per-cell reference.

The constructors compute image arrays by index arithmetic; the tests
materialize them with the dense oracle's ``from_image``.  Each reference
below writes its matrix
one cell at a time from the scalar index rules of ``layout_oracle``, and
builds its windows the same way.  Matrices must agree bit for bit, windows
exactly.  The cyclic tensors of ``halfline_circulant_setup`` and
``circulant_pair_setup`` are among the constructors held to a reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import from_image, indices, matrix
from isoflow.duality import _torus_unitary, circulant_pair_setup, halfline_circulant_setup
from layout_oracle import coeff_index, grid_index, quadrant_index, torus_index
from isoflow.semigroups import (_circulant_image, _cut_shift_images, bishift_pair,
                                halfline_shift, modified_bishift_pair, phi_multiplier)
from isoflow.spaces import CellGrid1D, HardyCoeffSpace, LRegionIndex, QuadrantGrid2D

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)
SMALL = st.integers(1, 3)
TINY = st.integers(1, 2)


def zeros(n):
    return np.zeros((n, n), dtype=np.complex128)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_map(got, mat, faithful, adj_faithful):
    assert_same_bits(matrix(got), mat)
    assert indices(got.faithful_mask) == frozenset(faithful)
    assert indices(got.adj_faithful_mask) == frozenset(adj_faithful)


# --- references ---------------------------------------------------------------------

def reference_cut_shift(m, j, r):
    e0, e1 = zeros(m * r), zeros(m * r)
    for k in range(m):
        for rho in range(r):
            if k + j < m:
                e0[(k + j) * r + rho, k * r + rho] = 1.0
            else:
                e1[(k + j - m) * r + rho, k * r + rho] = 1.0
    return e0, e1


def reference_quadrant_cells(region):
    n, half = region.parent.n, region.half
    return sorted(torus_index(region.parent, k1, k2, rho) for k1 in range(half, n)
                  for k2 in range(half, n) for rho in range(region.r))


# --- one-sided constructors -----------------------------------------------------------

@SETTINGS
@given(SMALL, SMALL, SMALL, st.data())
def test_halfline_shift(m, T, r, data):
    grid = CellGrid1D(m, T, r)
    j = data.draw(st.integers(0, grid.cells))
    mat, faithful = zeros(grid.dim), []
    for k in range(grid.cells - j):
        for rho in range(r):
            mat[grid_index(grid, k + j, rho), grid_index(grid, k, rho)] = 1.0
            faithful.append(grid_index(grid, k, rho))
    assert_same_map(halfline_shift(grid, j), mat, faithful, range(grid.dim))


@SETTINGS
@given(st.integers(1, 5), SMALL, st.data())
def test_partial_isometry_pair(m, r, data):
    j = data.draw(st.integers(0, m - 1))
    pair = map(from_image, _cut_shift_images(m, j, r))
    for got, want in zip(pair, reference_cut_shift(m, j, r)):
        assert_same_bits(got, want)


@SETTINGS
@given(st.integers(0, 3), SMALL, SMALL, st.data())
def test_phi_multiplier(d, m, r, data):
    space = HardyCoeffSpace(d, m, r)
    j = data.draw(st.integers(0, (d + 1) * m - 1))
    n, jj = divmod(j, m)
    mat, faithful = zeros(space.dim), []
    for b in range(d + 1):
        for c in range(m):
            for rho in range(r):
                col = coeff_index(space, b, c, rho)
                # E0 keeps the cell in block b + n, E1 wraps it into block b + n + 1
                blk, cell = (b + n, c + jj) if c + jj < m else (b + n + 1, c + jj - m)
                if blk <= d:
                    mat[coeff_index(space, blk, cell, rho), col] = 1.0
                if b <= (d - n if jj == 0 else d - n - 1):
                    faithful.append(col)
    assert_same_map(phi_multiplier(d, m, r, j), mat, faithful, range(space.dim))


@SETTINGS
@given(st.integers(1, 7))
def test_circulant_unitary(n):
    mat = zeros(n)
    for i in range(n):
        mat[(i + 1) % n, i] = 1.0
    assert_same_bits(from_image(_circulant_image(n)), mat)


# --- two-dimensional constructors -----------------------------------------------------

@SETTINGS
@given(TINY, TINY, TINY, st.data())
def test_bishift_pair(m, T, r, data):
    grid = QuadrantGrid2D(m, T, r)
    j = data.draw(st.integers(0, grid.side))
    mats, windows = (zeros(grid.dim), zeros(grid.dim)), ([], [])
    for k1 in range(grid.side):
        for k2 in range(grid.side):
            for rho in range(r):
                col = quadrant_index(grid, k1, k2, rho)
                for axis, (t1, t2) in enumerate(((k1 + j, k2), (k1, k2 + j))):
                    if max(t1, t2) < grid.side:
                        mats[axis][quadrant_index(grid, t1, t2, rho), col] = 1.0
                        windows[axis].append(col)
    for got, mat, faithful in zip(bishift_pair(grid, j), mats, windows):
        assert_same_map(got, mat, faithful, range(grid.dim))


@SETTINGS
@given(TINY, TINY, TINY, st.data())
def test_modified_bishift_pair(m, T, r, data):
    region = LRegionIndex(m, T, r)
    j = data.draw(st.integers(0, 2 * region.half))
    n = region.parent.n
    cells = region.l_cells().tolist()
    local = {cell: pos for pos, cell in enumerate(cells)}
    got = modified_bishift_pair(region, j)
    for axis in (0, 1):
        mat, faithful, adj_faithful = zeros(len(cells)), [], []
        for pos, cell in enumerate(cells):
            flat, rho = divmod(cell, r)
            k = list(divmod(flat, n))
            if k[axis] - j >= 0:
                target = k.copy()
                target[axis] -= j
                mat[local[torus_index(region.parent, *target, rho)], pos] = 1.0
                faithful.append(pos)
            if k[axis] + j < n:
                adj_faithful.append(pos)
        assert_same_map(got[axis], mat, faithful, adj_faithful)


@SETTINGS
@given(TINY, TINY, TINY, st.integers(0, 1), st.booleans())
def test_torus_translation(m, T, r, axis, forward):
    region = LRegionIndex(m, T, r)
    grid, n = region.parent, region.parent.n
    step = [0, 0]
    step[axis] = 1 if forward else -1
    mat = zeros(grid.dim)
    for k1 in range(n):
        for k2 in range(n):
            for rho in range(r):
                mat[torus_index(grid, k1 + step[0], k2 + step[1], rho),
                    torus_index(grid, k1, k2, rho)] = 1.0
    assert_same_bits(matrix(_torus_unitary(region, axis, forward)), mat)


@SETTINGS
@given(TINY, TINY, TINY, st.integers(0, 1), st.booleans())
def test_torus_axis_faithful(m, T, r, axis, forward):
    """The window keeps the cells whose translate does not wrap; the adjoint
    window is that of the opposite direction."""
    region = LRegionIndex(m, T, r)
    n = region.parent.n

    def cells(keep):
        return {torus_index(region.parent, k1, k2, rho) for k1 in range(n) for k2 in range(n)
                for rho in range(r) if (k1, k2)[axis] in keep}

    up, down = cells(range(0, n - 1)), cells(range(1, n))
    got = _torus_unitary(region, axis, forward)
    assert indices(got.faithful_mask) == (up if forward else down)
    assert indices(got.adj_faithful_mask) == (down if forward else up)


@SETTINGS
@given(TINY, TINY, SMALL, st.booleans())
def test_halfline_circulant_setup(m, T, p, unitary_first):
    """The cycle on n = 2mT cells tensor I_p, unfaithful on its wrapping cell
    k = n - 1 and adjoint-unfaithful on k = 0, and I_n tensor the cycle on C^p,
    exact everywhere; cell k, fiber index rho is k * p + rho, and the embedded
    space is every cell k >= mT."""
    n = 2 * m * T
    shift, fiber, faithful, adj_faithful = zeros(n * p), zeros(n * p), [], []
    for k in range(n):
        for rho in range(p):
            col = k * p + rho
            shift[((k + 1) % n) * p + rho, col] = 1.0
            fiber[k * p + (rho + 1) % p, col] = 1.0
            if k < n - 1:
                faithful.append(col)
            if k > 0:
                adj_faithful.append(col)
    setup = halfline_circulant_setup(m, T, p, unitary_first)
    got_shift, got_fiber = (setup.u2, setup.u1) if unitary_first else (setup.u1, setup.u2)
    assert_same_map(got_shift, shift, faithful, adj_faithful)
    assert_same_map(got_fiber, fiber, range(n * p), range(n * p))
    assert setup.h.cells.tolist() == list(range(m * T * p, n * p))


@SETTINGS
@given(SMALL, SMALL)
def test_circulant_pair_setup(n1, n2):
    """The n1-cycle tensor I_n2 and I_n1 tensor the n2-cycle, exact everywhere;
    cell (k1, k2) is k1 * n2 + k2, and the whole space is embedded."""
    u1, u2 = zeros(n1 * n2), zeros(n1 * n2)
    for k1 in range(n1):
        for k2 in range(n2):
            u1[((k1 + 1) % n1) * n2 + k2, k1 * n2 + k2] = 1.0
            u2[k1 * n2 + (k2 + 1) % n2, k1 * n2 + k2] = 1.0
    setup = circulant_pair_setup(n1, n2)
    everything = range(n1 * n2)
    assert_same_map(setup.u1, u1, everything, everything)
    assert_same_map(setup.u2, u2, everything, everything)
    assert setup.h.dim == n1 * n2


@SETTINGS
@given(TINY, TINY, TINY)
def test_l_region_cells(m, T, r):
    region = LRegionIndex(m, T, r)
    quadrant = reference_quadrant_cells(region)
    assert region.quadrant_cells().tolist() == quadrant
    assert region.l_cells().tolist() == [i for i in range(region.parent.dim) if i not in quadrant]

