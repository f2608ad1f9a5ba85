"""Coordinate subspaces: cell arrays and the closed forms.

A coordinate ``Subspace`` holds its cells and nothing dense.  Every closed
form on cells and images is compared with the dense formula of
``tests/dense_oracle.py`` run on the oracle's basis and matrix of the same
input; ``_reduction_residual`` takes every part of a split in one call.
The memory tests run each catalog construction family at
dimension >= 1024, where one dense n x n complex matrix takes 16 MiB, and
must peak below that.  The ``modified_bishift`` witness is exactly 1.0
in closed form for m = 2, 4, ..., 64, below 32 MiB at m = 64.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from dense_oracle import DenseMap, basis, matrix, projector, spectral_norm
from isoflow import decompose, numlin
from isoflow.catalog import Scenario, _generator_isometry_entry, run_scenario
from isoflow.decompose import (_reduction_residual, _unitary_residual, fourfold_decompose,
                               wold_cooper)
from isoflow.duality import _lift_local, _restrict_to
from isoflow.errors import InternalInconsistency, InvalidInput
from isoflow.numlin import Subspace, complement, intersect, subtract
from isoflow.semigroups import (SemigroupFamily, WindowedMap, _pair_residual, bishift_families,
                                halfline_shift_family)
from isoflow.spaces import CellGrid1D, QuadrantGrid2D

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

DENSE_MATRIX_BYTES = 16 * 2**20  # one 1024 x 1024 complex128 matrix


def dense_reduction_residual(sub: Subspace, elements) -> float:
    """Largest norm of (P M - M P) over the faithful columns of each element M."""
    p = projector(basis(sub))
    worst = 0.0
    for x in elements:
        m = DenseMap.of(x).matrix
        worst = max(worst, spectral_norm((p @ m - m @ p)[:, x.faithful_mask]))
    return worst


def dense_unitary_residual(part: Subspace, generator: WindowedMap) -> float:
    """Larger isometry defect of the compression C and of C*."""
    c = dense.compress(DenseMap.of(generator), part.cells).matrix
    return max(dense.isometry_defect(c), dense.isometry_defect(c.conj().T))


@st.composite
def cell_subspaces(draw, n: int):
    return Subspace(n, sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))))


@st.composite
def square_images(draw, n: int):
    """A square image-backed 0/1 map with random windows, injective as from_image demands."""
    targets = draw(st.permutations(range(n)))
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    image = np.where(kept, targets, -1)
    faithful = draw(st.sets(st.integers(0, n - 1), max_size=n))
    adj_faithful = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return WindowedMap.from_image(image, faithful, adj_faithful)


# --- representation ---------------------------------------------------------------

def test_cells_are_validated_as_a_strictly_increasing_index_array():
    for bad in ([2, 1], [1, 1], [-1, 2], [0, 6], [[0, 1]], [0.5, 1.7], np.array([0.0, 2.0])):
        with pytest.raises(InvalidInput):
            Subspace(6, cells=bad)
    with pytest.raises(TypeError):
        Subspace(6)  # cells are required: there is no other way to hold a subspace
    for bad in ([1, 1], [2.9, 0.2], np.array([1.5])):  # a float cell is not truncated
        with pytest.raises(InvalidInput):
            Subspace(6, sorted(bad))
    assert Subspace(6, cells=[]).dim == 0
    sub = Subspace(6, sorted({5, 0, 2}))
    assert tuple(sub.cells) == (0, 2, 5) and sub.cells.dtype == np.int64
    assert not sub.cells.flags.writeable
    assert Subspace.zero(6).dim == 0 and Subspace.full(6).dim == 6


@SETTINGS
@given(st.data())
def test_cell_set_operations_match_set_arithmetic(data):
    n = data.draw(st.integers(1, 9))
    a, b = data.draw(cell_subspaces(n)), data.draw(cell_subspaces(n))
    sa, sb = set(a.cells.tolist()), set(b.cells.tolist())
    assert a.cells.tolist() == sorted(sa)
    assert intersect(a, b).cells.tolist() == sorted(sa & sb)
    assert complement(a).cells.tolist() == sorted(set(range(n)) - sa)
    small = intersect(a, b)
    assert subtract(a, small).cells.tolist() == sorted(sa - sb)
    if not sb <= sa:
        with pytest.raises(InvalidInput):
            subtract(a, b)
        with pytest.raises(InternalInconsistency):
            _restrict_to(a, b)
    # b holds a.dim-local coordinates once restricted to a's dimension
    local = Subspace(a.dim, sorted(i for i in sb if i < a.dim))
    lifted = _lift_local(local, a)
    assert lifted.cells.tolist() == [a.cells[i] for i in local.cells]
    assert np.array_equal(_restrict_to(a, lifted).cells, local.cells)


# --- closed forms against the dense formulas ---------------------------------------

@SETTINGS
@given(st.data())
def test_gap_of_cell_sets_matches_dense_formula(data):
    n = data.draw(st.integers(1, 8))
    a = data.draw(cell_subspaces(n))
    same = data.draw(st.booleans())
    b = Subspace(n, a.cells) if same else data.draw(cell_subspaces(n))
    got = a.gap(b)
    assert got == (0.0 if np.array_equal(a.cells, b.cells) else 1.0)
    assert abs(got - dense.residual_norm(projector(basis(a)), projector(basis(b)))) <= 1e-12


@SETTINGS
@given(st.data())
def test_overlap_of_cell_sets_matches_dense_formula(data):
    n = data.draw(st.integers(1, 8))
    a, b = data.draw(cell_subspaces(n)), data.draw(cell_subspaces(n))
    common = intersect(a, b)
    assert common.cells.tolist() == sorted(set(a.cells.tolist()) & set(b.cells.tolist()))
    # P_A P_B is the projector onto the shared cells, so the orthogonality residual of
    # dual_fourfold, 1.0 when the cells meet and 0.0 when they do not, is its norm
    product = projector(basis(a)) @ projector(basis(b))
    assert np.array_equal(projector(basis(common)), product)
    assert abs(float(common.dim > 0) - spectral_norm(product)) <= 1e-12


@SETTINGS
@given(st.data())
def test_reduction_residual_matches_dense_formula(data):
    """One call tests every part, overlapping ones too, against the same elements."""
    n = data.draw(st.integers(1, 7))
    parts = [data.draw(cell_subspaces(n)) for _ in range(data.draw(st.integers(1, 3)))]
    elements = [data.draw(square_images(n)) for _ in range(data.draw(st.integers(1, 2)))]
    got = _reduction_residual(parts, elements)
    want = max(dense_reduction_residual(sub, elements) for sub in parts)
    assert abs(got - want) <= 1e-12


def test_reduction_residual_of_columns_sharing_a_row():
    """Three columns onto one row are no partial permutation, so no map has them:
    the unit columns of PV - VP lie on distinct rows, and the residual is 0 or 1."""
    with pytest.raises(InvalidInput, match="two columns share a row"):
        WindowedMap.from_image([3, 3, 3, -1], range(4), range(4))
    sub = Subspace(4, [0, 1, 2])
    x = WindowedMap.from_image([3, 2, 1, -1], range(4), range(4))  # only column 0 leaves
    assert _reduction_residual([sub], [x]) == 1.0 == dense_reduction_residual(sub, [x])


def test_a_fourfold_split_reads_its_reduction_residual_in_one_call(monkeypatch):
    """The four corners go to one ``_reduction_residual`` call, which reads each
    generator's faithful columns once; a call per corner rescanned them four times."""
    calls = []
    real = decompose._reduction_residual

    def counted(parts, elements):
        calls.append(parts)
        return real(parts, elements)

    monkeypatch.setattr(decompose, "_reduction_residual", counted)
    split = fourfold_decompose(bishift_families(QuadrantGrid2D(2, 2)), 8)
    assert split.reduction_residual == 0.0
    assert len(calls) == 1
    assert tuple(part.dim for part in calls[0]) == split.dims


@SETTINGS
@given(st.data())
def test_unitary_residual_matches_dense_formula(data):
    n = data.draw(st.integers(1, 7))
    part = data.draw(cell_subspaces(n))
    generator = data.draw(square_images(n))
    got = _unitary_residual(part, generator)
    assert abs(got - dense_unitary_residual(part, generator)) <= 1e-12
    local = numlin._positions(part.cells, n)[generator.image[part.cells]]
    assert got == (0.0 if (local >= 0).all() else 1.0)  # exact 0 or 1, no matrix


def test_unitary_residual_cases():
    cycle = WindowedMap.from_image([1, 2, 0, 3], range(4), range(4))
    shift = WindowedMap.from_image([1, 2, 3, -1], range(4), range(4))
    part = Subspace(4, [0, 1, 2])
    assert _unitary_residual(part, cycle) == 0.0  # permutes the cells
    assert _unitary_residual(part, shift) == 1.0  # injective, not onto
    with pytest.raises(InvalidInput, match="two columns share a row"):
        WindowedMap.from_image([1, 1, 1, 0], range(4), range(4))  # three cells onto one


@SETTINGS
@given(st.data())
def test_generator_isometry_entry_matches_dense_formula(data):
    x = data.draw(square_images(data.draw(st.integers(1, 7))))
    got = _generator_isometry_entry(SemigroupFamily(x), "g")
    cols = np.flatnonzero(x.faithful_mask)
    if not cols.size:
        assert (got.residual, got.dims, got.passed, got.note) == (0.0, (0,), False, "empty window")
        return
    want = dense.isometry_defect(matrix(x), cols)
    assert abs(got.residual - want) <= 1e-12
    assert (got.dims, got.passed) == ((cols.size,), want == 0.0)


def test_pair_residual_witness_builds_only_the_differing_columns(monkeypatch):
    """Two columns swapped: a 2-cycle on two rows, whose difference has norm 2, and
    one column moved to a row that no column hits: a path of two rows, norm sqrt(2).
    Both come in closed form from the differing columns, with no factorization."""
    monkeypatch.setattr(np.linalg, "svd", None)
    n = 1024
    x = WindowedMap.from_image(np.arange(n), range(n), range(n))
    swapped = np.arange(n)
    swapped[[5, 7]] = 7, 5
    got, count = _pair_residual(x, WindowedMap.from_image(swapped, range(n), range(n)))
    assert (got, count) == (2.0, n)
    free = np.arange(n)
    free[n - 1] = -1  # row n - 1 is hit by no column
    moved = free.copy()
    moved[5] = n - 1
    got, count = _pair_residual(WindowedMap.from_image(free, range(n), range(n)),
                                WindowedMap.from_image(moved, range(n), range(n)))
    assert (got, count) == (float(np.sqrt(2.0)), n)


# --- no dense n x n matrix at dimension 1024 -------------------------------------------

def traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_bishift_splits_stay_below_one_dense_matrix():
    pair = bishift_families(QuadrantGrid2D(8, 4))
    assert pair.dim == 1024
    wold, peak = traced_peak(lambda: wold_cooper(pair.first, 3))
    assert not wold.stabilized and wold.unitary_residual == 1.0
    assert peak < DENSE_MATRIX_BYTES
    split, peak = traced_peak(lambda: fourfold_decompose(pair, 34))
    assert split.dims == (1024, 0, 0, 0) and split.reduction_residual == 0.0
    assert peak < DENSE_MATRIX_BYTES


def test_halfline_splits_stay_below_one_dense_matrix():
    family = halfline_shift_family(CellGrid1D(16, 64))
    assert family.dim == 1024
    wold, peak = traced_peak(lambda: wold_cooper(family, 3))
    assert not wold.stabilized and wold.unitary_residual == 1.0
    assert peak < DENSE_MATRIX_BYTES
    report, peak = traced_peak(lambda: run_scenario(
        Scenario("h", "halfline_shift", {"m": 2, "T": 32, "r": 16})))  # dim 1024, stabilized
    assert report.overall and peak < DENSE_MATRIX_BYTES


@pytest.mark.parametrize("construction, params", [
    ("four_block_dc", {"T": 24, "circ": 8}),  # dim (T + circ)^2 = 1024
    ("dual_example", {"m": 1, "T": 16}),  # ambient (2mT)^2 = 1024
    ("double_dual", {"m": 1, "T": 16}),
])
def test_catalog_runs_stay_below_one_dense_matrix(construction, params):
    report, peak = traced_peak(lambda: run_scenario(Scenario("s", construction, params)))
    assert report.overall
    assert peak < DENSE_MATRIX_BYTES


def test_modified_bishift_witness_is_exactly_one_in_closed_form():
    """The adjoint-commutator witness of modified_bishift at its default T = 2 reads
    exactly 1.0 for m = 2, 4, ..., 64.  At m = 64 it compares two m^2 x m^2 blocks,
    which as dense complex matrices and an SVD took 4096^2 * 16 B = 256 MiB each."""
    for m in (2, 4, 8, 16, 32):
        (witness,) = (e for e in run_scenario(Scenario("w", "modified_bishift", {"m": m})).entries
                      if e.check_id == "adjoint_commutator_witness")
        assert witness.residual == 1.0 and witness.passed
    report, peak = traced_peak(lambda: run_scenario(Scenario("w", "modified_bishift", {"m": 64})))
    (witness,) = (e for e in report.entries if e.check_id == "adjoint_commutator_witness")
    assert report.overall and witness.residual == 1.0
    assert peak < 32 * 2**20
