"""Minimal extensions, dual pairs, double duals, and the dual splitting.

Random direct sums (``setup_direct_sum``) of ``l_region_setup``,
``halfline_circulant_setup`` in both orders and ``circulant_pair_setup``
must give the summed ``dual_fourfold`` dims, 3(mT)^2, mT p, mT p and
n1 n2 per block, from the one ``dual_pair`` of the sum.  That dual must
equal the dual of the sum with its unitary-unitary corner H_uu removed,
since H_uu reduces both extension unitaries.  Adding a ``bishift_setup``
block must flip only the ``dual_doubly_commuting`` verdict of
``simultaneous_dc_ddc_classify``.  The ``dual_pair`` invariance residual
is 1.0 when an adjoint moves a faithful column out of the dual space and
0.0 when the only column that leaves is unfaithful.  The double dual
must recover the original pair and fail recovered cells that differ, and
the modified bishift model check must pass at m = 1, 2, 3 with fiber 1
and 2 and fail a model one cell off.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import basis, matrix, projector, residual_norm
from isoflow import duality
from isoflow.decompose import classify_pair, product_unitary_part, wold_cooper
from isoflow.duality import (ExtensionSetup, _compress, _lift_local, bishift_setup,
                             circulant_pair_setup, double_dual_check, dual_cnu_check,
                             dual_fourfold, dual_pair, halfline_circulant_setup, l_region_setup,
                             minimal_extension, modified_bishift_model_check,
                             setup_direct_sum, simultaneous_dc_ddc_classify)
from isoflow.errors import (DimensionMismatch, InternalInconsistency, InvalidInput,
                            PreconditionFailed)
from isoflow.numlin import Subspace, subtract
from isoflow.semigroups import (PairOfSemigroups, SemigroupFamily, WindowedMap,
                                bishift_families, bishift_pair, check_semigroup_law,
                                circulant_family, direct_sum, modified_bishift_pair,
                                tensor_with_identity)
from isoflow.spaces import LRegionIndex, QuadrantGrid2D
from test_window_masks import count_linalg_calls


def ddc_four_block(m=1, T=2, p=3, circ=3):
    return setup_direct_sum(
        l_region_setup(m, T),
        halfline_circulant_setup(m, T, p),
        halfline_circulant_setup(m, T, p, unitary_first=True),
        circulant_pair_setup(circ, circ, cells_per_unit=m))


# --- minimal extension ------------------------------------------------------------

def test_extension_full_space_stabilizes_immediately():
    setup = circulant_pair_setup(3, 3)
    span = minimal_extension(setup, 4)
    assert span.stabilized and span.radius == 0
    assert span.span.dim == 9


def test_extension_l_region_covers_torus():
    setup = l_region_setup(1, 2)
    span = minimal_extension(setup, 8)
    assert span.stabilized
    assert span.span.dim == 16
    # covering oracle by direct cell enumeration: shifted copies of the
    # L-shaped cell set fill the torus at radius 1 already
    region = LRegionIndex(1, 2)
    n = region.parent.n
    covered = set()
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            for cell in region.l_cells().tolist():
                k1, k2 = divmod(cell, n)
                covered.add(((k1 + a) % n) * n + ((k2 + b) % n))
    assert covered == set(range(16))
    assert span.radius == 1


def test_extension_contains_start_and_is_invariant():
    """A stabilized orbit span contains the embedded space and is invariant
    under both unitaries and their adjoints."""
    for setup in (l_region_setup(1, 2), halfline_circulant_setup(1, 2, 3)):
        span = minimal_extension(setup, 12)
        assert span.stabilized
        p = projector(basis(span.span))
        eye = np.eye(setup.ambient_dim)
        assert residual_norm(p @ basis(setup.h), basis(setup.h)) <= 1e-12
        for u in (matrix(setup.u1), matrix(setup.u2),
                  matrix(setup.u1).conj().T, matrix(setup.u2).conj().T):
            assert residual_norm((eye - p) @ u @ p, np.zeros_like(p)) <= 1e-10


def test_extension_setup_validation():
    good = circulant_pair_setup(2, 3)
    swap = WindowedMap.from_image([1, 0, 2, 3, 4, 5], range(6), range(6))
    with pytest.raises(InvalidInput, match="commute"):
        ExtensionSetup(good.u1, swap, good.h)  # image-backed, does not commute
    with pytest.raises(InvalidInput, match="unitary"):
        ExtensionSetup(WindowedMap.from_image([1, -1, 2, 3], range(4), range(4)),
                       WindowedMap.identity(4), Subspace.full(4))
    with pytest.raises(InvalidInput, match="two columns share a row"):
        WindowedMap.from_image([0, 0, 2, 3], range(4), range(4))  # no unitary to refuse


# --- dual pair --------------------------------------------------------------------

@pytest.mark.parametrize("T", [2, 3])
def test_dual_of_l_region_is_bishift_exactly(T):
    setup = l_region_setup(1, T)
    dual = dual_pair(setup, 4 * T)
    model1, model2 = bishift_pair(QuadrantGrid2D(1, T), 1)
    got1 = dual.pair.first.generator
    got2 = dual.pair.second.generator
    assert np.array_equal(matrix(got1), matrix(model1))
    assert np.array_equal(matrix(got2), matrix(model2))
    assert np.array_equal(got1.faithful_mask, model1.faithful_mask)
    assert np.array_equal(got2.faithful_mask, model2.faithful_mask)
    assert np.array_equal(got1.adj_faithful_mask, model1.adj_faithful_mask)
    assert dual.invariance_residuals == (0.0, 0.0)


def test_dual_generators_isometric_on_window():
    dual = dual_pair(l_region_setup(1, 2), 8)
    for fam in (dual.pair.first, dual.pair.second):
        cols = np.flatnonzero(fam.generator.faithful_mask)
        block = matrix(fam.generator)[:, cols]
        assert np.array_equal(block.conj().T @ block, np.eye(len(cols)))


def dense_invariance_residual(u: WindowedMap, wth: Subspace) -> float:
    """Norm of (I - P) U* P on the faithful columns of U*, P the projector onto wth."""
    p = projector(basis(wth))
    cols = wth.cells[u.adj_faithful_mask[wth.cells]]  # U*'s window is U's adjoint window
    return residual_norm((matrix(u).conj().T @ p)[:, cols], (p @ matrix(u).conj().T @ p)[:, cols])


@pytest.mark.parametrize("setup, cells, want", [
    (circulant_pair_setup(4, 1), [0], (1.0, 0.0)),  # U1* moves cell 1 onto H = {0}
    (circulant_pair_setup(3, 3), [0, 4], (1.0, 1.0)),
    (halfline_circulant_setup(1, 2, 2), None, (0.0, 0.0)),
    (halfline_circulant_setup(1, 2, 2, unitary_first=True), None, (0.0, 0.0)),
])
def test_dual_invariance_residual_reads_only_faithful_columns(setup, cells, want):
    """The residual is 1.0 when an adjoint moves a faithful column of the dual space
    out of it.  In the half-line setups the adjoint shift wraps the bottom cells of
    the dual space into H, but those columns are unfaithful, so they read 0.0."""
    if cells is not None:
        setup = replace(setup, h=Subspace(setup.ambient_dim, cells))
    dual = dual_pair(setup, 16)
    assert dual.invariance_residuals == want
    for u, got in zip((setup.u1, setup.u2), want):
        assert dense_invariance_residual(u, dual.wth) == got
    if cells is None:  # some column does leave, unfaithfully
        # the shift is the unitary with a wrapping, unfaithful column
        adj = (setup.u1 if not setup.u1.faithful_mask.all() else setup.u2).adjoint()
        leaving = dual.wth.cells[~np.isin(adj.image[dual.wth.cells], dual.wth.cells)]
        assert leaving.size and not adj.faithful_mask[leaving].any()


def test_dual_of_full_space_is_empty():
    setup = circulant_pair_setup(3, 3)
    dual = dual_pair(setup, 4)
    assert dual.wth.dim == 0
    entries = dual_cnu_check(dual, 4)
    assert all(e.passed for e in entries)
    assert entries[0].check_id == "empty_dual"


def test_dual_of_cnu_unitary_setup_is_cnu_unitary():
    """The dual of (pure shift) x (rotation) has the same mixed type,
    certified by splitting each dual component separately."""
    setup = halfline_circulant_setup(1, 2, 3)
    dual = dual_pair(setup, 8)
    w1 = wold_cooper(dual.pair.first, 6)
    w2 = wold_cooper(dual.pair.second, 6)
    assert w1.stabilized and w1.unitary_part.dim == 0      # still a pure shift
    assert w2.stabilized and w2.unitary_part.dim == dual.wth.dim  # still unitary
    verdict = classify_pair(dual.pair, [1])
    assert verdict.classified == "doubly_commuting"


def test_dual_cnu_for_bundled_setups():
    bundled = [l_region_setup(1, 2), l_region_setup(1, 3), bishift_setup(1, 2),
               halfline_circulant_setup(1, 2, 3),
               halfline_circulant_setup(1, 2, 3, unitary_first=True)]
    for number, setup in enumerate(bundled):
        entries = dual_cnu_check(dual_pair(setup, setup.ambient_dim),
                                 2 * setup.ambient_dim // 4 + 4)
        assert all(e.passed for e in entries), number


def test_dual_of_bishift_setup_is_modified_pair():
    setup = bishift_setup(1, 2)
    dual = dual_pair(setup, 8)
    m1, m2 = modified_bishift_pair(LRegionIndex(1, 2), 1)
    got1 = dual.pair.first.generator
    cols = np.flatnonzero(got1.faithful_mask & m1.faithful_mask)
    assert np.array_equal(matrix(got1)[:, cols], matrix(m1)[:, cols])
    verdict = classify_pair(dual.pair, [1])
    assert verdict.classified == "commuting"  # not doubly: the converse witness
    del m2


# --- double dual -------------------------------------------------------------------

@pytest.mark.parametrize("T", [2, 3])
def test_double_dual_recovers_original(T):
    setup = l_region_setup(1, T)
    entries = double_dual_check(setup, 4 * T, radius_bound=2 * T)
    assert all(e.passed for e in entries)
    by_id = {e.check_id: e for e in entries}
    assert by_id["recovered_axis1"].residual == 0.0
    assert by_id["recovered_axis2"].residual == 0.0
    assert by_id["minimality_gap"].residual == 0.0
    assert by_id["minimality_radius"].dims[0] <= 2 * T


def test_double_dual_rejects_empty_space():
    region = LRegionIndex(1, 2)
    setup = ExtensionSetup(
        l_region_setup(1, 2).u1, l_region_setup(1, 2).u2,
        Subspace.zero(region.parent.dim))
    with pytest.raises(PreconditionFailed):
        double_dual_check(setup, 8)


def test_double_dual_rejects_non_cnu_pair():
    with pytest.raises(PreconditionFailed):
        double_dual_check(circulant_pair_setup(3, 3), 4)


def test_double_dual_fails_recovered_cells_that_differ(monkeypatch):
    """A second dual on other cells fails both recovered axes with residual 1.0,
    read off the cells with no dense numerics."""
    setup = l_region_setup(1, 2)
    real = duality.dual_pair

    def moved(dual_setup, *args, **kwargs):
        dual = real(dual_setup, *args, **kwargs)
        if dual_setup is setup:  # the first dual; the second is of the adjoint setup
            return dual
        return replace(dual, wth=Subspace(dual.wth.ambient, cells=dual.wth.cells[:-1]))

    monkeypatch.setattr(duality, "dual_pair", moved)
    linalg = count_linalg_calls(monkeypatch)
    by_id = {e.check_id: e for e in double_dual_check(setup, 8)}
    assert linalg == []
    assert by_id["recovered_space_gap"].residual == 1.0
    for axis in (1, 2):
        entry = by_id[f"recovered_axis{axis}"]
        assert not entry.passed
        assert (entry.residual, entry.dims) == (1.0, (setup.h.dim - 1,))
    assert by_id["minimality_gap"].passed


# --- dual fourfold -----------------------------------------------------------------

def test_dual_fourfold_four_block_construction_oracle():
    setup = ddc_four_block()
    result = dual_fourfold(setup, dual_pair(setup, 8), 6, 8)
    assert result.dims == (12, 6, 6, 9)
    assert result.tilde_dims == (4, 6, 6, 0)
    assert result.orthogonality_residual <= 1e-10
    assert result.reduction_residual <= 1e-10
    assert sum(result.dims) == setup.h.dim


def test_dual_fourfold_pure_modified_bishift():
    setup = l_region_setup(1, 2)
    result = dual_fourfold(setup, dual_pair(setup, 8), 6, 8)
    assert result.dims == (12, 0, 0, 0)


def test_dual_fourfold_unitary_pair():
    setup = circulant_pair_setup(3, 3)
    result = dual_fourfold(setup, dual_pair(setup, 4), 4, 4)
    assert result.dims == (0, 0, 0, 9)


def test_dual_fourfold_rejects_non_ddc():
    # the dual of the bishift setup is the modified pair: not doubly commuting
    setup = bishift_setup(1, 2)
    with pytest.raises(PreconditionFailed):
        dual_fourfold(setup, dual_pair(setup, 8), 6, 8)


def dual_block(kind: int, m: int, T: int, a: int, b: int) -> tuple[ExtensionSetup, int]:
    """One block of the dual split on the time grid 1/m, with the dim it adds to its
    corner: the L-region (whose dual is the bishift) to h_m, shift (x) rotation to
    h_pu, rotation (x) shift to h_up, and two rotations to h_uu."""
    if kind == 0:
        return l_region_setup(m, T), 3 * (m * T) ** 2
    if kind == 3:
        return circulant_pair_setup(a, b, cells_per_unit=m), a * b
    return halfline_circulant_setup(m, T, a, unitary_first=kind == 2), m * T * a


# T starts at 2: at m = T = 1 the L-region pair and the half-line shift have no
# faithful column at the step time, so a lone such block has nothing to classify
DUAL_BLOCKS = st.tuples(st.integers(1, 2), st.lists(
    st.tuples(st.integers(0, 3), st.integers(2, 3), st.integers(1, 3), st.integers(1, 3)),
    min_size=1, max_size=4))


def dual_block_sum(m, blocks):
    """The direct sum of the blocks, its expected dual fourfold dims, and K and max_orbit
    as the catalog derives them from the largest T."""
    setups, expected = [], [0, 0, 0, 0]  # h_m, h_pu, h_up, h_uu
    for kind, *sizes in blocks:
        setup, dim = dual_block(kind, m, *sizes)
        setups.append(setup)
        expected[kind] += dim
    top = m * max(T for _, T, _, _ in blocks)
    return setup_direct_sum(*setups), tuple(expected), 2 * top + 2, 4 * top


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(DUAL_BLOCKS)
def test_dual_fourfold_of_random_setup_sums_returns_the_summed_block_dims(case):
    """The dual counterpart of Slocinski's split: a pair whose dual is doubly
    commuting splits into the part whose dual is a bishift, two mixed parts and a
    unitary part.  Direct sums of one to four model blocks, in any order and of
    independent sizes, must split into the summed dims, 3(mT)^2, mT p, mT p and
    n1 n2 per block, as the four_block_ddc scenario expects, with no residual."""
    setup, expected, max_steps, max_orbit = dual_block_sum(*case)
    result = dual_fourfold(setup, dual_pair(setup, max_orbit), max_steps, max_orbit)
    assert result.dims == expected
    assert result.tilde_dims[3] == 0
    assert (result.orthogonality_residual, result.reduction_residual) == (0.0, 0.0)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(DUAL_BLOCKS)
def test_the_dual_of_the_space_minus_its_unitary_corner_is_the_dual_of_the_space(case):
    """H_uu reduces both extension unitaries, so removing it from H leaves the
    dual unchanged, and dual_fourfold reads the dual of H.  The reduced setup
    it once built is the oracle: its dual has the same cells, generator images
    and windows."""
    setup, _, max_steps, max_orbit = dual_block_sum(*case)
    h_uu = product_unitary_part(setup.compressed_pair, max_steps).subspace
    reduced = ExtensionSetup(setup.u1, setup.u2, subtract(setup.h, _lift_local(h_uu, setup.h)),
                             setup.cells_per_unit)
    want, got = dual_pair(reduced, max_orbit), dual_pair(setup, max_orbit)
    assert np.array_equal(got.wth.cells, want.wth.cells)
    assert got.invariance_residuals == want.invariance_residuals
    for g, w in ((got.pair.first, want.pair.first), (got.pair.second, want.pair.second)):
        assert np.array_equal(g.generator.image, w.generator.image)
        assert np.array_equal(g.generator.faithful_mask, w.generator.faithful_mask)
        assert np.array_equal(g.generator.adj_faithful_mask, w.generator.adj_faithful_mask)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(DUAL_BLOCKS, st.integers(2, 3))
def test_a_bishift_block_flips_only_the_dual_verdict(case, T):
    """Every model block has a doubly commuting dual, and the pair is doubly
    commuting unless an L-region block is present.  The bishift setup is doubly
    commuting with a dual that is not (the modified bishift), so adding it to the
    sum flips the dual verdict and keeps the primal one."""
    setup, _, max_steps, max_orbit = dual_block_sum(*case)
    m, blocks = case
    with_bishift = setup_direct_sum(setup, bishift_setup(m, T))
    max_steps, max_orbit = max(max_steps, 2 * m * T + 2), max(max_orbit, 4 * m * T)
    verdicts = []
    for s in (setup, with_bishift):
        flags = {e.check_id: e for e in simultaneous_dc_ddc_classify(s, max_steps, max_orbit)}
        assert "dual" not in flags  # the orbit span stabilized
        verdicts.append((flags["doubly_commuting"].dims, flags["dual_doubly_commuting"].dims))
    dc = (int(all(kind != 0 for kind, *_ in blocks)),)
    assert verdicts == [(dc, (1,)), (dc, (0,))]


# --- model check and joint classification --------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_model_check_fiber(r, m):
    """The canonical model is built at step 1, the one-cell step of the setup's
    generators, on every grid."""
    setup = l_region_setup(m, 2, r)
    entries = modified_bishift_model_check(setup, dual_pair(setup, 8), 6)
    assert all(e.passed for e in entries)
    assert all(e.residual == 0.0 for e in entries)


def test_model_check_idempotent_report():
    setup = l_region_setup(1, 2)
    first = modified_bishift_model_check(setup, dual_pair(setup, 8), 6)
    second = modified_bishift_model_check(setup, dual_pair(setup, 8), 6)
    assert [(e.check_id, e.residual, e.dims, e.passed) for e in first] == \
           [(e.check_id, e.residual, e.dims, e.passed) for e in second]


def test_a_model_one_cell_off_fails_the_model_check(monkeypatch):
    """A canonical model whose first map moves two cells instead of one fails
    axis 1 with a nonzero residual, and axis 2 still passes."""
    setup = l_region_setup(1, 2)

    def off_by_one(region):
        (two, _), (_, one) = modified_bishift_pair(region, 2), modified_bishift_pair(region, 1)
        return PairOfSemigroups(SemigroupFamily(two, region.m), SemigroupFamily(one, region.m))

    monkeypatch.setattr(duality, "modified_bishift_families", off_by_one)
    by_id = {e.check_id: e for e in modified_bishift_model_check(setup, dual_pair(setup, 8), 6)}
    assert list(by_id) == ["dual_bishift_dims", "axis1_t=1", "axis2_t=1"]
    assert not by_id["axis1_t=1"].passed and by_id["axis1_t=1"].residual > 0.0
    assert by_id["axis2_t=1"].passed and by_id["axis2_t=1"].residual == 0.0


def test_model_check_rejects_non_bishift_dual():
    setup = halfline_circulant_setup(1, 2, 3)
    fake = ExtensionSetup(setup.u1, setup.u2, setup.h, setup.cells_per_unit,
                          geometry=LRegionIndex(1, 2))
    with pytest.raises(PreconditionFailed):
        modified_bishift_model_check(fake, dual_pair(fake, 8), 6)


def test_simultaneous_variants():
    mixed = setup_direct_sum(halfline_circulant_setup(1, 2, 3),
                             halfline_circulant_setup(1, 2, 3, unitary_first=True))
    by_id = {e.check_id: e for e in simultaneous_dc_ddc_classify(mixed, 6, 8)}
    assert by_id["doubly_commuting"].dims == (1,)
    assert by_id["dual_doubly_commuting"].dims == (1,)
    assert by_id["h_pp_dim"].dims == (0,) and by_id["h_pp_dim"].passed
    assert by_id["h_m_dim"].dims == (0,) and by_id["h_m_dim"].passed
    assert by_id["three_part_sum"].dims == (6, 6, 0)

    only_dc = simultaneous_dc_ddc_classify(bishift_setup(1, 2), 6, 8)
    flags = {e.check_id: e for e in only_dc}
    assert flags["doubly_commuting"].dims == (1,)
    assert flags["dual_doubly_commuting"].dims == (0,)
    assert "h_pp_dim" not in flags  # splitting only applies when both hold

    unitary = simultaneous_dc_ddc_classify(circulant_pair_setup(3, 3), 4, 4)
    flags = {e.check_id: e for e in unitary}
    assert flags["three_part_sum"].dims == (0, 0, 9)


def test_lift_local_numbers_host_coordinates_like_compress():
    """Host-local coordinate i is host cell cells[i] for both the compression
    and the lift."""
    swap = WindowedMap.from_image([2, 1, 0], range(3), range(3))  # e0 <-> e2
    host = Subspace(3, [0, 2])
    local = _compress(swap, host)
    assert np.array_equal(matrix(local), np.array([[0, 1], [1, 0]]))
    for cells, expected in (([0], [0]), ([1], [2]), ([0, 1], [0, 2])):
        lifted = _lift_local(Subspace(2, cells), host)
        assert lifted.cells.tolist() == expected
        assert np.array_equal(basis(lifted), basis(host) @ basis(Subspace(2, cells)))


def test_setup_direct_sum_validation():
    with pytest.raises(InvalidInput):
        setup_direct_sum(l_region_setup(1, 2), circulant_pair_setup(2, 2, cells_per_unit=3))


def test_inconsistency_guard_exists():
    # InternalInconsistency is reserved for broken exact identities; the
    # bundled setups never trigger it.
    assert issubclass(InternalInconsistency, Exception)


# --- input checks --------------------------------------------------------------------

def _eye(n):
    return WindowedMap.identity(n)


INPUT_CHECKS = {  # id -> (call, error, message fragment)
    "wold_zero_steps": (lambda: wold_cooper(circulant_family(3), 0), InvalidInput, "max_steps"),
    "orbit_zero_radius": (lambda: minimal_extension(circulant_pair_setup(2, 2), 0),
                          InvalidInput, "max_orbit"),
    "classify_no_samples": (lambda: classify_pair(bishift_families(QuadrantGrid2D(1, 2)), []),
                            InvalidInput, "no sample"),
    "law_no_samples": (lambda: check_semigroup_law(circulant_family(3), []),
                       InvalidInput, "no sample"),
    "negative_step": (lambda: circulant_family(3).element(-1), InvalidInput, "nonnegative"),
    "image_outside_its_space": (lambda: WindowedMap.from_image([0, 2], [0, 1], [0, 1]),
                                InvalidInput, "image entry outside"),
    "family_grid": (lambda: SemigroupFamily(_eye(2), cells_per_unit=0),
                    InvalidInput, "cells_per_unit"),
    "pair_spaces": (lambda: PairOfSemigroups(circulant_family(2), circulant_family(3)),
                    DimensionMismatch, "different spaces"),
    "pair_grids": (lambda: PairOfSemigroups(circulant_family(2),
                                            SemigroupFamily(circulant_family(2).generator, 2)),
                   InvalidInput, "time grids"),
    "setup_unequal_unitaries": (lambda: ExtensionSetup(_eye(2), _eye(3), Subspace.full(2)),
                                InvalidInput, "equal-sized"),
    "setup_ambient": (lambda: ExtensionSetup(_eye(2), _eye(2), Subspace.full(3)),
                      InvalidInput, "ambient"),
    "setup_grid": (lambda: ExtensionSetup(_eye(2), _eye(2), Subspace.full(2), cells_per_unit=0),
                   InvalidInput, "cells_per_unit"),
    "empty_direct_sum": (lambda: direct_sum(), InvalidInput, "at least one part"),
    "zero_fiber": (lambda: tensor_with_identity(_eye(2), 0), InvalidInput, "fiber"),
    "unknown_side": (lambda: tensor_with_identity(_eye(2), 2, side="up"), InvalidInput, "side"),
    "empty_setup_sum": (lambda: setup_direct_sum(), InvalidInput, "at least one setup"),
    "setup_sum_grids": (lambda: setup_direct_sum(circulant_pair_setup(2, 2),
                                                 circulant_pair_setup(2, 2, cells_per_unit=2)),
                        InvalidInput, "time grids"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS.values(), ids=INPUT_CHECKS.keys())
def test_input_checks_raise_named_errors(case):
    call, error, fragment = case
    with pytest.raises(error, match=fragment):
        call()
