"""Orbit spans by frontier growth, against the whole box.

``box_orbit`` rebuilds the span of U1^a U2^b (start) over the whole box
|a|, |b| <= r from the origin at every radius, straight from the
definition.  It is the oracle: ``_orbit_span`` must return the same span,
radius and ``stabilized`` flag on random commuting permutations, and
filter at most 6n cells over all radii.  The memory tests pin the O(n)
footprint on ``l_region``: the orbit span of ``m=4 T=16`` below 16 MiB,
and on ``m=8 T=16`` the orbit span below 6 x 8n bytes above live memory
(it peaks at 4.0 x 8n), ``dual_pair`` below 5.3 x 8n (it holds one
adjoint at a time, and peaks at 4.6 x 8n) and each ``_torus_unitary``
below 2 x 8n (it builds its image in place, and peaks at 1.5 x 8n).  The
relabeling tests check that neither the dual side
(orbits, dual pairs, dual fourfold split, joint dc/ddc classification) nor
the primal checks (semigroup laws, generator isometry, Wold, pair
classification, fourfold and product splits) depend on how the cells are
numbered.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow import duality
from isoflow.catalog import _ddc_setup, _four_block_dc_pair, _generator_isometry_entry
from isoflow.decompose import classify_pair, fourfold_decompose, product_unitary_part, wold_cooper
from isoflow.duality import (ExtensionSetup, OrbitSpan, _orbit_moves, _orbit_span, bishift_setup,
                             circulant_pair_setup, double_dual_check, dual_cnu_check,
                             dual_fourfold, dual_pair, halfline_circulant_setup, l_region_setup,
                             minimal_extension, setup_direct_sum, simultaneous_dc_ddc_classify)
from isoflow.errors import PreconditionFailed
from isoflow.numlin import Subspace
from isoflow.semigroups import (PairOfSemigroups, SemigroupFamily, WindowedMap,
                                bishift_families, check_semigroup_law, halfline_shift_family,
                                modified_bishift_families)
from isoflow.spaces import CellGrid1D, LRegionIndex, QuadrantGrid2D

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


# --- oracles: the whole box at every radius ---------------------------------------

def _powers(perm: np.ndarray, radius: int) -> dict[int, np.ndarray]:
    inverse = np.empty(perm.size, dtype=np.int64)
    inverse[perm] = np.arange(perm.size)
    powers = {0: np.arange(perm.size)}
    for a in range(1, radius + 1):
        powers[a] = perm[powers[a - 1]]
        powers[-a] = inverse[powers[-(a - 1)]]
    return powers


def box_orbit(p1: np.ndarray, p2: np.ndarray, cells: np.ndarray, max_orbit: int) -> OrbitSpan:
    pw1, pw2 = _powers(p1, max_orbit), _powers(p2, max_orbit)

    def box(radius: int) -> np.ndarray:
        out = np.zeros(p1.size, dtype=bool)
        for a in range(-radius, radius + 1):
            for b in range(-radius, radius + 1):
                out[pw1[a][pw2[b][cells]]] = True
        return out

    current = box(0)
    for radius in range(max_orbit):
        grown = box(radius + 1)
        if np.array_equal(grown, current):
            return OrbitSpan(Subspace(p1.size, cells=np.flatnonzero(current)), True, radius)
        current = grown
    return OrbitSpan(Subspace(p1.size, cells=np.flatnonzero(current)), False, max_orbit)


# --- exact path -------------------------------------------------------------------

@st.composite
def torus_block(draw):
    """Two translations of one a x b x fiber torus: they commute, and a shared
    fiber step makes both of them cycle the fiber."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    cells = np.arange(np.prod(shape)).reshape(shape)
    fiber = draw(st.integers(0, shape[2] - 1))
    images = []
    for _ in range(2):
        steps = [draw(st.integers(0, size - 1)) for size in shape[:2]] + [fiber]
        images.append(np.roll(cells, steps, axis=(0, 1, 2)).ravel())
    return images


@st.composite
def commuting_permutations(draw):
    """A direct sum of one to three torus blocks."""
    blocks = draw(st.lists(torus_block(), min_size=1, max_size=3))
    p1, p2, offset = [], [], 0
    for b1, b2 in blocks:
        p1.append(b1 + offset)
        p2.append(b2 + offset)
        offset += b1.size
    return np.concatenate(p1), np.concatenate(p2)


@SETTINGS
@given(commuting_permutations(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_frontier_matches_box_on_permutations(perms, seed, max_orbit):
    p1, p2 = perms
    n = p1.size
    assert np.array_equal(p1[p2], p2[p1])
    rng = np.random.default_rng(seed)  # empty in one start of min(n, 4) + 1
    cells = np.sort(rng.choice(n, size=rng.integers(0, min(n, 4) + 1), replace=False))
    u1, u2 = (WindowedMap.from_image(p, range(n), range(n)) for p in (p1, p2))
    got = _orbit_span(_orbit_moves(u1, u2), Subspace(n, cells=cells), max_orbit)
    want = box_orbit(p1, p2, cells, max_orbit)
    assert np.array_equal(got.span.cells, want.span.cells)
    assert (got.radius, got.stabilized) == (want.radius, want.stabilized)


def test_frontier_cut_short_and_empty_start():
    """A 12-cycle against the identity needs radius 6; cut at 3 it reports
    seven cells, not stabilized.  The empty start is stable at radius 0."""
    cycle = np.roll(np.arange(12), 1)
    u = WindowedMap.from_image(cycle, range(12), range(12))
    fixed = WindowedMap.identity(12)
    for cells, max_orbit, want in (([0], 3, (False, 3, 7)), ([0], 8, (True, 6, 12)),
                                   ([], 3, (True, 0, 0))):
        start = Subspace(12, cells=np.array(cells, dtype=np.int64))
        got = _orbit_span(_orbit_moves(u, fixed), start, max_orbit)
        assert (got.stabilized, got.radius, got.span.dim) == want
        oracle = box_orbit(cycle, np.arange(12), start.cells, max_orbit)
        assert (oracle.stabilized, oracle.radius, oracle.span.dim) == want


# --- memory -----------------------------------------------------------------------

@pytest.mark.parametrize("setup", [l_region_setup(4, 16), bishift_setup(3, 4),
                                   setup_direct_sum(l_region_setup(1, 2),
                                                    halfline_circulant_setup(1, 2, 3))],
                         ids=["l_region", "bishift", "sum"])
def test_orbit_span_filters_at_most_six_cells_per_ambient_cell(setup, monkeypatch):
    """Each cell enters a frontier F once and goes through U2 and U2* at most once, so
    over all radii the arrays that ``_take`` filters (F and its two U1 moves, G and its
    two U2 moves) hold at most 3n + 3n cells, counted, not timed.  The count stops the
    run as soon as it passes the bound: a frontier that keeps repeats multiplies them
    at every radius, so it runs before the memory tests below."""
    bound = 6 * setup.ambient_dim
    filtered = [0]
    real = duality._take

    def counted(cells, free):
        filtered[0] += cells.size
        assert filtered[0] <= bound, "more cells filtered than the bound allows"
        return real(cells, free)

    monkeypatch.setattr(duality, "_take", counted)
    span = minimal_extension(setup, 4 * setup.ambient_dim)
    assert span.stabilized and filtered[0] > 0


def test_orbit_span_memory_is_linear_in_the_ambient():
    """16384 cells, radius 32 of 256: no table of 2 * 513 powers (128 MiB)."""
    setup = l_region_setup(4, 16)
    tracemalloc.start()
    try:
        span = minimal_extension(setup, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert span.stabilized and span.radius == 32
    assert span.span.dim == setup.ambient_dim
    assert peak < 16 * 2**20


def test_orbit_span_peak_stays_at_a_few_ambient_arrays():
    """n = 65,536 at radius 64: each moved part of the frontier is kept by a membership
    test, so the peak above live memory is the two inverse images, two masks, the
    parts and the result, 4.0 x 8n bytes; concatenating the frontier three and then
    nine times before deduplicating it peaked at 15.6 x 8n."""
    setup = l_region_setup(8, 16)
    n = setup.ambient_dim
    tracemalloc.start()
    try:
        span = _orbit_span(_orbit_moves(setup.u1, setup.u2), setup.h, 4 * 8 * 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (span.stabilized, span.radius, span.span.dim) == (True, 64, n)
    assert peak < 6 * 8 * n


def test_dual_pair_holds_one_adjoint_at_a_time():
    """n = 65,536: each adjoint is built, compressed, read for its invariance defect
    and dropped before the next, so the peak above live memory is 4.6 x 8n bytes;
    holding both adjoints through both compressions peaked at 5.7 x 8n."""
    setup = l_region_setup(8, 16)
    n = setup.ambient_dim
    tracemalloc.start()
    try:
        dual = dual_pair(setup, 4 * 8 * 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dual.wth.dim == n // 4 and dual.invariance_residuals == (0.0, 0.0)
    assert peak < 5.3 * 8 * n


@pytest.mark.parametrize("axis,forward", [(0, True), (0, False), (1, True), (1, False)])
def test_torus_unitary_builds_its_image_in_place(axis, forward):
    """n = 65,536: the image is shifted in place and its wrapping cells corrected
    once, and ``from_image`` tests injectivity by a scatter into a mask, so the
    peak is 1.5 x 8n bytes: the image, its two masks and two boolean scratch
    arrays.  Building the axis coordinate and the shift as full int64
    temporaries peaked at 4.4 x 8n."""
    region = LRegionIndex(8, 16)
    n = region.parent.dim
    tracemalloc.start()
    try:
        u = duality._torus_unitary(region, axis, forward)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert u.shape == (n, n) and np.count_nonzero(u.faithful_mask) == n - n // region.parent.n
    assert peak < 2 * 8 * n


# --- relabeling invariance on the dual side ---------------------------------------

def _relabel_map(u: WindowedMap, pi: np.ndarray, inverse: np.ndarray) -> WindowedMap:
    """P U P* for the permutation P sending cell j to pi[j]; a zero column stays zero."""
    image = u.image[inverse]
    return WindowedMap.from_image(np.where(image >= 0, pi[image], -1), u.faithful_mask[inverse],
                                  u.adj_faithful_mask[inverse])


def relabel(x, pi: np.ndarray):
    """A map, family, pair or setup with cell j renamed pi[j].

    A setup drops its region geometry.
    """
    inverse = np.argsort(pi)
    if isinstance(x, WindowedMap):
        return _relabel_map(x, pi, inverse)
    if isinstance(x, SemigroupFamily):
        return SemigroupFamily(relabel(x.generator, pi), x.cells_per_unit)
    if isinstance(x, PairOfSemigroups):
        return PairOfSemigroups(relabel(x.first, pi), relabel(x.second, pi))
    u1, u2 = (_relabel_map(u, pi, inverse) for u in (x.u1, x.u2))
    return ExtensionSetup(u1, u2, Subspace(x.ambient_dim, cells=np.sort(pi[x.h.cells])),
                          x.cells_per_unit, geometry=None)


RELABELED = [
    l_region_setup(1, 2),
    bishift_setup(1, 2),
    halfline_circulant_setup(1, 2, 3),
    setup_direct_sum(l_region_setup(1, 2), halfline_circulant_setup(1, 2, 2)),
]


@SETTINGS
@given(st.sampled_from(RELABELED), st.integers(0, 2**32 - 1))
def test_dual_side_is_invariant_under_relabeling(setup, seed):
    pi = np.random.default_rng(seed).permutation(setup.ambient_dim)
    moved = relabel(setup, pi)
    max_orbit = 8
    before, after = minimal_extension(setup, max_orbit), minimal_extension(moved, max_orbit)
    assert (after.radius, after.stabilized) == (before.radius, before.stabilized)
    assert np.array_equal(after.span.cells, np.sort(pi[before.span.cells]))
    d0, d1 = dual_pair(setup, max_orbit), dual_pair(moved, max_orbit)
    assert d1.invariance_residuals == d0.invariance_residuals
    assert d1.wth.dim == d0.wth.dim
    assert dual_cnu_check(d1, 6) == dual_cnu_check(d0, 6)
    assert double_dual_check(moved, max_orbit) == double_dual_check(setup, max_orbit)


# --- relabeling invariance on the primal side -------------------------------------

PRIMAL = [  # a family or a pair, sampled step counts, Wold steps; dims 48, 128, 96, 289
    (halfline_shift_family(CellGrid1D(2, 8, 3)), [1, 2, 5], 18),  # times 1/2, 1, 5/2
    (bishift_families(QuadrantGrid2D(2, 4, 2)), [1, 2], 10),  # times 1/2, 1
    (modified_bishift_families(LRegionIndex(1, 4, 2)), [1, 2], 6),
    (_four_block_dc_pair(10, 7)[0], [1, 2], 12),
]


def _moved(sub: Subspace, pi: np.ndarray) -> np.ndarray:
    return np.sort(pi[sub.cells])


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(PRIMAL) - 1), st.integers(0, 2**32 - 1))
def test_primal_side_is_invariant_under_relabeling(case, seed):
    x, samples, max_steps = PRIMAL[case]
    pi = np.random.default_rng(seed).permutation(x.dim)
    moved = relabel(x, pi)
    pairs = [(x, moved)] if isinstance(x, SemigroupFamily) else \
        [(x.first, moved.first), (x.second, moved.second)]
    for f, g in pairs:
        assert check_semigroup_law(g, samples) == check_semigroup_law(f, samples)
        assert _generator_isometry_entry(g, "g") == _generator_isometry_entry(f, "g")
        w0, w1 = wold_cooper(f, max_steps), wold_cooper(g, max_steps)
        assert (w1.stabilized, w1.steps_used, w1.unitary_residual) == \
            (w0.stabilized, w0.steps_used, w0.unitary_residual)
        assert np.array_equal(w1.unitary_part.cells, _moved(w0.unitary_part, pi))
        assert np.array_equal(w1.cnu_part.cells, _moved(w0.cnu_part, pi))
    if isinstance(x, SemigroupFamily):
        return
    verdict = classify_pair(x, samples)
    assert classify_pair(moved, samples) == verdict
    p0, p1 = product_unitary_part(x, max_steps), product_unitary_part(moved, max_steps)
    assert (p1.stabilized, p1.steps_used, p1.reduction_residual) == \
        (p0.stabilized, p0.steps_used, p0.reduction_residual)
    assert np.array_equal(p1.subspace.cells, _moved(p0.subspace, pi))
    if verdict.classified != "doubly_commuting":
        for pair in (x, moved):
            with pytest.raises(PreconditionFailed):
                fourfold_decompose(pair, max_steps)
        return
    s0, s1 = fourfold_decompose(x, max_steps), fourfold_decompose(moved, max_steps)
    assert s1.reduction_residual == s0.reduction_residual
    for a, b in zip((s0.h_pp, s0.h_pu, s0.h_up, s0.h_uu), (s1.h_pp, s1.h_pu, s1.h_up, s1.h_uu)):
        assert np.array_equal(b.cells, _moved(a, pi))


# --- relabeling invariance of the joint classification and the dual fourfold split --

SIMULTANEOUS = [  # the catalog's mixed, bishift and unitary setups at m = 1, T = 2, p = 3
    setup_direct_sum(halfline_circulant_setup(1, 2, 3),
                     halfline_circulant_setup(1, 2, 3, unitary_first=True)),
    bishift_setup(1, 2),
    circulant_pair_setup(3, 3, cells_per_unit=1),
]


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SIMULTANEOUS), st.integers(0, 2**32 - 1))
def test_simultaneous_classification_is_invariant_under_relabeling(setup, seed):
    pi = np.random.default_rng(seed).permutation(setup.ambient_dim)
    before = simultaneous_dc_ddc_classify(setup, 6, 8)
    assert simultaneous_dc_ddc_classify(relabel(setup, pi), 6, 8) == before


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_dual_fourfold_is_invariant_under_relabeling(seed):
    setup = _ddc_setup(1, 2, 3, 3)
    pi = np.random.default_rng(seed).permutation(setup.ambient_dim)
    moved = relabel(setup, pi)
    before = dual_fourfold(setup, dual_pair(setup, 8), 6, 8)
    after = dual_fourfold(moved, dual_pair(moved, 8), 6, 8)
    assert before.dims == (12, 6, 6, 9)  # 3 (mT)^2, mT p, mT p, circ^2
    assert (after.dims, after.tilde_dims) == (before.dims, before.tilde_dims)
    assert (after.orthogonality_residual, after.reduction_residual) == \
        (before.orthogonality_residual, before.reduction_residual)
