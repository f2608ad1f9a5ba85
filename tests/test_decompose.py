"""Wold splits, pair classification, fourfold splits, and the multiplier model.

Random direct sums of Slocinski's four model blocks (shift (x) shift,
shift (x) circulant, circulant (x) shift and circulant (x) circulant, of
independent sizes) must split fourfold into the summed block dims,
stabilized.  ``PairOfSemigroups.step_verdict`` is held to one
``classify_pair`` at step 1 per pair, read by both splits.  The product
family's unitary part must equal the fourfold split's unitary-unitary
corner, and ``verify_joint_equivalence`` is checked on the identity, on
a relabeling and on a conjugation by the interval-stacking permutation,
and refuses a conjugation that is not a unitary ``WindowedMap`` of the
pairs' size.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import basis, matrix, projector
from isoflow import semigroups
from isoflow.decompose import (bcl_check, classify_pair, fourfold_decompose,
                               product_unitary_part, verify_joint_equivalence, wold_cooper)
from isoflow.errors import DimensionMismatch, InvalidInput, PreconditionFailed
from isoflow.numlin import Subspace
from isoflow.semigroups import (PairOfSemigroups, SemigroupFamily, WindowedMap,
                                bishift_families, circulant_family, direct_sum,
                                halfline_shift_family, modified_bishift_families,
                                phi_family, tensor_with_identity)
from isoflow.spaces import CellGrid1D, LRegionIndex, QuadrantGrid2D
from test_window_masks import count_linalg_calls


def shift_plus_circulant():
    shift = halfline_shift_family(CellGrid1D(1, 8))
    gen = direct_sum(shift.generator, circulant_family(4).generator)
    return SemigroupFamily(gen)


def range_intersection_oracle(max_steps):
    """Brute-force oracle by index arithmetic: trusted ranges of the powers
    of the shift(+)circulant generator, intersected as coordinate sets."""
    current = set(range(12))
    for k in range(1, max_steps + 1):
        shift_range = {i + k for i in range(8) if i + k < 8}
        current &= shift_range | {8, 9, 10, 11}
    return current


# --- Wold split -------------------------------------------------------------------

def test_wold_circulant_is_all_unitary():
    result = wold_cooper(circulant_family(4), 4)
    assert result.unitary_part.dim == 4
    assert result.cnu_part.dim == 0
    assert result.stabilized and result.steps_used == 1
    assert result.unitary_residual == 0.0


def test_wold_direct_sum_recovers_circulant_block():
    result = wold_cooper(shift_plus_circulant(), 8)
    oracle = range_intersection_oracle(8)
    assert result.unitary_part.dim == len(oracle) == 4
    assert tuple(result.unitary_part.cells) == tuple(sorted(oracle))
    block = Subspace(12, (8, 9, 10, 11))
    assert result.unitary_part.gap(block) <= 1e-8


def test_wold_pure_shift_has_no_unitary_part():
    fam = halfline_shift_family(CellGrid1D(1, 8))
    result = wold_cooper(fam, 8)
    assert result.unitary_part.dim == 0
    assert not result.stabilized  # window exhausts exactly at the last step
    stable = wold_cooper(fam, 9)
    assert stable.unitary_part.dim == 0 and stable.stabilized


def test_wold_stability_under_extra_steps():
    """Rerunning a stabilized split with a larger budget changes nothing."""
    for family, k in ((circulant_family(4), 3), (shift_plus_circulant(), 10)):
        a = wold_cooper(family, k)
        b = wold_cooper(family, k + 1)
        assert a.stabilized and b.stabilized
        assert a.unitary_part.gap(b.unitary_part) <= 1e-10


# --- classification -----------------------------------------------------------------

def test_classify_bishift_doubly_commuting():
    pair = bishift_families(QuadrantGrid2D(2, 2))
    verdict = classify_pair(pair, [1, 2])  # times 1/2, 1
    assert verdict.classified == "doubly_commuting"
    assert verdict.comm_residual == 0.0
    assert verdict.double_comm_residual == 0.0


def test_classify_modified_bishift_not_doubly():
    pair = modified_bishift_families(LRegionIndex(1, 2))
    verdict = classify_pair(pair, [1])
    assert verdict.classified == "commuting"
    assert verdict.comm_residual == 0.0
    assert verdict.double_comm_residual > 0.5  # witness vector


def test_classify_shift_with_itself():
    """A proper isometry never doubly commutes with itself: the one-step
    backward-then-forward and forward-then-backward products differ on the
    first cell, and the window sees it (direct residual oracle)."""
    fam = halfline_shift_family(CellGrid1D(1, 4))
    pair = PairOfSemigroups(fam, SemigroupFamily(fam.generator))
    verdict = classify_pair(pair, [1])
    assert verdict.comm_residual == 0.0
    assert verdict.double_comm_residual == 1.0
    assert verdict.classified == "commuting"
    # oracle: S S* kills the first cell, S* S keeps it
    s = fam.generator
    forward_back = matrix(s) @ matrix(s).conj().T
    back_forward = matrix(s).conj().T @ matrix(s)
    assert forward_back[0, 0] == 0.0 and back_forward[0, 0] == 1.0


# --- step-time verdict ----------------------------------------------------------------

def test_step_verdict_is_classify_pair_at_the_step_computed_once(monkeypatch):
    """Read twice and by both splits, the verdict is one ``classify_pair`` at step 1,
    time 1/m."""
    pair = bishift_families(QuadrantGrid2D(2, 2))
    want = classify_pair(pair, [1])
    calls = []
    real = semigroups.classify_pair
    monkeypatch.setattr(semigroups, "classify_pair",
                        lambda *args: calls.append(args) or real(*args))
    verdict = pair.step_verdict
    assert pair.step_verdict is verdict and verdict == want
    fourfold_decompose(pair, 6)
    product_unitary_part(pair, 6)
    assert calls == [(pair, [1])]


# --- fourfold split -------------------------------------------------------------------

def four_block_pair(shift_T=4, circ=3):
    shift_gen = halfline_shift_family(CellGrid1D(1, shift_T)).generator
    circ_gen = circulant_family(circ).generator
    v1 = direct_sum(tensor_with_identity(shift_gen, shift_T, "right"),
                    tensor_with_identity(shift_gen, circ, "right"),
                    tensor_with_identity(circ_gen, shift_T, "right"),
                    tensor_with_identity(circ_gen, circ, "right"))
    v2 = direct_sum(tensor_with_identity(shift_gen, shift_T, "left"),
                    tensor_with_identity(circ_gen, shift_T, "left"),
                    tensor_with_identity(shift_gen, circ, "left"),
                    tensor_with_identity(circ_gen, circ, "left"))
    pair = PairOfSemigroups(SemigroupFamily(v1), SemigroupFamily(v2))
    return pair, (shift_T * shift_T, shift_T * circ, circ * shift_T, circ * circ)


def test_fourfold_four_block_construction_oracle():
    pair, expected = four_block_pair()
    split = fourfold_decompose(pair, 6)
    assert split.dims == expected
    assert split.reduction_residual <= 1e-10
    assert sum(split.dims) == pair.dim


def test_fourfold_bishift_concentrates_in_pp():
    pair = bishift_families(QuadrantGrid2D(1, 2))
    split = fourfold_decompose(pair, 4)
    assert split.dims == (4, 0, 0, 0)


def test_fourfold_unitary_pair_concentrates_in_uu():
    c1 = tensor_with_identity(circulant_family(3).generator, 3, "right")
    c2 = tensor_with_identity(circulant_family(3).generator, 3, "left")
    pair = PairOfSemigroups(SemigroupFamily(c1), SemigroupFamily(c2))
    split = fourfold_decompose(pair, 3)
    assert split.dims == (0, 0, 0, 9)


def model_block(kind: int, a: int, b: int) -> tuple[WindowedMap, WindowedMap]:
    """One of the four model blocks of Slocinski's split on C^a (x) C^b: the pair
    (X (x) I_b, I_a (x) Y), with X the shift on a cells when ``kind`` < 2 and the
    cyclic shift otherwise, and Y the shift on b cells when ``kind`` is even."""
    def model(n: int, pure: bool) -> WindowedMap:
        return (halfline_shift_family(CellGrid1D(1, n)) if pure else circulant_family(n)).generator

    return (tensor_with_identity(model(a, kind < 2), b, "right"),
            tensor_with_identity(model(b, kind % 2 == 0), a, "left"))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(2, 5), st.integers(2, 5)),
                min_size=1, max_size=5))
def test_fourfold_of_random_model_sums_returns_the_summed_block_dims(blocks):
    """Slocinski (Ann. Polon. Math. 37, 1980): a doubly commuting pair is the direct
    sum of shift (x) shift, shift (x) unitary, unitary (x) shift and unitary (x)
    unitary parts.  A direct sum of such blocks, in any order and of independent
    sizes, must split into the summed dims of each kind, both Wold splits
    stabilized, with no reduction residual.  Sizes start at 2: the shift on one
    cell has no faithful column, so a lone block of it has nothing to classify."""
    firsts, seconds = zip(*(model_block(*block) for block in blocks))
    pair = PairOfSemigroups(SemigroupFamily(direct_sum(*firsts)),
                            SemigroupFamily(direct_sum(*seconds)))
    expected = [0, 0, 0, 0]  # pp, pu, up, uu
    for kind, a, b in blocks:
        expected[kind] += a * b
    split = fourfold_decompose(pair, max(max(a, b) for _, a, b in blocks) + 2)
    assert split.dims == tuple(expected)
    assert split.wold_first.stabilized and split.wold_second.stabilized
    assert split.reduction_residual == 0.0


def test_fourfold_requires_double_commutation():
    pair = modified_bishift_families(LRegionIndex(1, 2))
    assert pair.step_verdict.classified == "commuting"
    with pytest.raises(PreconditionFailed, match="classifies as commuting"):
        fourfold_decompose(pair, 4)


def test_fourfold_projectors_commute_with_samples():
    pair, _ = four_block_pair()
    split = fourfold_decompose(pair, 6)
    for part in (split.h_pp, split.h_pu, split.h_up, split.h_uu):
        p = projector(basis(part))
        for fam in (pair.first, pair.second):
            for steps in (1, 2):
                el = fam.element(steps)
                cols = np.flatnonzero(el.faithful_mask)
                diff = (p @ matrix(el) - matrix(el) @ p)[:, cols]
                assert (np.abs(diff).max() if diff.size else 0.0) <= 1e-10


# --- multiplier model ------------------------------------------------------------------

def test_bcl_time_one_and_zero():
    entries = bcl_check(4, 4, 1, [0, 4])  # times 0 and 1 at m = 4
    assert all(e.passed for e in entries)
    assert all(e.residual == 0.0 for e in entries)


def test_bcl_full_grid_r2():
    entries = bcl_check(4, 4, 2, range(13))  # the times j/4
    assert all(e.passed for e in entries)
    assert all(e.residual == 0.0 for e in entries)
    assert len(entries) == 13


# --- joint equivalence -----------------------------------------------------------------

def test_joint_equivalence_identity():
    pair = bishift_families(QuadrantGrid2D(1, 2))
    entries = verify_joint_equivalence(pair, pair, WindowedMap.identity(4), 1, [1])
    assert all(e.passed for e in entries)
    assert all(e.residual == 0.0 for e in entries)


def test_joint_equivalence_bishift_tensor_form():
    pair = bishift_families(QuadrantGrid2D(2, 2))
    shift = halfline_shift_family(CellGrid1D(2, 2)).generator
    tens = PairOfSemigroups(
        SemigroupFamily(tensor_with_identity(shift, 4, "right")),
        SemigroupFamily(tensor_with_identity(shift, 4, "left")))
    entries = verify_joint_equivalence(pair, tens, WindowedMap.identity(16), 2,
                                       [1, 2])  # times 1/2, 1
    assert all(e.passed for e in entries) and all(e.residual == 0.0 for e in entries)


def test_joint_equivalence_w_conjugation():
    """The interval-stacking permutation W, the identity under the layouts of
    ``spaces``, turns the half-line shift family into the multiplier family
    (same oracle as the model check)."""
    grid = CellGrid1D(4, 4)
    shifts = halfline_shift_family(grid)
    phis = phi_family(3, 4)
    single = PairOfSemigroups(shifts, shifts)
    model = PairOfSemigroups(phis, phis)
    entries = verify_joint_equivalence(single, model, WindowedMap.identity(grid.dim), 4,
                                       [1, 4])  # times 1/4, 1
    assert all(e.passed for e in entries) and all(e.residual == 0.0 for e in entries)


def test_joint_equivalence_requires_unitary():
    """A z that kills a column is refused as not unitary; one that sends two
    columns onto one row is no partial permutation, so no map has it."""
    pair = bishift_families(QuadrantGrid2D(1, 2))
    z = WindowedMap.from_image([0, 1, 2, -1], range(4), range(4))
    with pytest.raises(PreconditionFailed, match="not unitary"):
        verify_joint_equivalence(pair, pair, z, 1, [1])
    with pytest.raises(InvalidInput, match="two columns share a row"):
        WindowedMap.from_image([0, 0, 1, 2], range(4), range(4))


def test_joint_equivalence_rejects_a_conjugation_of_the_wrong_size():
    pair = bishift_families(QuadrantGrid2D(1, 2))
    with pytest.raises(DimensionMismatch):
        verify_joint_equivalence(pair, pair, WindowedMap.identity(5), 1, [1])


def test_joint_equivalence_rejects_an_array_conjugation():
    """``z`` is a WindowedMap; an ndarray is refused, not probed for unit columns."""
    pair = bishift_families(QuadrantGrid2D(1, 2))
    with pytest.raises(InvalidInput, match="z must be a WindowedMap"):
        verify_joint_equivalence(pair, pair, np.eye(4), 1, [1])


def test_joint_equivalence_w_conjugation_at_dim_512_gathers(monkeypatch):
    """W = I at dim 512 is a 0/1 permutation, passed as its image: no dense
    numerics, and each residual is exactly zero.  Held dense, Z made this
    call peak at about 84 MiB."""
    grid = CellGrid1D(16, 32)
    shifts, phis = halfline_shift_family(grid), phi_family(31, 16)
    w = WindowedMap.identity(grid.dim)
    samples = [8 * k for k in range(1, 9)]  # the times k/2 at m = 16
    dense = count_linalg_calls(monkeypatch)
    tracemalloc.start()
    try:
        entries = verify_joint_equivalence(PairOfSemigroups(shifts, shifts),
                                           PairOfSemigroups(phis, phis), w, 16, samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dense == []
    assert all(e.passed for e in entries) and len(entries) == 16
    assert all(e.residual == 0.0 for e in entries)
    assert peak < 16 * 2**20


def test_joint_equivalence_under_a_relabeling_permutation(monkeypatch):
    """B = P A P* for a random permutation P, built image by image."""
    a = bishift_families(QuadrantGrid2D(2, 3))
    n = a.dim
    pi = np.random.default_rng(3).permutation(n)  # cell j is renamed pi[j]
    inverse = np.argsort(pi)

    def moved(f):
        image = f.generator.image[inverse]
        g = WindowedMap.from_image(np.where(image >= 0, pi[image], -1),
                                   f.generator.faithful_mask[inverse],
                                   f.generator.adj_faithful_mask[inverse])
        return SemigroupFamily(g)

    b = PairOfSemigroups(moved(a.first), moved(a.second))
    dense = count_linalg_calls(monkeypatch)
    z = WindowedMap.from_image(pi, np.ones(n, dtype=bool), np.ones(n, dtype=bool))
    entries = verify_joint_equivalence(a, b, z, 2, [1, 2, 4])  # times 1/2, 1, 2
    assert dense == []
    assert all(e.passed for e in entries) and all(e.residual == 0.0 for e in entries)
    assert not all(e.passed for e in verify_joint_equivalence(a, a, z, 2, [2]))


# --- product family ---------------------------------------------------------------------

def test_product_unitary_part_bishift_vanishes():
    pair = bishift_families(QuadrantGrid2D(1, 2))
    result = product_unitary_part(pair, 4)
    assert result.subspace.dim == 0 and result.stabilized


def test_product_unitary_part_unitary_pair_full():
    c1 = tensor_with_identity(circulant_family(3).generator, 3, "right")
    c2 = tensor_with_identity(circulant_family(3).generator, 3, "left")
    pair = PairOfSemigroups(SemigroupFamily(c1), SemigroupFamily(c2))
    result = product_unitary_part(pair, 3)
    assert result.subspace.dim == 9 and result.stabilized


def test_product_unitary_part_four_block():
    pair, _ = four_block_pair()
    result = product_unitary_part(pair, 6)
    assert result.subspace.dim == 9  # the doubly-unitary corner
    assert result.reduction_residual <= 1e-10


def test_product_unitary_matches_fourfold_uu_corner():
    """For doubly commuting pairs the product family's unitary part is the
    doubly-unitary corner of the fourfold split (principal angle <= 1e-8)."""
    for pair in (four_block_pair()[0], bishift_families(QuadrantGrid2D(1, 2))):
        split = fourfold_decompose(pair, 6)
        product = product_unitary_part(pair, 6)
        assert split.h_uu.dim == product.subspace.dim
        if split.h_uu.dim:
            assert split.h_uu.gap(product.subspace) <= 1e-8


def test_product_requires_commutation():
    shift = halfline_shift_family(CellGrid1D(1, 4))
    swap = WindowedMap.from_image([0, 2, 1, 3], range(4), range(4))  # two middle cells
    pair = PairOfSemigroups(shift, SemigroupFamily(swap))
    assert pair.step_verdict.classified == "neither"
    with pytest.raises(PreconditionFailed, match="non-commuting"):
        product_unitary_part(pair, 4)
