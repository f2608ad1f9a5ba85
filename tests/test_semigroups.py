"""Operator constructors and the exactness-window algebra.

Hand-computed cases of each constructor (the half-line shift, the
cut-shift pair, the multiplier, the bishift and modified bishift pairs,
circulants, direct sums and fiber tensors), each step constructor held
to its family's composed power at every step, past its window too, where
it is the zero map with an empty faithful window, the semigroup law of
each family, and the window rule of composition and of the adjoint.
``from_image`` refuses an image in which two columns share a row, and
``_isometry_defect`` is held to the sort rule and to the dense Gram
matrix on random injective images.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dense_oracle import from_image, indices, isometry_defect, matrix
from isoflow.catalog import _sample_steps
from isoflow.decompose import classify_pair
from isoflow.duality import _torus_unitary
from isoflow.errors import InvalidInput, InvalidShift, WindowTooSmall
from isoflow.semigroups import (SemigroupFamily, WindowedMap, _circulant_image,
                                _cut_shift_images, _isometry_defect, bishift_families,
                                bishift_pair, check_semigroup_law, circulant_family,
                                direct_sum, halfline_shift,
                                halfline_shift_family, modified_bishift_families,
                                modified_bishift_pair, phi_family, phi_multiplier,
                                tensor_with_identity)
from isoflow.spaces import CellGrid1D, LRegionIndex, QuadrantGrid2D
from layout_oracle import torus_index


def test_grid_steps():
    """Only the catalog's resolver reads a time: the samples text t on the 1/m
    grid becomes its step count j = t * m."""
    assert _sample_steps("3/4", 4) == [3]
    assert _sample_steps("0.5", 2) == [1]
    assert _sample_steps("5/2", 2) == [5]
    with pytest.raises(InvalidInput):
        _sample_steps("1/3", 2)  # off-grid time is rejected, not interpolated
    with pytest.raises(InvalidInput):
        _sample_steps("-1", 2)


def fraction_grid_steps(text, cells_per_unit):
    """The step counts of a one-time samples text read through ``Fraction(text)``,
    or None where that reading refuses it."""
    try:
        steps = Fraction(text) * cells_per_unit
    except (ValueError, ZeroDivisionError):
        return None
    if steps.denominator != 1 or steps < 0:
        return None
    return [int(steps)]


@pytest.mark.parametrize("t", [
    0, 3, 7, -2, True, False, Fraction(3, 4), Fraction(5, 2), Fraction(1, 3), Fraction(-1, 2),
    np.int64(5), np.int64(-1), "3/4", "2", "1/3", "-1/2", "0.25", "abc", "1/0", None,
    0.5, 2.0, 0.75, -0.5, 0.1, float("nan"), float("inf")], ids=repr)
@pytest.mark.parametrize("m", [1, 2, 4])
def test_grid_steps_matches_the_fraction_reading(t, m):
    """The resolver reads the text of each value as ``Fraction`` reads it, and
    refuses it where that reading does: ``True``, ``None``, ``nan`` and ``1/0``
    are no time, and ``0.1`` is the decimal 1/10, on none of these grids."""
    try:
        steps = _sample_steps(str(t), m)
    except InvalidInput:
        steps = None
    else:
        assert all(type(j) is int for j in steps)
    assert steps == fraction_grid_steps(str(t), m)


# --- half-line shift -----------------------------------------------------------

def test_halfline_shift_zero_is_identity():
    s = halfline_shift(CellGrid1D(2, 2), 0)
    assert np.array_equal(matrix(s), np.eye(4))
    assert s.faithful_mask.all()


def test_halfline_shift_half_step():
    s = halfline_shift(CellGrid1D(2, 2), 1)
    assert np.array_equal(matrix(s)[:, 0], np.array([0, 1, 0, 0], dtype=complex))
    assert indices(s.faithful_mask) == {0, 1, 2}
    assert s.adj_faithful_mask.all()


def test_halfline_composition_matches_permutation_oracle():
    grid = CellGrid1D(2, 2)
    half = halfline_shift(grid, 1)
    composed = half.compose(half)
    whole = halfline_shift(grid, 2)
    assert np.array_equal(matrix(composed), matrix(whole))
    assert indices(composed.faithful_mask) == indices(whole.faithful_mask) == {0, 1}


def assert_zero_past_the_window(made: WindowedMap, power: WindowedMap) -> None:
    """A map past its window: the zero image with an empty faithful window, as the power."""
    assert np.count_nonzero(made.image >= 0) == 0
    assert np.count_nonzero(made.faithful_mask) == 0
    assert np.array_equal(made.image, power.image)
    assert np.array_equal(made.faithful_mask, power.faithful_mask)
    assert np.array_equal(made.adj_faithful_mask, power.adj_faithful_mask)


def test_halfline_past_its_window_is_the_composed_power():
    """No step count is refused: from mT cells on the shift is the family's element(j),
    a step past int64 included."""
    grid = CellGrid1D(1, 3)
    family = halfline_shift_family(grid)
    for j in (3, 4, 2 * 10 ** 30):
        assert_zero_past_the_window(halfline_shift(grid, j), family.element(j))


# --- window algebra --------------------------------------------------------------

def test_composition_window_rule_exact():
    """A composed map agrees with sequential application on its window."""
    fam = halfline_shift_family(CellGrid1D(2, 3))
    a, b = fam.element(2), fam.element(3)
    composed = a.compose(b)
    for i in np.flatnonzero(composed.faithful_mask):
        direct = matrix(composed)[:, i]
        sequential = matrix(a) @ matrix(b)[:, i]
        assert np.array_equal(direct, sequential)
    assert indices(composed.faithful_mask) == {
        i for i in indices(b.faithful_mask)
        if a.faithful_mask[np.flatnonzero(matrix(b)[:, i])].all()}


def test_adjoint_swaps_windows():
    s = halfline_shift(CellGrid1D(1, 4), 1)
    adj = s.adjoint()
    assert np.array_equal(adj.faithful_mask, s.adj_faithful_mask)
    assert np.array_equal(adj.adj_faithful_mask, s.faithful_mask)
    assert np.array_equal(matrix(adj), matrix(s).conj().T)


def test_image_backed_map_validation_and_lazy_matrix():
    x = WindowedMap.from_image([1, -1, 0], {0, 2}, {0, 1})
    assert (x.domain_dim, x.codomain_dim) == (3, 3)
    assert not hasattr(x, "matrix")  # dimensions come from the image; no matrix is held
    assert np.array_equal(matrix(x), [[0, 0, 1], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        x.image[0] = 0  # the stored image is read-only
    for image, faithful, adj in (([0.0, 1.0], (), ()), ([[0, 1]], (), ()), ([0, 2], (), ()),
                                 ([0, -2], (), ()), ([0, 1], (2,), ()), ([0, 1], (), (-1,)),
                                 ([1, 1], (), ())):
        with pytest.raises(InvalidInput):
            WindowedMap.from_image(image, faithful, adj)


def test_from_image_rejects_a_shared_row():
    """Two live columns on one row are no partial permutation; zero columns may repeat."""
    with pytest.raises(InvalidInput, match=r"^two columns share a row: not a partial "
                                           r"permutation$"):
        WindowedMap.from_image([0, 0], range(2), range(2))
    with pytest.raises(InvalidInput, match="two columns share a row"):
        WindowedMap.from_image([2, -1, 0, 2], range(4), range(4))
    x = WindowedMap.from_image([-1, 1, -1], range(3), range(3))
    assert np.array_equal(x.adjoint().image, [-1, 1, -1])


def test_faithful_columns_are_orthonormal():
    for gen in (halfline_shift(CellGrid1D(2, 2), 1),
                bishift_pair(QuadrantGrid2D(2, 2), 1)[0],
                modified_bishift_pair(LRegionIndex(1, 2), 1)[1]):
        cols = np.flatnonzero(gen.faithful_mask)
        block = matrix(gen)[:, cols]
        assert np.array_equal(block.conj().T @ block, np.eye(len(cols)))


# --- partial isometries -----------------------------------------------------------

def test_partial_isometry_m4_j1():
    e0, e1 = map(from_image, _cut_shift_images(4, 1, 1))
    expect0 = np.zeros((4, 4), dtype=complex)
    expect0[1, 0] = expect0[2, 1] = expect0[3, 2] = 1
    expect1 = np.zeros((4, 4), dtype=complex)
    expect1[0, 3] = 1
    assert np.array_equal(e0, expect0)
    assert np.array_equal(e1, expect1)


def test_partial_isometry_j0():
    e0, e1 = map(from_image, _cut_shift_images(3, 0, 2))
    assert np.array_equal(e0, np.eye(6))
    assert not e1.any()


def test_partial_isometry_resolutions_m4_j2():
    e0, e1 = map(from_image, _cut_shift_images(4, 2, 1))
    eye = np.eye(4)
    assert np.array_equal(e0 @ e0.conj().T + e1 @ e1.conj().T, eye)
    assert np.array_equal(e0.conj().T @ e0 + e1.conj().T @ e1, eye)


def test_partial_isometry_invalid_shift():
    with pytest.raises(InvalidShift):
        _cut_shift_images(3, 3, 1)


# --- multiplier family --------------------------------------------------------------

def test_phi_time_zero_and_one():
    assert np.array_equal(matrix(phi_multiplier(3, 2, 1, 0)), np.eye(8))
    phi1 = phi_multiplier(3, 2, 1, 2)
    block = np.zeros((4, 4), dtype=complex)
    for b in range(3):
        block[b + 1, b] = 1
    assert np.array_equal(matrix(phi1), np.kron(block, np.eye(2)))
    assert indices(phi1.faithful_mask) == set(range(6))  # degree blocks 0..2


def test_phi_three_halves_hand_expansion():
    """d=3, m=2, t=3/2: E0 piece one block up, E1 piece two blocks up."""
    phi = phi_multiplier(3, 2, 1, 3)
    e0, e1 = map(from_image, _cut_shift_images(2, 1, 1))
    expected = np.zeros((8, 8), dtype=complex)
    for b in range(4):
        if b + 1 <= 3:
            expected[2 * (b + 1):2 * (b + 2), 2 * b:2 * (b + 1)] = e0
        if b + 2 <= 3:
            expected[2 * (b + 2):2 * (b + 3), 2 * b:2 * (b + 1)] = e1
    assert np.array_equal(matrix(phi), expected)
    assert indices(phi.faithful_mask) == set(range(4))  # blocks 0 and 1


def test_phi_past_its_window_is_the_composed_power():
    """From the time d + 1 on the multiplier is the family's element(j): zero, with an
    empty faithful window and the whole adjoint window."""
    family = phi_family(2, 2)
    for j in (6, 7, 2 * 10 ** 30):
        made = phi_multiplier(2, 2, 1, j)
        assert_zero_past_the_window(made, family.element(j))
        assert np.count_nonzero(made.adj_faithful_mask) == made.codomain_dim


def constructor_cases():
    """Each step constructor with its family, m <= 3, T <= 3 (top degree d <= 2), r <= 2,
    at every step from 0 to 3 past the step that moves every cell out."""
    for m in range(1, 4):
        for T in range(1, 4):
            for r in range(1, 3):
                grid = CellGrid1D(m, T, r)
                quadrant, region = QuadrantGrid2D(m, T, r), LRegionIndex(m, T, r)
                yield ("halfline", [halfline_shift_family(grid)], grid.cells,
                       lambda j, grid=grid: [halfline_shift(grid, j)])
                yield ("phi", [phi_family(T - 1, m, r)], T * m,
                       lambda j, d=T - 1, m=m, r=r: [phi_multiplier(d, m, r, j)])
                pair = bishift_families(quadrant)
                yield ("bishift", [pair.first, pair.second], quadrant.side,
                       lambda j, quadrant=quadrant: bishift_pair(quadrant, j))
                pair = modified_bishift_families(region)
                yield ("modified", [pair.first, pair.second], 2 * region.half,
                       lambda j, region=region: modified_bishift_pair(region, j))


# how each constructor's faithful and adjoint windows relate to those of the power
WINDOW_RULES = {"halfline": ("equal", "equal"), "bishift": ("equal", "equal"),
                "phi": ("contains", "equal"), "modified": ("equal", "inside")}


def window_rule_holds(rule: str, got: np.ndarray, want: np.ndarray) -> bool:
    if rule == "equal":
        return np.array_equal(got, want)
    small, big = (want, got) if rule == "contains" else (got, want)
    return not np.count_nonzero(small & ~big)


def test_each_constructor_is_the_composed_power_past_its_window_too():
    """The constructor at step j against the family's element(j), the power of its
    step-1 generator: equal images, and windows by ``WINDOW_RULES``; from the step
    that moves every cell out, the zero image with an empty faithful window.
    1,008 maps in about 0.05 s."""
    cases = 0
    for name, families, out, build in constructor_cases():
        for j in range(out + 4):
            for made, family in zip(build(j), families, strict=True):
                power = family.element(j)
                assert np.array_equal(made.image, power.image), (name, j)
                for rule, got, want in zip(WINDOW_RULES[name],
                                           (made.faithful_mask, made.adj_faithful_mask),
                                           (power.faithful_mask, power.adj_faithful_mask)):
                    assert window_rule_holds(rule, got, want), (name, j, rule)
                if j >= out:
                    assert np.count_nonzero(made.image >= 0) == 0, (name, j)
                    assert np.count_nonzero(made.faithful_mask) == 0, (name, j)
                cases += 1
    assert cases == 1008


# --- two-dimensional families ---------------------------------------------------------

def test_bishift_time_zero():
    s1, s2 = bishift_pair(QuadrantGrid2D(2, 2), 0)
    assert np.array_equal(matrix(s1), np.eye(16))
    assert np.array_equal(matrix(s2), np.eye(16))


def test_bishift_commutes_exactly():
    s1, _ = bishift_pair(QuadrantGrid2D(2, 2), 1)
    _, s2 = bishift_pair(QuadrantGrid2D(2, 2), 1)
    ab = s1.compose(s2)
    ba = s2.compose(s1)
    cols = np.flatnonzero(ab.faithful_mask & ba.faithful_mask)
    assert cols.size
    assert np.array_equal(matrix(ab)[:, cols], matrix(ba)[:, cols])
    # adjoint commutation as well: tensor-disjoint axes doubly commute
    adj = s2.adjoint()
    x, y = s1.compose(adj), adj.compose(s1)
    cols = np.flatnonzero(x.faithful_mask & y.faithful_mask)
    assert np.array_equal(matrix(x)[:, cols], matrix(y)[:, cols])


def _l_local(region, c1, c2):
    cells = region.l_cells().tolist()
    flat = torus_index(region.parent, c1 + region.half, c2 + region.half)
    return cells.index(flat)


def test_modified_bishift_cases():
    region = LRegionIndex(1, 2)
    m1, _ = modified_bishift_pair(region, 1)
    # time-zero is the identity
    z1, z2 = modified_bishift_pair(region, 0)
    assert np.array_equal(matrix(z1), np.eye(12)) and np.array_equal(matrix(z2), np.eye(12))
    # values at the strip next to the removed quadrant come from the quadrant: zero row
    assert not matrix(m1)[_l_local(region, -1, 1), :].any()
    # mass moves away from the removed quadrant
    col = matrix(m1)[:, _l_local(region, -1, -1)]
    assert np.flatnonzero(col).tolist() == [_l_local(region, -2, -1)]
    # wrap columns are zeroed and unfaithful
    wrap = _l_local(region, -2, -1)
    assert not matrix(m1)[:, wrap].any()
    assert not m1.faithful_mask[wrap]
    assert m1.faithful_mask[_l_local(region, -1, -1)]


def test_torus_translation_group_law():
    region = LRegionIndex(1, 2)  # a 4 x 4 torus
    t = _torus_unitary(region, 0, forward=True)
    assert np.array_equal(np.linalg.matrix_power(matrix(t), 4), np.eye(16))
    assert np.array_equal(matrix(t).conj().T, matrix(_torus_unitary(region, 0, forward=False)))
    u = _torus_unitary(region, 1, forward=True)
    assert np.array_equal(t.compose(u).image, u.compose(t).image)


def test_circulant_examples():
    def circulant(n):
        return from_image(_circulant_image(n))

    assert np.array_equal(circulant(1), np.eye(1))
    assert np.array_equal(circulant(2), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(np.linalg.matrix_power(circulant(4), 4), np.eye(4))


# --- assembly ----------------------------------------------------------------------

def test_direct_sum_identities():
    out = direct_sum(WindowedMap.identity(2), WindowedMap.identity(3))
    assert np.array_equal(matrix(out), np.eye(5))
    assert out.faithful_mask.all()


def test_direct_sum_isometric_on_window():
    mix = direct_sum(halfline_shift(CellGrid1D(1, 4), 1),
                     WindowedMap.from_image(_circulant_image(4), range(4), range(4)))
    cols = np.flatnonzero(mix.faithful_mask)
    block = matrix(mix)[:, cols]
    assert np.array_equal(block.conj().T @ block, np.eye(len(cols)))


def test_tensor_with_identity_kron_index_oracle():
    shift = halfline_shift(CellGrid1D(2, 2), 1)
    lifted = tensor_with_identity(shift, 2, "right")
    assert np.array_equal(matrix(lifted), np.kron(matrix(shift), np.eye(2)))
    assert indices(lifted.faithful_mask) == {i * 2 + rho for i in indices(shift.faithful_mask)
                                             for rho in range(2)}
    left = tensor_with_identity(shift, 3, "left")
    assert np.array_equal(matrix(left), np.kron(np.eye(3), matrix(shift)))
    assert indices(left.faithful_mask) == {k * 4 + i for k in range(3)
                                           for i in indices(shift.faithful_mask)}


# --- semigroup law ------------------------------------------------------------------

def test_law_halfline():
    fam = halfline_shift_family(CellGrid1D(2, 2))
    entries = check_semigroup_law(fam, [1, 2])  # times 1/2, 1
    assert all(e.passed for e in entries)
    assert all(e.residual == 0.0 for e in entries)


def test_law_circulant_full_window():
    entries = check_semigroup_law(circulant_family(5), [1, 2, 3])
    assert all(e.passed for e in entries)
    assert all(e.dims == (5,) for e in entries)


def test_law_phi_family():
    entries = check_semigroup_law(phi_family(3, 2), [1, 2])  # times 1/2, 1
    assert all(e.passed for e in entries)
    assert all(e.residual == 0.0 for e in entries)


def test_law_window_exhaustion():
    fam = halfline_shift_family(CellGrid1D(1, 2))
    with pytest.raises(WindowTooSmall):
        check_semigroup_law(fam, [2])


def test_family_cache_and_time_access():
    fam = halfline_shift_family(CellGrid1D(2, 3))
    assert fam.element(2) is fam.element(2)
    assert np.array_equal(matrix(fam.element(2)), matrix(halfline_shift(CellGrid1D(2, 3), 2)))
    with pytest.raises(InvalidInput):
        fam.element(Fraction(1, 3))  # a time is no step count


def test_law_and_classification_build_no_dense_matrix():
    """On dim 1024 one dense matrix is 16 MiB; image-backed powers, composes,
    adjoints and residuals stay far below that."""
    pair = bishift_families(QuadrantGrid2D(8, 4))
    assert pair.dim == 1024
    samples = [1, 4, 8]  # times 1/8, 1/2, 1
    tracemalloc.start()
    try:
        law = check_semigroup_law(pair.first, samples)
        verdict = classify_pair(pair, samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(e.passed for e in law) and verdict.classified == "doubly_commuting"
    assert peak < 8 * 2**20


def sorted_isometry_defect(x: WindowedMap, cols=slice(None)) -> float:
    """The isometry defect by the earlier rule, for distinct live rows, which it
    checks by a sort: 0.0 when every chosen column is live and 1.0 otherwise."""
    rows = x.image[cols]
    live = np.sort(rows[rows >= 0])
    assert not (live[1:] == live[:-1]).any()
    return 0.0 if live.size == rows.size else 1.0


def test_isometry_defect_matches_the_sort_rule():
    """The closed form gives the sort rule's value and the dense Gram formula's on
    random injective images on C^n, over all columns and over a subset.  An image
    with repeated rows, which the sort rule priced at max(c - 1, 1), is refused by
    ``from_image``."""
    rng = np.random.default_rng(18)
    seen = {"distinct": 0, "repeats": 0}
    for _ in range(800):  # one size n repeats a row less often than two sizes did
        n = int(rng.integers(1, 10))
        if rng.random() < 0.5:
            image = rng.permutation(n)
            image[rng.random(n) < 0.2] = -1
        else:
            image = rng.integers(-1, n, size=n)
        live = image[image >= 0]
        if np.unique(live).size < live.size:
            seen["repeats"] += 1
            with pytest.raises(InvalidInput, match="two columns share a row"):
                WindowedMap.from_image(image, range(n), range(n))
            continue
        seen["distinct"] += 1
        x = WindowedMap.from_image(image, range(n), range(n))
        subset = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        for chosen in (slice(None), subset):
            got = _isometry_defect(x.image[chosen])
            assert got == sorted_isometry_defect(x, chosen)
            assert abs(got - isometry_defect(matrix(x), chosen)) <= 1e-12
    assert min(seen.values()) > 200
