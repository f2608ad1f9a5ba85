"""The index kernels against the numpy calls they replace.

The per-scenario kernels call numpy's C entry points (``nonzero``,
``count_nonzero``, ufunc reductions, mask gathers) instead of its Python
convenience wrappers.  Each rewritten kernel is held here to the wrapper
it replaced, on random inputs with empty arrays included: ``intersect``
to ``np.intersect1d(..., assume_unique=True)``, ``subtract`` and
``complement`` to ``np.setdiff1d``, ``numlin._equal`` to
``np.array_equal``, ``semigroups._check_image`` to the ``min``/``max``
rule on 1-D images and 2-D tables, the verdict of
``commutant._fiber_form`` to the ``np.kron`` formula of
``dense_oracle.fiber_form_verdict``, and the offsets of
``semigroups._cut_shift_images`` to their ``np.stack`` formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dense_oracle import fiber_form_verdict
from isoflow.commutant import _fiber_form
from isoflow.errors import InvalidInput
from isoflow.numlin import Subspace, _equal, complement, intersect, subtract
from isoflow.semigroups import _check_image, _cut_shift_images, _forward_image

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def cell_sets(draw, max_ambient: int = 40):
    """An ambient size (0 included) and two cell sets of it, either of which may be empty."""
    n = draw(st.integers(0, max_ambient))
    cells = st.sets(st.integers(0, n - 1), max_size=n) if n else st.just(set())
    return n, sorted(draw(cells)), sorted(draw(cells))


def _checked(result: Subspace, ambient: int, want: np.ndarray) -> None:
    """The result is a read-only, strictly increasing ``int64`` cell array equal to ``want``."""
    assert result.ambient == ambient
    assert result.cells.dtype == np.int64 and not result.cells.flags.writeable
    np.testing.assert_array_equal(result.cells, want)


@SETTINGS
@given(cell_sets())
def test_intersect_is_intersect1d(case):
    n, a, b = case
    s1, s2 = Subspace(n, np.array(a, dtype=np.int64)), Subspace(n, np.array(b, dtype=np.int64))
    _checked(intersect(s1, s2), n, np.intersect1d(s1.cells, s2.cells, assume_unique=True))


@SETTINGS
@given(cell_sets())
def test_subtract_and_complement_are_setdiff1d(case):
    n, a, b = case
    big = Subspace(n, np.array(sorted(set(a) | set(b)), dtype=np.int64))
    small = Subspace(n, np.array(b, dtype=np.int64))
    _checked(subtract(big, small), n, np.setdiff1d(big.cells, small.cells))
    _checked(complement(small), n, np.setdiff1d(np.arange(n), small.cells))
    if set(a) - set(b):  # the minuend must contain the subtrahend
        with pytest.raises(InvalidInput, match="not contained"):
            subtract(small, Subspace(n, np.array(a, dtype=np.int64)))


@st.composite
def array_pairs(draw):
    """Two arrays of 0 to 2 dimensions, of equal shape or not, often equal entry for entry."""
    dtype = draw(st.sampled_from([np.int64, np.bool_]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4))
    a = draw(hnp.arrays(dtype, shape, elements=st.integers(-1, 1) if dtype is np.int64 else None))
    choice = draw(st.sampled_from(["same", "changed", "reshaped", "other"]))
    if choice == "same":
        return a, a.copy()
    if choice == "changed" and a.size:
        b = a.copy()
        b.flat[draw(st.integers(0, a.size - 1))] ^= 1
        return a, b
    if choice == "reshaped" and a.ndim == 2:  # same entries, transposed shape
        return a, a.reshape(a.shape[::-1])
    other = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4))
    return a, draw(hnp.arrays(dtype, other,
                              elements=st.integers(-1, 1) if dtype is np.int64 else None))


@SETTINGS
@given(array_pairs())
def test_equal_is_array_equal(pair):
    a, b = pair
    assert _equal(a, b) == np.array_equal(a, b)
    assert _equal(b, a) == np.array_equal(b, a)


def _min_max_rule(image: np.ndarray, rows: int) -> bool:
    """The rule ``_check_image`` applied before: some entry outside [-1, rows)."""
    return bool(image.size and not -1 <= image.min() <= image.max() < rows)


@SETTINGS
@given(st.integers(0, 6).flatmap(lambda rows: st.tuples(
    st.just(rows),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
               elements=st.integers(-3, rows + 2)))))
def test_check_image_is_the_min_max_rule(case):
    rows, image = case
    if _min_max_rule(image, rows):
        with pytest.raises(InvalidInput, match=r"outside \[-1, rows\)"):
            _check_image(image, rows)
    else:
        _check_image(image, rows)


@st.composite
def label_arrays(draw):
    """A label array of ``blocks`` diagonal blocks of side ``fiber``: the leading block
    tiled on the diagonal and -1 elsewhere, then with up to two entries changed, in C
    or Fortran order (``_exact_commutant`` returns the latter)."""
    blocks, fiber = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    lead = draw(hnp.arrays(np.int64, (fiber, fiber), elements=st.integers(-1, 4)))
    labels = np.kron(np.eye(blocks, dtype=np.int64), lead + 1) - 1
    n = blocks * fiber
    for _ in range(draw(st.integers(0, 2))):
        labels[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.integers(-1, 4))
    if draw(st.booleans()):
        labels = np.asfortranarray(labels)
    labels.flags.writeable = False
    return labels, blocks


@SETTINGS
@given(label_arrays())
def test_fiber_form_verdict_is_the_kron_formula(case):
    labels, blocks = case
    result = _fiber_form(labels, blocks)
    assert result.structure_verdict == fiber_form_verdict(labels, blocks)
    assert result.max_structure_residual == (0.0 if result.structure_verdict == "fiber_scalar"
                                             else 1.0)
    assert result.labels is labels


@SETTINGS
@given(st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(1, 3),
    st.one_of(st.integers(0, m - 1),
              st.lists(st.integers(0, m - 1), max_size=m).map(
                  lambda js: np.array(js, dtype=np.int64))))))
def test_cut_shift_images_are_the_stack_formula(case):
    """A shift or an array of shifts, the empty array included."""
    m, r, j = case
    want = _forward_image(m * r, np.stack([np.asarray(j) * r, (np.asarray(j) - m) * r],
                                          axis=-1).ravel())
    got = _cut_shift_images(m, j, r)
    assert got.shape == want.shape and np.array_equal(got, want)
