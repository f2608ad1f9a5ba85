"""Derived image-backed maps and powers by squaring.

``compose``, ``adjoint``, ``_compress`` and ``tensor_with_identity`` build
their image-backed results without the checks of the public constructors,
because a gather from a checked image stays in range, and so do its copies
on disjoint fibers.  The property test rebuilds every derived
map, and the results of ``direct_sum`` and ``tensor_with_identity``,
through ``WindowedMap.from_image``: it must accept them unchanged, and
each must hold a read-only ``int64`` image and read-only masks.
``compose`` is also checked against its earlier form, which appended a
-1 slot to the image and a True slot to the window before gathering.

``SemigroupFamily.element`` builds V^k from the squares V^(2^i); it must
agree with composing the generator k times, image and windows, for every
k up to n + 2, and keep only the squares and the step counts asked for,
so a ``modified_bishift m=8 T=16`` law check stays below 6 MiB.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import DenseMap, matrix
from isoflow.catalog import Scenario, check_scenario
from isoflow.numlin import Subspace
from isoflow.semigroups import (SemigroupFamily, WindowedMap, _compress, check_semigroup_law,
                                direct_sum, modified_bishift_families, tensor_with_identity)
from isoflow.spaces import LRegionIndex

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def image_maps(draw, n: int):
    """A validated image-backed map on C^n with random windows.

    The image is injective: a permutation of the n slots, with about a
    quarter of the columns zeroed on half the draws.
    """
    image = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    mostly = st.sampled_from([True, True, True, False])
    if draw(st.booleans()):
        image[~np.array(draw(st.lists(mostly, min_size=n, max_size=n)), dtype=bool)] = -1
    faithful = np.array(draw(st.lists(mostly, min_size=n, max_size=n)), dtype=bool)
    adj_faithful = np.array(draw(st.lists(mostly, min_size=n, max_size=n)), dtype=bool)
    return WindowedMap.from_image(image, faithful, adj_faithful)


def assert_rebuilds(x: WindowedMap) -> None:
    """x passes every check of from_image unchanged and holds read-only arrays."""
    assert x.image is not None and x.image.dtype == np.int64
    for array in (x.image, x.faithful_mask, x.adj_faithful_mask):
        assert not array.flags.writeable
    again = WindowedMap.from_image(x.image, x.faithful_mask, x.adj_faithful_mask)
    assert again.shape == x.shape
    assert np.array_equal(again.image, x.image)
    assert np.array_equal(again.faithful_mask, x.faithful_mask)
    assert np.array_equal(again.adj_faithful_mask, x.adj_faithful_mask)


def appended_compose(x: WindowedMap, y: WindowedMap):
    """Image and windows of x o y by the earlier gather through appended slots."""
    image = np.append(x.image, -1)[y.image]
    kept = y.faithful_mask & np.append(x.faithful_mask, True)[y.image]
    hit = np.zeros(x.codomain_dim + 1, dtype=bool)
    hit[x.image[~y.adj_faithful_mask]] = True
    return image, kept, x.adj_faithful_mask & ~hit[:-1]


@st.composite
def derived_cases(draw):
    q = draw(st.integers(0, 30))
    outer, inner = draw(image_maps(q)), draw(image_maps(q))
    n = draw(st.integers(1, 30))
    square = draw(image_maps(n))
    cells = np.flatnonzero(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
    fiber = draw(st.integers(1, 3))
    side = draw(st.sampled_from(["left", "right"]))
    return outer, inner, square, cells, fiber, side


@SETTINGS
@given(derived_cases())
def test_derived_maps_pass_the_public_checks(case):
    outer, inner, square, cells, fiber, side = case
    product = outer.compose(inner)
    assert_rebuilds(product)
    image, kept, adj_kept = appended_compose(outer, inner)
    assert product.shape == (outer.codomain_dim, inner.domain_dim)
    assert np.array_equal(product.image, image)
    assert np.array_equal(product.faithful_mask, kept)
    assert np.array_equal(product.adj_faithful_mask, adj_kept)
    for x in (outer, square):  # the adjoint is the inverse image
        adjoint = x.adjoint()
        assert_rebuilds(adjoint)
        assert adjoint.shape == (x.domain_dim, x.codomain_dim)
        assert np.array_equal(matrix(adjoint), matrix(x).T)
    assert_rebuilds(_compress(square, Subspace(square.domain_dim, cells=cells)))
    assert_rebuilds(direct_sum(outer, inner, square))
    assert_rebuilds(tensor_with_identity(outer, fiber, side))


@SETTINGS
@given(st.integers(1, 30).flatmap(image_maps))
def test_powers_by_squaring_match_repeated_compose(generator):
    n = generator.domain_dim
    family = SemigroupFamily(generator)
    assert family._powers == {}  # element(0) is built only when asked for
    want = WindowedMap.identity(n)
    for k in range(n + 3):
        got = family.element(k)
        assert got is family.element(k)
        assert np.array_equal(got.image, want.image)
        assert np.array_equal(got.faithful_mask, want.faithful_mask)
        assert np.array_equal(got.adj_faithful_mask, want.adj_faithful_mask)
        want = generator.compose(want)
    assert sorted(family._powers) == list(range(n + 3))
    assert len(family._squares) == (n + 2).bit_length()


def test_power_by_squaring_keeps_only_squares_and_requests():
    generator = WindowedMap.from_image(np.roll(np.arange(12), 1), range(12), range(12))
    family = SemigroupFamily(generator)
    power = family.element(11)  # 1011: V^8 V^2 V
    assert np.array_equal(power.image, np.roll(np.arange(12), 11))
    assert sorted(family._powers) == [11] and len(family._squares) == 4
    assert family.element(1) is generator and family.element(8) is family._squares[3]


def test_dense_powers_by_squaring_match_repeated_compose():
    """Powers by squaring against the dense oracle's matrix products and support
    rule, on a random permutation with one column outside the window."""
    rng = np.random.default_rng(17)
    generator = WindowedMap.from_image(rng.permutation(6), [0, 1, 2, 4, 5], range(6))
    family = SemigroupFamily(generator)
    step = DenseMap.of(generator)
    want = DenseMap.full(np.eye(6))
    for k in range(9):
        got = family.element(k)
        assert np.array_equal(matrix(got), want.matrix)
        assert np.array_equal(got.faithful_mask, want.faithful_mask)
        assert np.array_equal(got.adj_faithful_mask, want.adj_faithful_mask)
        want = step.compose(want)


def test_modified_bishift_law_keeps_only_the_squares():
    """m=8 T=16 on 49,152 cells at the default sample t = 1: element(8) and
    element(16) are squares, so the law check keeps five powers, where one
    power per step kept 16 and peaked at 9.1 MiB."""
    params = check_scenario(Scenario("s", "modified_bishift", {"m": 8, "T": 16}))
    pair = modified_bishift_families(LRegionIndex(8, 16))
    tracemalloc.start()
    try:
        entries = check_semigroup_law(pair.first, params["samples"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(e.passed for e in entries) and [e.residual for e in entries] == [0.0]
    assert peak < 6 * 2**20
