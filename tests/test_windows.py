"""Property tests for the support rule that shrinks exactness windows.

The rule is restated here column by column, straight from its definition,
and the vectorized implementations in ``WindowedMap.compose`` and in the
coordinate path of ``duality._compress`` are compared against it.  On 0/1
partial permutations ``compose`` is associative, windows included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow.duality import _compress
from isoflow.numlin import Subspace
from isoflow.semigroups import WindowedMap

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

ENTRIES = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 1j, 0.5 - 2j])


def reference_faithful(a: WindowedMap, b: WindowedMap) -> frozenset:
    """faithful(A o B) = { i in faithful(B) : supp(B e_i) subset faithful(A) }."""
    return frozenset(i for i in b.faithful
                     if set(np.flatnonzero(b.matrix[:, i]).tolist()) <= a.faithful)


def reference_adj_faithful(a: WindowedMap, b: WindowedMap) -> frozenset:
    """adj_faithful(A o B) = { i in adj_faithful(A) : supp(e_i* A) subset adj_faithful(B) }."""
    return frozenset(i for i in a.adj_faithful
                     if set(np.flatnonzero(a.matrix[i, :]).tolist()) <= b.adj_faithful)


@st.composite
def windows(draw, rows: int, cols: int):
    faithful = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    adj_faithful = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    return frozenset(faithful), frozenset(adj_faithful)


@st.composite
def partial_permutations(draw, rows: int, cols: int):
    """A 0/1 matrix with at most one 1 per row and per column, random windows."""
    targets = draw(st.permutations(range(max(rows, cols))))
    kept = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    matrix = np.zeros((rows, cols), dtype=np.complex128)
    for col in range(cols):
        if kept[col] and targets[col] < rows:
            matrix[targets[col], col] = 1.0
    return WindowedMap(matrix, *draw(windows(rows, cols)))


@st.composite
def dense_maps(draw, rows: int, cols: int):
    values = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    matrix = np.array(values, dtype=np.complex128).reshape(rows, cols)
    return WindowedMap(matrix, *draw(windows(rows, cols)))


@st.composite
def composable(draw, maps):
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    return draw(maps(rows, inner)), draw(maps(inner, cols))


@SETTINGS
@given(composable(partial_permutations))
def test_compose_windows_match_reference_on_partial_permutations(pair):
    a, b = pair
    got = a.compose(b)
    assert got.faithful == reference_faithful(a, b)
    assert got.adj_faithful == reference_adj_faithful(a, b)


@SETTINGS
@given(composable(dense_maps))
def test_compose_windows_match_reference_on_dense_matrices(pair):
    a, b = pair
    got = a.compose(b)
    assert got.faithful == reference_faithful(a, b)
    assert got.adj_faithful == reference_adj_faithful(a, b)


@st.composite
def composable_triples(draw):
    rows, inner, outer, cols = (draw(st.integers(1, 6)) for _ in range(4))
    return (draw(partial_permutations(rows, inner)), draw(partial_permutations(inner, outer)),
            draw(partial_permutations(outer, cols)))


@SETTINGS
@given(composable_triples())
def test_compose_is_associative_on_partial_permutations(triple):
    a, b, c = triple
    left = a.compose(b).compose(c)
    right = a.compose(b.compose(c))
    assert np.array_equal(left.matrix, right.matrix)
    assert left.faithful == right.faithful
    assert left.adj_faithful == right.adj_faithful


@SETTINGS
@given(composable(dense_maps))
def test_adjoint_swaps_windows(pair):
    a, b = pair
    adj = a.adjoint()
    assert adj.faithful == a.adj_faithful and adj.adj_faithful == a.faithful
    assert np.array_equal(adj.matrix, a.matrix.conj().T)
    # (A o B)* and B* o A* carry the same windows
    left = a.compose(b).adjoint()
    right = b.adjoint().compose(a.adjoint())
    assert left.faithful == right.faithful and left.adj_faithful == right.adj_faithful


@st.composite
def compressions(draw):
    n = draw(st.integers(1, 7))
    u = draw(st.one_of(partial_permutations(n, n), dense_maps(n, n)))
    cells = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    return u, cells


@SETTINGS
@given(compressions())
def test_compress_coordinate_windows(case):
    """A compressed column is trusted when the ambient column is trusted and
    its support stays inside the cells; the adjoint window keeps exactly the
    cells where the ambient adjoint is trusted."""
    u, cells = case
    got = _compress(u, Subspace.from_cells(u.domain_dim, cells))
    assert np.array_equal(got.matrix, u.matrix[np.ix_(cells, cells)])
    assert got.faithful == frozenset(
        pos for pos, c in enumerate(cells)
        if c in u.faithful and set(np.flatnonzero(u.matrix[:, c]).tolist()) <= set(cells))
    assert got.adj_faithful == frozenset(
        pos for pos, c in enumerate(cells) if c in u.adj_faithful)
