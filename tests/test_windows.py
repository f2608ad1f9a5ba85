"""Property tests for the support rule that shrinks exactness windows.

The rule is restated here column by column, straight from its definition,
and the vectorized implementations in ``WindowedMap.compose`` and in
``_compress`` are compared against it, as is the support rule of the dense
oracle's ``DenseMap.compose`` on general matrices.  On 0/1 partial
permutations ``compose`` is associative, windows included.

Every image operation (gather ``compose``, inverse-image ``adjoint``,
``_compress``, ``direct_sum``, ``tensor_with_identity``, ``_pair_residual``,
the first mask step of ``wold_cooper``) is checked against the dense
oracle's formula on the same matrix.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from dense_oracle import DenseMap, basis, from_image, matrix
from isoflow.decompose import wold_cooper
from isoflow.numlin import Subspace
from isoflow.semigroups import (SemigroupFamily, WindowedMap, _compress, _image_residual,
                                _pair_residual, direct_sum, tensor_with_identity)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

ENTRIES = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 1j, 0.5 - 2j])


def dense_matrix(x) -> np.ndarray:
    """The matrix of a ``DenseMap``, or the oracle's matrix of a ``WindowedMap``."""
    return x.matrix if isinstance(x, DenseMap) else matrix(x)


def reference_faithful(a, b) -> frozenset:
    """faithful(A o B) = { i in faithful(B) : supp(B e_i) subset faithful(A) }."""
    return frozenset(i for i in b.faithful
                     if set(np.flatnonzero(dense_matrix(b)[:, i]).tolist()) <= a.faithful)


def reference_adj_faithful(a, b) -> frozenset:
    """adj_faithful(A o B) = { i in adj_faithful(A) : supp(e_i* A) subset adj_faithful(B) }."""
    return frozenset(i for i in a.adj_faithful
                     if set(np.flatnonzero(dense_matrix(a)[i, :]).tolist()) <= b.adj_faithful)


@st.composite
def windows(draw, rows: int, cols: int):
    faithful = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    adj_faithful = draw(st.sets(st.integers(0, rows - 1), max_size=rows))
    return frozenset(faithful), frozenset(adj_faithful)


@st.composite
def image_maps(draw, rows: int, cols: int):
    """An image-backed 0/1 partial permutation with random windows; no two
    columns share a row, as ``from_image`` demands."""
    targets = draw(st.permutations(range(max(rows, cols))))[:cols]
    kept = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    image = np.array([t if k and t < rows else -1 for t, k in zip(targets, kept)], dtype=np.int64)
    return WindowedMap.from_image(image, *draw(windows(rows, cols)), rows=rows)


@st.composite
def dense_maps(draw, rows: int, cols: int):
    values = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    matrix = np.array(values, dtype=np.complex128).reshape(rows, cols)
    return DenseMap(matrix, *draw(windows(rows, cols)))


@st.composite
def composable(draw, maps):
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    return draw(maps(rows, inner)), draw(maps(inner, cols))


@SETTINGS
@given(composable(image_maps))
def test_compose_windows_match_reference_on_partial_permutations(pair):
    a, b = pair
    got = a.compose(b)
    assert got.faithful == reference_faithful(a, b)
    assert got.adj_faithful == reference_adj_faithful(a, b)


@SETTINGS
@given(composable(dense_maps))
def test_compose_windows_match_reference_on_dense_matrices(pair):
    """The dense oracle's support rule, which the image tests below compare
    against, is the definition on general matrices."""
    a, b = pair
    got = a.compose(b)
    assert got.faithful == reference_faithful(a, b)
    assert got.adj_faithful == reference_adj_faithful(a, b)


@st.composite
def composable_triples(draw):
    rows, inner, outer, cols = (draw(st.integers(1, 6)) for _ in range(4))
    return (draw(image_maps(rows, inner)), draw(image_maps(inner, outer)),
            draw(image_maps(outer, cols)))


@SETTINGS
@given(composable_triples())
def test_compose_is_associative_on_partial_permutations(triple):
    a, b, c = triple
    left = a.compose(b).compose(c)
    right = a.compose(b.compose(c))
    assert np.array_equal(matrix(left), matrix(right))
    assert left.faithful == right.faithful
    assert left.adj_faithful == right.adj_faithful


@SETTINGS
@given(composable(image_maps))
def test_adjoint_swaps_windows(pair):
    a, b = pair
    adj = a.adjoint()
    assert adj.faithful == a.adj_faithful and adj.adj_faithful == a.faithful
    assert np.array_equal(matrix(adj), matrix(a).conj().T)
    # (A o B)* and B* o A* carry the same windows
    left = a.compose(b).adjoint()
    right = b.adjoint().compose(a.adjoint())
    assert left.faithful == right.faithful and left.adj_faithful == right.adj_faithful


@st.composite
def compressions(draw):
    n = draw(st.integers(1, 7))
    u = draw(image_maps(n, n))
    cells = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    return u, cells


@SETTINGS
@given(compressions())
def test_compress_coordinate_windows(case):
    """A compressed column is trusted when the ambient column is trusted and
    its support stays inside the cells; the adjoint window keeps exactly the
    cells where the ambient adjoint is trusted."""
    u, cells = case
    got = _compress(u, Subspace(u.domain_dim, cells))
    assert np.array_equal(matrix(got), matrix(u)[np.ix_(cells, cells)])
    assert got.faithful == frozenset(
        pos for pos, c in enumerate(cells)
        if c in u.faithful and set(np.flatnonzero(matrix(u)[:, c]).tolist()) <= set(cells))
    assert got.adj_faithful == frozenset(
        pos for pos, c in enumerate(cells) if c in u.adj_faithful)


# --- image maps against the dense oracle -------------------------------------------

def assert_same(got: WindowedMap, want: DenseMap):
    assert got.shape == want.shape
    assert matrix(got).dtype == want.matrix.dtype
    assert np.array_equal(matrix(got), want.matrix)
    assert got.faithful == want.faithful and got.adj_faithful == want.adj_faithful


def assert_image_is_matrix(x: WindowedMap):
    """The image, materialized by from_image, is the matrix bit for bit."""
    assert from_image(x.image, x.codomain_dim).tobytes() == matrix(x).tobytes()


@st.composite
def image_composable(draw):
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    return draw(image_maps(rows, inner)), draw(image_maps(inner, cols))


@SETTINGS
@given(image_composable())
def test_image_compose_matches_dense_path(pair):
    a, b = pair
    got = a.compose(b)
    assert matrix(got).tobytes() == (matrix(a) @ matrix(b)).tobytes()
    assert_same(got, DenseMap.of(a).compose(DenseMap.of(b)))
    assert_image_is_matrix(got)


@SETTINGS
@given(st.data())
def test_image_adjoint_matches_dense_path(data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    x = data.draw(image_maps(rows, cols))
    got = x.adjoint()
    assert_same(got, DenseMap.of(x).adjoint())
    assert_image_is_matrix(got)
    assert np.array_equal(got.adjoint().image, x.image)


@SETTINGS
@given(st.data())
def test_image_direct_sum_and_tensor_match_dense_path(data):
    parts = [data.draw(image_maps(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))))
             for _ in range(data.draw(st.integers(1, 3)))]
    got = direct_sum(*parts)
    assert_same(got, dense.direct_sum(*map(DenseMap.of, parts)))
    fiber, side = data.draw(st.integers(1, 3)), data.draw(st.sampled_from(["left", "right"]))
    got = tensor_with_identity(parts[0], fiber, side)
    assert_same(got, dense.tensor_with_identity(DenseMap.of(parts[0]), fiber, side))
    assert_image_is_matrix(got)


@SETTINGS
@given(st.data())
def test_image_compress_matches_dense_path(data):
    n = data.draw(st.integers(1, 7))
    u = data.draw(image_maps(n, n))
    cells = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    got = _compress(u, Subspace(n, cells))
    assert_same(got, dense.compress(DenseMap.of(u), cells))


@SETTINGS
@given(st.data())
def test_pair_residual_matches_dense_formula(data):
    """The closed form on two injective images, against the dense SVD to 1e-12."""
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    x = data.draw(image_maps(rows, cols))
    y = data.draw(image_maps(rows, cols))
    got = _pair_residual(x, y)
    columns = sorted(x.faithful & y.faithful)
    if not columns:
        assert got is None
        return
    want = np.linalg.norm(matrix(x)[:, columns] - matrix(y)[:, columns], 2)
    assert got[1] == len(columns)
    assert abs(got[0] - dense.pair_residual(DenseMap.of(x), DenseMap.of(y))[0]) <= 1e-12
    assert abs(got[0] - want) <= 1e-12
    assert (got[0] == 0.0) == np.array_equal(x.image[columns], y.image[columns])


def test_pair_residual_of_a_mismatched_pair():
    """Two swapped columns leave residual 2, a zeroed column alone 1, and a column
    moved to a row that no column hits sqrt(2), each exactly."""
    x = WindowedMap.from_image([1, 0, -1], range(3), range(3))  # row 2 is hit by no column
    for image, want in (([0, 1, -1], 2.0), ([1, -1, -1], 1.0), ([1, 2, -1], np.sqrt(2.0))):
        y = WindowedMap.from_image(image, range(3), range(3))
        got, count = _pair_residual(x, y)
        assert count == 3 and got == want
        assert abs(got - np.linalg.norm(matrix(x) - matrix(y), 2)) <= 1e-12


def cycle(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Two images whose difference is a cycle on rows 0..k-1: column j goes to row j
    in one and to row j + 1 (mod k) in the other."""
    return np.arange(k), (np.arange(k) + 1) % k


def path(k: int, halves: int) -> tuple[np.ndarray, np.ndarray]:
    """Two images whose difference is a path on rows 0..k-1 with ``halves`` half-edge
    ends: k - 1 edges j-(j+1), then a column live in one image only at row k - 1,
    then one at row 0."""
    got, want = list(range(k - 1)), list(range(1, k))
    if halves >= 1:
        got.append(k - 1)
        want.append(-1)
    if halves == 2:
        got.append(-1)
        want.append(0)
    return np.array(got, dtype=np.int64), np.array(want, dtype=np.int64)


def dense_difference_norm(got: np.ndarray, want: np.ndarray) -> float:
    rows = max(got.max(), want.max()) + 1
    return dense.spectral_norm(dense.from_image(got, rows) - dense.from_image(want, rows))


def test_image_residual_of_cycles_and_paths_is_exact():
    """The closed form 2 cos(pi / 2N) on each family, and sqrt of the top eigenvalue
    bit for bit where that is an integer: N = 3/2, 2, 3 and an even cycle."""
    exact = {3: 1.0, 4: np.sqrt(2.0), 6: np.sqrt(3.0)}  # by 2N

    def want(twice_n: int) -> float:
        return exact.get(twice_n, 2 * np.cos(np.pi / twice_n))

    cases = [(cycle(k), 2.0 if k % 2 == 0 else want(2 * k)) for k in range(2, 10)]
    cases += [(path(k, halves), want(2 * k + halves))
              for k in range(1, 9) for halves in (0, 1, 2) if (k, halves) != (1, 0)]
    for (got, other), norm in cases:
        for image in (got, other):
            WindowedMap.from_image(image, (), (), rows=max(got.max(), other.max()) + 1)
        assert _image_residual(got, other) == norm
        assert _image_residual(other, got) == norm
        assert abs(norm - dense_difference_norm(got, other)) <= 1e-12
    assert _image_residual(*path(1, 1)) == 1.0  # N = 3/2
    assert _image_residual(*path(1, 2)) == np.sqrt(2.0) == _image_residual(*path(2, 0))  # N = 2
    assert _image_residual(*path(2, 2)) == np.sqrt(3.0) == _image_residual(*cycle(3))  # N = 3
    # components side by side: the largest N wins
    a, b = cycle(3)
    c, d = (np.where(image >= 0, image + 3, -1) for image in path(5, 2))  # on rows 3..7
    got, other = np.concatenate([a, c]), np.concatenate([b, d])
    assert _image_residual(got, other) == 2 * np.cos(np.pi / 12)
    assert abs(_image_residual(got, other) - dense_difference_norm(got, other)) <= 1e-12


@SETTINGS
@given(st.data())
def test_one_wold_step_matches_dense_formula(data):
    """After one step the unitary part is the span of the faithful columns,
    stabilized or not."""
    n = data.draw(st.integers(1, 7))
    x = data.draw(image_maps(n, n))
    got = wold_cooper(SemigroupFamily(x), 1).unitary_part
    cols = sorted(x.faithful)
    want = dense.orthonormal_basis(matrix(x)[:, cols])
    assert got.dim == want.shape[1]
    assert dense.residual_norm(dense.projector(basis(got)), dense.projector(want)) <= 1e-12
    live = x.image[cols][x.image[cols] >= 0]
    assert tuple(got.cells) == tuple(sorted(live.tolist()))  # the live rows, each once
