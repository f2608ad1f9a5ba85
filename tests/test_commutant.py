"""Commutant solvers cross-checked against explicit structural solutions.

The exact solvers ``commutant_of_partial_isometries`` and
``doubly_commutant_of_mz`` are held to the SVD oracle (the ``nullspace``
of ``tests/test_numlin.py``) on the catalog sizes and on random partial
permutations, and to a plain union-find over the same equations.  The
component finder ``numlin._components`` is held to that union-find on
random blocks of equations, on either of its two paths and switching
between them, and its hook-and-shortcut rounds on a shuffled path of
10^4 nodes are bounded by 2 ceil(log2 n).  The memory tests bound
``doubly_commutant_of_mz(20, 8)`` and
``commutant_of_partial_isometries(24, 6)`` below 8 MiB each, and the
``other`` verdict is checked on labels not of the form I (x) omega.  The
normality-route ``fuglede_instance_check`` is checked on its pass, its
fail off the fiber form and its skipped samples.
"""

import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import from_image, indicators, projector, residual_norm
from isoflow import commutant
from isoflow.commutant import (_exact_commutant, _fiber_form, commutant_of_partial_isometries,
                               doubly_commutant_of_mz, fuglede_instance_check)
from isoflow.errors import InvalidInput, PreconditionFailed, WindowTooSmall
from isoflow.numlin import _components
from isoflow.semigroups import (SemigroupFamily, WindowedMap, _cut_shift_images,
                                circulant_family, halfline_shift_family, tensor_with_identity)
from test_numlin import nullspace
from test_window_masks import count_linalg_calls
from isoflow.spaces import CellGrid1D

RNG = np.random.default_rng(7)
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def fiber_candidate(m, r, c):
    """Explicit member of the expected commutant: the fiber operator c
    on every cell of the cell-major ordering."""
    return np.kron(np.eye(m, dtype=np.complex128), c)


def vec(mat):
    return mat.reshape(-1, order="F")


def in_span(candidate, basis):
    stack = np.column_stack([vec(b) for b in basis])
    coeff, *_ = np.linalg.lstsq(stack, vec(candidate), rcond=None)
    return np.linalg.norm(stack @ coeff - vec(candidate)) < 1e-9


def degree_shift(d, r):
    """Dense truncated M_z on degrees 0..d with fiber r: block b -> block b + 1."""
    mz = np.zeros(((d + 1) * r, (d + 1) * r), dtype=np.complex128)
    for blk in range(d):
        for rho in range(r):
            mz[(blk + 1) * r + rho, blk * r + rho] = 1.0
    return mz


@contextmanager
def peak_memory():
    """Collects the tracemalloc peak of the block into the yielded list."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


# --- SVD oracle -----------------------------------------------------------------------

def _commutator_rows(m, columns=None):
    """Rows of vec(B) -> vec((B M - M B)[:, columns])."""
    n = m.shape[0]
    if columns is None:
        sel = np.eye(n, dtype=np.complex128)
    else:
        sel = np.zeros((n, len(columns)), dtype=np.complex128)
        for pos, col in enumerate(sorted(columns)):
            sel[col, pos] = 1.0
    eye = np.eye(n, dtype=np.complex128)
    return np.kron((m @ sel).T, eye) - np.kron(sel.T, m)


def oracle_commutant(dense_ops):
    """Null space of the stacked commutator system, by SVD."""
    return nullspace(np.vstack([_commutator_rows(m, cols) for m, cols in dense_ops]))


def span_projector(basis):
    """Orthogonal projector onto the span of disjoint-support 0/1 indicators."""
    stack = np.column_stack([vec(b) for b in basis])
    stack = stack / np.linalg.norm(stack, axis=0)
    return stack @ stack.conj().T


def assert_matches_oracle(basis, dense_ops):
    """Same dimension and same span as the SVD null space."""
    oracle = oracle_commutant(dense_ops)
    assert len(basis) == oracle.shape[1]
    if basis:
        assert residual_norm(span_projector(basis), projector(oracle)) <= 1e-10


# --- interval cut-shift commutant -------------------------------------------------

def test_commutant_e_m2_r1_is_scalars():
    result = commutant_of_partial_isometries(2, 1)
    assert result.dim == 1
    assert result.structure_verdict == "fiber_scalar"
    b = indicators(result)[0]
    assert residual_norm(b, b[0, 0] * np.eye(2)) < 1e-12  # hand elimination gives B = aI


@pytest.mark.parametrize("m,r", [(2, 1), (4, 2), (3, 3), (12, 2)])
def test_commutant_e_dimension_and_structure(m, r):
    result = commutant_of_partial_isometries(m, r)
    assert result.dim == r * r
    assert result.structure_verdict == "fiber_scalar"
    assert result.max_structure_residual == 0.0


@pytest.mark.parametrize("m,r", [(2, 1), (4, 2), (3, 3), (5, 2)])
def test_commutant_e_matches_svd_oracle(m, r):
    dense = [(e, None) for j in range(1, m) for e in map(from_image, _cut_shift_images(m, j, r))]
    assert_matches_oracle(indicators(commutant_of_partial_isometries(m, r)), dense)


@pytest.mark.parametrize("m,r", [(2, 1), (4, 2), (3, 3)])
def test_commutant_e_cross_checked_constructively(m, r):
    """Dual route: every fiber unit operator commutes with all the cut
    shifts (sufficiency, by direct products), and lies in the solver's
    span; membership both ways pins the dimension at r^2."""
    result = commutant_of_partial_isometries(m, r)
    units = []
    for a in range(r):
        for b in range(r):
            c = np.zeros((r, r), dtype=np.complex128)
            c[a, b] = 1.0
            candidate = fiber_candidate(m, r, c)
            for j in range(1, m):
                e0, e1 = map(from_image, _cut_shift_images(m, j, r))
                assert residual_norm(candidate @ e0, e0 @ candidate) == 0.0
                assert residual_norm(candidate @ e1, e1 @ candidate) == 0.0
            assert in_span(candidate, indicators(result))
            units.append(candidate)
    rank = np.linalg.matrix_rank(np.column_stack([vec(u) for u in units]))
    assert rank == r * r == result.dim


def test_commutant_bases_satisfy_constraints():
    """Each returned basis element obeys every imposed constraint exactly."""
    m, r = 4, 2
    result = commutant_of_partial_isometries(m, r)
    for b in indicators(result):
        for j in range(1, m):
            e0, e1 = map(from_image, _cut_shift_images(m, j, r))
            assert residual_norm(b @ e0, e0 @ b) == 0.0
            assert residual_norm(b @ e1, e1 @ b) == 0.0


def test_commutant_e_needs_constraints():
    with pytest.raises(InvalidInput):
        commutant_of_partial_isometries(1, 2)


# --- truncated degree-shift double commutant ------------------------------------------


def test_mz_commutant_d1_r1_is_scalars():
    result = doubly_commutant_of_mz(1, 1)
    assert result.dim == 1
    b = indicators(result)[0]
    assert residual_norm(b, b[0, 0] * np.eye(2)) < 1e-12


@pytest.mark.parametrize("d,r", [(1, 1), (3, 2)])
def test_mz_commutant_dimension_and_structure(d, r):
    result = doubly_commutant_of_mz(d, r)
    assert result.dim == r * r
    assert result.structure_verdict == "fiber_scalar"
    assert result.max_structure_residual == 0.0


@pytest.mark.parametrize("d,r", [(1, 1), (3, 2), (4, 3)])
def test_mz_commutant_matches_svd_oracle(d, r):
    n = (d + 1) * r
    mz = degree_shift(d, r)
    dense = [(mz, range(n - r)), (mz.conj().T, range(r, n))]
    assert_matches_oracle(indicators(doubly_commutant_of_mz(d, r)), dense)


def test_mz_membership_sufficiency():
    """I (x) omega satisfies both restricted constraint families exactly."""
    d, r = 3, 2
    omega = RNG.standard_normal((r, r)) + 1j * RNG.standard_normal((r, r))
    b = np.kron(np.eye(d + 1), omega)
    mz = degree_shift(d, r)
    forward = (b @ mz - mz @ b)[:, [blk * r + rho for blk in range(d) for rho in range(r)]]
    backward = (b @ mz.conj().T - mz.conj().T @ b)[
        :, [blk * r + rho for blk in range(1, d + 1) for rho in range(r)]]
    assert not forward.any() and not backward.any()
    result = doubly_commutant_of_mz(d, r)
    assert in_span(b, indicators(result))


def test_mz_invalid_degree():
    with pytest.raises(InvalidInput):
        doubly_commutant_of_mz(0, 1)


def test_mz_commutant_memory_stays_at_the_label_array():
    """d = 20, r = 8 (n = 168): the labels take 0.2 MiB and each block of
    equations 0.5 MiB; held as 64 dense complex indicators the basis alone
    took about 28 MiB."""
    with peak_memory() as peak:
        result = doubly_commutant_of_mz(20, 8)
    assert result.dim == 64 and result.structure_verdict == "fiber_scalar"
    assert peak[0] < 8 * 2**20


def test_commutant_e_memory_stays_at_the_blocks():
    """m = 24, r = 6 (n = 144, 46 ops): each op's equations are built only
    when their block is reached; all of them at once peaked at 55 MiB."""
    with peak_memory() as peak:
        result = commutant_of_partial_isometries(24, 6)
    assert result.dim == 36 and result.structure_verdict == "fiber_scalar"
    assert peak[0] < 8 * 2**20


def test_commutant_system_holds_only_the_images_and_their_preimages(monkeypatch):
    """m = 200, r = 1 (n = 200, 398 ops, every column constrained): when the
    first hook round starts the tracemalloc peak is 1.42 MB, about the (398, 200)
    ``int64`` images and their preimages, 0.64 MB each; no owner or column
    array as large as the system is built.

    Above the 1.29 MB live when it starts, ``_components`` (489 blocks of
    32,600 equations, 40,001 labels) peaks at 3.49 MB, about 13.4 arrays of
    one block side: the previous block's arrays, kept until the next block
    replaces them, while the next block is built.  The block generator keeps
    no gather across its yield."""
    system = 8 * 398 * 200  # bytes of one (ops, n) int64 array
    block_side = 8 * 32600  # bytes of one side of a block of equations
    at_first_round, transient = [], []

    def components(blocks, size):
        live, peak = tracemalloc.get_traced_memory()
        at_first_round.append(peak)
        tracemalloc.reset_peak()
        result = _components(blocks, size)
        transient.append(tracemalloc.get_traced_memory()[1] - live)
        return result

    monkeypatch.setattr(commutant, "_components", components)
    with peak_memory():
        result = commutant_of_partial_isometries(200, 1)
    assert result.dim == 1 and result.structure_verdict == "fiber_scalar"
    assert at_first_round[0] < 3 * system
    assert transient[0] < 14 * block_side


def test_oversized_commutant_is_refused_before_allocating():
    """d = 5000, r = 8 is n = 40008: its labels alone would need 12.8 GB."""
    with peak_memory() as peak:
        with pytest.raises(InvalidInput, match=r"n = 40008 needs 12,805,120,520 bytes"):
            doubly_commutant_of_mz(5000, 8)
    assert peak[0] < 2**20


# --- structure verdict -------------------------------------------------------------------

def test_fiber_form_other_verdict():
    """One class living only on cell 0 of two is not of the form I (x) omega:
    its indicator minus I (x) its leading block is diag(0, -1)."""
    labels = np.array([[0, -1], [-1, -1]])
    result = _fiber_form(labels, 2)
    assert (result.structure_verdict, result.max_structure_residual) == ("other", 1.0)
    assert result.dim == 1
    (b,) = indicators(result)
    assert residual_norm(b, np.kron(np.eye(2), b[:1, :1])) == 1.0
    diagonal = _fiber_form(np.array([[0, -1], [-1, 0]]), 2)
    assert (diagonal.structure_verdict, diagonal.max_structure_residual) == ("fiber_scalar", 0.0)


# --- exact solver on arbitrary partial permutations --------------------------------------

def exact_commutant(ops, n):
    """``_exact_commutant`` on a list of (image, constrained columns) pairs on C^n.

    Each op goes in once per run of consecutive constrained columns, that
    run being its range, so any column set is reached."""
    runs = []
    for image, columns in ops:
        cols = sorted(columns)
        starts = [k for k in range(len(cols)) if k == 0 or cols[k] != cols[k - 1] + 1]
        for first, stop in zip(starts, starts[1:] + [len(cols)]):
            runs.append((image, cols[first], cols[stop - 1] + 1))
    images = np.array([image for image, _, _ in runs], dtype=np.int64).reshape(len(runs), n)
    return _exact_commutant(images, [lo for _, lo, _ in runs], [hi for _, _, hi in runs])


@st.composite
def partial_permutation_ops(draw):
    """A space size n <= 6 and 1-3 ops (image array, constrained columns)."""
    n = draw(st.integers(1, 6))
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(n)))
        killed = draw(st.sets(st.integers(0, n - 1), max_size=n))
        image = np.array([-1 if j in killed else perm[j] for j in range(n)], dtype=np.int64)
        ops.append((image, sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))))
    return n, ops


def dense_of(image):
    mat = np.zeros((len(image), len(image)), dtype=np.complex128)
    for col, row in enumerate(image):
        if row >= 0:
            mat[row, col] = 1.0
    return mat


@SETTINGS
@given(partial_permutation_ops())
def test_exact_commutant_matches_svd_oracle_on_partial_permutations(case):
    n, ops = case
    dense = [(dense_of(image), cols) for image, cols in ops]
    for (image, _), (mat, _) in zip(ops, dense):
        assert np.array_equal(from_image(image), mat)
    labels = exact_commutant(ops, n)
    assert labels.shape == (n, n) and labels.dtype == np.int64 and not labels.flags.writeable
    dim = int(labels.max(initial=-1)) + 1
    assert set(range(dim)) <= set(labels.ravel().tolist()) <= set(range(-1, dim))
    basis = [(labels == k).astype(np.complex128) for k in range(dim)]
    for b in basis:
        for mat, cols in dense:
            assert residual_norm((b @ mat)[:, cols], (mat @ b)[:, cols]) == 0.0
    firsts = [np.flatnonzero(vec(b))[0] for b in basis]
    assert firsts == sorted(firsts)
    support = sum(basis, np.zeros((n, n)))
    assert set(support.ravel().tolist()) <= {0, 1}  # 0/1 indicators, disjoint supports
    assert_matches_oracle(basis, dense)


# --- union-find oracle -------------------------------------------------------------------

def union_find_labels(blocks, size):
    """Each index labelled with the smallest index of its class, by a
    plain-Python union-find over the equations of ``blocks`` one at a time."""
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for lhs, rhs in blocks:
        for a, b in zip(lhs.tolist(), rhs.tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)  # every root is its class minimum
    return np.array([find(a) for a in range(size)], dtype=np.int64)


def union_find_commutant(ops, n):
    """Entry classes by ``union_find_labels`` over every equation of the ops.

    Same contract as ``_exact_commutant`` on valid ops: vec index i + k*n
    for entry (i, k), n*n the zero sentinel, classes numbered by smallest
    vec index, -1 where an entry is forced to zero.
    """
    zero = n * n
    rows = np.arange(n)
    blocks = []
    for image, columns in ops:
        image = np.asarray(image)
        cols = np.asarray(sorted(columns), dtype=np.int64)
        preimage = np.full(n, -1, dtype=np.int64)
        preimage[image[image >= 0]] = np.flatnonzero(image >= 0)
        target = image[cols]
        # B[i, pi(j)] = B[pi^-1(i), j] for every row i and constrained column j
        lhs = np.where(target >= 0, rows[:, None] + target * n, zero)
        rhs = np.where(preimage[:, None] >= 0, preimage[:, None] + cols * n, zero)
        blocks.append((lhs.ravel(), rhs.ravel()))
    found = union_find_labels(blocks, zero + 1)
    roots = found[:zero]
    free = roots != found[zero]
    labels = np.full(zero, -1, dtype=np.int64)
    labels[free] = np.unique(roots[free], return_inverse=True)[1]
    return labels.reshape((n, n), order="F")


def random_system(rng):
    """A space size n < 12 and 1-3 random partial permutations, each with
    random constrained columns."""
    n = int(rng.integers(1, 12))
    ops = []
    for _ in range(int(rng.integers(1, 4))):
        image = rng.permutation(n)
        image[rng.random(n) < rng.random()] = -1
        ops.append((image, sorted(set(rng.integers(0, n, size=rng.integers(0, n + 1)).tolist()))))
    return n, ops


EDGE_SYSTEMS = [
    (3, []),  # no op: every entry is free
    (1, [(np.array([0]), [0])]),
    (1, [(np.array([-1]), [0])]),
    (5, [(np.full(5, -1), range(5)), (np.full(5, -1), [0, 2])]),  # all-zero images
]


def test_exact_commutant_matches_union_find_oracle():
    rng = np.random.default_rng(16)
    systems = EDGE_SYSTEMS + [random_system(rng) for _ in range(400)]
    for n, ops in systems:
        assert np.array_equal(exact_commutant(ops, n), union_find_commutant(ops, n))


@pytest.mark.parametrize("solve,args", [(commutant_of_partial_isometries, (7, 2)),
                                        (commutant_of_partial_isometries, (24, 6)),
                                        (doubly_commutant_of_mz, (6, 4)),
                                        (doubly_commutant_of_mz, (60, 8))])
def test_catalog_commutants_match_union_find_oracle(monkeypatch, solve, args):
    """The system each solver builds, solved again by the oracle.

    ``_exact_commutant`` does not check its ops, so every operator image the
    solvers hand it must also be one that ``WindowedMap.from_image`` accepts:
    an integer image in [-1, n) with no two columns on one row."""
    systems = []

    def recording(images, lo, hi):
        systems.append(([(image, range(a, b)) for image, a, b in zip(images, lo, hi)],
                        images.shape[1]))
        return _exact_commutant(images, lo, hi)

    monkeypatch.setattr(commutant, "_exact_commutant", recording)
    labels = solve(*args).labels
    ((ops, n),) = systems
    for image, columns in ops:
        WindowedMap.from_image(image, np.ones(n, dtype=bool), np.ones(n, dtype=bool))
        assert set(columns) <= set(range(n))
    assert np.array_equal(labels, union_find_commutant(ops, n))


@st.composite
def blocked_equations(draw):
    """2-30 indices and 1-5 blocks of equations x_a = x_b, each block 0 to
    3 x size equations among a run of indices, about one in five of the
    form x = x; hypothesis draws the shapes and a seed for the entries.  A
    block among indices that earlier blocks left apart can join more
    classes than there are labels."""
    size = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        lo = draw(st.integers(0, size - 1))
        hi = draw(st.integers(lo + 1, size))
        count = draw(st.integers(0, 3 * size))
        lhs, rhs = rng.integers(lo, hi, count), rng.integers(lo, hi, count)
        same = rng.random(count) < 0.2
        rhs[same] = lhs[same]
        blocks.append((lhs, rhs))
    return blocks, size


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(blocked_equations())
def test_components_match_a_union_find_on_blocks_of_either_path(case):
    """A block shortcuts the whole label array when at least as many of its
    equations join two classes as there are labels, and its equations' ends
    otherwise; random blocks take either path, and switch between them."""
    blocks, size = case
    labels, _ = _components(blocks, size)
    assert np.array_equal(labels, union_find_labels(blocks, size))
    for index in range(size):  # every label is the smallest index of its class
        assert labels[index] == min(np.flatnonzero(labels == labels[index]))


def test_components_switch_paths_between_blocks():
    """On 12 labels: 15 joining equations take the label-array path, then 2
    the ends path, then 12 the label-array path again, which leaves 1..11 in
    the class of 1.  The last block joins 6, no root, to 0, and holds x = x:
    its roots must be read through the labels, or 6 alone would move."""
    among = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    third = [(10, 11), (11, 1), (7, 10), (9, 11), (8, 1), (10, 1),
             (7, 9), (8, 10), (11, 7), (2, 9), (3, 11), (4, 7)]
    blocks = [tuple(np.array(side, dtype=np.int64) for side in zip(*pairs))
              for pairs in (among, [(7, 8), (9, 10)], third, [(6, 0), (3, 3)])]
    labels, _ = _components(blocks, 12)
    joining = []  # equations of each block whose ends the blocks before it left apart
    for k, (lhs, rhs) in enumerate(blocks):
        before = union_find_labels(blocks[:k], 12)
        joining.append(int(np.count_nonzero(before[lhs] != before[rhs])))
    assert joining == [15, 2, 12, 1]
    assert np.array_equal(labels, union_find_labels(blocks, 12)) and not labels.any()


def test_components_rounds_are_logarithmic_on_a_shuffled_path():
    """Min-hooking alone has no O(log n) round bound in general; on a path
    numbered at random it needs few rounds, and this pins that."""
    n = 10**4
    order = np.random.default_rng(5).permutation(n)
    labels, rounds = _components([(order[:-1], order[1:])], n)
    assert not labels.any()
    assert rounds <= 2 * math.ceil(math.log2(n))


# --- normality route -------------------------------------------------------------------

def shift_tensor_family(cells_T, fiber):
    gen = halfline_shift_family(CellGrid1D(1, cells_T)).generator
    return SemigroupFamily(tensor_with_identity(gen, fiber, "right"))


def fiber_rotation(cells_T, fiber):
    """I (x) C: the cyclic rotation of the fiber on every cell."""
    return SemigroupFamily(
        tensor_with_identity(circulant_family(fiber).generator, cells_T, "left"))


def test_fuglede_fiber_rotation_passes():
    entries = fuglede_instance_check(fiber_rotation(4, 3), shift_tensor_family(4, 3), 3, 1, [1, 2])
    assert all(e.passed for e in entries)
    assert all(e.residual == 0.0 for e in entries)


def test_fuglede_reads_no_dense_matrix(monkeypatch):
    """Normality, both commutators and the fiber form are read off the images:
    the check takes no dense numerics, where products of matrices read 12."""
    reads = count_linalg_calls(monkeypatch)
    entries = fuglede_instance_check(fiber_rotation(4, 3), shift_tensor_family(4, 3), 3, 1, [1, 2])
    assert all(e.passed for e in entries) and len(entries) == 6
    assert reads == []


def test_fuglede_fiber_form_fails_off_the_form():
    """The cyclic shift of the cells, tensor I, is a permutation that commutes
    with the shift on their common window but is not of the form I (x) B: its
    fiber form fails with a positive residual (and it does not doubly commute)."""
    cells = SemigroupFamily(tensor_with_identity(circulant_family(4).generator, 3, "right"))
    by_id = {e.check_id: e for e in fuglede_instance_check(cells, shift_tensor_family(4, 3), 3, 1, [1])}
    assert by_id["t=1:commutator"].residual == 0.0
    assert by_id["t=1:fiber_form"].residual > 0.0 and not by_id["t=1:fiber_form"].passed
    assert not by_id["t=1:adjoint_commutator"].passed


def test_fuglede_identity_family_trivial():
    shift = shift_tensor_family(4, 2)
    ident = SemigroupFamily(WindowedMap.identity(8))
    assert all(e.passed for e in fuglede_instance_check(ident, shift, 2, 1, [1]))


def test_fuglede_skips_a_sample_with_no_common_faithful_column():
    """At t=4 no column of the shift on 4 cells is faithful, so no commutator
    can be compared there: the sample is marked skipped, not passed as checked,
    and a request with only that sample raises WindowTooSmall."""
    shift = shift_tensor_family(4, 2)
    ident = SemigroupFamily(WindowedMap.identity(8))
    entries = fuglede_instance_check(ident, shift, 2, 1, [1, 4])
    at_4 = [e for e in entries if e.check_id.startswith("t=4:")]
    assert [(e.check_id, e.dims, e.note) for e in at_4] == [
        ("t=4:commutator", (0,), "empty window, skipped")]
    assert all(e.passed for e in entries) and any(e.check_id == "t=1:fiber_form" for e in entries)
    with pytest.raises(WindowTooSmall):
        fuglede_instance_check(ident, shift, 2, 1, [4])


def test_fuglede_rejects_nonnormal():
    """The truncated half-line shift kills its top cell and misses its bottom one:
    its live rows and live columns differ, so it is not normal."""
    shift = shift_tensor_family(4, 1)
    with pytest.raises(PreconditionFailed, match="not normal"):
        fuglede_instance_check(shift, shift, 1, 1, [1])
